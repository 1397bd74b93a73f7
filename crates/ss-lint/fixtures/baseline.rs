//! Baseline fixture: one `panic-freedom` finding in a hot fn, its
//! statement written on one line. The self-test accepts it into a
//! baseline, then lints `baseline_wrapped.rs` (this file as rustfmt
//! leaves it) and `baseline_second.rs` (a second finding in the same fn)
//! against that baseline. Never compiled.

pub fn read_groups(values: &[u64], scale: u64) -> u64 {
    let total = values.iter().map(|v| v.saturating_mul(scale)).fold(0u64, u64::saturating_add) + values.first().copied().unwrap();
    total
}
