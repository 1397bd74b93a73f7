//! Reachability fixture, entry side: a hot entry point that calls a
//! helper living in a module no hand-maintained hot-path list ever named
//! (`fixtures/reachability_helper.rs`, mounted under `ss-models`). The
//! self-test asserts the `panic-freedom` diagnostic lands in the helper's
//! file — the closure, not a list, decides what is hot. Never compiled.

pub fn write_groups(values: &[u64]) -> u64 {
    helper_pack(values)
}
