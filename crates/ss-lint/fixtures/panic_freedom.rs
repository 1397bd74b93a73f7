//! Seeded violations for the `panic-freedom` rule. Never compiled; the
//! self-test mounts this file at a hot-path location. The fn carries a
//! hot entry-point name so the reachability closure marks it hot, and the
//! self-test expects one diagnostic per construct below.

pub fn write_groups(values: &[u64]) -> u64 {
    let first = values.first().unwrap();
    let second = values.get(1).expect("second value");
    if *first > 64 {
        panic!("width out of range");
    }
    first + second + values[2]
}
