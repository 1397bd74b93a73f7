//! Negative control: every would-be violation below carries a correct
//! allow-annotation, so the linter must report this file clean even when
//! mounted at a hot-path location. The fns carry hot entry-point names,
//! keeping the annotations load-bearing under the reachability closure.
//! Never compiled.

// ss-lint: allow-file(concurrency-containment) -- fixture demonstrating file-scoped allows

/// A process-wide counter behind a lock (file-allowed above).
pub struct Cache {
    inner: std::sync::Mutex<u64>,
}

pub fn scan_group(raw: u64) -> u8 {
    // ss-lint: allow(truncating-cast) -- masked to 6 bits on this line, u8 holds 8
    (raw & 0x3F) as u8
}

pub fn read_groups(values: &[u64]) -> u64 {
    // ss-lint: allow(panic-freedom) -- caller guarantees non-empty per the codec contract
    values[0]
}

pub fn write_groups(n: usize) -> usize {
    let mut total = 0;
    for group in 0..n {
        // ss-lint: allow(alloc-in-hot-loop) -- error-path label, built at most once per batch
        let label = group.to_string();
        total += label.len();
    }
    total
}
