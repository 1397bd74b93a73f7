//! Seeded violations for the `alloc-in-hot-loop` rule: per-iteration
//! allocations inside a loop of a hot-reachable fn. The hoisted scratch
//! buffer above the loop is the sanctioned pattern and must stay quiet.
//! Never compiled.

pub fn read_groups(n: usize) -> usize {
    let mut scratch = Vec::with_capacity(64);
    let mut total = 0;
    for chunk in 0..n {
        scratch.clear();
        let owned = Vec::with_capacity(chunk);
        let name = chunk.to_string();
        total += owned.capacity() + name.len();
    }
    total
}
