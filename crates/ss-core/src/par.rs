//! Thread-count selection, group-aligned chunking and the workspace's
//! one parallel-map primitive.
//!
//! ShapeShifter groups (paper §3) are encoded independently of one another:
//! each group's `Z`/`P`/payload fields depend only on its own values. Any
//! split of a tensor on a group boundary can therefore be encoded by
//! independent workers and spliced back in order into the canonical stream
//! (see [`ss_bitio::BitWriter::append_writer`]); a batch's tensors are
//! independent in the same way. Both are order-free maps merged by index,
//! so one primitive, [`par_map_with`], runs them all: the codec's chunk
//! fan-outs, the `ss-pipeline` batch engine and the experiment harness.
//! By workspace rule (`ss-lint`'s `concurrency-containment`) this module
//! is the only place in `ss-core` and `ss-pipeline` that spawns threads.
//! The ordering argument that keeps parallel output bit-identical to the
//! sequential oracle is made once, here:
//!
//! * workers claim item indices from one atomic counter, so every index is
//!   claimed exactly once and each worker sees its indices in increasing
//!   order;
//! * each worker keeps its `(index, result)` pairs locally (no lock is
//!   taken), and the calling thread scatters them back by index once every
//!   worker has joined — results come back **in input order** whatever
//!   the worker count or the claim interleaving.
//!
//! The calling thread is always one of the workers, so a one-worker run
//! spawns nothing. Worker panics propagate to the caller (via the scope
//! and [`std::panic::resume_unwind`]); they are never swallowed.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads the codec should use.
///
/// Honors the `SS_THREADS` environment variable when it parses to a positive
/// integer, otherwise falls back to [`std::thread::available_parallelism`]
/// (1 if that is unavailable). The same variable steers the experiment
/// harness's `par_map`, so one knob controls both layers.
#[must_use]
pub fn thread_count() -> usize {
    // ss-lint: allow(determinism) -- SS_THREADS is the documented thread-count knob; chunking on group boundaries keeps the stream bit-identical at any count
    std::env::var("SS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            // ss-lint: allow(determinism) -- parallelism only affects wall-clock, never the encoded bytes
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Values per worker chunk: the smallest multiple of `group_size` that
/// spreads `len` values over at most `threads` chunks.
///
/// Cutting on group boundaries is what makes chunk encodings splice into a
/// stream bit-identical to the sequential one — a group never straddles two
/// workers.
#[must_use]
pub(crate) fn chunk_values(len: usize, group_size: usize, threads: usize) -> usize {
    debug_assert!(group_size >= 1);
    let total_groups = len.div_ceil(group_size).max(1);
    total_groups.div_ceil(threads.max(1)) * group_size
}

/// Maps `f` over `items` on `min(threads, items.len())` workers, each
/// owning one state built by `init`, and returns the results **in input
/// order**.
///
/// Workers claim indices from one atomic counter, so uneven item costs
/// balance themselves; `f` receives the worker's state, the item's index
/// and the item. The calling thread is one of the workers (a one-worker
/// run spawns no thread), and each worker's result buffer is sized once
/// for its even share of the items.
///
/// # Panics
///
/// Propagates a panic from any worker, the calling thread's included.
pub fn par_map_with<T, S, R, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len()).max(1);
    let share = items.len().div_ceil(workers);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut local = Vec::with_capacity(share);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            local.push((i, f(&mut state, i, item)));
        }
        local
    };
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let mut scatter = |local: Vec<(usize, R)>| {
        for (i, r) in local {
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(r);
            }
        }
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        scatter(work());
        for worker in spawned {
            match worker.join() {
                Ok(local) => scatter(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Every index in 0..len was claimed exactly once, so every slot is
    // filled once the workers have joined.
    let mut results = Vec::with_capacity(items.len());
    results.extend(slots.into_iter().flatten());
    results
}

/// Maps `f` over `items` on up to `threads` workers, each item with its
/// own disjoint span of `out`, and returns the results in input order.
///
/// Item `i`'s span is the next `span(&items[i])` elements of `out` after
/// the spans of the items before it (cut short where `out` runs out, so a
/// span is never longer than what is left). The split is static: worker
/// `w` takes the `w`-th run of `ceil(items / workers)` consecutive items
/// and the part of `out` their spans cover, carved off with
/// `split_at_mut` before any worker starts, so the workers share nothing
/// and take no lock. `f` receives the worker's state (built by `init`),
/// the item's index, the item and its span. The calling thread is one of
/// the workers (a one-worker run spawns no thread).
///
/// # Panics
///
/// Propagates a panic from any worker, the calling thread's included.
pub fn par_spans_mut<T, E, S, R, N, I, F>(
    out: &mut [T],
    items: &[E],
    span: N,
    threads: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Send,
    E: Sync,
    R: Send,
    N: Fn(&E) -> usize + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &E, &mut [T]) -> R + Sync,
{
    let workers = threads.min(items.len()).max(1);
    let share = items.len().div_ceil(workers).max(1);
    // Carve `out` into one region per worker, each the spans of its
    // items, before anything runs.
    let mut regions = Vec::with_capacity(workers);
    let mut rest = out;
    for (w, run) in items.chunks(share).enumerate() {
        let len = run.iter().map(&span).sum::<usize>().min(rest.len());
        let (region, tail) = rest.split_at_mut(len);
        regions.push((w * share, run, region));
        rest = tail;
    }
    let work = |(first, run, region): (usize, &[E], &mut [T])| {
        let mut state = init();
        let mut rest = region;
        let mut local = Vec::with_capacity(run.len());
        for (k, item) in run.iter().enumerate() {
            let (part, tail) = rest.split_at_mut(span(item).min(rest.len()));
            local.push(f(&mut state, first + k, item, part));
            rest = tail;
        }
        local
    };
    let mut regions = regions.into_iter();
    let own = regions.next();
    let mut results = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let spawned: Vec<_> = regions.map(|region| scope.spawn(|| work(region))).collect();
        if let Some(region) = own {
            results.extend(work(region));
        }
        for worker in spawned {
            match worker.join() {
                Ok(local) => results.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results
}

/// The stateless form of [`par_map_with`]: maps `f` over `items` on up to
/// `threads` workers, preserving input order. Used by the codec's chunk
/// fan-outs and, through `ss-bench`, by the experiment harness.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, threads, || (), |(), _, item| f(item))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_group_aligned_and_cover() {
        for len in [0usize, 1, 15, 16, 17, 255, 256, 4096, 4097] {
            for group in [1usize, 7, 16, 256] {
                for threads in [1usize, 2, 3, 8, 64] {
                    let chunk = chunk_values(len, group, threads);
                    assert_eq!(
                        chunk % group,
                        0,
                        "len {len} group {group} threads {threads}"
                    );
                    assert!(chunk > 0);
                    // At most `threads` chunks.
                    assert!(len.div_ceil(chunk) <= threads.max(1));
                }
            }
        }
    }

    #[test]
    fn par_map_preserves_order_across_thread_counts() {
        for len in [0u64, 1, 137] {
            let items: Vec<u64> = (0..len).collect();
            let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
            for threads in [1usize, 2, 7, 64] {
                assert_eq!(
                    par_map(&items, threads, |&x| x * x),
                    expect,
                    "{len} at {threads}"
                );
                let indexed = par_map_with(&items, threads, || (), |(), i, &x| (i as u64, x));
                assert!(indexed.iter().all(|&(i, x)| i == x), "{len} at {threads}");
            }
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..50).collect();
        let ids = par_map(&items, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        // More threads than items still cap the workers at the item count.
        let ids = par_map(&items[..1], 8, |_| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn each_worker_state_sees_strictly_increasing_indices() {
        let items: Vec<u32> = (0..500).collect();
        for threads in [1usize, 2, 7] {
            let ordered = par_map_with(
                &items,
                threads,
                || None::<usize>,
                |last, i, _| {
                    let increasing = !matches!(*last, Some(prev) if prev >= i);
                    *last = Some(i);
                    increasing
                },
            );
            assert!(ordered.iter().all(|&ok| ok), "threads {threads}");
        }
    }

    #[test]
    fn spans_are_disjoint_ordered_and_cover_the_output() {
        // Span lengths 0..=4 repeating, over 1, 2, 7 and more workers than
        // items: every element is written once, by the item whose span
        // holds it, and the results come back in input order.
        let items: Vec<usize> = (0..23).map(|i| i % 5).collect();
        let total: usize = items.iter().sum();
        for threads in [1usize, 2, 7, 64] {
            let mut out = vec![usize::MAX; total];
            let got = par_spans_mut(
                &mut out,
                &items,
                |&len| len,
                threads,
                || (),
                |(), i, &len, part| {
                    assert_eq!(part.len(), len);
                    part.fill(i);
                    i
                },
            );
            assert_eq!(got, (0..items.len()).collect::<Vec<_>>(), "{threads}");
            let want: Vec<usize> = items
                .iter()
                .enumerate()
                .flat_map(|(i, &len)| std::iter::repeat_n(i, len))
                .collect();
            assert_eq!(out, want, "threads {threads}");
        }
        // Spans past the end of the output are cut short, never panic.
        let mut out = [0u8; 3];
        let lens = par_spans_mut(
            &mut out,
            &[2usize, 2, 2],
            |&n| n,
            2,
            || (),
            |(), _, _, p| p.len(),
        );
        assert_eq!(lens, vec![2, 1, 0]);
        let none: Vec<usize> = par_spans_mut(
            &mut out,
            &[] as &[usize],
            |&n| n,
            4,
            || (),
            |(), _, _, p| p.len(),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn par_map_propagates_worker_panics() {
        for threads in [1usize, 4] {
            let items: Vec<u32> = (0..64).collect();
            let result = std::panic::catch_unwind(|| {
                par_map(&items, threads, |&x| {
                    assert!(x != 13, "boom");
                    x
                })
            });
            assert!(result.is_err(), "threads {threads}");
        }
    }

    #[test]
    fn env_override_wins() {
        // Serialized by cargo's per-process test env: this test only checks
        // the parse-and-filter logic via a scoped set/remove.
        std::env::set_var("SS_THREADS", "3");
        assert_eq!(thread_count(), 3);
        std::env::set_var("SS_THREADS", "0");
        let fallback = thread_count();
        assert!(fallback >= 1, "0 must fall back, got {fallback}");
        std::env::set_var("SS_THREADS", "not-a-number");
        assert!(thread_count() >= 1);
        std::env::remove_var("SS_THREADS");
        assert!(thread_count() >= 1);
    }
}
