//! Process-wide layer-statistics cache shared across schemes and figures.
//!
//! Every figure harness prices the same layers of the same zoo models —
//! under different schemes, accelerators, DRAM nodes and buffer sizes. The
//! per-figure [`Cached`](ss_sim::workload::Cached) wrapper already avoids
//! regenerating tensors *within* one figure; this module shares the
//! one-pass [`TensorStats`] *across* figures in the same process (a full
//! `all_experiments` run covers all twenty-six), so a layer's
//! statistics are computed exactly once per `(model, operand, layer,
//! seed)` no matter how many figures consume them.
//!
//! The cache key includes the tensor length so that the same-named model
//! at different `SS_SCALE` geometries (some extension figures sweep scale
//! in-process) can never alias.

// ss-lint: allow-file(concurrency-containment) -- init-once process-wide cache; the lock
// guards a HashMap insert/lookup only and is never held across tensor generation, so it
// cannot deadlock with the par_map workers that call into it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use ss_models::Layer;
use ss_sim::TensorSource;
use ss_tensor::{FixedType, Tensor, TensorStats};

/// Which operand of a layer a cache entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Operand {
    Weight,
    Input,
    Output,
}

type Key = (String, Operand, usize, u64, usize);

fn cache() -> &'static Mutex<HashMap<Key, Arc<TensorStats>>> {
    static CACHE: OnceLock<Mutex<HashMap<Key, Arc<TensorStats>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of distinct layer-statistics entries currently cached.
#[must_use]
pub fn cached_entries() -> usize {
    cache().lock().expect("stats cache poisoned").len()
}

/// A [`TensorSource`] wrapper that answers the statistics methods from the
/// process-wide cache. Tensor generation passes straight through to the
/// wrapped source (stack it on a [`Cached`](ss_sim::workload::Cached) to
/// also memoize tensors per figure).
pub struct SharedStats<'a> {
    inner: &'a dyn TensorSource,
}

impl std::fmt::Debug for SharedStats<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedStats")
            .field("model", &self.inner.name())
            .field("process_entries", &cached_entries())
            .finish()
    }
}

impl<'a> SharedStats<'a> {
    /// Wraps a tensor source.
    #[must_use]
    pub fn new(inner: &'a dyn TensorSource) -> Self {
        Self { inner }
    }

    fn lookup(
        &self,
        operand: Operand,
        layer: usize,
        seed: u64,
        len: usize,
        compute: impl FnOnce() -> Arc<TensorStats>,
    ) -> Arc<TensorStats> {
        let rec = ss_trace::installed();
        let key = (self.inner.name().to_string(), operand, layer, seed, len);
        // ss-lint: allow(panic-freedom) -- a poisoned lock means another thread panicked mid-insert; propagating is the only sound option for a shared cache
        if let Some(hit) = cache().lock().expect("stats cache poisoned").get(&key) {
            if let Some(rec) = rec {
                rec.add(ss_trace::Counter::StatsCacheHits, 1);
            }
            return hit.clone();
        }
        // Compute outside the lock: a concurrent miss on the same key does
        // redundant work at worst, but distinct layers never serialize.
        if let Some(rec) = rec {
            rec.add(ss_trace::Counter::StatsCacheMisses, 1);
        }
        let stats = compute();
        cache()
            .lock()
            // ss-lint: allow(panic-freedom) -- same poison-propagation argument as the lookup above
            .expect("stats cache poisoned")
            .entry(key)
            .or_insert(stats)
            .clone()
    }
}

impl TensorSource for SharedStats<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn layers(&self) -> &[Layer] {
        self.inner.layers()
    }

    fn weight_dtype(&self) -> FixedType {
        self.inner.weight_dtype()
    }

    fn act_dtype(&self) -> FixedType {
        self.inner.act_dtype()
    }

    fn weight_tensor(&self, layer: usize, model_seed: u64) -> Tensor {
        self.inner.weight_tensor(layer, model_seed)
    }

    fn input_tensor(&self, layer: usize, input_seed: u64) -> Tensor {
        self.inner.input_tensor(layer, input_seed)
    }

    fn output_tensor(&self, layer: usize, input_seed: u64) -> Tensor {
        self.inner.output_tensor(layer, input_seed)
    }

    fn profiled_act_width(&self, layer: usize) -> u8 {
        self.inner.profiled_act_width(layer)
    }

    fn profiled_wgt_width(&self, layer: usize) -> u8 {
        self.inner.profiled_wgt_width(layer)
    }

    fn weight_stats(&self, layer: usize, model_seed: u64) -> Arc<TensorStats> {
        let len = self.inner.layers()[layer].weight_count();
        self.lookup(Operand::Weight, layer, model_seed, len, || {
            self.inner.weight_stats(layer, model_seed)
        })
    }

    fn input_stats(&self, layer: usize, input_seed: u64) -> Arc<TensorStats> {
        let len = self.inner.layers()[layer].input_count();
        self.lookup(Operand::Input, layer, input_seed, len, || {
            self.inner.input_stats(layer, input_seed)
        })
    }

    fn output_stats(&self, layer: usize, input_seed: u64) -> Arc<TensorStats> {
        let len = self.inner.layers()[layer].output_count();
        self.lookup(Operand::Output, layer, input_seed, len, || {
            self.inner.output_stats(layer, input_seed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_stats_hit_across_independent_wrappers() {
        let net = ss_models::zoo::alexnet().scaled_down(16);
        let a = SharedStats::new(&net);
        let first = a.weight_stats(0, 0);
        // A *different* wrapper over the same model gets the same Arc:
        // the cache is process-wide, not per-wrapper.
        let b = SharedStats::new(&net);
        let second = b.weight_stats(0, 0);
        assert!(Arc::ptr_eq(&first, &second));
        // And it is the correct statistics.
        assert_eq!(*first, *TensorSource::weight_stats(&net, 0, 0));
    }

    #[test]
    fn scale_variants_never_alias() {
        // Different SS_SCALE geometries of the same model must get
        // distinct entries (the scaled name differs, and the length in
        // the key guards even same-named variants).
        let big = ss_models::zoo::alexnet().scaled_down(8);
        let small = ss_models::zoo::alexnet().scaled_down(16);
        let sb = SharedStats::new(&big);
        let ss = SharedStats::new(&small);
        let from_big = sb.input_stats(0, 1);
        let from_small = ss.input_stats(0, 1);
        assert_ne!(from_big.len(), from_small.len());
        assert_eq!(*from_big, *TensorSource::input_stats(&big, 0, 1));
        assert_eq!(*from_small, *TensorSource::input_stats(&small, 0, 1));
    }

    #[test]
    fn tensors_pass_through_unchanged() {
        let net = ss_models::zoo::alexnet().scaled_down(16);
        let shared = SharedStats::new(&net);
        assert_eq!(
            shared.weight_tensor(0, 0),
            TensorSource::weight_tensor(&net, 0, 0)
        );
        assert_eq!(shared.act_dtype(), TensorSource::act_dtype(&net));
        assert_eq!(shared.layers().len(), TensorSource::layers(&net).len());
    }
}
