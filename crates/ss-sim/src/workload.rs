//! Abstraction over the models a simulator can run: int16 masters and
//! their quantized 8-bit variants expose the same tensor API.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use ss_models::{Layer, Network};
use ss_quant::{AdaBitsVariant, QuantizedNetwork};
use ss_tensor::{FixedType, Tensor, TensorStats};

/// Grouping granularities every shared [`TensorStats`] is computed at: the
/// paper's memory-container group (16) and the compute-synchronization
/// group (256). Covering both lets one statistics pass serve the traffic
/// schemes and the bit-serial cycle models alike.
pub const STAT_GROUP_SIZES: [usize; 2] = [16, 256];

/// Anything that can supply per-layer tensors to a simulator.
///
/// Implemented by [`ss_models::Network`] (int16 masters),
/// [`ss_quant::QuantizedNetwork`] (the TF-8b/RA-8b variants) and
/// [`ss_quant::AdaBitsVariant`] (multi-width servings of one model), so
/// every simulator and figure harness runs unchanged across the paper's
/// model suites.
pub trait TensorSource {
    /// Display name used in figure rows.
    fn name(&self) -> &str;

    /// The layer descriptors (geometry + statistics).
    fn layers(&self) -> &[Layer];

    /// Container of this model's weights.
    fn weight_dtype(&self) -> FixedType;

    /// Container of this model's activations.
    fn act_dtype(&self) -> FixedType;

    /// Weights of `layer` (input-independent).
    fn weight_tensor(&self, layer: usize, model_seed: u64) -> Tensor;

    /// Input activations of `layer` for one input.
    fn input_tensor(&self, layer: usize, input_seed: u64) -> Tensor;

    /// Output activations of `layer` for one input.
    fn output_tensor(&self, layer: usize, input_seed: u64) -> Tensor;

    /// Profile-derived width of `layer`'s input activations — what a
    /// per-layer design (Stripes, Bit Fusion, the Profile scheme)
    /// provisions for.
    fn profiled_act_width(&self, layer: usize) -> u8;

    /// Profile-derived width of `layer`'s weights.
    fn profiled_wgt_width(&self, layer: usize) -> u8;

    /// One-pass statistics of `layer`'s weights at [`STAT_GROUP_SIZES`].
    ///
    /// Everything the traffic schemes and cycle models need (width
    /// histograms, zero counts and runs, per-group aggregates) from a
    /// single scan. The default computes fresh each call; [`Cached`]
    /// memoizes per `(layer, seed)` so one computation serves every scheme
    /// and figure that prices the layer.
    fn weight_stats(&self, layer: usize, model_seed: u64) -> Arc<TensorStats> {
        Arc::new(TensorStats::compute(
            &self.weight_tensor(layer, model_seed),
            &STAT_GROUP_SIZES,
        ))
    }

    /// One-pass statistics of `layer`'s input activations for one input.
    fn input_stats(&self, layer: usize, input_seed: u64) -> Arc<TensorStats> {
        Arc::new(TensorStats::compute(
            &self.input_tensor(layer, input_seed),
            &STAT_GROUP_SIZES,
        ))
    }

    /// One-pass statistics of `layer`'s output activations for one input.
    fn output_stats(&self, layer: usize, input_seed: u64) -> Arc<TensorStats> {
        Arc::new(TensorStats::compute(
            &self.output_tensor(layer, input_seed),
            &STAT_GROUP_SIZES,
        ))
    }
}

impl TensorSource for Network {
    fn name(&self) -> &str {
        Network::name(self)
    }

    fn layers(&self) -> &[Layer] {
        Network::layers(self)
    }

    fn weight_dtype(&self) -> FixedType {
        Network::weight_dtype(self)
    }

    fn act_dtype(&self) -> FixedType {
        Network::act_dtype(self)
    }

    fn weight_tensor(&self, layer: usize, model_seed: u64) -> Tensor {
        Network::weight_tensor(self, layer, model_seed)
    }

    fn input_tensor(&self, layer: usize, input_seed: u64) -> Tensor {
        Network::input_tensor(self, layer, input_seed)
    }

    fn output_tensor(&self, layer: usize, input_seed: u64) -> Tensor {
        Network::output_tensor(self, layer, input_seed)
    }

    fn profiled_act_width(&self, layer: usize) -> u8 {
        ss_quant::profile::profiled_act_width(self, layer)
    }

    fn profiled_wgt_width(&self, layer: usize) -> u8 {
        ss_quant::profile::profiled_wgt_width(self, layer)
    }
}

impl TensorSource for QuantizedNetwork {
    fn name(&self) -> &str {
        QuantizedNetwork::name(self)
    }

    fn layers(&self) -> &[Layer] {
        self.base().layers()
    }

    fn weight_dtype(&self) -> FixedType {
        QuantizedNetwork::weight_dtype(self)
    }

    fn act_dtype(&self) -> FixedType {
        QuantizedNetwork::act_dtype(self)
    }

    fn weight_tensor(&self, layer: usize, model_seed: u64) -> Tensor {
        QuantizedNetwork::weight_tensor(self, layer, model_seed)
    }

    fn input_tensor(&self, layer: usize, input_seed: u64) -> Tensor {
        QuantizedNetwork::input_tensor(self, layer, input_seed)
    }

    fn output_tensor(&self, layer: usize, input_seed: u64) -> Tensor {
        QuantizedNetwork::output_tensor(self, layer, input_seed)
    }

    fn profiled_act_width(&self, layer: usize) -> u8 {
        match self.method() {
            // TF affine maps the calibrated maximum onto 255 and shifts
            // everything by the zero-point: the stored profile is the full
            // 8 bits for every layer.
            ss_quant::QuantMethod::Tensorflow => 8,
            // RA shifts so the profile just fits: narrow layers keep their
            // narrow profile.
            ss_quant::QuantMethod::RangeAware => self.profile().act_widths()[layer].min(8),
        }
    }

    fn profiled_wgt_width(&self, layer: usize) -> u8 {
        match self.method() {
            ss_quant::QuantMethod::Tensorflow => 8,
            ss_quant::QuantMethod::RangeAware => self.profile().wgt_widths()[layer].min(8),
        }
    }
}

impl TensorSource for AdaBitsVariant<'_> {
    fn name(&self) -> &str {
        AdaBitsVariant::name(self)
    }

    fn layers(&self) -> &[Layer] {
        self.family().base().layers()
    }

    fn weight_dtype(&self) -> FixedType {
        AdaBitsVariant::weight_dtype(self)
    }

    fn act_dtype(&self) -> FixedType {
        AdaBitsVariant::act_dtype(self)
    }

    fn weight_tensor(&self, layer: usize, model_seed: u64) -> Tensor {
        AdaBitsVariant::weight_tensor(self, layer, model_seed)
    }

    fn input_tensor(&self, layer: usize, input_seed: u64) -> Tensor {
        AdaBitsVariant::input_tensor(self, layer, input_seed)
    }

    fn output_tensor(&self, layer: usize, input_seed: u64) -> Tensor {
        AdaBitsVariant::output_tensor(self, layer, input_seed)
    }

    fn profiled_act_width(&self, layer: usize) -> u8 {
        // The family's shared profile, rescaled by the truncation: what
        // needed the profiled width in the master needs at most the
        // serving width after the range-aware shift plus MSB truncation.
        // ss-lint: allow(panic-freedom) -- out-of-range layer is a documented panic, matching the zoo
        self.family().profile().act_widths()[layer].min(self.width())
    }

    fn profiled_wgt_width(&self, layer: usize) -> u8 {
        // ss-lint: allow(panic-freedom) -- out-of-range layer is a documented panic, matching the zoo
        self.family().profile().wgt_widths()[layer].min(self.width())
    }
}

/// A memoizing wrapper around any [`TensorSource`]: each generated tensor
/// is cached on first use and cloned on subsequent requests.
///
/// Sweeps that run one model through several schemes, accelerators, DRAM
/// nodes or buffer sizes would otherwise regenerate tens of millions of
/// synthetic values per configuration; a clone is a plain memcpy. Intended
/// per-model, inside one sweep — the cache grows to the model's full
/// weight footprint and is freed when the wrapper drops.
pub struct Cached<'a> {
    inner: &'a dyn TensorSource,
    weights: RefCell<HashMap<(usize, u64), Tensor>>,
    inputs: RefCell<HashMap<(usize, u64), Tensor>>,
    outputs: RefCell<HashMap<(usize, u64), Tensor>>,
    weight_stats: RefCell<HashMap<(usize, u64), Arc<TensorStats>>>,
    input_stats: RefCell<HashMap<(usize, u64), Arc<TensorStats>>>,
    output_stats: RefCell<HashMap<(usize, u64), Arc<TensorStats>>>,
}

impl std::fmt::Debug for Cached<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cached")
            .field("model", &self.inner.name())
            .field("weights_cached", &self.weights.borrow().len())
            .field("inputs_cached", &self.inputs.borrow().len())
            .field("outputs_cached", &self.outputs.borrow().len())
            .field("stats_cached", &{
                self.weight_stats.borrow().len()
                    + self.input_stats.borrow().len()
                    + self.output_stats.borrow().len()
            })
            .finish()
    }
}

impl<'a> Cached<'a> {
    /// Wraps a tensor source.
    #[must_use]
    pub fn new(inner: &'a dyn TensorSource) -> Self {
        Self {
            inner,
            weights: RefCell::new(HashMap::new()),
            inputs: RefCell::new(HashMap::new()),
            outputs: RefCell::new(HashMap::new()),
            weight_stats: RefCell::new(HashMap::new()),
            input_stats: RefCell::new(HashMap::new()),
            output_stats: RefCell::new(HashMap::new()),
        }
    }
}

impl TensorSource for Cached<'_> {
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
        self.weights
            .borrow_mut()
            .entry((layer, model_seed))
            .or_insert_with(|| self.inner.weight_tensor(layer, model_seed))
            .clone()
    }

    fn input_tensor(&self, layer: usize, input_seed: u64) -> Tensor {
        self.inputs
            .borrow_mut()
            .entry((layer, input_seed))
            .or_insert_with(|| self.inner.input_tensor(layer, input_seed))
            .clone()
    }

    fn output_tensor(&self, layer: usize, input_seed: u64) -> Tensor {
        self.outputs
            .borrow_mut()
            .entry((layer, input_seed))
            .or_insert_with(|| self.inner.output_tensor(layer, input_seed))
            .clone()
    }

    fn profiled_act_width(&self, layer: usize) -> u8 {
        self.inner.profiled_act_width(layer)
    }

    fn profiled_wgt_width(&self, layer: usize) -> u8 {
        self.inner.profiled_wgt_width(layer)
    }

    // Statistics memoize independently of the tensors: a sweep that only
    // needs widths and zero counts never materializes (or retains) the
    // multi-million-value tensors at all.

    fn weight_stats(&self, layer: usize, model_seed: u64) -> Arc<TensorStats> {
        self.weight_stats
            .borrow_mut()
            .entry((layer, model_seed))
            .or_insert_with(|| {
                Arc::new(TensorStats::compute(
                    &self.inner.weight_tensor(layer, model_seed),
                    &STAT_GROUP_SIZES,
                ))
            })
            .clone()
    }

    fn input_stats(&self, layer: usize, input_seed: u64) -> Arc<TensorStats> {
        self.input_stats
            .borrow_mut()
            .entry((layer, input_seed))
            .or_insert_with(|| {
                Arc::new(TensorStats::compute(
                    &self.inner.input_tensor(layer, input_seed),
                    &STAT_GROUP_SIZES,
                ))
            })
            .clone()
    }

    fn output_stats(&self, layer: usize, input_seed: u64) -> Arc<TensorStats> {
        self.output_stats
            .borrow_mut()
            .entry((layer, input_seed))
            .or_insert_with(|| {
                Arc::new(TensorStats::compute(
                    &self.inner.output_tensor(layer, input_seed),
                    &STAT_GROUP_SIZES,
                ))
            })
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_models::zoo;
    use ss_quant::QuantMethod;

    fn exercise<M: TensorSource>(m: &M) {
        assert!(!m.layers().is_empty());
        let w = m.weight_tensor(0, 0);
        assert_eq!(w.dtype(), m.weight_dtype());
        let a = m.input_tensor(0, 1);
        assert_eq!(a.dtype(), m.act_dtype());
        assert_eq!(a.len(), m.layers()[0].input_count());
        let o = m.output_tensor(0, 1);
        assert_eq!(o.len(), m.layers()[0].output_count());
        let pa = m.profiled_act_width(0);
        assert!(pa >= 1 && pa <= m.act_dtype().bits());
        let pw = m.profiled_wgt_width(0);
        assert!(pw >= 1 && pw <= m.weight_dtype().bits());
    }

    #[test]
    fn tf_profiles_saturate_at_8() {
        let net = zoo::alexnet().scaled_down(8);
        let tf = QuantizedNetwork::new(net.clone(), QuantMethod::Tensorflow);
        for i in 0..net.layers().len() {
            assert_eq!(TensorSource::profiled_act_width(&tf, i), 8);
            assert_eq!(TensorSource::profiled_wgt_width(&tf, i), 8);
        }
    }

    #[test]
    fn cached_stats_match_fresh_and_are_shared() {
        let net = zoo::alexnet().scaled_down(8);
        let cached = Cached::new(&net);
        let a = cached.weight_stats(0, 0);
        let b = cached.weight_stats(0, 0);
        // Same Arc: computed once, shared thereafter.
        assert!(Arc::ptr_eq(&a, &b));
        // And identical to an uncached computation.
        assert_eq!(*a, *TensorSource::weight_stats(&net, 0, 0));
        let i = cached.input_stats(0, 3);
        assert_eq!(*i, *TensorSource::input_stats(&net, 0, 3));
        let o = cached.output_stats(0, 3);
        assert_eq!(*o, *TensorSource::output_stats(&net, 0, 3));
        // The stats cover both canonical granularities.
        for g in STAT_GROUP_SIZES {
            assert!(a.group(g).is_some());
        }
    }

    #[test]
    fn both_sources_expose_the_same_api() {
        let net = zoo::alexnet().scaled_down(8);
        exercise(&net);
        exercise(&QuantizedNetwork::new(net.clone(), QuantMethod::RangeAware));
        exercise(&QuantizedNetwork::new(net, QuantMethod::Tensorflow));
    }
}
