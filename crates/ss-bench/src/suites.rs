//! Model suites as the paper's figures group them, with the `SS_SCALE`
//! divisor applied, plus a shared traffic-pricing helper that prices every
//! scheme from each layer's shared one-pass statistics.

use ss_core::scheme::{CompressionScheme, SchemeCtx};
use ss_core::ShapeShifterCodec;
use ss_models::Network;
use ss_quant::{QuantMethod, QuantizedNetwork};
use ss_sim::sim::MODEL_SEED;
use ss_sim::TensorSource;

use crate::{scaled, SharedStats};

/// The 16-bit suite (Figure 8a left group, Figures 9–13).
#[must_use]
pub fn suite_16b() -> Vec<Network> {
    ss_models::zoo::int16_suite()
        .into_iter()
        .map(scaled)
        .collect()
}

/// The TensorFlow-quantized 8-bit suite.
#[must_use]
pub fn suite_tf8() -> Vec<QuantizedNetwork> {
    ss_models::zoo::tf8_suite()
        .into_iter()
        .map(|n| QuantizedNetwork::new(scaled(n), QuantMethod::Tensorflow))
        .collect()
}

/// The Range-Aware-quantized 8-bit suite.
#[must_use]
pub fn suite_ra8() -> Vec<QuantizedNetwork> {
    ss_models::zoo::ra8_suite()
        .into_iter()
        .map(|n| QuantizedNetwork::new(scaled(n), QuantMethod::RangeAware))
        .collect()
}

/// The pruned 16-bit suite for the SCNN study (Figure 10).
#[must_use]
pub fn suite_scnn() -> Vec<Network> {
    ss_models::zoo::scnn_suite()
        .into_iter()
        .map(scaled)
        .collect()
}

/// Networks treated as non-profiled in Figure 8b (profiling "is not
/// always possible, e.g., when the test data set is not available"):
/// the per-pixel-prediction and sequence workloads plus detection.
#[must_use]
pub fn suite_unprofiled_16b() -> Vec<Network> {
    vec![
        scaled(ss_models::zoo::yolo()),
        scaled(ss_models::zoo::fcn8()),
        scaled(ss_models::zoo::vdsr()),
        scaled(ss_models::zoo::ircnn()),
        scaled(ss_models::zoo::seq2seq()),
        scaled(ss_models::zoo::lrcn()),
    ]
}

/// Per-model total off-chip traffic (weights + input/output activations
/// of every layer, single-pass) in bits, priced under each scheme from
/// each layer's **shared statistics** — one scan per operand, answered
/// from the process-wide cache on every later call (other schemes, other
/// figures, other seeds of the same run).
///
/// Schemes that cannot be priced from statistics fall back to a raw
/// tensor, generated at most once per operand.
///
/// Returns one total per scheme, in the order given. `profiled == false`
/// models Figure 8b operation (the Profile scheme falls back to the
/// container width).
#[must_use]
pub fn traffic_totals(
    model: &dyn TensorSource,
    schemes: &[&dyn CompressionScheme],
    input_seed: u64,
    profiled: bool,
) -> Vec<u64> {
    let model = SharedStats::new(model);
    let mut totals = vec![0u64; schemes.len()];
    let num_layers = model.layers().len();
    for i in 0..num_layers {
        let wgt_stats = model.weight_stats(i, MODEL_SEED);
        let act_in_stats = model.input_stats(i, input_seed);
        let act_out_stats = model.output_stats(i, input_seed);
        let ctx = |w: u8| {
            if profiled {
                SchemeCtx::profiled(w)
            } else {
                SchemeCtx::unprofiled()
            }
        };
        let a_ctx = ctx(model.profiled_act_width(i));
        let w_ctx = ctx(model.profiled_wgt_width(i));
        let o_ctx = ctx(model.profiled_act_width((i + 1).min(num_layers - 1)));
        let mut wgt = None;
        let mut act_in = None;
        let mut act_out = None;
        for (t, scheme) in totals.iter_mut().zip(schemes) {
            let a = scheme
                .compressed_bits_from_stats(&act_in_stats, &a_ctx)
                .unwrap_or_else(|| {
                    let tensor = act_in.get_or_insert_with(|| model.input_tensor(i, input_seed));
                    scheme.compressed_bits(tensor, &a_ctx)
                });
            let w = scheme
                .compressed_bits_from_stats(&wgt_stats, &w_ctx)
                .unwrap_or_else(|| {
                    let tensor = wgt.get_or_insert_with(|| model.weight_tensor(i, MODEL_SEED));
                    scheme.compressed_bits(tensor, &w_ctx)
                });
            let o = scheme
                .compressed_bits_from_stats(&act_out_stats, &o_ctx)
                .unwrap_or_else(|| {
                    let tensor = act_out.get_or_insert_with(|| model.output_tensor(i, input_seed));
                    scheme.compressed_bits(tensor, &o_ctx)
                });
            *t += a + w + o;
        }
    }
    totals
}

/// Container-v2 overhead probe: encodes the model's largest weight
/// tensor under the codec's default (`Auto`) chunk-index policy,
/// round-trips it through the thread-aware decode path (which honors
/// `SS_THREADS`, the same knob as the rest of the harness), and returns
/// `(layer_name, chunks, index_bits, index_bits_per_value)`.
///
/// This is the metadata the v2 container adds *on top of* the stream
/// bits the Figure 8 scheme columns count — reported separately so the
/// traffic accounting stays comparable to the paper. `chunks == 0` (and
/// zero overhead) means the tensor stayed below the `Auto` threshold and
/// the container is written as v1.
///
/// # Panics
///
/// Panics if the codec fails to round-trip the tensor bit-identically —
/// that is a codec defect, not a measurement outcome.
#[must_use]
pub fn index_overhead_probe(model: &dyn TensorSource) -> (String, usize, u64, f64) {
    let layers = model.layers();
    let i = (0..layers.len())
        .max_by_key(|&i| layers[i].weight_count())
        .expect("zoo models have at least one layer");
    let name = layers[i].name().to_owned();
    let tensor = model.weight_tensor(i, MODEL_SEED);
    let codec = ShapeShifterCodec::new(16);
    let enc = codec.encode(&tensor).expect("encode");
    assert_eq!(
        codec.decode(&enc).expect("decode"),
        tensor,
        "indexed round-trip must be bit-identical"
    );
    let index = enc.index.as_ref();
    let chunks = index.map_or(0, ss_core::ChunkIndex::chunk_count);
    let bits = index
        .map_or(Ok(0), ss_core::ChunkIndex::serialized_bits)
        .expect("index size");
    (name, chunks, bits, bits as f64 / tensor.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::scheme::{Base, ShapeShifterScheme, ZeroRle};

    #[test]
    fn traffic_totals_orders_schemes_correctly() {
        let net = ss_models::zoo::alexnet().scaled_down(8);
        let ss = ShapeShifterScheme::default();
        let rle = ZeroRle::default();
        let schemes: Vec<&dyn CompressionScheme> = vec![&Base, &ss, &rle];
        let t = traffic_totals(&net, &schemes, 1, true);
        assert_eq!(t.len(), 3);
        // ShapeShifter must beat Base on the skewed zoo distributions.
        assert!(t[1] < t[0]);
    }

    #[test]
    fn index_overhead_probe_reports_v2_metadata() {
        // Even scaled down, AlexNet's largest FC weight tensor clears the
        // Auto threshold and earns a chunk index.
        let net = ss_models::zoo::alexnet().scaled_down(4);
        let (layer, chunks, bits, per_value) = index_overhead_probe(&net);
        assert!(!layer.is_empty());
        assert!(chunks > 1, "largest layer should be chunked, got {chunks}");
        assert!(bits > 0);
        assert!(per_value < 0.01, "index overhead {per_value} bits/value");
    }

    #[test]
    fn stats_path_equals_raw_tensor_pricing() {
        let net = ss_models::zoo::alexnet().scaled_down(16);
        let ss = ShapeShifterScheme::default();
        let rle = ZeroRle::default();
        let profile = ss_core::scheme::ProfileScheme;
        let schemes: Vec<&dyn CompressionScheme> = vec![&Base, &ss, &rle, &profile];
        for profiled in [true, false] {
            let fast = traffic_totals(&net, &schemes, 2, profiled);
            // The pre-stats reference: generate each layer's tensors and
            // price them directly.
            let mut slow = vec![0u64; schemes.len()];
            let n = TensorSource::layers(&net).len();
            for i in 0..n {
                let wgt = TensorSource::weight_tensor(&net, i, MODEL_SEED);
                let act_in = TensorSource::input_tensor(&net, i, 2);
                let act_out = TensorSource::output_tensor(&net, i, 2);
                let ctx = |w: u8| {
                    if profiled {
                        SchemeCtx::profiled(w)
                    } else {
                        SchemeCtx::unprofiled()
                    }
                };
                let a_ctx = ctx(TensorSource::profiled_act_width(&net, i));
                let w_ctx = ctx(TensorSource::profiled_wgt_width(&net, i));
                let o_ctx = ctx(TensorSource::profiled_act_width(&net, (i + 1).min(n - 1)));
                for (t, scheme) in slow.iter_mut().zip(&schemes) {
                    *t += scheme.compressed_bits(&act_in, &a_ctx)
                        + scheme.compressed_bits(&wgt, &w_ctx)
                        + scheme.compressed_bits(&act_out, &o_ctx);
                }
            }
            assert_eq!(fast, slow, "profiled={profiled}");
        }
    }
}
