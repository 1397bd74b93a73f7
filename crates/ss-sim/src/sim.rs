//! The simulation driver: binds a model, an accelerator and an off-chip
//! compression scheme into per-layer and whole-network results.

use ss_core::scheme::{CompressionScheme, SchemeCtx};
use ss_models::stats::CALIBRATION_GROUP;
use ss_trace::{Counter, LayerRecord, WidthCounts, WidthHist};

use crate::accel::{Accelerator, LayerSignals};
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::mem::{BufferConfig, DramConfig, LayerPasses};
use crate::workload::TensorSource;

/// Seed under which every model's (fixed) weights are generated.
pub const MODEL_SEED: u64 = 0;

/// Cycles the datapath idles waiting for memory under the overlap model
/// (`wall = max(compute, memory)`): the excess of transfer over compute,
/// zero for compute-bound layers.
///
/// This is the **single** stall definition in the workspace. Both pricing
/// paths — [`simulate`] and [`RunResult::with_dram`] — call it, and
/// [`LayerResult::stall_cycles`] reduces to the same expression, so the
/// three cannot drift apart. `tests/stall_reference.rs` cross-checks all
/// of them against a naive per-layer reference model (the audit found the
/// two former `saturating_sub` sites consistent; unifying them here keeps
/// it that way).
#[must_use]
pub fn stall_cycles(compute_cycles: u64, memory_cycles: u64) -> u64 {
    memory_cycles.saturating_sub(compute_cycles)
}

/// Simulation-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Off-chip memory.
    pub dram: DramConfig,
    /// On-chip buffers; `None` applies the paper's container-scaled rule
    /// (4 MB + 4 MB at 8 bits, 8 MB + 8 MB at 16).
    pub buffers: Option<BufferConfig>,
    /// Core clock (all paper designs run at 1 GHz).
    pub clock_hz: u64,
    /// Energy constants.
    pub energy: EnergyModel,
    /// Memory-container group size (the paper's N = 16).
    pub group_size: usize,
    /// Compute-synchronization group: the number of concurrently
    /// broadcast activations that advance in lockstep in the SIP array
    /// (16 window groups of 16 values).
    pub sync_group: usize,
    /// Hold on-chip buffer contents compressed as well (the "on-chip
    /// storage" extension of the paper's §3 title): the buffers
    /// effectively grow by each operand's compression ratio, deferring
    /// the small-buffer tiling cliff.
    pub onchip_compression: bool,
}

impl SimConfig {
    /// The paper's evaluation configuration with the given DRAM node.
    #[must_use]
    pub fn with_dram(dram: DramConfig) -> Self {
        Self {
            dram,
            buffers: None,
            clock_hz: 1_000_000_000,
            energy: EnergyModel::default(),
            group_size: 16,
            sync_group: 256,
            onchip_compression: false,
        }
    }
}

impl Default for SimConfig {
    /// DDR4-3200, paper buffers, 1 GHz.
    fn default() -> Self {
        Self::with_dram(DramConfig::DDR4_3200)
    }
}

/// Per-layer simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerResult {
    /// Layer name.
    pub name: String,
    /// Datapath cycles.
    pub compute_cycles: u64,
    /// Off-chip transfer cycles.
    pub memory_cycles: u64,
    /// Off-chip traffic under the active scheme, in bits.
    pub traffic_bits: u64,
    /// Off-chip traffic with no compression, in bits.
    pub base_traffic_bits: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl LayerResult {
    /// Wall-clock cycles: compute and transfer overlap, the slower wins.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.compute_cycles.max(self.memory_cycles)
    }

    /// Cycles the datapath sits idle waiting for memory.
    /// Equals [`stall_cycles`]`(compute, memory)`: `max(c, m) - c = max(0, m - c)`.
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        stall_cycles(self.compute_cycles, self.memory_cycles)
    }

    /// `true` when the layer is limited by arithmetic, not traffic.
    #[must_use]
    pub fn is_compute_bound(&self) -> bool {
        self.compute_cycles >= self.memory_cycles
    }
}

/// Whole-run outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Model display name.
    pub model: String,
    /// Accelerator display name.
    pub accel: String,
    /// Compression scheme display name.
    pub scheme: String,
    /// Per-layer results in network order.
    pub layers: Vec<LayerResult>,
}

impl RunResult {
    /// Total wall-clock cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(LayerResult::cycles).sum()
    }

    /// Total off-chip traffic in bits.
    #[must_use]
    pub fn total_traffic_bits(&self) -> u64 {
        self.layers.iter().map(|l| l.traffic_bits).sum()
    }

    /// Total uncompressed off-chip traffic in bits.
    #[must_use]
    pub fn base_traffic_bits(&self) -> u64 {
        self.layers.iter().map(|l| l.base_traffic_bits).sum()
    }

    /// Traffic relative to no compression (the Figure 8 metric; lower is
    /// better).
    #[must_use]
    pub fn relative_traffic(&self) -> f64 {
        self.total_traffic_bits() as f64 / self.base_traffic_bits().max(1) as f64
    }

    /// Total energy.
    #[must_use]
    pub fn total_energy(&self) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::default();
        for l in &self.layers {
            e.add(&l.energy);
        }
        e
    }

    /// Speedup of this run over a baseline run (same model!).
    #[must_use]
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.total_cycles() as f64 / self.total_cycles().max(1) as f64
    }

    /// Energy efficiency of this run relative to a baseline
    /// (baseline energy / this energy; higher is better).
    #[must_use]
    pub fn efficiency_over(&self, baseline: &RunResult) -> f64 {
        baseline.total_energy().total_pj() / self.total_energy().total_pj().max(1e-12)
    }

    /// Re-prices this run under a different DRAM node without
    /// re-simulating: compute cycles, traffic and datapath/SRAM energy are
    /// DRAM-independent, so only transfer cycles, DRAM energy and
    /// stall-idle energy change. Used by the Figure 9 harness to sweep
    /// DDR4-2133/2400/3200 from one simulation.
    #[must_use]
    pub fn with_dram(&self, dram: DramConfig, cfg: &SimConfig) -> RunResult {
        let layers = self
            .layers
            .iter()
            .map(|l| {
                let memory_cycles = dram.cycles_for_bits(l.traffic_bits, cfg.clock_hz);
                let stall = stall_cycles(l.compute_cycles, memory_cycles);
                LayerResult {
                    name: l.name.clone(),
                    compute_cycles: l.compute_cycles,
                    memory_cycles,
                    traffic_bits: l.traffic_bits,
                    base_traffic_bits: l.base_traffic_bits,
                    energy: EnergyBreakdown {
                        dram_pj: l.traffic_bits as f64 * cfg.energy.dram_pj_per_bit,
                        sram_pj: l.energy.sram_pj,
                        compute_pj: l.energy.compute_pj,
                        idle_pj: stall as f64 * cfg.energy.idle_pj_per_cycle,
                    },
                }
            })
            .collect();
        RunResult {
            model: self.model.clone(),
            accel: self.accel.clone(),
            scheme: self.scheme.clone(),
            layers,
        }
    }

    /// Fraction of wall-clock time spent computing (the Figure 13
    /// compute/memory breakdown; the remainder is memory stall).
    #[must_use]
    pub fn compute_time_fraction(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            return 1.0;
        }
        let compute: u64 = self
            .layers
            .iter()
            .map(|l| l.compute_cycles.min(l.cycles()))
            .sum();
        compute as f64 / total as f64
    }
}

/// A tensor generated only if some consumer actually needs the raw values
/// (a scheme or width the shared statistics cannot answer).
struct LazyTensor<'a> {
    cell: std::cell::OnceCell<ss_tensor::Tensor>,
    make: Box<dyn Fn() -> ss_tensor::Tensor + 'a>,
}

impl<'a> LazyTensor<'a> {
    fn new(make: impl Fn() -> ss_tensor::Tensor + 'a) -> Self {
        Self {
            cell: std::cell::OnceCell::new(),
            make: Box::new(make),
        }
    }

    fn get(&self) -> &ss_tensor::Tensor {
        self.cell.get_or_init(|| (self.make)())
    }
}

/// Simulates one input through a model on an accelerator with an off-chip
/// compression scheme.
///
/// Per layer: the shared one-pass statistics of weights, input and output
/// activations (see [`TensorSource::weight_stats`]) supply everything the
/// models consume — scheme pricing, container bits, effective widths at
/// the sync group, zero fractions. Raw tensors are generated lazily, only
/// when a scheme cannot price from statistics (or the sync group falls
/// outside [`crate::workload::STAT_GROUP_SIZES`]). The scheme prices each
/// operand's off-chip footprint (times the tiling pass counts the buffers
/// impose), DRAM bandwidth turns traffic into cycles, the accelerator's
/// law turns MACs and widths into cycles, and the energy model prices all
/// of it. Wall-clock is `max(compute, memory)` per layer.
pub fn simulate(
    model: &dyn TensorSource,
    accel: &dyn Accelerator,
    scheme: &dyn CompressionScheme,
    cfg: &SimConfig,
    input_seed: u64,
) -> RunResult {
    let container_bits = model.act_dtype().bits().max(model.weight_dtype().bits());
    let buffers = cfg
        .buffers
        .unwrap_or_else(|| BufferConfig::for_container_bits(container_bits));
    let num_layers = model.layers().len();
    let mut layers = Vec::with_capacity(num_layers);

    for (i, layer) in model.layers().iter().enumerate() {
        let wgt_stats = model.weight_stats(i, MODEL_SEED);
        let act_in_stats = model.input_stats(i, input_seed);
        let act_out_stats = model.output_stats(i, input_seed);
        let wgt = LazyTensor::new(move || model.weight_tensor(i, MODEL_SEED));
        let act_in = LazyTensor::new(move || model.input_tensor(i, input_seed));
        let act_out = LazyTensor::new(move || model.output_tensor(i, input_seed));

        let act_ctx = SchemeCtx::profiled(model.profiled_act_width(i));
        let wgt_ctx = SchemeCtx::profiled(model.profiled_wgt_width(i));
        let out_ctx = SchemeCtx::profiled(model.profiled_act_width((i + 1).min(num_layers - 1)));

        let price = |stats: &ss_tensor::TensorStats, lazy: &LazyTensor<'_>, ctx: &SchemeCtx| {
            scheme
                .compressed_bits_from_stats(stats, ctx)
                .unwrap_or_else(|| scheme.compressed_bits(lazy.get(), ctx))
        };
        let act_in_c = price(&act_in_stats, &act_in, &act_ctx);
        let wgt_c = price(&wgt_stats, &wgt, &wgt_ctx);
        let act_out_c = price(&act_out_stats, &act_out, &out_ctx);

        let passes = if cfg.onchip_compression {
            let r = |compressed: u64, raw: u64| {
                (compressed as f64 / raw.max(1) as f64).clamp(1e-6, 1.0)
            };
            LayerPasses::for_layer_with_onchip_ratio(
                &buffers,
                act_in_stats.container_bits(),
                wgt_stats.container_bits(),
                r(act_in_c, act_in_stats.container_bits()),
                r(wgt_c, wgt_stats.container_bits()),
            )
        } else {
            LayerPasses::for_layer(
                &buffers,
                act_in_stats.container_bits(),
                wgt_stats.container_bits(),
            )
        };
        let traffic = passes.act_reads * act_in_c + passes.wgt_reads * wgt_c + act_out_c;
        let base_traffic = passes.act_reads * act_in_stats.container_bits()
            + passes.wgt_reads * wgt_stats.container_bits()
            + act_out_stats.container_bits();
        let memory_cycles = cfg.dram.cycles_for_bits(traffic, cfg.clock_hz);

        let eff_sync = |stats: &ss_tensor::TensorStats, lazy: &LazyTensor<'_>| {
            stats
                .effective_width(cfg.sync_group)
                .unwrap_or_else(|| lazy.get().effective_width(cfg.sync_group))
        };
        let signals = LayerSignals {
            macs: layer.macs(),
            act_container: model.act_dtype().bits(),
            wgt_container: model.weight_dtype().bits(),
            act_profiled: model.profiled_act_width(i),
            wgt_profiled: model.profiled_wgt_width(i),
            act_eff_sync: eff_sync(&act_in_stats, &act_in),
            wgt_eff_sync: eff_sync(&wgt_stats, &wgt),
            act_nonzero: act_in_stats.nonzero_fraction(),
            wgt_nonzero: wgt_stats.nonzero_fraction(),
            weight_reuse: layer.macs() / (layer.weight_count() as u64).max(1),
        };
        let compute_cycles = accel.compute_cycles(&signals);

        let stall = stall_cycles(compute_cycles, memory_cycles);
        let sram_bits = base_traffic;
        let energy = EnergyBreakdown {
            dram_pj: traffic as f64 * cfg.energy.dram_pj_per_bit,
            sram_pj: sram_bits as f64 * cfg.energy.sram_pj_per_bit,
            compute_pj: accel.compute_energy_pj(&signals, &cfg.energy),
            idle_pj: stall as f64 * cfg.energy.idle_pj_per_cycle,
        };

        if let Some(rec) = ss_trace::installed() {
            rec.add(Counter::SimLayers, 1);
            rec.add(Counter::SimComputeCycles, compute_cycles);
            rec.add(Counter::SimMemoryCycles, memory_cycles);
            rec.add(Counter::SimStallCycles, stall);
            rec.add(Counter::SimTrafficBits, traffic);
            rec.add(Counter::SimBaseTrafficBits, base_traffic);
            rec.add(Counter::for_scheme(scheme.name()), traffic);
            let paired = accel.composer_paired(&signals);
            if paired {
                rec.add(Counter::SimComposerPairedLayers, 1);
            }
            // Per-group EOG width distribution at the sync granularity —
            // straight from the shared statistics when the sync group is a
            // tracked size (it is, under the default config), else from
            // the raw tensor.
            let eog = act_in_stats
                .group(cfg.sync_group)
                .map(|g| WidthCounts::from(g.group_width_hist))
                .unwrap_or_else(|| {
                    let t = act_in.get();
                    let signedness = t.dtype().signedness();
                    let mut wc = WidthCounts::new();
                    for group in t.values().chunks(cfg.sync_group.max(1)) {
                        wc.observe(ss_tensor::width::group_width(group, signedness), 1);
                    }
                    wc
                });
            rec.record_widths(WidthHist::LayerEogWidth, &eog);
            rec.record_layer(LayerRecord {
                model: model.name().to_string(),
                accel: accel.name().to_string(),
                scheme: scheme.name().to_string(),
                layer: layer.name().to_string(),
                index: i,
                compute_cycles,
                memory_cycles,
                stall_cycles: stall,
                traffic_bits: traffic,
                base_traffic_bits: base_traffic,
                act_profiled: signals.act_profiled,
                act_eff_sync: signals.act_eff_sync,
                composer_paired: paired,
                eog_width_hist: eog,
            });
        }

        layers.push(LayerResult {
            name: layer.name().to_string(),
            compute_cycles,
            memory_cycles,
            traffic_bits: traffic,
            base_traffic_bits: base_traffic,
            energy,
        });
    }

    RunResult {
        model: model.name().to_string(),
        accel: accel.name().to_string(),
        scheme: scheme.name().to_string(),
        layers,
    }
}

/// Group size constant re-exported for harnesses (the Table 1 grouping).
pub const MEMORY_GROUP: usize = CALIBRATION_GROUP;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::{DaDianNao, SStripes, Stripes};
    use ss_core::scheme::{Base, ShapeShifterScheme};
    use ss_models::zoo;

    fn tiny() -> ss_models::Network {
        zoo::alexnet().scaled_down(8)
    }

    #[test]
    fn shapeshifter_reduces_traffic_and_cycles() {
        let net = tiny();
        let cfg = SimConfig::default();
        let base = simulate(&net, &DaDianNao::new(), &Base, &cfg, 1);
        let ss = simulate(
            &net,
            &DaDianNao::new(),
            &ShapeShifterScheme::default(),
            &cfg,
            1,
        );
        assert!(ss.total_traffic_bits() < base.total_traffic_bits());
        assert!(ss.total_cycles() <= base.total_cycles());
        assert!(ss.relative_traffic() < 0.6, "{}", ss.relative_traffic());
        // Compute is identical: only memory moved.
        for (a, b) in ss.layers.iter().zip(&base.layers) {
            assert_eq!(a.compute_cycles, b.compute_cycles);
        }
    }

    #[test]
    fn sstripes_beats_stripes_on_compute() {
        let net = tiny();
        let cfg = SimConfig::default();
        let scheme = ShapeShifterScheme::default();
        let stripes = simulate(&net, &Stripes::new(), &scheme, &cfg, 1);
        let sstripes = simulate(&net, &SStripes::new(), &scheme, &cfg, 1);
        for (a, b) in sstripes.layers.iter().zip(&stripes.layers) {
            assert!(
                a.compute_cycles <= b.compute_cycles,
                "layer {}: {} vs {}",
                a.name,
                a.compute_cycles,
                b.compute_cycles
            );
        }
        assert!(sstripes.speedup_over(&stripes) >= 1.0);
    }

    #[test]
    fn stalls_burn_idle_energy() {
        let net = tiny();
        // Starve the memory system to force stalls.
        let cfg = SimConfig::with_dram(DramConfig::new(100, 1));
        let r = simulate(&net, &DaDianNao::new(), &Base, &cfg, 1);
        let e = r.total_energy();
        assert!(e.idle_pj > 0.0);
        assert!(r.compute_time_fraction() < 1.0);
    }

    #[test]
    fn run_result_accounting() {
        let net = tiny();
        let cfg = SimConfig::default();
        let r = simulate(&net, &DaDianNao::new(), &Base, &cfg, 1);
        assert_eq!(r.layers.len(), net.layers().len());
        assert_eq!(
            r.total_cycles(),
            r.layers.iter().map(LayerResult::cycles).sum::<u64>()
        );
        assert!((r.relative_traffic() - 1.0).abs() < 1e-9, "Base is 1.0");
        assert_eq!(r.speedup_over(&r), 1.0);
    }

    #[test]
    fn with_dram_matches_a_fresh_simulation() {
        let net = tiny();
        let slow = SimConfig::with_dram(DramConfig::DDR4_2133);
        let fast = SimConfig::default();
        let on_fast = simulate(&net, &Stripes::new(), &Base, &fast, 2);
        let repriced = on_fast.with_dram(DramConfig::DDR4_2133, &slow);
        let direct = simulate(&net, &Stripes::new(), &Base, &slow, 2);
        assert_eq!(repriced, direct);
    }

    #[test]
    fn deterministic_across_calls() {
        let net = tiny();
        let cfg = SimConfig::default();
        let a = simulate(&net, &Stripes::new(), &Base, &cfg, 7);
        let b = simulate(&net, &Stripes::new(), &Base, &cfg, 7);
        assert_eq!(a, b);
    }
}
