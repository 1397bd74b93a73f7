//! Off-chip DRAM and on-chip buffer models.

/// A DDR4 off-chip memory configuration.
///
/// The paper reports results with DDR4-2133, DDR4-2400 and DDR4-3200
/// (Figure 9), all dual-channel for the Stripes-class comparisons (§5.2).
/// Only sustained bandwidth matters for the sequential streaming access
/// pattern ShapeShifter guarantees (§3 "Memory Layout and Access
/// Strategy"), so the model is a bandwidth pipe.
///
/// # Examples
///
/// ```
/// use ss_sim::DramConfig;
///
/// let dram = DramConfig::DDR4_3200;
/// // Dual channel x 8 bytes x 3200 MT/s = 51.2 GB/s.
/// assert_eq!(dram.bandwidth_bytes_per_sec(), 51_200_000_000);
/// // ~410 bits per 1 GHz core cycle.
/// assert_eq!(dram.bits_per_cycle(1_000_000_000), 409.6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Mega-transfers per second (e.g. 3200 for DDR4-3200).
    mts: u64,
    /// Independent 64-bit channels.
    channels: u64,
}

impl DramConfig {
    /// Dual-channel DDR4-2133 (the "lower-end" node of Figure 9).
    pub const DDR4_2133: DramConfig = DramConfig {
        mts: 2133,
        channels: 2,
    };
    /// Dual-channel DDR4-2400 (the "halfway" node).
    pub const DDR4_2400: DramConfig = DramConfig {
        mts: 2400,
        channels: 2,
    };
    /// Dual-channel DDR4-3200 (the "higher-end" node).
    pub const DDR4_3200: DramConfig = DramConfig {
        mts: 3200,
        channels: 2,
    };

    /// Creates a custom configuration.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(mts: u64, channels: u64) -> Self {
        assert!(mts > 0, "transfer rate must be non-zero");
        assert!(channels > 0, "need at least one channel");
        Self { mts, channels }
    }

    /// Transfer rate in MT/s.
    #[must_use]
    pub fn mts(&self) -> u64 {
        self.mts
    }

    /// Channel count.
    #[must_use]
    pub fn channels(&self) -> u64 {
        self.channels
    }

    /// Sustained bandwidth in bytes per second (8 bytes per transfer per
    /// channel).
    #[must_use]
    pub fn bandwidth_bytes_per_sec(&self) -> u64 {
        self.mts * 1_000_000 * 8 * self.channels
    }

    /// Bits delivered per core clock cycle.
    #[must_use]
    pub fn bits_per_cycle(&self, clock_hz: u64) -> f64 {
        (self.bandwidth_bytes_per_sec() as f64 * 8.0) / clock_hz as f64
    }

    /// Core cycles to transfer `bits` of traffic.
    #[must_use]
    pub fn cycles_for_bits(&self, bits: u64, clock_hz: u64) -> u64 {
        (bits as f64 / self.bits_per_cycle(clock_hz)).ceil() as u64
    }

    /// A short display label ("DDR4-3200").
    #[must_use]
    pub fn label(&self) -> String {
        format!("DDR4-{}", self.mts)
    }
}

/// On-chip activation and weight buffer sizes.
///
/// The paper sizes them "so that for most layers it is possible to read
/// each value from off-chip memory at most once per layer" (Siu et al.):
/// 4 MB + 4 MB for 8-bit models, doubled for 16-bit (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferConfig {
    /// Activation buffer capacity in bytes.
    pub act_bytes: u64,
    /// Weight buffer capacity in bytes.
    pub wgt_bytes: u64,
}

impl BufferConfig {
    /// The paper's configuration for 8-bit models: 4 MB + 4 MB.
    #[must_use]
    pub fn paper_8b() -> Self {
        Self {
            act_bytes: 4 << 20,
            wgt_bytes: 4 << 20,
        }
    }

    /// The paper's configuration for 16-bit models: 8 MB + 8 MB.
    #[must_use]
    pub fn paper_16b() -> Self {
        Self {
            act_bytes: 8 << 20,
            wgt_bytes: 8 << 20,
        }
    }

    /// Symmetric buffers of `bytes` each (the Figure 15 sweep).
    #[must_use]
    pub fn symmetric(bytes: u64) -> Self {
        Self {
            act_bytes: bytes,
            wgt_bytes: bytes,
        }
    }

    /// Configuration sized for the given container width (the paper's
    /// rule: 4 MB each at 8 bits, scaled with the container).
    #[must_use]
    pub fn for_container_bits(bits: u8) -> Self {
        let each = (4u64 << 20) * u64::from(bits) / 8;
        Self {
            act_bytes: each,
            wgt_bytes: each,
        }
    }
}

/// Off-chip access pattern for one layer under a tiled dataflow.
///
/// When both operands fit on-chip, each is read once. Otherwise the layer
/// is tiled and one operand streams multiple times; the model picks the
/// cheaper orientation, exactly the choice a dataflow compiler makes:
///
/// * weight-stationary: weights read once, activations re-read once per
///   weight-buffer-sized chunk;
/// * activation-stationary: activations read once, weights re-read once
///   per activation-buffer-sized chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerPasses {
    /// How many times the input activations stream from off-chip.
    pub act_reads: u64,
    /// How many times the weights stream from off-chip.
    pub wgt_reads: u64,
}

impl LayerPasses {
    /// Single-pass access (the large-buffer regime).
    #[must_use]
    pub fn single() -> Self {
        Self {
            act_reads: 1,
            wgt_reads: 1,
        }
    }

    /// Computes the pass counts for a layer whose uncompressed on-chip
    /// footprints are `act_bits` and `wgt_bits` (on-chip data is stored
    /// decompressed; the buffers bound the working set).
    ///
    /// A single pass suffices whenever *either* operand fits on-chip: the
    /// resident operand is reused against the other, which merely streams
    /// through once (the Siu et al. criterion). Only when neither fits
    /// must one operand re-stream once per resident chunk of the other;
    /// the model picks the cheaper orientation, exactly the choice a
    /// dataflow compiler makes.
    #[must_use]
    pub fn for_layer(buffers: &BufferConfig, act_bits: u64, wgt_bits: u64) -> Self {
        Self::for_layer_with_onchip_ratio(buffers, act_bits, wgt_bits, 1.0, 1.0)
    }

    /// Pass counts when the *on-chip* copies are also held compressed —
    /// the "on-chip storage" half of the paper's §3 title ("reducing
    /// off- and on-chip storage and communication"), evaluated as an
    /// extension. `act_ratio`/`wgt_ratio` are the compressed/uncompressed
    /// footprint ratios (1.0 = stored raw), so compression effectively
    /// enlarges the buffers and defers the tiling cliff.
    ///
    /// # Panics
    ///
    /// Panics unless both ratios are in `(0, 1]`.
    #[must_use]
    pub fn for_layer_with_onchip_ratio(
        buffers: &BufferConfig,
        act_bits: u64,
        wgt_bits: u64,
        act_ratio: f64,
        wgt_ratio: f64,
    ) -> Self {
        assert!(
            act_ratio > 0.0 && act_ratio <= 1.0 && wgt_ratio > 0.0 && wgt_ratio <= 1.0,
            "on-chip compression ratios must be in (0, 1]"
        );
        let act_cap = (buffers.act_bytes as f64 * 8.0 / act_ratio) as u64;
        let wgt_cap = (buffers.wgt_bytes as f64 * 8.0 / wgt_ratio) as u64;
        if act_bits <= act_cap || wgt_bits <= wgt_cap {
            return Self::single();
        }
        // Weight-stationary: acts re-read once per resident weight chunk.
        let ws = Self {
            act_reads: wgt_bits.div_ceil(wgt_cap).max(1),
            wgt_reads: 1,
        };
        // Activation-stationary: weights re-read per activation chunk.
        let as_ = Self {
            act_reads: 1,
            wgt_reads: act_bits.div_ceil(act_cap).max(1),
        };
        let ws_traffic = ws.act_reads * act_bits + ws.wgt_reads * wgt_bits;
        let as_traffic = as_.act_reads * act_bits + as_.wgt_reads * wgt_bits;
        if ws_traffic <= as_traffic {
            ws
        } else {
            as_
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_bandwidths() {
        assert_eq!(
            DramConfig::DDR4_2133.bandwidth_bytes_per_sec(),
            34_128_000_000
        );
        assert_eq!(
            DramConfig::DDR4_2400.bandwidth_bytes_per_sec(),
            38_400_000_000
        );
        assert!(DramConfig::DDR4_3200.bits_per_cycle(1_000_000_000) > 400.0);
    }

    #[test]
    fn cycles_for_bits_rounds_up() {
        let d = DramConfig::new(1000, 1); // 8 GB/s -> 64 bits/cycle at 1 GHz
        assert_eq!(d.cycles_for_bits(64, 1_000_000_000), 1);
        assert_eq!(d.cycles_for_bits(65, 1_000_000_000), 2);
        assert_eq!(d.cycles_for_bits(0, 1_000_000_000), 0);
    }

    #[test]
    fn labels() {
        assert_eq!(DramConfig::DDR4_3200.label(), "DDR4-3200");
    }

    #[test]
    fn buffer_presets() {
        assert_eq!(BufferConfig::paper_8b().act_bytes, 4 << 20);
        assert_eq!(BufferConfig::paper_16b().wgt_bytes, 8 << 20);
        assert_eq!(
            BufferConfig::for_container_bits(16).act_bytes,
            BufferConfig::paper_16b().act_bytes
        );
        assert_eq!(
            BufferConfig::for_container_bits(8).act_bytes,
            BufferConfig::paper_8b().act_bytes
        );
    }

    #[test]
    fn single_pass_when_everything_fits() {
        let b = BufferConfig::symmetric(1 << 20);
        let p = LayerPasses::for_layer(&b, 1 << 20, 1 << 20);
        assert_eq!(p, LayerPasses::single());
    }

    #[test]
    fn one_resident_operand_means_single_pass() {
        let b = BufferConfig::symmetric(1024); // 8192 bits each
                                               // Weights oversized but activations resident: weights stream once.
        assert_eq!(
            LayerPasses::for_layer(&b, 100, 32_768),
            LayerPasses::single()
        );
        // Mirror case.
        assert_eq!(
            LayerPasses::for_layer(&b, 32_768, 100),
            LayerPasses::single()
        );
    }

    #[test]
    fn neither_fits_forces_rereads_of_the_smaller() {
        let b = BufferConfig::symmetric(1024); // 8192-bit caps
                                               // acts 16384, wgts 32768: WS re-reads acts x4 (traffic 98304);
                                               // AS re-reads wgts x2 (traffic 81920) -> AS wins.
        let p = LayerPasses::for_layer(&b, 16_384, 32_768);
        assert_eq!(p.act_reads, 1);
        assert_eq!(p.wgt_reads, 2);
    }

    #[test]
    fn picks_the_cheaper_orientation() {
        let b = BufferConfig::symmetric(1024); // 8192-bit caps
                                               // Both oversized: acts 16384 bits, weights 81920 bits.
                                               // WS: acts x10 + weights x1 = 245760; AS: acts x1 + weights x2 =
                                               // 180224 -> activation-stationary wins.
        let p = LayerPasses::for_layer(&b, 16_384, 81_920);
        assert_eq!(p.act_reads, 1);
        assert_eq!(p.wgt_reads, 2);
    }

    #[test]
    fn onchip_compression_defers_the_tiling_cliff() {
        let b = BufferConfig::symmetric(1024); // 8192-bit caps
                                               // Both operands at 12288 bits: raw storage tiles, 0.6-ratio
                                               // compressed storage fits both.
        let raw = LayerPasses::for_layer(&b, 12_288, 12_288);
        assert_ne!(raw, LayerPasses::single());
        let packed = LayerPasses::for_layer_with_onchip_ratio(&b, 12_288, 12_288, 0.6, 0.6);
        assert_eq!(packed, LayerPasses::single());
    }

    #[test]
    #[should_panic(expected = "ratios must be in")]
    fn rejects_expanding_onchip_ratio() {
        let b = BufferConfig::symmetric(1024);
        let _ = LayerPasses::for_layer_with_onchip_ratio(&b, 1, 1, 1.5, 1.0);
    }

    #[test]
    fn shrinking_buffers_increase_traffic_monotonically() {
        // The premise of Figure 15.
        let act_bits = 50_000_000;
        let wgt_bits = 80_000_000;
        let mut last = 0u64;
        for mb in [16u64, 8, 4, 2, 1] {
            let b = BufferConfig::symmetric(mb << 20);
            let p = LayerPasses::for_layer(&b, act_bits, wgt_bits);
            let traffic = p.act_reads * act_bits + p.wgt_reads * wgt_bits;
            assert!(traffic >= last, "buffer {mb} MB");
            last = traffic;
        }
    }
}
