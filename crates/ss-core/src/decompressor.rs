//! Cycle-approximate model of the two-level streaming decompressor
//! (paper §3, Figure 6d).
//!
//! A single first-level decompressor (L1D) walks the stream one group
//! header per cycle, computing each group's extent from its `(Z, P)`
//! header and handing payload lines to one of several second-level
//! decompressors (L2D), one per on-chip memory bank. Each L2D expands one
//! value per cycle. The model answers the design question the paper's
//! hardware answers by construction: *can the decoder sustain the DDR4
//! line rate?*

use crate::SchemeStream;

/// Which stage limits decode throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeBound {
    /// The off-chip interface delivers lines slower than they decode.
    MemorySupply,
    /// Header processing (one group per cycle) limits throughput.
    L1Dispatch,
    /// Value expansion (one value per L2D per cycle) limits throughput.
    L2Expand,
}

/// Decode timing for one encoded tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodeTiming {
    /// Cycles for the memory interface to deliver the stream.
    pub supply_cycles: u64,
    /// Cycles for the L1D to walk every group header.
    pub l1_cycles: u64,
    /// Cycles for the L2Ds to expand every value.
    pub l2_cycles: u64,
}

impl DecodeTiming {
    /// Total decode cycles: the stages are pipelined, so the slowest
    /// dominates.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.supply_cycles.max(self.l1_cycles).max(self.l2_cycles)
    }

    /// The limiting stage (ties resolve toward the earlier stage).
    #[must_use]
    pub fn bound(&self) -> DecodeBound {
        if self.supply_cycles >= self.l1_cycles && self.supply_cycles >= self.l2_cycles {
            DecodeBound::MemorySupply
        } else if self.l1_cycles >= self.l2_cycles {
            DecodeBound::L1Dispatch
        } else {
            DecodeBound::L2Expand
        }
    }

    /// `true` when decompression adds no cycles over raw streaming — the
    /// property the paper's design achieves ("ShapeShifter is completely
    /// transparent to the on-chip execution engine").
    #[must_use]
    pub fn is_transparent(&self) -> bool {
        self.bound() == DecodeBound::MemorySupply
    }
}

/// The two-level decompressor configuration.
///
/// # Examples
///
/// ```
/// use ss_core::decompressor::DecompressorModel;
/// use ss_core::ShapeShifterCodec;
/// use ss_tensor::{FixedType, Shape, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let vals: Vec<i32> = (0..256).map(|i| 2048 + i).collect();
/// let t = Tensor::from_vec(Shape::flat(256), FixedType::U16, vals)?;
/// let enc = ShapeShifterCodec::new(16).encode(&t)?;
/// // A single-channel 64-bit interface with 16 L2Ds: the stream arrives
/// // slower than it decodes, so compression is transparent.
/// let model = DecompressorModel::new(64, 16);
/// assert!(model.timing(&enc).is_transparent());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecompressorModel {
    line_bits: u64,
    num_l1d: u64,
    num_l2d: u64,
}

impl DecompressorModel {
    /// Creates a model with the given memory-interface width (bits
    /// delivered per core cycle), one L1 dispatcher, and `num_l2d`
    /// second-level decompressors (one per on-chip bank).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(line_bits: u64, num_l2d: u64) -> Self {
        assert!(line_bits > 0, "line width must be non-zero");
        assert!(num_l2d > 0, "need at least one L2D");
        Self {
            line_bits,
            num_l1d: 1,
            num_l2d,
        }
    }

    /// Sets the number of parallel L1 dispatchers. The paper places one
    /// decompressor hierarchy "per memory interface buffer": a dual-channel
    /// DDR4 system runs two independent streams, so headers dispatch at two
    /// groups per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `num_l1d == 0`.
    #[must_use]
    pub fn with_l1_count(mut self, num_l1d: u64) -> Self {
        assert!(num_l1d > 0, "need at least one L1D");
        self.num_l1d = num_l1d;
        self
    }

    /// Number of parallel L1 dispatchers.
    #[must_use]
    pub fn num_l1d(&self) -> u64 {
        self.num_l1d
    }

    /// Bits delivered per cycle by the memory interface.
    #[must_use]
    pub fn line_bits(&self) -> u64 {
        self.line_bits
    }

    /// Number of second-level decompressors.
    #[must_use]
    pub fn num_l2d(&self) -> u64 {
        self.num_l2d
    }

    /// Timing to stream-and-decode one encoded tensor.
    #[must_use]
    pub fn timing(&self, enc: &SchemeStream) -> DecodeTiming {
        let groups = enc.report.groups as u64;
        DecodeTiming {
            supply_cycles: enc.bit_len.div_ceil(self.line_bits),
            l1_cycles: groups.div_ceil(self.num_l1d),
            // Each L2D expands one value per cycle and a group stays on one
            // L2D; with groups spread round-robin the completion time is the
            // per-L2D value share, bounded below by one group's length.
            l2_cycles: (enc.len as u64)
                .div_ceil(self.num_l2d)
                .max(groups.min(1) * enc.group_size as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShapeShifterCodec;
    use ss_tensor::{FixedType, Shape, Tensor};

    fn encode(vals: Vec<i32>) -> SchemeStream {
        let t = Tensor::from_vec(Shape::flat(vals.len()), FixedType::U16, vals).unwrap();
        ShapeShifterCodec::new(16).encode(&t).unwrap()
    }

    #[test]
    fn wide_interface_makes_decode_transparent() {
        let enc = encode(vec![5; 1024]);
        let m = DecompressorModel::new(64, 16);
        let t = m.timing(&enc);
        // 1024 values in 64 groups; stream is tiny (width 3): supply is
        // still the long pole at 64 bits/cycle? Groups: 64 L1 cycles;
        // values/L2D: 64 cycles; supply: width-3 payload + metadata.
        assert_eq!(t.l1_cycles, 64);
        assert_eq!(t.l2_cycles, 64);
        assert!(t.cycles() >= 64);
    }

    #[test]
    fn narrow_interface_is_supply_bound() {
        let enc = encode((0..256).map(|i| i * 250).collect());
        let m = DecompressorModel::new(8, 64);
        let t = m.timing(&enc);
        assert_eq!(t.bound(), DecodeBound::MemorySupply);
        assert!(t.is_transparent());
    }

    #[test]
    fn single_l2d_is_expand_bound() {
        let enc = encode(vec![1; 256]);
        let m = DecompressorModel::new(1_000_000, 1);
        let t = m.timing(&enc);
        assert_eq!(t.bound(), DecodeBound::L2Expand);
        assert_eq!(t.l2_cycles, 256);
        assert!(!t.is_transparent());
    }

    #[test]
    fn paper_configuration_keeps_up_with_ddr4() {
        // The design point of §3: a dual-channel DDR4-3200 interface
        // (~410 bits per 1 GHz cycle), one L1D per channel, and 16 L2Ds
        // per channel (one per on-chip bank). Decoding must never be the
        // bottleneck, even for this barely-compressible uniform stream.
        let vals: Vec<i32> = (0..4096).map(|i| (i * 7919) % 4096).collect();
        let enc = encode(vals);
        let m = DecompressorModel::new(410, 32).with_l1_count(2);
        assert!(m.timing(&enc).is_transparent());
    }

    #[test]
    fn single_l1_throttles_highly_compressed_streams() {
        // A heavily compressed stream packs many groups per line: one
        // header per cycle cannot keep up — the motivation for one
        // decompressor hierarchy per memory channel.
        let enc = encode(vec![0; 4096]);
        let m = DecompressorModel::new(410, 64);
        assert_eq!(m.timing(&enc).bound(), DecodeBound::L1Dispatch);
        assert!(m.with_l1_count(8).timing(&enc).l1_cycles < m.timing(&enc).l1_cycles);
    }

    #[test]
    fn empty_stream() {
        let enc = encode(vec![]);
        let m = DecompressorModel::new(64, 4);
        assert_eq!(m.timing(&enc).cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one L2D")]
    fn zero_l2d_rejected() {
        let _ = DecompressorModel::new(64, 0);
    }
}
