//! Codec configuration: the [`CodecConfig`] builder, the [`ExecPolicy`]
//! execution knob and the [`MeasureReport`] accounting struct.
//!
//! Scheduling is one typed parameter carried by the codec itself
//! ([`ExecPolicy`]) rather than a raw worker count threaded through
//! per-operation method variants, and [`CodecConfig`] is the single
//! builder through which every knob (group size, chunk-index policy,
//! execution policy) travels — including into `CodecSession` and the
//! `ss-pipeline` batch engine.

use crate::codec::IndexPolicy;
use crate::{par, CodecError};

/// How a codec operation maps onto worker threads.
///
/// The policy is orthogonal to the output: every policy produces
/// **bit-identical** streams and accounting (property-tested), it only
/// changes how the work is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecPolicy {
    /// Single-threaded, always. This is the oracle path the parallel
    /// implementations are differential-tested against, and the right
    /// choice inside an outer worker pool (e.g. `ss-pipeline`, which runs
    /// one sequential session per worker).
    Sequential,
    /// Exactly this many workers, regardless of tensor size (0 is treated
    /// as 1). No small-tensor heuristic — what benchmarks and
    /// bit-identity tests need.
    Threads(usize),
    /// Sequential below the parallel-worthwhile threshold, otherwise one
    /// worker per available core (honoring the `SS_THREADS` environment
    /// knob). The right default for one-shot calls.
    #[default]
    Auto,
}

impl ExecPolicy {
    /// Resolves the policy to a concrete worker count for a tensor of
    /// `len` values. `parallel_min` is the tensor size below which `Auto`
    /// stays sequential.
    #[must_use]
    pub(crate) fn threads_for(self, len: usize, parallel_min: usize) -> usize {
        match self {
            ExecPolicy::Sequential => 1,
            ExecPolicy::Threads(n) => n.max(1),
            ExecPolicy::Auto => {
                if len < parallel_min {
                    1
                } else {
                    par::thread_count()
                }
            }
        }
    }
}

/// Builder for a [`crate::ShapeShifterCodec`] (and, through it, for
/// `CodecSession` and the `ss-pipeline` engine).
///
/// Marked `#[non_exhaustive]` so future knobs can be added without a
/// breaking change; construct it with [`CodecConfig::new`] /
/// [`CodecConfig::default`] and the `with_*` methods.
///
/// # Examples
///
/// ```
/// use ss_core::{CodecConfig, ExecPolicy, IndexPolicy};
///
/// let codec = CodecConfig::new()
///     .with_group_size(16)
///     .with_index_policy(IndexPolicy::Auto)
///     .with_exec(ExecPolicy::Sequential)
///     .build()
///     .expect("group size is valid");
/// assert_eq!(codec.group_size(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct CodecConfig {
    /// Values per group (the paper's default is 16).
    pub group_size: usize,
    /// When `encode` writes a container-v2 chunk index.
    pub index_policy: IndexPolicy,
    /// How operations map onto worker threads.
    pub exec: ExecPolicy,
}

impl Default for CodecConfig {
    /// The paper's defaults: group size 16, automatic chunk indexing,
    /// automatic execution policy.
    fn default() -> Self {
        Self {
            group_size: 16,
            index_policy: IndexPolicy::default(),
            exec: ExecPolicy::default(),
        }
    }
}

impl CodecConfig {
    /// The default configuration (group size 16, `Auto` index and exec
    /// policies).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the group size. Validity (1..=256) is checked by
    /// [`CodecConfig::build`], not here, so builders can be chained
    /// without intermediate `Result`s.
    #[must_use]
    pub fn with_group_size(mut self, group_size: usize) -> Self {
        self.group_size = group_size;
        self
    }

    /// Sets the chunk-index policy.
    #[must_use]
    pub fn with_index_policy(mut self, policy: IndexPolicy) -> Self {
        self.index_policy = policy;
        self
    }

    /// Sets the execution policy.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Builds the codec, validating the configuration.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidGroupSize`] if `group_size` is 0 or exceeds
    /// 256 (the paper's largest evaluated group).
    pub fn build(self) -> Result<crate::ShapeShifterCodec, CodecError> {
        crate::ShapeShifterCodec::from_config(self)
    }
}

/// The exact bit accounting of an encoded stream, under any wire scheme:
/// every encode tallies it as it writes and carries it in
/// [`crate::SchemeStream::report`], and `ShapeShifterCodec::measure`
/// computes the ShapeShifter figures *without* materializing the stream.
///
/// Bits a group spends on value fields are payload; every other bit it
/// writes (`Z` vectors, `P` prefixes, sign planes) is metadata. The
/// accounting identity `total_bits() == metadata_bits + payload_bits`
/// matches the stream's `bit_len` bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MeasureReport {
    /// Bits spent on per-group metadata (`Z` vectors, `P` prefixes).
    pub metadata_bits: u64,
    /// Bits spent on value fields.
    pub payload_bits: u64,
    /// Number of groups the tensor packs into.
    pub groups: usize,
}

impl MeasureReport {
    /// Total stream bits: metadata plus payload, equal to the encoded
    /// stream's `bit_len`.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.metadata_bits + self.payload_bits
    }

    /// Adds another slice's accounting (chunk totals sum to the
    /// tensor's).
    pub(crate) fn add(&mut self, other: &MeasureReport) {
        self.metadata_bits += other.metadata_bits;
        self.payload_bits += other.payload_bits;
        self.groups += other.groups;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_every_knob() {
        let cfg = CodecConfig::new()
            .with_group_size(64)
            .with_index_policy(IndexPolicy::EveryGroups(4))
            .with_exec(ExecPolicy::Threads(3));
        assert_eq!(cfg.group_size, 64);
        assert_eq!(cfg.index_policy, IndexPolicy::EveryGroups(4));
        assert_eq!(cfg.exec, ExecPolicy::Threads(3));
        let codec = cfg.build().unwrap();
        assert_eq!(codec.group_size(), 64);
        assert_eq!(codec.index_policy(), IndexPolicy::EveryGroups(4));
        assert_eq!(codec.exec_policy(), ExecPolicy::Threads(3));
    }

    #[test]
    fn build_rejects_invalid_group_sizes() {
        for bad in [0usize, 257, 1 << 20] {
            assert_eq!(
                CodecConfig::new().with_group_size(bad).build().unwrap_err(),
                CodecError::InvalidGroupSize,
                "group size {bad}"
            );
        }
    }

    #[test]
    fn exec_policy_resolution() {
        assert_eq!(ExecPolicy::Sequential.threads_for(1 << 30, 1), 1);
        assert_eq!(ExecPolicy::Threads(0).threads_for(10, 1), 1);
        assert_eq!(ExecPolicy::Threads(7).threads_for(10, 1 << 20), 7);
        assert_eq!(ExecPolicy::Auto.threads_for(10, 1 << 16), 1);
        assert!(ExecPolicy::Auto.threads_for(1 << 20, 1 << 16) >= 1);
    }

    #[test]
    fn measure_report_accounting() {
        let r = MeasureReport {
            metadata_bits: 20,
            payload_bits: 39,
            groups: 1,
        };
        assert_eq!(r.total_bits(), 59);
        let mut sum = r;
        sum.add(&r);
        assert_eq!(
            sum,
            MeasureReport {
                metadata_bits: 40,
                payload_bits: 78,
                groups: 2,
            }
        );
    }
}
