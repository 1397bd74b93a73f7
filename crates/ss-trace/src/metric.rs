//! The fixed metric schema: counters and width histograms.
//!
//! The schema is an enum rather than string keys so that the collecting
//! recorder can be a plain array of atomics — no map, no lock, no
//! allocation on the hot path — and so that a counter name typo is a
//! compile error rather than a silently separate time series.

/// Width histogram bucket count: widths 0..=32 (i32 magnitude + sign),
/// matching `ss-tensor`'s `TensorStats` bucketing so histograms from the
/// two layers can be compared entry for entry.
pub const WIDTH_BUCKETS: usize = 33;

macro_rules! metric_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration (= export) order.
            pub const ALL: &'static [$name] = &[$($name::$variant),+];

            /// Number of variants (the backing array length).
            pub const COUNT: usize = $name::ALL.len();

            /// Stable snake_case name used in the JSON export.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// Index into the collecting recorder's backing array.
            #[must_use]
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

metric_enum! {
    /// A monotonically increasing event/quantity counter.
    Counter {
        /// Codec `encode` invocations.
        EncodeCalls => "encode_calls",
        /// Values passed through `encode`.
        EncodeValues => "encode_values",
        /// Total stream bits produced by `encode`.
        EncodeBits => "encode_bits",
        /// `Z`-vector + `P`-prefix bits produced by `encode`.
        EncodeMetadataBits => "encode_metadata_bits",
        /// Payload bits produced by `encode`.
        EncodePayloadBits => "encode_payload_bits",
        /// Groups produced by `encode`.
        EncodeGroups => "encode_groups",
        /// Zero values elided (no payload emitted) by `encode`.
        EncodeZerosElided => "encode_zeros_elided",
        /// Codec `measure` invocations.
        MeasureCalls => "measure_calls",
        /// Values scanned by `measure`.
        MeasureValues => "measure_values",
        /// Stream bits accounted by `measure` (metadata + payload).
        MeasureBits => "measure_bits",
        /// Codec `decode` invocations.
        DecodeCalls => "decode_calls",
        /// Values reconstructed by `decode`.
        DecodeValues => "decode_values",
        /// Decodes that took the container-v2 indexed (parallel) path.
        DecodeIndexHits => "decode_index_hits",
        /// Indexed chunks fanned out across decode workers.
        DecodeChunksFanned => "decode_chunks_fanned",
        /// Off-chip bits priced under the `Base` scheme.
        SchemeBaseBits => "scheme_base_bits",
        /// Off-chip bits priced under the `Profile` scheme.
        SchemeProfileBits => "scheme_profile_bits",
        /// Off-chip bits priced under the `ShapeShifter` scheme.
        SchemeShapeShifterBits => "scheme_shapeshifter_bits",
        /// Off-chip bits priced under the `ZeroRLE` scheme.
        SchemeZeroRleBits => "scheme_zero_rle_bits",
        /// Off-chip bits priced under any other scheme.
        SchemeOtherBits => "scheme_other_bits",
        /// Layers simulated.
        SimLayers => "sim_layers",
        /// Datapath cycles across simulated layers.
        SimComputeCycles => "sim_compute_cycles",
        /// Off-chip transfer cycles across simulated layers.
        SimMemoryCycles => "sim_memory_cycles",
        /// Cycles the datapath stalled waiting for memory.
        SimStallCycles => "sim_stall_cycles",
        /// Off-chip traffic bits under the active scheme.
        SimTrafficBits => "sim_traffic_bits",
        /// Off-chip traffic bits with no compression.
        SimBaseTrafficBits => "sim_base_traffic_bits",
        /// Layers the Composer ran in paired-SIP (>8b weight) mode.
        SimComposerPairedLayers => "sim_composer_paired_layers",
        /// Synchronized broadcast steps walked by the tile schedule.
        TileSteps => "tile_steps",
        /// Cycles accumulated by the tile schedule walk.
        TileCycles => "tile_cycles",
        /// Shared layer-statistics cache hits.
        StatsCacheHits => "stats_cache_hits",
        /// Shared layer-statistics cache misses.
        StatsCacheMisses => "stats_cache_misses",
        /// Layer records dropped because the trace buffer was full.
        TraceLayersDropped => "trace_layers_dropped",
        /// Span events dropped because the trace buffer was full.
        TraceSpansDropped => "trace_spans_dropped",
        /// Batches processed by the `ss-pipeline` engine.
        PipelineBatches => "pipeline_batches",
        /// Tensors completed by `ss-pipeline` workers.
        PipelineTensors => "pipeline_tensors",
        /// Nanoseconds `ss-pipeline` workers spent inside encode.
        PipelineEncodeBusyNanos => "pipeline_encode_busy_nanos",
        /// Nanoseconds `ss-pipeline` workers spent inside measure.
        PipelineMeasureBusyNanos => "pipeline_measure_busy_nanos",
        /// Nanoseconds `ss-pipeline` workers spent inside decode.
        PipelineDecodeBusyNanos => "pipeline_decode_busy_nanos",
        /// Records appended to `ss-store` shards.
        StoreRecordsAppended => "store_records_appended",
        /// Shards finished (index + footer written) by `ss-store`.
        StoreShardsFinished => "store_shards_finished",
        /// Shard EOF indexes loaded by `ModelStore::open`.
        StoreShardsOpened => "store_shards_opened",
        /// Records decoded through `ModelStore::get`.
        StoreRecordsDecoded => "store_records_decoded",
        /// Record-block bytes fetched from storage by `ModelStore::get` —
        /// the partial-read guarantee: one `get` reads one record block,
        /// not the shard.
        StorePayloadBytesRead => "store_payload_bytes_read",
        /// Requests submitted to `ss-serve`: every call of
        /// `ServeHandle::submit_with_id`, control ops answered inline
        /// and submissions refused (`Overloaded`, `Draining`, `Closed`)
        /// included.
        ServeRequests => "serve_requests",
        /// Requests completed with an `Ok` status response.
        ServeResponsesOk => "serve_responses_ok",
        /// Requests completed with a typed error status response.
        ServeResponsesErr => "serve_responses_err",
        /// Submissions rejected with `Overloaded` (queue at capacity).
        ServeOverloaded => "serve_overloaded",
        /// Submissions rejected because the service was draining.
        ServeRejectedDraining => "serve_rejected_draining",
        /// Malformed SSRP frames rejected at the protocol layer.
        ServeProtocolErrors => "serve_protocol_errors",
        /// SSRP request body bytes received.
        ServeBytesIn => "serve_bytes_in",
        /// SSRP response body bytes sent.
        ServeBytesOut => "serve_bytes_out",
        /// TCP connections accepted by the `ss-serve` listener.
        ServeConnections => "serve_connections",
        /// Queued requests flushed to completion during a graceful drain.
        ServeDrainedInFlight => "serve_drained_in_flight",
    }
}

metric_enum! {
    /// A histogram over operation latencies (log2 nanosecond buckets).
    LatencyHist {
        /// End-to-end handling latency of `ss-serve` encode requests.
        ServeEncodeNanos => "serve_encode_nanos",
        /// End-to-end handling latency of `ss-serve` decode requests.
        ServeDecodeNanos => "serve_decode_nanos",
        /// End-to-end handling latency of `ss-serve` store-get requests.
        ServeGetNanos => "serve_get_nanos",
        /// End-to-end handling latency of `ss-serve` stats requests.
        ServeStatsNanos => "serve_stats_nanos",
        /// End-to-end handling latency of `ss-serve` health/drain requests.
        ServeControlNanos => "serve_control_nanos",
    }
}

metric_enum! {
    /// A histogram over detected widths (bucket = exact width in bits).
    WidthHist {
        /// Per-group width of every group the codec encoded or measured.
        CodecGroupWidth => "codec_group_width",
        /// Worst-row EOG width of every synchronized tile broadcast step.
        TileStepWidth => "tile_step_width",
        /// Per-group EOG width at the sync granularity, aggregated over
        /// every simulated layer (per-layer copies live in the layer
        /// records).
        LayerEogWidth => "layer_eog_width",
    }
}

impl Counter {
    /// Maps a compression scheme's display name onto its traffic counter
    /// (anything unrecognized lands in [`Counter::SchemeOtherBits`]).
    #[must_use]
    pub fn for_scheme(name: &str) -> Counter {
        match name {
            "Base" => Counter::SchemeBaseBits,
            "Profile" => Counter::SchemeProfileBits,
            "ShapeShifter" => Counter::SchemeShapeShifterBits,
            // `ZeroRle`'s display name (paper Figure 8 legend).
            "Zero compression" => Counter::SchemeZeroRleBits,
            _ => Counter::SchemeOtherBits,
        }
    }
}

/// A plain (non-atomic) width histogram: the local accumulator hot loops
/// fill before submitting one merged batch to a recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidthCounts {
    buckets: [u64; WIDTH_BUCKETS],
}

impl WidthCounts {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; WIDTH_BUCKETS],
        }
    }

    /// Adds `n` observations of `width` bits (widths beyond 32 saturate
    /// into the last bucket, which cannot occur for i32 sign-magnitude).
    pub fn observe(&mut self, width: u8, n: u64) {
        let idx = (width as usize).min(WIDTH_BUCKETS - 1);
        if let Some(bucket) = self.buckets.get_mut(idx) {
            *bucket += n;
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &WidthCounts) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// The buckets, index = width in bits.
    #[must_use]
    pub fn buckets(&self) -> &[u64; WIDTH_BUCKETS] {
        &self.buckets
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// `true` when nothing was observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

impl Default for WidthCounts {
    fn default() -> Self {
        Self::new()
    }
}

impl From<[u64; WIDTH_BUCKETS]> for WidthCounts {
    fn from(buckets: [u64; WIDTH_BUCKETS]) -> Self {
        Self { buckets }
    }
}

/// Latency histogram bucket count: bucket `i` holds observations whose
/// nanosecond value has `floor(log2(n)) == i` (0 ns lands in bucket 0),
/// so 64 buckets cover the entire `u64` range with ≤ 2× resolution —
/// enough to read p50/p99/p999 off a service without storing samples.
pub const LATENCY_BUCKETS: usize = 64;

/// A plain (non-atomic) log2-bucketed latency histogram: the local
/// accumulator for percentile accounting, and the snapshot form of the
/// collecting recorder's atomic rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyCounts {
    buckets: [u64; LATENCY_BUCKETS],
}

impl LatencyCounts {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; LATENCY_BUCKETS],
        }
    }

    /// Bucket index for a nanosecond observation.
    #[must_use]
    pub fn bucket_of(nanos: u64) -> usize {
        // floor(log2(n)) for n >= 1; 0 maps to bucket 0. Max index is
        // 63 for n = u64::MAX, which is LATENCY_BUCKETS - 1.
        (63 - nanos.max(1).leading_zeros()) as usize
    }

    /// Inclusive upper bound (in nanoseconds) of a bucket — the value
    /// percentile queries report.
    #[must_use]
    pub fn bucket_upper(index: usize) -> u64 {
        if index >= LATENCY_BUCKETS - 1 {
            u64::MAX
        } else {
            (2u64 << index) - 1
        }
    }

    /// Adds `n` observations of `nanos`.
    pub fn observe(&mut self, nanos: u64, n: u64) {
        if let Some(bucket) = self.buckets.get_mut(Self::bucket_of(nanos)) {
            *bucket += n;
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyCounts) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// The buckets, index = `floor(log2(nanos))`.
    #[must_use]
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// `true` when nothing was observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// The smallest bucket upper bound covering quantile `q` (0.0–1.0)
    /// of the observations, in nanoseconds; `None` when empty. The
    /// log2 buckets bound the answer within 2× of the true quantile.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based; q = 0 maps to the
        // first observation, q = 1 to the last.
        // ss-lint: allow(determinism) -- quantile rank over a live latency histogram; percentiles feed observability bodies (stats op, timings JSON) that deterministic artifacts exclude
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::bucket_upper(i));
            }
        }
        Some(u64::MAX)
    }

    /// p50 in nanoseconds (`None` when empty).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// p99 in nanoseconds (`None` when empty).
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// p999 in nanoseconds (`None` when empty).
    #[must_use]
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }
}

impl Default for LatencyCounts {
    fn default() -> Self {
        Self::new()
    }
}

impl From<[u64; LATENCY_BUCKETS]> for LatencyCounts {
    fn from(buckets: [u64; LATENCY_BUCKETS]) -> Self {
        Self { buckets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_indices_are_dense_and_names_unique() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, h) in WidthHist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
    }

    #[test]
    fn scheme_counter_mapping() {
        assert_eq!(Counter::for_scheme("Base"), Counter::SchemeBaseBits);
        assert_eq!(
            Counter::for_scheme("ShapeShifter"),
            Counter::SchemeShapeShifterBits
        );
        assert_eq!(
            Counter::for_scheme("Zero compression"),
            Counter::SchemeZeroRleBits
        );
        assert_eq!(
            Counter::for_scheme("Delta-ShapeShifter"),
            Counter::SchemeOtherBits
        );
    }

    #[test]
    fn latency_buckets_are_log2() {
        assert_eq!(LatencyCounts::bucket_of(0), 0);
        assert_eq!(LatencyCounts::bucket_of(1), 0);
        assert_eq!(LatencyCounts::bucket_of(2), 1);
        assert_eq!(LatencyCounts::bucket_of(3), 1);
        assert_eq!(LatencyCounts::bucket_of(1024), 10);
        assert_eq!(LatencyCounts::bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(LatencyCounts::bucket_upper(0), 1);
        assert_eq!(LatencyCounts::bucket_upper(1), 3);
        assert_eq!(LatencyCounts::bucket_upper(10), 2047);
        assert_eq!(LatencyCounts::bucket_upper(63), u64::MAX);
        // Every value sits within its bucket's range.
        for n in [0u64, 1, 2, 5, 1000, 123_456_789] {
            let b = LatencyCounts::bucket_of(n);
            assert!(n <= LatencyCounts::bucket_upper(b));
            if b > 0 {
                assert!(n > LatencyCounts::bucket_upper(b - 1));
            }
        }
    }

    #[test]
    fn latency_quantiles_walk_the_cumulative_counts() {
        let mut h = LatencyCounts::new();
        assert_eq!(h.quantile(0.5), None);
        // 90 fast observations (~1µs), 9 slow (~1ms), 1 very slow (~1s).
        h.observe(1_000, 90);
        h.observe(1_000_000, 9);
        h.observe(1_000_000_000, 1);
        assert_eq!(h.total(), 100);
        let fast = LatencyCounts::bucket_upper(LatencyCounts::bucket_of(1_000));
        let slow = LatencyCounts::bucket_upper(LatencyCounts::bucket_of(1_000_000));
        let worst = LatencyCounts::bucket_upper(LatencyCounts::bucket_of(1_000_000_000));
        assert_eq!(h.p50(), Some(fast));
        assert_eq!(h.p99(), Some(slow));
        assert_eq!(h.p999(), Some(worst));
        assert_eq!(h.quantile(1.0), Some(worst));
        assert_eq!(h.quantile(0.0), Some(fast));
        let mut other = LatencyCounts::new();
        other.observe(1_000, 10);
        h.merge(&other);
        assert_eq!(h.total(), 110);
    }

    #[test]
    fn width_counts_observe_merge_saturate() {
        let mut a = WidthCounts::new();
        assert!(a.is_empty());
        a.observe(4, 10);
        a.observe(200, 1); // saturates into the last bucket
        let mut b = WidthCounts::new();
        b.observe(4, 5);
        a.merge(&b);
        assert_eq!(a.buckets()[4], 15);
        assert_eq!(a.buckets()[WIDTH_BUCKETS - 1], 1);
        assert_eq!(a.total(), 16);
    }
}
