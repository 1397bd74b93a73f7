//! Metric names, units, the result line, and the host facts stamped on
//! every run.

use std::fmt::Write as _;

/// The registered schemes, by the name used in per-layer metric names.
pub const SCHEMES: [(&str, ss_core::SchemeId); 4] = [
    ("shapeshifter", ss_core::SchemeId::SHAPESHIFTER),
    ("delta", ss_core::SchemeId::DELTA),
    ("dpred", ss_core::SchemeId::DPRED),
    ("adabits", ss_core::SchemeId::ADABITS),
];

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("ops_s", "ops/s"),
    ("stored_bits_per_value", "bits/value"),
];

/// Per-layer metrics (`--trace 1`): name and unit, in report order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("protocol.frame_encode_ns_per_byte", "ns/byte"),
        ("protocol.frame_decode_ns_per_byte", "ns/byte"),
        ("protocol.small_frame_roundtrip_ns", "ns"),
        ("store.crc32_ns_per_byte", "ns/byte"),
        ("store.get_raw_ns_per_value", "ns/value"),
        ("store.get_ns_per_value", "ns/value"),
        ("store.write_ns_per_value", "ns/value"),
        ("store.open_ms", "ms"),
        ("container.unpack_with_ns_per_value", "ns/value"),
        ("container.pack_ns_per_value", "ns/value"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (prefix, unit) in [
        ("core.encode_ns_per_value", "ns/value"),
        ("core.decode_ns_per_value", "ns/value"),
        ("core.stored_bits_per_value", "bits/value"),
    ] {
        for (scheme, _) in SCHEMES {
            out.push((format!("{prefix}.{scheme}"), unit));
        }
    }
    out.extend(
        [
            ("kernels.scan_gather_ns_per_value", "ns/value"),
            ("bitio.pack_fields_ns_per_value", "ns/value"),
            ("bitio.read_fields_ns_per_value", "ns/value"),
            ("pipeline.per_call_ns_per_value", "ns/value"),
            ("pipeline.session_ns_per_value", "ns/value"),
            ("pipeline.pool_ns_per_value", "ns/value"),
            ("pipeline.queue_high_water", "count"),
            ("batch.encode_mvals_s", "Mvalues/s"),
            ("batch.decode_mvals_s", "Mvalues/s"),
            ("wire.encode_tensor_ns_per_value", "ns/value"),
            ("wire.decode_tensor_ns_per_value", "ns/value"),
            ("service.inproc_call_us", "us"),
            ("service.queue_high_water", "count"),
            ("server.tcp_overhead_us", "us"),
            ("serve.stage_sum_share", "ratio"),
            ("serve.stage_residual_us", "us"),
            ("latency.p50_ms", "ms"),
            ("latency.p99_ms", "ms"),
            ("loadgen.late_p99_ms", "ms"),
            ("trace.overhead_share", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    out
}

/// Whether `name` is a legal metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`END_TO_END`] and [`per_layer`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Samples the value was taken from, where that means something.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric with no sample count.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Self {
            name: name.into(),
            value,
            samples: None,
        }
    }

    /// A metric taken from `samples` samples.
    #[must_use]
    pub fn sampled(name: impl Into<String>, value: f64, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            samples: Some(samples),
        }
    }
}

/// Operation accounting of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Of the failed ones, those answered with a wrong result.
    pub wrong: u64,
}

impl Tally {
    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// The unit registered for `name`, if it is a known metric.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (each `{"value", "unit"}`).
///
/// # Panics
///
/// On a non-finite value or an unregistered metric name: both are bugs
/// in the benchmark, and neither may reach the result line.
#[must_use]
pub fn result_json(tally: Tally, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        assert!(
            m.value.is_finite(),
            "metric {} is not finite: {}",
            m.name,
            m.value
        );
        let unit = unit_of(&m.name).unwrap_or_else(|| panic!("unregistered metric {}", m.name));
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.name, m.value
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.wrong == 0,
        tally.attempted.max(1),
        tally.failed
    )
}

/// Human-readable metric lines (name, value, unit, sample count).
#[must_use]
pub fn metric_lines(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let unit = unit_of(&m.name).unwrap_or("?");
        let _ = write!(out, "metric {:<40} {:>16.6} {unit}", m.name, m.value);
        if let Some(n) = m.samples {
            let _ = write!(out, "  (n={n})");
        }
        out.push('\n');
    }
    out
}

/// Online CPUs as `nproc` counts them (`/proc/cpuinfo` processors),
/// falling back to the available parallelism.
#[must_use]
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

/// `std::thread::available_parallelism`, 1 when unknown.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set by writing `5` to `/proc/self/clear_refs`, so that
/// [`peak_rss_mib`] covers only what runs after the call. Returns
/// whether the reset took effect.
#[must_use]
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPU time this process has used so far (user + system, all threads),
/// in seconds, from `/proc/self/stat` (in USER_HZ = 100 ticks). Time the
/// hypervisor steals from the host's vCPUs is not in it.
#[must_use]
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesized command name start at field 3
            // (state); utime and stime are fields 14 and 15.
            let rest = &s[s.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// The commit being measured: `git rev-parse HEAD` where the tree is a
/// git checkout, else `PERFBENCH_COMMIT`, else `unknown`.
#[must_use]
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .or_else(|| std::env::var("PERFBENCH_COMMIT").ok())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("core.encode_ns_per_value.dpred"));
        assert!(valid_name("9a-b_c.d"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(
            Tally {
                attempted: 3,
                failed: 1,
                wrong: 0,
            },
            &[Metric::new("latency_ms", 1.5), Metric::new("setup_s", 0.25)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
