//! Rule `determinism`: code that feeds serialized output must be
//! reproducible.
//!
//! The container format, the golden-vector suite and the deterministic
//! half of the `BENCH`/`BatchReport` output all promise byte-identical
//! results across runs and hosts. Four things quietly break that promise:
//! hash-container iteration order (`HashMap`/`HashSet` randomize per
//! process), wall-clock reads (`Instant`/`SystemTime`), float accumulation
//! (`as f32`/`as f64` casts feeding order-sensitive sums), and
//! environment-dependent branching (`env::var`, `available_parallelism`).
//! The rule polices two scopes: every line of a fn reachable from the hot
//! entry points (those values end up inside containers), and every line of
//! the explicitly listed serialization modules below. Timing that stays in
//! the clearly-separated nondeterministic half of a report carries
//! `// ss-lint: allow(determinism) -- <why it never reaches serialized
//! bytes>`.

use super::{has_token, Rule};
use crate::callgraph::Analysis;
use crate::diag::Diagnostic;
use crate::workspace::{FileKind, Workspace};

/// Modules whose entire contents feed serialized/deterministic output,
/// hot or not: the batch report (its deterministic half is diffed by the
/// pipeline tests) and the trace JSON emitter (golden trace files).
pub const DETERMINISM_FILES: &[&str] = &[
    "crates/ss-pipeline/src/report.rs",
    "crates/ss-trace/src/json.rs",
];

/// Nondeterministic constructs, with the construct and hazard named.
const PATTERNS: &[(&str, &str)] = &[
    ("HashMap", "`HashMap` (iteration order is randomized per process)"),
    ("HashSet", "`HashSet` (iteration order is randomized per process)"),
    ("Instant::now", "`Instant::now` (wall-clock read)"),
    ("SystemTime", "`SystemTime` (wall-clock read)"),
    ("env::var", "`env::var` (environment-dependent branch)"),
    ("env::vars", "`env::vars` (environment-dependent branch)"),
    (
        "available_parallelism",
        "`available_parallelism` (host-dependent value)",
    ),
    ("as f32", "`as f32` (float accumulation is order-sensitive)"),
    ("as f64", "`as f64` (float accumulation is order-sensitive)"),
];

/// See the module docs.
pub struct Determinism;

impl Rule for Determinism {
    fn id(&self) -> &'static str {
        "determinism"
    }

    fn description(&self) -> &'static str {
        "serialized-output code must avoid hash iteration, clocks, floats and env reads"
    }

    fn check(&self, ws: &Workspace, cx: &Analysis, out: &mut Vec<Diagnostic>) {
        for (file_idx, file) in ws.files.iter().enumerate() {
            if file.kind != FileKind::Source {
                continue;
            }
            let whole_file = DETERMINISM_FILES.contains(&file.rel.as_str());
            if !whole_file && !cx.file_has_hot_code(file_idx) {
                continue;
            }
            for (idx, line) in file.lines.iter().enumerate() {
                let lineno = idx + 1;
                if !(whole_file || cx.is_hot(file_idx, lineno))
                    || file.is_test_line(lineno)
                    || file.is_allowed(self.id(), lineno)
                {
                    continue;
                }
                for &(needle, label) in PATTERNS {
                    if has_token(&line.code, needle) {
                        out.push(Diagnostic {
                            rule: self.id(),
                            file: file.rel.clone(),
                            line: lineno,
                            message: format!(
                                "{label} in deterministic-output code: use sorted/ordered \
                                 structures and integer arithmetic, or annotate with \
                                 `ss-lint: allow(determinism) -- <why it never reaches \
                                 serialized bytes>`"
                            ),
                            snippet: file.snippet(lineno),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::ScannedFile;

    const RULES: &[&str] = &["determinism"];

    fn run_at(rel: &str, src: &str) -> Vec<Diagnostic> {
        let file = ScannedFile::rust(rel, FileKind::Source, src, RULES);
        let ws = Workspace::from_parts(vec![file], vec![]);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        Determinism.check(&ws, &cx, &mut out);
        out
    }

    #[test]
    fn listed_serialization_modules_are_covered_whole() {
        for bad in [
            "use std::collections::HashMap;",
            "let t = Instant::now();",
            "let n = std::thread::available_parallelism();",
            "let r = total as f64 / n as f64;",
        ] {
            assert!(
                !run_at("crates/ss-pipeline/src/report.rs", bad).is_empty(),
                "{bad}"
            );
        }
    }

    #[test]
    fn hot_reachable_code_is_covered_anywhere() {
        let src = "pub fn read_groups(n: u64) -> u64 {\n  let t = SystemTime::now();\n  n\n}\n";
        assert_eq!(run_at("crates/ss-models/src/zoo.rs", src).len(), 1);
    }

    #[test]
    fn cold_unlisted_code_is_not_covered() {
        let src = "pub fn bench_only(n: u64) -> f64 {\n  n as f64\n}\n";
        assert!(run_at("crates/ss-bench/src/suites.rs", src).is_empty());
    }

    #[test]
    fn annotation_separates_the_timing_half() {
        let src = "pub fn scan_group(n: u64) -> u64 {\n  let t = Instant::now(); // ss-lint: allow(determinism) -- timing half of the report, never serialized\n  n\n}\n";
        assert!(run_at("crates/ss-pipeline/src/engine.rs", src).is_empty());
    }

    #[test]
    fn ordered_structures_pass() {
        assert!(run_at(
            "crates/ss-pipeline/src/report.rs",
            "use std::collections::BTreeMap;\nlet total: u64 = parts.iter().sum();"
        )
        .is_empty());
    }
}
