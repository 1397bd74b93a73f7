//! Rule self-tests against seeded fixtures.
//!
//! Every rule ships a fixture under `crates/ss-lint/fixtures/` with
//! deliberately seeded violations. The self-test mounts each fixture at a
//! workspace-relative path inside the rule's scope (a hot-path module, a
//! crate root, a manifest) and runs the *production* lint entry point over
//! the synthetic workspace — proving the rule still fires, and that it
//! fires alone. A `suppressed` negative control carries correctly
//! annotated would-be violations and must come back clean, and a
//! `reachability` fixture proves the call-graph closure carries
//! `panic-freedom` into a module no hand-maintained list ever named.
//!
//! Two baseline fixtures prove the ratchet's keys survive rustfmt: a
//! finding accepted in `baseline.rs` is still accepted once rustfmt has
//! re-wrapped its statement, and a second finding in the same fn is
//! still new.
//!
//! Fixtures live outside `src/` so the workspace walk never scans them:
//! the seeded violations can never fail the real tree.

use crate::baseline::Baseline;
use crate::diag::Report;
use crate::rules;
use crate::workspace::{FileKind, ScannedFile, Workspace};

/// Name of the clean negative-control fixture.
pub const SUPPRESSED: &str = "suppressed";

/// Name of the cross-module reachability fixture: a hot entry point in
/// one file calling a panicking helper in an unlisted module.
pub const REACHABILITY: &str = "reachability";

/// File the [`REACHABILITY`] fixture's helper is mounted at — a module
/// outside every v1 hot-path list.
pub const REACHABILITY_HELPER: &str = "crates/ss-models/src/packer.rs";

/// Builds the synthetic workspace for `name` — a rule id, [`SUPPRESSED`]
/// or [`REACHABILITY`]. Returns `None` for unknown names.
#[must_use]
pub fn fixture_workspace(name: &str) -> Option<Workspace> {
    let known = rules::known_rule_ids();
    let rust = |rel: &str, text: &str| ScannedFile::rust(rel, FileKind::Source, text, &known);
    let (files, crate_roots) = match name {
        "panic-freedom" => (
            vec![rust(
                "crates/ss-core/src/codec.rs",
                include_str!("../fixtures/panic_freedom.rs"),
            )],
            vec![],
        ),
        "unsafe-wall" => (
            vec![rust(
                "crates/ss-core/src/lib.rs",
                include_str!("../fixtures/unsafe_wall.rs"),
            )],
            vec!["crates/ss-core/src/lib.rs".to_string()],
        ),
        "truncating-cast" => (
            vec![rust(
                "crates/ss-bitio/src/writer.rs",
                include_str!("../fixtures/truncating_cast.rs"),
            )],
            vec![],
        ),
        "concurrency-containment" => (
            vec![rust(
                "crates/ss-bench/src/lib.rs",
                include_str!("../fixtures/concurrency.rs"),
            )],
            vec![],
        ),
        "vendor-drift" => (
            vec![
                ScannedFile::manifest(
                    "crates/ss-models/Cargo.toml",
                    include_str!("../fixtures/vendor_drift.toml"),
                    &known,
                ),
                rust(
                    "crates/ss-models/src/gen.rs",
                    include_str!("../fixtures/vendor_drift.rs"),
                ),
            ],
            vec![],
        ),
        "alloc-in-hot-loop" => (
            vec![rust(
                "crates/ss-core/src/session.rs",
                include_str!("../fixtures/alloc_hot_loop.rs"),
            )],
            vec![],
        ),
        "determinism" => (
            vec![rust(
                "crates/ss-pipeline/src/report.rs",
                include_str!("../fixtures/determinism.rs"),
            )],
            vec![],
        ),
        "shift-bound" => (
            vec![rust(
                "crates/ss-bitio/src/reader.rs",
                include_str!("../fixtures/shift_bound.rs"),
            )],
            vec![],
        ),
        "lock-discipline" => (
            vec![rust(
                "crates/ss-pipeline/src/queue.rs",
                include_str!("../fixtures/lock_discipline.rs"),
            )],
            vec![],
        ),
        "annotation" => (
            vec![rust(
                "crates/ss-models/src/zoo.rs",
                include_str!("../fixtures/annotation.rs"),
            )],
            vec![],
        ),
        REACHABILITY => (
            vec![
                rust(
                    "crates/ss-core/src/codec.rs",
                    include_str!("../fixtures/reachability_entry.rs"),
                ),
                rust(
                    REACHABILITY_HELPER,
                    include_str!("../fixtures/reachability_helper.rs"),
                ),
            ],
            vec![],
        ),
        SUPPRESSED => (
            vec![
                rust(
                    "crates/ss-core/src/codec.rs",
                    include_str!("../fixtures/suppressed.rs"),
                ),
                rust(
                    "crates/ss-bitio/src/writer.rs",
                    include_str!("../fixtures/suppressed_bitio.rs"),
                ),
                rust(
                    "crates/ss-pipeline/src/queue.rs",
                    include_str!("../fixtures/suppressed_queue.rs"),
                ),
                rust(
                    "crates/ss-pipeline/src/report.rs",
                    include_str!("../fixtures/suppressed_report.rs"),
                ),
            ],
            vec![],
        ),
        _ => return None,
    };
    Some(Workspace::from_parts(files, crate_roots))
}

/// Lints the fixture for `name`. Returns `None` for unknown names.
#[must_use]
pub fn lint_fixture(name: &str) -> Option<Report> {
    fixture_workspace(name).map(|ws| crate::lint(&ws))
}

/// Runs every rule against its seeded fixture, the cross-module
/// reachability fixture, and the negative control. Returns failure
/// descriptions; an empty vector means the self-test passed.
#[must_use]
pub fn run() -> Vec<String> {
    let mut failures = Vec::new();
    for rule in rules::known_rule_ids() {
        let Some(report) = lint_fixture(rule) else {
            failures.push(format!("rule `{rule}` has no seeded fixture"));
            continue;
        };
        let hits = report.diagnostics.iter().filter(|d| d.rule == rule).count();
        if hits == 0 {
            failures.push(format!("rule `{rule}` did not fire on its seeded fixture"));
        }
        for stray in report.diagnostics.iter().filter(|d| d.rule != rule) {
            failures.push(format!(
                "fixture for `{rule}` triggered an unrelated rule: {}:{} [{}]",
                stray.file, stray.line, stray.rule
            ));
        }
    }
    match lint_fixture(REACHABILITY) {
        Some(report) => {
            let in_helper = report
                .diagnostics
                .iter()
                .filter(|d| d.rule == "panic-freedom" && d.file == REACHABILITY_HELPER)
                .count();
            // Exactly one: helper_pack's unwrap is hot via the call edge,
            // cold_helper's is not.
            if in_helper != 1 {
                failures.push(format!(
                    "reachability fixture: expected exactly 1 panic-freedom diagnostic in \
                     the unlisted helper module, got {in_helper}:\n{}",
                    report.render_human()
                ));
            }
            for stray in report
                .diagnostics
                .iter()
                .filter(|d| d.rule != "panic-freedom")
            {
                failures.push(format!(
                    "reachability fixture triggered an unrelated rule: {}:{} [{}]",
                    stray.file, stray.line, stray.rule
                ));
            }
        }
        None => failures.push(format!("missing `{REACHABILITY}` fixture")),
    }
    failures.extend(baseline_failures());
    match lint_fixture(SUPPRESSED) {
        Some(report) if !report.is_clean() => {
            for d in &report.diagnostics {
                failures.push(format!(
                    "negative control `{SUPPRESSED}` is not clean: {}:{} [{}] {}",
                    d.file, d.line, d.rule, d.message
                ));
            }
        }
        Some(_) => {}
        None => failures.push(format!("missing `{SUPPRESSED}` negative-control fixture")),
    }
    failures
}

/// Lints `text` mounted at a hot-path location.
fn lint_mounted(text: &str) -> Report {
    let file = ScannedFile::rust(
        "crates/ss-core/src/codec.rs",
        FileKind::Source,
        text,
        &rules::known_rule_ids(),
    );
    crate::lint(&Workspace::from_parts(vec![file], vec![]))
}

/// Checks the baseline fixtures: `baseline.rs` holds one finding,
/// `baseline_wrapped.rs` must give no new finding and no stale entry
/// against the baseline accepting it, and `baseline_second.rs` exactly
/// one new finding.
fn baseline_failures() -> Vec<String> {
    let original = lint_mounted(include_str!("../fixtures/baseline.rs"));
    let mut failures = Vec::new();
    if original.diagnostics.len() != 1 {
        failures.push(format!(
            "baseline fixture `baseline`: expected 1 finding, got:\n{}",
            original.render_human()
        ));
    }
    let accepted = Baseline::from_report(&original);
    for (name, text, new) in [
        (
            "baseline_wrapped",
            include_str!("../fixtures/baseline_wrapped.rs"),
            0,
        ),
        (
            "baseline_second",
            include_str!("../fixtures/baseline_second.rs"),
            1,
        ),
    ] {
        let mut report = lint_mounted(text);
        accepted.apply(&mut report);
        if report.diagnostics.len() != new || !report.stale_baseline.is_empty() {
            failures.push(format!(
                "baseline fixture `{name}`: expected {new} new and 0 stale, got {} new and {} \
                 stale:\n{}",
                report.diagnostics.len(),
                report.stale_baseline.len(),
                report.render_human()
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_fires_on_its_fixture_and_control_is_clean() {
        let failures = run();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn panic_freedom_fixture_seeds_each_construct() {
        let report = lint_fixture("panic-freedom").expect("fixture");
        // unwrap, expect, panic!, and one direct index.
        assert_eq!(report.diagnostics.len(), 4, "{}", report.render_human());
    }

    #[test]
    fn shift_bound_fixture_separates_bounded_from_unbounded() {
        let report = lint_fixture("shift-bound").expect("fixture");
        // splice, drain and checked fire; bounded_ok and masked_ok stay
        // quiet.
        assert_eq!(report.diagnostics.len(), 3, "{}", report.render_human());
    }

    #[test]
    fn lock_discipline_fixture_seeds_both_protocol_violations() {
        let report = lint_fixture("lock-discipline").expect("fixture");
        assert_eq!(report.diagnostics.len(), 2, "{}", report.render_human());
    }

    #[test]
    fn alloc_fixture_flags_loop_allocations_not_the_hoisted_buffer() {
        let report = lint_fixture("alloc-in-hot-loop").expect("fixture");
        // Vec::with_capacity and .to_string() inside the loop.
        assert_eq!(report.diagnostics.len(), 2, "{}", report.render_human());
        assert!(report.diagnostics.iter().all(|d| d.line >= 10));
    }

    #[test]
    fn vendor_fixture_covers_manifest_and_source() {
        let report = lint_fixture("vendor-drift").expect("fixture");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.file.ends_with("Cargo.toml")));
        assert!(report.diagnostics.iter().any(|d| d.file.ends_with(".rs")));
    }

    #[test]
    fn unknown_fixture_name_is_none() {
        assert!(lint_fixture("no-such-rule").is_none());
    }
}
