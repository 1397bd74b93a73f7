#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `ss-lint`: the ShapeShifter workspace invariant analyzer.
//!
//! The Section 3 container is lossless by construction — `Z` bit-vector,
//! `log2(P)` width prefix, sign-magnitude payload — and PR 1 made encode
//! and measure multi-threaded. Those guarantees only hold if the software
//! enforces them mechanically: a single silent panic, truncating cast or
//! splice-ordering bug now corrupts streams at scale. This crate is a
//! self-contained static-analysis pass (pure source scanning, no rustc
//! plugin) structured as **parse → symbols → call graph → rules**: the
//! lexer ([`lex`]) blanks comments/strings preserving spans, the parser
//! ([`parse`]) recovers `fn`/`impl` items, call sites and loop depths,
//! the symbol table ([`symbols`]) indexes them, and the call-graph pass
//! ([`callgraph`]) computes the set of fns transitively reachable from
//! the paper-critical hot entry points. Rules then check:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `panic-freedom` | hot-reachable fns never `unwrap`/`expect`/`panic!`/index |
//! | `unsafe-wall` | every crate root carries `#![forbid(unsafe_code)]` |
//! | `truncating-cast` | narrowing casts in hot width arithmetic carry range proofs |
//! | `concurrency-containment` | threads and locks live only in the containment modules |
//! | `vendor-drift` | vendored stand-ins stay in dev-dependencies/test code |
//! | `alloc-in-hot-loop` | loops in hot-reachable fns do not allocate per iteration |
//! | `determinism` | serialized-output code avoids hash iteration/clocks/floats/env |
//! | `shift-bound` | non-literal shifts in bitio/kernels have dominating bound checks |
//! | `lock-discipline` | waits re-check predicates; queue guards don't cross send/recv |
//! | `annotation` | (meta) every allow-annotation parses and names a real rule |
//!
//! Violations that are structurally impossible are suppressed in place —
//! see [`annot`] for the `// ss-lint: allow(<rule>) -- <reason>` grammar.
//! Pre-existing findings are *ratcheted* via `scripts/lint_baseline.json`
//! ([`baseline`]): the default run subtracts them and fails only on new
//! findings. Diagnostics carry `file:line` spans and render as human
//! text, JSON or SARIF 2.1.0 ([`diag`]). Every rule ships a seeded
//! fixture under `fixtures/` and a self-test ([`selftest`]) proving the
//! rule still fires on it.
//!
//! # Running
//!
//! ```text
//! cargo run -p ss-lint                   # lint the workspace, exit 1 on new violations
//! cargo run -p ss-lint -- --format json  # machine-readable report
//! cargo run -p ss-lint -- --format sarif # SARIF 2.1.0 for code-scanning UIs
//! cargo run -p ss-lint -- --no-baseline  # full report, ratchet disabled
//! cargo run -p ss-lint -- --write-baseline  # regenerate scripts/lint_baseline.json
//! cargo run -p ss-lint -- --self-test    # run every rule against its fixture
//! cargo run -p ss-lint -- --fixture panic-freedom   # lint one seeded fixture (exits 1)
//! ```

pub mod annot;
pub mod baseline;
pub mod callgraph;
pub mod diag;
pub mod lex;
pub mod parse;
pub mod rules;
pub mod selftest;
pub mod symbols;
pub mod workspace;

use std::path::Path;

use diag::{Diagnostic, Report};
use workspace::Workspace;

/// Lints an already-loaded workspace with every registry rule plus the
/// `annotation` meta-rule, returning a sorted report. No baseline is
/// applied — this is the raw analysis.
#[must_use]
pub fn lint(ws: &Workspace) -> Report {
    let rules = rules::registry();
    let cx = callgraph::Analysis::build(ws);
    let mut report = Report {
        files_scanned: ws.files.len(),
        hot_fns: cx.hot_fn_count(),
        ..Report::default()
    };
    for rule in &rules {
        report.rules_run.push(rule.id());
        report.rule_meta.push((rule.id(), rule.description()));
        rule.check(ws, &cx, &mut report.diagnostics);
    }
    // The annotation meta-rule: malformed annotations are diagnostics too,
    // so a typo can never silently disable a rule. Test code is exempt —
    // the code rules are not enforced there, so annotation correctness is
    // not load-bearing (test sources quote annotations in fixtures).
    report.rules_run.push(annot::ANNOTATION_RULE);
    report.rule_meta.push((
        annot::ANNOTATION_RULE,
        "every allow-annotation parses and names a real rule",
    ));
    for file in &ws.files {
        for (line, message) in &file.allows.malformed {
            if file.is_test_line(*line) {
                continue;
            }
            report.diagnostics.push(Diagnostic {
                rule: annot::ANNOTATION_RULE,
                file: file.rel.clone(),
                line: *line,
                message: message.clone(),
                snippet: file.snippet(*line),
                context: String::new(),
            });
        }
        report.allows_honored += file.allows.count();
    }
    let index: std::collections::HashMap<&str, usize> = ws
        .files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.rel.as_str(), i))
        .collect();
    for d in &mut report.diagnostics {
        if let Some(&i) = index.get(d.file.as_str()) {
            if let (Some(file), Some(parsed)) = (ws.files.get(i), cx.parsed.get(i)) {
                d.context = baseline::context(file, parsed, d.line);
            }
        }
    }
    report.sort();
    report
}

/// Loads the workspace at `root` and lints it, applying the checked-in
/// baseline ratchet (`scripts/lint_baseline.json`) when present: accepted
/// findings move into the report's `baselined` count and only new
/// findings remain as diagnostics.
///
/// # Errors
///
/// Propagates I/O errors from the workspace walk and a parse failure of a
/// hand-mangled baseline file.
pub fn lint_root(root: &Path) -> std::io::Result<Report> {
    let mut report = lint_root_raw(root)?;
    let baseline_path = root.join(baseline::BASELINE_REL);
    if baseline_path.exists() {
        baseline::Baseline::load(&baseline_path)?.apply(&mut report);
    }
    Ok(report)
}

/// Loads the workspace at `root` and lints it with **no** baseline —
/// every finding, accepted or not, appears as a diagnostic.
///
/// # Errors
///
/// Propagates I/O errors from the workspace walk.
pub fn lint_root_raw(root: &Path) -> std::io::Result<Report> {
    let known = rules::known_rule_ids();
    let ws = Workspace::load(root, &known)?;
    Ok(lint(&ws))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workspace::{FileKind, ScannedFile};

    #[test]
    fn malformed_annotation_surfaces_as_meta_diagnostic() {
        let known = rules::known_rule_ids();
        let file = ScannedFile::rust(
            "crates/ss-core/src/codec.rs",
            FileKind::Source,
            "// ss-lint: allow(panic-freedom)\nlet x = 1;\n",
            &known,
        );
        let report = lint(&Workspace::from_parts(vec![file], vec![]));
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, "annotation");
    }

    #[test]
    fn clean_synthetic_workspace_reports_clean() {
        let known = rules::known_rule_ids();
        let file = ScannedFile::rust(
            "crates/ss-core/src/codec.rs",
            FileKind::Source,
            "#![forbid(unsafe_code)]\npub fn ok() -> u64 { 42 }\n",
            &known,
        );
        let report = lint(&Workspace::from_parts(vec![file], vec![]));
        assert!(report.is_clean(), "{}", report.render_human());
        assert_eq!(report.rules_run.len(), 10);
        assert_eq!(report.rule_meta.len(), 10);
    }

    #[test]
    fn hot_fn_count_reaches_the_report() {
        let known = rules::known_rule_ids();
        let file = ScannedFile::rust(
            "crates/ss-core/src/codec.rs",
            FileKind::Source,
            "#![forbid(unsafe_code)]\npub fn read_groups(v: u64) -> u64 { widen(v) }\nfn widen(v: u64) -> u64 { v }\n",
            &known,
        );
        let report = lint(&Workspace::from_parts(vec![file], vec![]));
        assert_eq!(report.hot_fns, 2);
    }
}
