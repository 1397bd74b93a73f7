//! Rule `vendor-drift`: vendored stand-ins stay out of product code.
//!
//! The build environment has no registry access, so `vendor/` holds
//! minimal API-compatible stand-ins for `rand`, `proptest` and
//! `criterion`. They are faithful enough for tests and benchmarks, but
//! product code must not grow a dependency on them: when the workspace
//! moves back to the real crates, every stand-in use site becomes a
//! behavioural diff. The rule checks both layers:
//!
//! * **manifests** — the vendored crates may appear under
//!   `[dev-dependencies]` only, never `[dependencies]`;
//! * **sources** — `use`/`extern crate`/path references to the vendored
//!   crates may appear in test, bench and example code only.
//!
//! Deliberate exceptions (the model zoo's calibrated generator) carry an
//! annotation in both the manifest and the source file.

use super::Rule;
use crate::callgraph::Analysis;
use crate::diag::Diagnostic;
use crate::workspace::{FileKind, Workspace};

/// Crates vendored under `vendor/`.
pub const VENDORED: &[&str] = &["rand", "proptest", "criterion"];

/// See the module docs.
pub struct VendorDrift;

impl Rule for VendorDrift {
    fn id(&self) -> &'static str {
        "vendor-drift"
    }

    fn description(&self) -> &'static str {
        "vendored stand-in crates appear only in dev-dependencies and test code"
    }

    fn check(&self, ws: &Workspace, _cx: &Analysis, out: &mut Vec<Diagnostic>) {
        for file in &ws.files {
            match file.kind {
                FileKind::Manifest => self.check_manifest(file, out),
                FileKind::Source => self.check_source(file, out),
                FileKind::TestSource => {}
            }
        }
    }
}

impl VendorDrift {
    fn check_manifest(&self, file: &crate::workspace::ScannedFile, out: &mut Vec<Diagnostic>) {
        let mut section = String::new();
        for (idx, line) in file.lines.iter().enumerate() {
            let lineno = idx + 1;
            let code = line.code.trim();
            if code.starts_with('[') {
                section = code
                    .trim_start_matches('[')
                    .trim_end_matches(']')
                    .to_string();
                continue;
            }
            if !is_plain_dependencies(&section) {
                continue;
            }
            let Some(key) = code.split(['=', '.']).next().map(str::trim) else {
                continue;
            };
            if VENDORED.contains(&key) && !file.is_allowed(self.id(), lineno) {
                out.push(Diagnostic {
                    rule: self.id(),
                    file: file.rel.clone(),
                    line: lineno,
                    message: format!(
                        "vendored stand-in `{key}` listed under `[{section}]`: move it to \
                         `[dev-dependencies]` or annotate with \
                         `# ss-lint: allow(vendor-drift) -- <reason>`"
                    ),
                    snippet: file.snippet(lineno),
                    context: String::new(),
                });
            }
        }
    }

    fn check_source(&self, file: &crate::workspace::ScannedFile, out: &mut Vec<Diagnostic>) {
        for (idx, line) in file.lines.iter().enumerate() {
            let lineno = idx + 1;
            if file.is_test_line(lineno) || file.is_allowed(self.id(), lineno) {
                continue;
            }
            let code = line.code.trim();
            for name in VENDORED {
                if references_crate(code, name) {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: file.rel.clone(),
                        line: lineno,
                        message: format!(
                            "product code references vendored stand-in `{name}`: move the \
                             use into test/bench code or annotate the exception"
                        ),
                        snippet: file.snippet(lineno),
                        context: String::new(),
                    });
                    break;
                }
            }
        }
    }
}

/// `[dependencies]` and `[target.'...'.dependencies]` — but not
/// `dev-dependencies`, `build-dependencies` or the workspace-level
/// declaration table (which is where the vendor paths are defined).
fn is_plain_dependencies(section: &str) -> bool {
    section == "dependencies"
        || (section.ends_with(".dependencies")
            && !section.ends_with("dev-dependencies")
            && !section.ends_with("build-dependencies")
            && section != "workspace.dependencies")
}

/// `true` when `code` imports or path-references crate `name`: a `use` /
/// `pub use` / `extern crate` item naming it, or a `name::` path segment.
fn references_crate(code: &str, name: &str) -> bool {
    for prefix in ["use ", "pub use ", "pub(crate) use ", "extern crate "] {
        if let Some(rest) = code.strip_prefix(prefix) {
            let head: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if head == name {
                return true;
            }
        }
    }
    super::has_token(code, &format!("{name}::"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::ScannedFile;

    const RULES: &[&str] = &["vendor-drift"];

    fn run_manifest(src: &str) -> Vec<Diagnostic> {
        let file = ScannedFile::manifest("crates/x/Cargo.toml", src, RULES);
        let ws = Workspace::from_parts(vec![file], vec![]);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        VendorDrift.check(&ws, &cx, &mut out);
        out
    }

    fn run_source(rel: &str, kind: FileKind, src: &str) -> Vec<Diagnostic> {
        let file = ScannedFile::rust(rel, kind, src, RULES);
        let ws = Workspace::from_parts(vec![file], vec![]);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        VendorDrift.check(&ws, &cx, &mut out);
        out
    }

    #[test]
    fn dependencies_section_is_flagged_dev_is_not() {
        assert_eq!(
            run_manifest("[dependencies]\nrand.workspace = true\n").len(),
            1
        );
        assert!(
            run_manifest("[dev-dependencies]\nrand.workspace = true\nproptest = \"1\"\n")
                .is_empty()
        );
    }

    #[test]
    fn workspace_declaration_table_is_exempt() {
        assert!(
            run_manifest("[workspace.dependencies]\nrand = { path = \"vendor/rand\" }\n")
                .is_empty()
        );
    }

    #[test]
    fn manifest_annotation_suppresses() {
        let src = "[dependencies]\n\
                   # ss-lint: allow(vendor-drift) -- calibrated zoo generator\n\
                   rand.workspace = true\n";
        assert!(run_manifest(src).is_empty());
    }

    #[test]
    fn product_source_use_is_flagged() {
        assert_eq!(
            run_source(
                "crates/ss-models/src/gen.rs",
                FileKind::Source,
                "use rand::Rng;\n"
            )
            .len(),
            1
        );
        assert_eq!(
            run_source(
                "crates/ss-models/src/gen.rs",
                FileKind::Source,
                "let r = rand::rngs::StdRng::seed_from_u64(1);\n"
            )
            .len(),
            1
        );
    }

    #[test]
    fn test_bench_code_is_exempt() {
        assert!(run_source(
            "crates/ss-bench/benches/codec.rs",
            FileKind::TestSource,
            "use criterion::Criterion;\n"
        )
        .is_empty());
    }

    #[test]
    fn similarly_named_crates_do_not_match() {
        assert!(run_source(
            "crates/ss-core/src/codec.rs",
            FileKind::Source,
            "use randomize::Gen; let x = operand::new();\n"
        )
        .is_empty());
    }
}
