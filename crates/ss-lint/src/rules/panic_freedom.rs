//! Rule `panic-freedom`: code reachable from the hot entry points must
//! not contain panicking constructs.
//!
//! The ShapeShifter container is decoded on the serving path; a panic in
//! the codec, the bit I/O substrate or a simulator inner loop takes the
//! whole process down mid-stream. v1 policed a hand-maintained module
//! list, which misses the panicking helper in an *unlisted* module the
//! moment a hot entry point starts calling it. v2 asks the call-graph
//! closure instead: every line inside a fn transitively reachable from
//! [`crate::callgraph::ENTRY_POINTS`] must be free of `.unwrap()`,
//! `.expect(`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` and
//! direct slice indexing (`values[i]`, `&buf[a..b]`), all of which can
//! abort. Test modules are exempt — asserting with `unwrap` is the point
//! of a test — and structurally-proven sites carry
//! `// ss-lint: allow(panic-freedom) -- <why the panic cannot fire>`.

use super::{has_token, Rule};
use crate::callgraph::Analysis;
use crate::diag::Diagnostic;
use crate::workspace::{FileKind, Workspace};

/// Panicking method calls and macros, with the construct named.
const PATTERNS: &[(&str, &str)] = &[
    (".unwrap()", "`.unwrap()`"),
    (".expect(", "`.expect(...)`"),
    ("panic!", "`panic!`"),
    ("unreachable!", "`unreachable!`"),
    ("todo!", "`todo!`"),
    ("unimplemented!", "`unimplemented!`"),
];

/// See the module docs.
pub struct PanicFreedom;

impl Rule for PanicFreedom {
    fn id(&self) -> &'static str {
        "panic-freedom"
    }

    fn description(&self) -> &'static str {
        "fns reachable from hot entry points must not unwrap/expect/panic or index slices"
    }

    fn check(&self, ws: &Workspace, cx: &Analysis, out: &mut Vec<Diagnostic>) {
        for (file_idx, file) in ws.files.iter().enumerate() {
            if file.kind != FileKind::Source || !cx.file_has_hot_code(file_idx) {
                continue;
            }
            for (idx, line) in file.lines.iter().enumerate() {
                let lineno = idx + 1;
                if !cx.is_hot(file_idx, lineno)
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
                                "{label} in a fn reachable from the hot entry points: convert \
                                 to a typed error or annotate with \
                                 `ss-lint: allow(panic-freedom) -- <proof>`"
                            ),
                            snippet: file.snippet(lineno),
                            context: String::new(),
                        });
                    }
                }
                if has_index_expr(&line.code) {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: file.rel.clone(),
                        line: lineno,
                        message: "direct slice indexing in a hot-reachable fn (can panic on \
                                  out-of-bounds): use `get`/iterators or annotate with a \
                                  bounds proof"
                            .to_string(),
                        snippet: file.snippet(lineno),
                        context: String::new(),
                    });
                }
            }
        }
    }
}

/// Detects an index/slice expression: a `[` immediately following an
/// identifier character, `)` or `]`. Array *types* (`[u8; 4]`), array
/// literals (`= [0; 4]`), attributes (`#[...]`) and macro brackets
/// (`vec![`) all have a non-expression character before the bracket and
/// are not flagged.
fn has_index_expr(code: &str) -> bool {
    let mut prev = ' ';
    for c in code.chars() {
        if c == '[' && (prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']') {
            return true;
        }
        prev = c;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::ScannedFile;

    fn ws_with(src: &str) -> Workspace {
        let file = ScannedFile::rust(
            "crates/ss-core/src/codec.rs",
            FileKind::Source,
            src,
            &["panic-freedom"],
        );
        Workspace::from_parts(vec![file], vec![])
    }

    /// Lints `body` inside a hot entry-point fn.
    fn run_hot(body: &str) -> Vec<Diagnostic> {
        let src = format!("pub fn write_groups(v: u32) -> u32 {{\n{body}\nv\n}}\n");
        let ws = ws_with(&src);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        PanicFreedom.check(&ws, &cx, &mut out);
        out
    }

    #[test]
    fn flags_each_construct_in_hot_code() {
        for bad in [
            "let x = v.unwrap();",
            "let x = v.expect(\"msg\");",
            "panic!(\"boom\");",
            "unreachable!();",
            "let y = data[i];",
            "let s = &buf[1..3];",
        ] {
            assert_eq!(run_hot(bad).len(), 1, "{bad}");
        }
    }

    #[test]
    fn ignores_types_literals_macros_and_comments() {
        for ok in [
            "let z: [u64; 4] = [0; 4];",
            "let v2 = vec![1, 2];",
            "#[allow(dead_code)]",
            "// data[i] and .unwrap() in a comment",
            "let s = \"data[i].unwrap()\";",
            "let r = v.checked_add(1).unwrap_or(0);",
        ] {
            assert!(run_hot(ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn annotations_are_exempt() {
        assert!(
            run_hot("let x = d[0]; // ss-lint: allow(panic-freedom) -- d.len() checked above")
                .is_empty()
        );
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "pub fn read_groups(v: u32) -> u32 { v }\n\
                   #[cfg(test)]\n\
                   mod tests {\n  fn read_groups_t() { v.unwrap(); }\n}\n";
        let ws = ws_with(src);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        PanicFreedom.check(&ws, &cx, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn cold_fns_are_ignored_even_in_former_hot_path_files() {
        let src = "pub fn cold_helper(v: u32) -> u32 {\n  v.unwrap()\n}\n";
        let ws = ws_with(src);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        PanicFreedom.check(&ws, &cx, &mut out);
        assert!(out.is_empty(), "unreachable fn is not hot");
    }

    #[test]
    fn reachability_crosses_into_unlisted_modules() {
        let hot = ScannedFile::rust(
            "crates/ss-core/src/codec.rs",
            FileKind::Source,
            "pub fn write_groups(v: u32) -> u32 {\n  helper_pack(v)\n}\n",
            &["panic-freedom"],
        );
        let helper = ScannedFile::rust(
            "crates/ss-models/src/packer.rs",
            FileKind::Source,
            "pub fn helper_pack(v: u32) -> u32 {\n  v.unwrap()\n}\n",
            &["panic-freedom"],
        );
        let ws = Workspace::from_parts(vec![hot, helper], vec![]);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        PanicFreedom.check(&ws, &cx, &mut out);
        assert_eq!(out.len(), 1, "helper in an unlisted module is still hot");
        assert_eq!(out[0].file, "crates/ss-models/src/packer.rs");
    }
}
