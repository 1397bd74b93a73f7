//! Rule `unsafe-wall`: every crate root must carry
//! `#![forbid(unsafe_code)]`.
//!
//! The whole workspace is safe Rust by policy — the codec's bit-exactness
//! guarantees are argued in terms of the type system, and one `unsafe`
//! block would re-open every aliasing and initialization question. Unlike
//! `deny`, `forbid` cannot be overridden further down the module tree, so
//! checking the single crate-root attribute covers the entire crate.

use super::Rule;
use crate::callgraph::Analysis;
use crate::diag::Diagnostic;
use crate::workspace::Workspace;

const ATTRIBUTE: &str = "#![forbid(unsafe_code)]";

/// See the module docs.
pub struct UnsafeWall;

impl Rule for UnsafeWall {
    fn id(&self) -> &'static str {
        "unsafe-wall"
    }

    fn description(&self) -> &'static str {
        "every crate root must carry #![forbid(unsafe_code)]"
    }

    fn check(&self, ws: &Workspace, _cx: &Analysis, out: &mut Vec<Diagnostic>) {
        for root in &ws.crate_roots {
            let Some(file) = ws.file(root) else {
                continue;
            };
            let has_wall = file.lines.iter().any(|l| l.code.contains(ATTRIBUTE));
            if !has_wall && !file.is_allowed(self.id(), 1) {
                out.push(Diagnostic {
                    rule: self.id(),
                    file: root.clone(),
                    line: 1,
                    message: format!("crate root is missing `{ATTRIBUTE}`"),
                    snippet: file.snippet(1),
                    context: String::new(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{FileKind, ScannedFile};

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = ScannedFile::rust(
            "crates/x/src/lib.rs",
            FileKind::Source,
            src,
            &["unsafe-wall"],
        );
        let ws = Workspace::from_parts(vec![file], vec!["crates/x/src/lib.rs".to_string()]);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        UnsafeWall.check(&ws, &cx, &mut out);
        out
    }

    #[test]
    fn present_attribute_passes() {
        assert!(run("#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n").is_empty());
    }

    #[test]
    fn missing_attribute_fails_at_line_one() {
        let out = run("#![warn(missing_docs)]\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn commented_out_attribute_does_not_count() {
        assert_eq!(run("// #![forbid(unsafe_code)]\n").len(), 1);
    }
}
