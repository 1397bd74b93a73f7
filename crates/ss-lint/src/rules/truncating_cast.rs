//! Rule `truncating-cast`: audit narrowing `as` casts in bit-width
//! arithmetic.
//!
//! The paper's containers are at most 16 bits wide, so the codec's width
//! arithmetic constantly moves values between `u64` stream fields and
//! narrow width/payload types. An `as` cast to a sub-word type silently
//! truncates; one wrong mask and a 17-bit value becomes a valid-looking
//! 16-bit one, corrupting streams without an error. On every line of a
//! fn reachable from the hot entry points, a cast to `u8`/`i8`/`u16`/
//! `i16` must either be rewritten without a cast or carry
//! `// ss-lint: allow(truncating-cast) -- <range proof>`.
//! Casts to 32-bit-and-wider targets are not flagged: the stream arithmetic
//! is `u64`-based and those casts are checked by the codec's own errors.

use super::{has_token, Rule};
use crate::callgraph::Analysis;
use crate::diag::Diagnostic;
use crate::workspace::{FileKind, Workspace};

/// Narrow targets whose `as` casts are audited.
const NARROW_TARGETS: &[&str] = &["as u8", "as i8", "as u16", "as i16"];

/// See the module docs.
pub struct TruncatingCast;

impl Rule for TruncatingCast {
    fn id(&self) -> &'static str {
        "truncating-cast"
    }

    fn description(&self) -> &'static str {
        "narrowing `as` casts in hot-reachable width arithmetic need a range proof"
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
                for target in NARROW_TARGETS {
                    if has_token(&line.code, target) {
                        out.push(Diagnostic {
                            rule: self.id(),
                            file: file.rel.clone(),
                            line: lineno,
                            message: format!(
                                "narrowing `{target}` cast in bit-width arithmetic: prove \
                                 the value fits (mask/shift on an adjacent line) and annotate \
                                 with `ss-lint: allow(truncating-cast) -- <proof>`, or use \
                                 `try_from`"
                            ),
                            snippet: file.snippet(lineno),
                            context: String::new(),
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

    fn run(body: &str) -> Vec<Diagnostic> {
        let src = format!("pub fn scan_group(x: u64) -> u64 {{\n{body}\nx\n}}\n");
        let file = ScannedFile::rust(
            "crates/ss-bitio/src/writer.rs",
            FileKind::Source,
            &src,
            &["truncating-cast"],
        );
        let ws = Workspace::from_parts(vec![file], vec![]);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        TruncatingCast.check(&ws, &cx, &mut out);
        out
    }

    #[test]
    fn flags_narrow_casts_only() {
        assert_eq!(run("let b = (v & 0xFF) as u8;").len(), 1);
        assert_eq!(run("let w = x as u16;").len(), 1);
        assert!(run("let w = x as u64;").is_empty());
        assert!(run("let w = x as usize;").is_empty());
        assert!(run("let w = x as u32;").is_empty());
    }

    #[test]
    fn annotated_cast_passes() {
        assert!(run(
            "let b = (v & 0xFF) as u8; // ss-lint: allow(truncating-cast) -- masked to 8 bits"
        )
        .is_empty());
    }

    #[test]
    fn cold_casts_are_not_audited() {
        let file = ScannedFile::rust(
            "crates/ss-bitio/src/writer.rs",
            FileKind::Source,
            "pub fn summarize(x: u64) -> u8 {\n  x as u8\n}\n",
            &["truncating-cast"],
        );
        let ws = Workspace::from_parts(vec![file], vec![]);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        TruncatingCast.check(&ws, &cx, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn identifier_suffixes_do_not_match() {
        assert!(run("let y = x as u8x16;").is_empty());
    }
}
