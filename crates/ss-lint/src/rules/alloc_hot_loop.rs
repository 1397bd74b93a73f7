//! Rule `alloc-in-hot-loop`: no heap allocation inside loops of
//! hot-reachable fns.
//!
//! The session layer (`CodecSession`) exists precisely so the per-tensor
//! loops of the codec and the batch engine run allocation-free: scratch
//! buffers are hoisted once and reused. An allocation creeping back into
//! a loop body of any fn reachable from the hot entry points silently
//! re-introduces the per-iteration malloc traffic PR 4 removed. The rule
//! combines the call-graph closure (is the line hot?) with the parser's
//! per-line loop depth (is it inside a `for`/`while`/`loop` body?) and
//! flags the usual allocating constructs. Hoisted allocations (loop depth
//! 0) are fine, and deliberate per-iteration allocations — e.g. producing
//! owned results the caller keeps — carry
//! `// ss-lint: allow(alloc-in-hot-loop) -- <why it must allocate>`.

use super::{has_token, Rule};
use crate::callgraph::Analysis;
use crate::diag::Diagnostic;
use crate::workspace::{FileKind, Workspace};

/// Allocating constructs, with the construct named.
const PATTERNS: &[(&str, &str)] = &[
    ("Vec::new", "`Vec::new`"),
    ("Vec::with_capacity", "`Vec::with_capacity`"),
    ("vec!", "`vec!`"),
    ("String::new", "`String::new`"),
    ("String::from", "`String::from`"),
    ("Box::new", "`Box::new`"),
    (".to_vec()", "`.to_vec()`"),
    (".to_string()", "`.to_string()`"),
    (".to_owned()", "`.to_owned()`"),
    ("format!", "`format!`"),
    (".collect()", "`.collect()`"),
];

/// See the module docs.
pub struct AllocHotLoop;

impl Rule for AllocHotLoop {
    fn id(&self) -> &'static str {
        "alloc-in-hot-loop"
    }

    fn description(&self) -> &'static str {
        "loops in hot-reachable fns must not allocate per iteration"
    }

    fn check(&self, ws: &Workspace, cx: &Analysis, out: &mut Vec<Diagnostic>) {
        for (file_idx, file) in ws.files.iter().enumerate() {
            if file.kind != FileKind::Source || !cx.file_has_hot_code(file_idx) {
                continue;
            }
            let Some(parsed) = cx.parsed_file(file_idx) else {
                continue;
            };
            for (idx, line) in file.lines.iter().enumerate() {
                let lineno = idx + 1;
                if parsed.loop_depth_at(lineno) == 0
                    || !cx.is_hot(file_idx, lineno)
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
                                "{label} inside a loop of a hot-reachable fn: hoist the \
                                 allocation out of the loop (session scratch buffers) or \
                                 annotate with `ss-lint: allow(alloc-in-hot-loop) -- <why>`"
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

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = ScannedFile::rust(
            "crates/ss-core/src/session.rs",
            FileKind::Source,
            src,
            &["alloc-in-hot-loop"],
        );
        let ws = Workspace::from_parts(vec![file], vec![]);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        AllocHotLoop.check(&ws, &cx, &mut out);
        out
    }

    #[test]
    fn allocation_inside_hot_loop_fires() {
        let src = "pub fn read_groups(n: usize) {\n  for _ in 0..n {\n    let buf = Vec::with_capacity(64);\n    drop(buf);\n  }\n}\n";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn hoisted_allocation_is_fine() {
        let src = "pub fn read_groups(n: usize) {\n  let mut buf = Vec::with_capacity(64);\n  for _ in 0..n {\n    buf.clear();\n  }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn cold_loops_are_ignored() {
        let src = "pub fn report(n: usize) {\n  for i in 0..n {\n    let s = format!(\"{i}\");\n    drop(s);\n  }\n}\n";
        assert!(
            run(src).is_empty(),
            "report is not reachable from entry points"
        );
    }

    #[test]
    fn annotation_documents_a_deliberate_allocation() {
        let src = "pub fn read_groups(n: usize) -> Vec<Vec<u8>> {\n  let mut out = Vec::new();\n  for _ in 0..n {\n    out.push(Vec::with_capacity(8)); // ss-lint: allow(alloc-in-hot-loop) -- caller keeps each chunk\n  }\n  out\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn nested_loop_bodies_are_covered() {
        let src = "pub fn scan_gather(n: usize) {\n  while n > 0 {\n    loop {\n      let v = x.to_vec();\n      break;\n    }\n  }\n}\n";
        assert_eq!(run(src).len(), 1);
    }
}
