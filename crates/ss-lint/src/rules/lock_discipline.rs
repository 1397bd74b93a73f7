//! Rule `lock-discipline`: condition variables and queue locks follow the
//! two protocols that keep the pipeline deadlock- and lost-wakeup-free.
//!
//! **Waits re-check their predicate.** A `Condvar::wait` is allowed to
//! wake spuriously, so every wait must sit inside a `while`/`loop` that
//! re-checks the predicate before proceeding. A naked `if pred { wait() }`
//! is a lost-wakeup bug that only fires under load. The rule flags
//! `.wait(`/`.wait_timeout(` at loop depth zero; `.wait_while(` is exempt
//! because the closure *is* the re-checked predicate.
//!
//! **Guards don't cross a send/recv boundary.** In the `ss-pipeline`
//! admission queue, holding a `Mutex` guard while performing a blocking
//! channel `send`/`recv` composes two blocking protocols and deadlocks the
//! moment the peer needs the same lock. The rule flags a `.lock()` whose
//! enclosing fn later performs `.send(`/`.recv(` with no intervening
//! `drop(` of the guard.
//!
//! Deliberate exceptions carry
//! `// ss-lint: allow(lock-discipline) -- <why the protocol still holds>`.

use super::{has_token, Rule};
use crate::callgraph::Analysis;
use crate::diag::Diagnostic;
use crate::workspace::{FileKind, Workspace};

/// The crate whose queue layer is subject to the guard-across-send
/// check. Waits are checked workspace-wide — a naked wait is wrong
/// anywhere.
const QUEUE_SCOPE_PREFIX: &str = "crates/ss-pipeline/";

/// See the module docs.
pub struct LockDiscipline;

impl Rule for LockDiscipline {
    fn id(&self) -> &'static str {
        "lock-discipline"
    }

    fn description(&self) -> &'static str {
        "condvar waits re-check predicates in a loop; queue guards never cross send/recv"
    }

    fn check(&self, ws: &Workspace, cx: &Analysis, out: &mut Vec<Diagnostic>) {
        for (file_idx, file) in ws.files.iter().enumerate() {
            if file.kind != FileKind::Source {
                continue;
            }
            let Some(parsed) = cx.parsed_file(file_idx) else {
                continue;
            };
            for (idx, line) in file.lines.iter().enumerate() {
                let lineno = idx + 1;
                if file.is_test_line(lineno) || file.is_allowed(self.id(), lineno) {
                    continue;
                }
                // Naked waits: `.wait(` / `.wait_timeout(` outside any loop.
                if (has_token(&line.code, ".wait(") || has_token(&line.code, ".wait_timeout("))
                    && parsed.loop_depth_at(lineno) == 0
                {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: file.rel.clone(),
                        line: lineno,
                        message: "condvar wait outside a predicate re-checking loop: wrap it \
                                  in `while !pred { ... }` (spurious wakeups are allowed), \
                                  use `.wait_while(`, or annotate with \
                                  `ss-lint: allow(lock-discipline) -- <why>`"
                            .to_string(),
                        snippet: file.snippet(lineno),
                        context: String::new(),
                    });
                }
                // Guard across send/recv, queue scope only.
                if file.rel.starts_with(QUEUE_SCOPE_PREFIX)
                    && has_token(&line.code, ".lock()")
                    && guard_crosses_channel_op(file, parsed, lineno)
                {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: file.rel.clone(),
                        line: lineno,
                        message: "mutex guard held across a channel send/recv later in this \
                                  fn: `drop(` the guard before the channel op (two blocking \
                                  protocols compose into a deadlock), or annotate with \
                                  `ss-lint: allow(lock-discipline) -- <why>`"
                            .to_string(),
                        snippet: file.snippet(lineno),
                        context: String::new(),
                    });
                }
            }
        }
    }
}

/// `true` when the fn enclosing `lineno` performs `.send(`/`.recv(` after
/// the lock line with no `drop(` in between.
fn guard_crosses_channel_op(
    file: &crate::workspace::ScannedFile,
    parsed: &crate::parse::ParsedFile,
    lineno: usize,
) -> bool {
    let Some(item) = parsed.fn_at(lineno) else {
        return false;
    };
    let end = item.body_end.unwrap_or(lineno);
    for later in file.lines.iter().take(end).skip(lineno) {
        if later.code.contains("drop(") {
            return false;
        }
        if has_token(&later.code, ".send(") || has_token(&later.code, ".recv(") {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::ScannedFile;

    const RULES: &[&str] = &["lock-discipline"];

    fn run_at(rel: &str, src: &str) -> Vec<Diagnostic> {
        let file = ScannedFile::rust(rel, FileKind::Source, src, RULES);
        let ws = Workspace::from_parts(vec![file], vec![]);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        LockDiscipline.check(&ws, &cx, &mut out);
        out
    }

    #[test]
    fn naked_wait_fires_anywhere() {
        let src = "fn park(c: &Condvar, g: G) {\n  let g = c.wait(g).unwrap_or(g);\n}\n";
        assert_eq!(run_at("crates/ss-models/src/pool.rs", src).len(), 1);
    }

    #[test]
    fn wait_in_while_or_loop_passes() {
        let w = "fn park(c: &Condvar, mut g: G) {\n  while !g.ready {\n    g = c.wait(g).unwrap_or(g);\n  }\n}\n";
        assert!(run_at("crates/ss-pipeline/src/queue.rs", w).is_empty());
        let l = "fn park(c: &Condvar, mut g: G) {\n  loop {\n    if g.ready { break; }\n    g = c.wait(g).unwrap_or(g);\n  }\n}\n";
        assert!(run_at("crates/ss-pipeline/src/queue.rs", l).is_empty());
    }

    #[test]
    fn wait_while_is_self_checking() {
        let src = "fn park(c: &Condvar, g: G) {\n  let g = c.wait_while(g, |s| !s.ready);\n}\n";
        assert!(run_at("crates/ss-pipeline/src/queue.rs", src).is_empty());
    }

    #[test]
    fn guard_across_send_fires_in_queue_scope_only() {
        let src = "fn relay(&self) {\n  let g = self.state.lock();\n  self.tx.send(g.item);\n}\n";
        assert_eq!(run_at("crates/ss-pipeline/src/queue.rs", src).len(), 1);
        assert!(
            run_at("crates/ss-models/src/pool.rs", src).is_empty(),
            "outside the queue scope the heuristic stays quiet"
        );
    }

    #[test]
    fn dropping_the_guard_before_send_passes() {
        let src = "fn relay(&self) {\n  let g = self.state.lock();\n  let item = g.take();\n  drop(g);\n  self.tx.send(item);\n}\n";
        assert!(run_at("crates/ss-pipeline/src/queue.rs", src).is_empty());
    }

    #[test]
    fn lock_without_channel_op_passes() {
        let src = "fn peek(&self) -> usize {\n  self.state.lock().items.len()\n}\n";
        assert!(run_at("crates/ss-pipeline/src/engine.rs", src).is_empty());
    }

    #[test]
    fn annotation_suppresses_both_checks() {
        let src = "fn park(c: &Condvar, g: G) {\n  let g = c.wait(g); // ss-lint: allow(lock-discipline) -- single-waiter startup barrier, no predicate exists yet\n}\n";
        assert!(run_at("crates/ss-pipeline/src/queue.rs", src).is_empty());
    }
}
