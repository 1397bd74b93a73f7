//! Rule `concurrency-containment`: thread and lock primitives live only
//! in the designated containment modules.
//!
//! The codec's chunk fan-outs, the `ss-pipeline` batch engine and the
//! experiment harness all map over independent items on
//! `ss_core::par::par_map_with`, whose index-claiming and ordering
//! argument is made once, in `crates/ss-core/src/par.rs`. The
//! `ss-pipeline` admission queue is the second self-contained argument:
//! its lock and condvar. The `ss-serve` service and TCP server are the
//! third and fourth: a long-lived worker pool draining that queue, and
//! reader/writer thread pairs per connection, each argued once in its
//! module docs. Scattered `thread::spawn` or ad-hoc locks elsewhere would
//! re-open those arguments file by file — so everywhere else, spawning
//! (`thread::spawn`, `thread::scope`) and blocking synchronization
//! (`Mutex`, `RwLock`, `Condvar`) are forbidden.
//! Test code is exempt, and deliberate exceptions (a process-wide cache)
//! carry a file-scoped allow-annotation with their safety argument.

use super::{has_token, Rule};
use crate::callgraph::Analysis;
use crate::diag::Diagnostic;
use crate::workspace::{FileKind, Workspace};

/// The modules allowed to spawn threads and take locks: the one
/// in-process worker primitive, the admission queue `ss-serve` builds
/// on, and the two `ss-serve` layers — the worker-pool service and the
/// per-connection reader/writer threads of the TCP server — whose
/// spawn/join lifecycles are argued in their module docs.
pub const CONTAINMENT: &[&str] = &[
    "crates/ss-core/src/par.rs",
    "crates/ss-pipeline/src/queue.rs",
    "crates/ss-serve/src/service.rs",
    "crates/ss-serve/src/server.rs",
];

const PATTERNS: &[&str] = &[
    "thread::spawn",
    "thread::scope",
    "Mutex",
    "RwLock",
    "Condvar",
];

/// See the module docs.
pub struct Concurrency;

impl Rule for Concurrency {
    fn id(&self) -> &'static str {
        "concurrency-containment"
    }

    fn description(&self) -> &'static str {
        "thread spawning and locks are confined to the containment modules"
    }

    fn check(&self, ws: &Workspace, _cx: &Analysis, out: &mut Vec<Diagnostic>) {
        for file in &ws.files {
            if file.kind != FileKind::Source || CONTAINMENT.contains(&file.rel.as_str()) {
                continue;
            }
            for (idx, line) in file.lines.iter().enumerate() {
                let lineno = idx + 1;
                if file.is_test_line(lineno) || file.is_allowed(self.id(), lineno) {
                    continue;
                }
                for pat in PATTERNS {
                    if has_token(&line.code, pat) {
                        out.push(Diagnostic {
                            rule: self.id(),
                            file: file.rel.clone(),
                            line: lineno,
                            message: format!(
                                "`{pat}` outside the containment modules {CONTAINMENT:?}: \
                                 route parallelism through `ss_core::par` \
                                 (par_map_with/par_map), or annotate the containment \
                                 exception"
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

    fn run_at(rel: &str, src: &str) -> Vec<Diagnostic> {
        let file = ScannedFile::rust(rel, FileKind::Source, src, &["concurrency-containment"]);
        let ws = Workspace::from_parts(vec![file], vec![]);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        Concurrency.check(&ws, &cx, &mut out);
        out
    }

    #[test]
    fn flags_primitives_outside_par() {
        assert_eq!(
            run_at("crates/ss-bench/src/lib.rs", "std::thread::scope(|s| {});").len(),
            1
        );
        assert_eq!(
            run_at("crates/ss-sim/src/sim.rs", "let m = Mutex::new(0);").len(),
            1
        );
    }

    #[test]
    fn containment_modules_are_exempt() {
        for module in CONTAINMENT {
            assert!(
                run_at(module, "std::thread::spawn(|| {}); let m = Mutex::new(0);").is_empty(),
                "{module}"
            );
        }
        // Non-containment ss-pipeline files stay covered, the engine
        // included: it maps batches over `ss_core::par`.
        for file in [
            "crates/ss-pipeline/src/lib.rs",
            "crates/ss-pipeline/src/engine.rs",
        ] {
            assert_eq!(run_at(file, "let m = Mutex::new(0);").len(), 1, "{file}");
            assert_eq!(
                run_at(file, "std::thread::scope(|s| {});").len(),
                1,
                "{file}"
            );
        }
    }

    #[test]
    fn file_annotation_documents_an_exception() {
        let src = "// ss-lint: allow-file(concurrency-containment) -- init-once cache\n\
                   static C: Mutex<u32> = Mutex::new(0);\n";
        assert!(run_at("crates/ss-bench/src/stats_cache.rs", src).is_empty());
    }

    #[test]
    fn atomics_are_fine() {
        assert!(run_at(
            "crates/ss-bench/src/lib.rs",
            "let n = std::sync::atomic::AtomicUsize::new(0);"
        )
        .is_empty());
    }

    #[test]
    fn trace_crate_is_covered() {
        // The shared recorder must stay lock-free: a Mutex creeping into
        // ss-trace would put a blocking primitive on every hot path.
        assert_eq!(
            run_at(
                "crates/ss-trace/src/collect.rs",
                "let slots = Mutex::new(Vec::new());"
            )
            .len(),
            1
        );
        assert_eq!(
            run_at("crates/ss-trace/src/lib.rs", "std::thread::spawn(|| {});").len(),
            1
        );
        // Its actual building blocks — atomics and OnceLock — are fine.
        assert!(run_at(
            "crates/ss-trace/src/collect.rs",
            "let c = std::sync::atomic::AtomicU64::new(0); let s: OnceLock<u8> = OnceLock::new();"
        )
        .is_empty());
    }
}
