//! The rule registry.
//!
//! Each rule is a pure function of the scanned [`Workspace`] plus the
//! shared [`Analysis`] context (parsed items, symbol table, hot-path
//! reachability closure): it pushes [`Diagnostic`]s for every violation
//! that is not suppressed by an allow-annotation. Rules never read the
//! filesystem themselves, which is what lets the self-test fixtures run
//! through the exact production code path with synthetic in-memory
//! workspaces.

mod alloc_hot_loop;
mod concurrency;
mod determinism;
mod lock_discipline;
mod panic_freedom;
mod shift_bound;
mod truncating_cast;
mod unsafe_wall;
mod vendor_drift;

use crate::callgraph::Analysis;
use crate::diag::Diagnostic;
use crate::workspace::Workspace;

pub use alloc_hot_loop::AllocHotLoop;
pub use concurrency::Concurrency;
pub use determinism::Determinism;
pub use lock_discipline::LockDiscipline;
pub use panic_freedom::PanicFreedom;
pub use shift_bound::ShiftBound;
pub use truncating_cast::TruncatingCast;
pub use unsafe_wall::UnsafeWall;
pub use vendor_drift::VendorDrift;

/// A workspace invariant checked by the linter.
pub trait Rule {
    /// Stable identifier used in diagnostics and allow-annotations.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules` and SARIF rule metadata.
    fn description(&self) -> &'static str;
    /// Scans the workspace, appending violations to `out`.
    fn check(&self, ws: &Workspace, cx: &Analysis, out: &mut Vec<Diagnostic>);
}

/// Every shipped rule, in reporting order.
#[must_use]
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(PanicFreedom),
        Box::new(UnsafeWall),
        Box::new(TruncatingCast),
        Box::new(Concurrency),
        Box::new(VendorDrift),
        Box::new(AllocHotLoop),
        Box::new(Determinism),
        Box::new(ShiftBound),
        Box::new(LockDiscipline),
    ]
}

/// The rule ids accepted inside allow-annotations: every registry rule
/// plus the `annotation` meta-rule itself.
#[must_use]
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = registry().iter().map(|r| r.id()).collect();
    ids.push(crate::annot::ANNOTATION_RULE);
    ids
}

/// Shared helper: `true` if `code` contains `needle` as a standalone
/// token. A boundary is checked only on sides where the needle itself
/// ends in an identifier character: `Mutex` must not match `FauxMutex`
/// or `Mutexes`, but `.unwrap()` may follow an identifier and `rand::`
/// may precede one — the punctuation already delimits the token there.
pub(crate) fn has_token(code: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let needle_starts_ident = needle.chars().next().is_some_and(is_ident);
    let needle_ends_ident = needle.chars().next_back().is_some_and(is_ident);
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre_ok =
            !needle_starts_ident || !code[..start].chars().next_back().is_some_and(is_ident);
        let post_ok = !needle_ends_ident || !code[end..].chars().next().is_some_and(is_ident);
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_known() {
        let ids = known_rule_ids();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate rule id");
        assert!(ids.contains(&"panic-freedom"));
        assert!(ids.contains(&"alloc-in-hot-loop"));
        assert!(ids.contains(&"determinism"));
        assert!(ids.contains(&"shift-bound"));
        assert!(ids.contains(&"lock-discipline"));
        assert!(ids.contains(&"annotation"));
        assert_eq!(ids.len(), 10, "9 rules + the annotation meta-rule");
    }

    #[test]
    fn token_boundaries() {
        assert!(has_token("let m = Mutex::new(0);", "Mutex"));
        assert!(!has_token("let m = FauxMutex::new(0);", "Mutex"));
        assert!(!has_token("let m = Mutexes::new(0);", "Mutex"));
        assert!(has_token("x.unwrap()", ".unwrap()"));
        assert!(!has_token("x.unwrap_or(0)", ".unwrap()"));
    }
}
