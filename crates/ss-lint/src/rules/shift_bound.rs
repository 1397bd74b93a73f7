//! Rule `shift-bound`: variable shift amounts in the bit I/O substrate
//! must be provably in range.
//!
//! `x << n` with `n >= 64` is undefined-ish in release Rust (it wraps the
//! shift amount) and panics in debug — and the bitio reader/writer and
//! the word-parallel kernels are built almost entirely out of variable
//! shifts. The rule finds every `<<`/`>>` (and `checked_shl`/`checked_shr`
//! and their `wrapping_` forms) whose amount is not a literal, then looks
//! for a *dominating bound* earlier in the same fn: a line mentioning the
//! amount identifier together with a comparison, `assert`/`debug_assert`,
//! `.min(`/`.clamp(`, a modulo, or an and-mask against a literal. A shift
//! with no such dominating check must carry
//! `// ss-lint: allow(shift-bound) -- <range proof>` naming the invariant
//! that keeps the amount below the type width.
//!
//! The scope is the fixed file list below (the substrate where the paper's
//! bit-packing lives), not the hot closure: a cold helper with an
//! unbounded shift is one refactor away from the hot path.

use super::{has_token, Rule};
use crate::callgraph::Analysis;
use crate::diag::Diagnostic;
use crate::lex::Line;
use crate::parse::ParsedFile;
use crate::workspace::{FileKind, Workspace};

/// The bit-manipulation substrate this rule polices.
pub const SHIFT_SCOPE: &[&str] = &[
    "crates/ss-bitio/src/reader.rs",
    "crates/ss-bitio/src/writer.rs",
    "crates/ss-core/src/kernels.rs",
];

/// Checked/wrapping shift methods whose amount argument is audited too:
/// `checked_shl(n).unwrap()` trades the wrap for a panic, and a wrapping
/// shift by an unbounded amount is a silent data corruption.
const SHIFT_METHODS: &[&str] = &[
    ".checked_shl(",
    ".checked_shr(",
    ".wrapping_shl(",
    ".wrapping_shr(",
];

/// See the module docs.
pub struct ShiftBound;

impl Rule for ShiftBound {
    fn id(&self) -> &'static str {
        "shift-bound"
    }

    fn description(&self) -> &'static str {
        "non-literal shift amounts in bitio/kernels need a dominating bound check"
    }

    fn check(&self, ws: &Workspace, cx: &Analysis, out: &mut Vec<Diagnostic>) {
        for (file_idx, file) in ws.files.iter().enumerate() {
            if file.kind != FileKind::Source || !SHIFT_SCOPE.contains(&file.rel.as_str()) {
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
                for amount in shift_amounts(&line.code) {
                    if has_dominating_bound(&file.lines, parsed, lineno, &amount) {
                        continue;
                    }
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: file.rel.clone(),
                        line: lineno,
                        message: format!(
                            "shift by non-literal `{amount}` with no dominating bound check \
                             in this fn: mask/min/assert the amount below the type width, \
                             or annotate with `ss-lint: allow(shift-bound) -- <range proof>`"
                        ),
                        snippet: file.snippet(lineno),
                        context: String::new(),
                    });
                }
            }
        }
    }
}

/// Extracts the non-literal shift amounts of one line: the identifier to
/// the right of each `<<`/`>>`/`<<=`/`>>=`, and the first argument of the
/// audited shift methods. Literal amounts and generics closers
/// (`Vec<Vec<u8>>`, where the "amount" is not an expression head) yield
/// nothing.
fn shift_amounts(code: &str) -> Vec<String> {
    let mut found = Vec::new();
    let bytes: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let (a, b) = (bytes[i], bytes[i + 1]);
        if (a == '<' && b == '<') || (a == '>' && b == '>') {
            // Reject `<<<`/`>>>` runs (never a shift in valid Rust) by
            // skipping the whole run.
            let mut j = i + 2;
            if bytes.get(j) == Some(&a) {
                while bytes.get(j) == Some(&a) {
                    j += 1;
                }
                i = j;
                continue;
            }
            if bytes.get(j) == Some(&'=') {
                j += 1; // compound assignment `<<=` / `>>=`
            }
            if let Some(amount) = amount_at(&bytes, j) {
                found.push(amount);
            }
            i = j;
            continue;
        }
        i += 1;
    }
    for method in SHIFT_METHODS {
        let mut from = 0;
        while let Some(pos) = code[from..].find(method) {
            let arg_start = from + pos + method.len();
            let chars: Vec<char> = code[arg_start..].chars().collect();
            if let Some(amount) = amount_at(&chars, 0) {
                found.push(amount);
            }
            from = arg_start;
        }
    }
    found
}

/// Reads the expression head starting at `start` (after skipping spaces):
/// `Some(ident)` when it is a non-literal amount, `None` for literals and
/// non-expressions. A parenthesized amount reports the first identifier
/// inside it (`(bits & 7)` -> `bits`).
fn amount_at(chars: &[char], start: usize) -> Option<String> {
    let mut i = start;
    while chars.get(i) == Some(&' ') {
        i += 1;
    }
    match chars.get(i) {
        Some(c) if c.is_ascii_digit() => None,
        Some('(') => {
            let ident: String = chars[i + 1..]
                .iter()
                .skip_while(|c| !c.is_alphabetic() && **c != '_' && **c != ')')
                .take_while(|c| c.is_alphanumeric() || **c == '_')
                .collect();
            if ident.is_empty() {
                None
            } else {
                Some(ident)
            }
        }
        Some(c) if c.is_alphabetic() || *c == '_' => {
            // `self.acc_bits` / `st.phase`: the field is the amount — keep
            // the final path segment.
            let mut segs = vec![String::new()];
            while let Some(c) = chars.get(i) {
                if c.is_alphanumeric() || *c == '_' {
                    segs.last_mut().unwrap().push(*c);
                } else if *c == '.'
                    && chars
                        .get(i + 1)
                        .is_some_and(|n| n.is_alphabetic() || *n == '_')
                {
                    segs.push(String::new());
                } else {
                    break;
                }
                i += 1;
            }
            let last = segs.last().unwrap();
            if last.is_empty() {
                None
            } else {
                Some(last.clone())
            }
        }
        _ => None,
    }
}

/// `true` when a line between the enclosing fn's start and `lineno`
/// (inclusive) mentions `amount` together with bound evidence: a
/// comparison, an assert, `.min(`/`.clamp(`, a modulo, or an and-mask
/// against a numeric literal.
fn has_dominating_bound(lines: &[Line], parsed: &ParsedFile, lineno: usize, amount: &str) -> bool {
    let from = parsed
        .fn_at(lineno)
        .map_or(lineno, |f| f.body_start.unwrap_or(f.sig_line));
    for line in lines.iter().take(lineno).skip(from.saturating_sub(1)) {
        if has_token(&line.code, amount) && has_bound_evidence(&line.code) {
            return true;
        }
    }
    false
}

/// Bound evidence on one line (see [`has_dominating_bound`]).
fn has_bound_evidence(code: &str) -> bool {
    if code.contains("assert")
        || code.contains(".min(")
        || code.contains(".clamp(")
        || code.contains('%')
    {
        return true;
    }
    // An and-mask against a literal: `&` followed by a number.
    let chars: Vec<char> = code.chars().collect();
    for (i, c) in chars.iter().enumerate() {
        if *c == '&' && chars.get(i + 1) != Some(&'&') && chars.get(i.wrapping_sub(1)) != Some(&'&')
        {
            let mut j = i + 1;
            while chars.get(j) == Some(&' ') {
                j += 1;
            }
            if chars.get(j).is_some_and(char::is_ascii_digit) {
                return true;
            }
        }
    }
    // A comparison: `<`/`>` that is not part of a shift, arrow or fat
    // arrow. Cheap check on a copy with those digraphs removed.
    let cleaned = code
        .replace("<<", "  ")
        .replace(">>", "  ")
        .replace("->", "  ")
        .replace("=>", "  ");
    cleaned.contains('<') || cleaned.contains('>')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::ScannedFile;

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = ScannedFile::rust(
            "crates/ss-bitio/src/writer.rs",
            FileKind::Source,
            src,
            &["shift-bound"],
        );
        let ws = Workspace::from_parts(vec![file], vec![]);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        ShiftBound.check(&ws, &cx, &mut out);
        out
    }

    #[test]
    fn unbounded_variable_shift_fires() {
        let src = "fn pack(x: u64, bits: u32) -> u64 {\n  x << bits\n}\n";
        assert_eq!(run(src).len(), 1);
        let src = "fn pack(x: u64, st: &S) -> u64 {\n  x >> st.phase\n}\n";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn literal_shifts_and_generics_do_not_fire() {
        assert!(run("fn f(x: u64) -> u64 { x << 3 }\n").is_empty());
        assert!(run("fn f(v: Vec<Vec<u8>>) -> usize { v.len() }\n").is_empty());
        assert!(run("fn f(x: u64) -> u64 { x >> 63 }\n").is_empty());
    }

    #[test]
    fn dominating_checks_are_recognized() {
        for ok in [
            // assert dominates
            "fn f(x: u64, bits: u32) -> u64 {\n  debug_assert!(bits < 64);\n  x << bits\n}\n",
            // mask on an earlier line
            "fn f(x: u64, n: u32) -> u64 {\n  let n = n & 63;\n  x << n\n}\n",
            // min-clamp
            "fn f(x: u64, n: u32) -> u64 {\n  let n = n.min(63);\n  x >> n\n}\n",
            // comparison guard on the same line
            "fn f(x: u64, n: u32) -> u64 {\n  if n < 64 { x << n } else { 0 }\n}\n",
            // inline mask in the amount expression
            "fn f(x: u64, n: u32) -> u64 {\n  x << (n & 63)\n}\n",
        ] {
            assert!(run(ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn a_check_in_another_fn_does_not_dominate() {
        let src = "fn g(bits: u32) { assert!(bits < 64); }\nfn f(x: u64, bits: u32) -> u64 {\n  x << bits\n}\n";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn checked_and_wrapping_shift_methods_are_audited() {
        let src = "fn f(x: u64, n: u32) -> u64 {\n  x.checked_shl(n).unwrap_or(0)\n}\n";
        assert_eq!(run(src).len(), 1);
        let src = "fn f(x: u64, n: u32) -> u64 {\n  x.wrapping_shr(n)\n}\n";
        assert_eq!(run(src).len(), 1);
        assert!(run("fn f(x: u64) -> u64 { x.checked_shl(8).unwrap_or(0) }\n").is_empty());
    }

    #[test]
    fn annotation_with_range_proof_suppresses() {
        let src = "fn f(x: u64, bits: u32) -> u64 {\n  x << bits // ss-lint: allow(shift-bound) -- bits <= MAX_WIDTH == 16 by construction\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let file = ScannedFile::rust(
            "crates/ss-sim/src/sim.rs",
            FileKind::Source,
            "fn f(x: u64, n: u32) -> u64 { x << n }\n",
            &["shift-bound"],
        );
        let ws = Workspace::from_parts(vec![file], vec![]);
        let cx = Analysis::build(&ws);
        let mut out = Vec::new();
        ShiftBound.check(&ws, &cx, &mut out);
        assert!(out.is_empty());
    }
}
