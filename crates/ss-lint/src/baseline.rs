//! The lint baseline: ratcheting instead of blocking.
//!
//! Growing the analyzer (reachability closure, new rule families) surfaces
//! findings in code that long predates the rules. Blocking every PR on a
//! decades-deep backlog would just get the linter turned off — so known
//! findings are *ratcheted*: `scripts/lint_baseline.json` records a
//! fingerprint per accepted finding, the default lint run subtracts them,
//! and **new** findings fail the build. Fixing a finding makes its
//! baseline entry stale, which fails the build too until the entry is
//! dropped (`--write-baseline` on a run with no new finding), so the
//! ratchet only ever tightens.
//!
//! Fingerprints are `rule|file|fn|statement`: the enclosing fn's
//! qualified name and the tokens of the flagged statement
//! ([`context`]). They are free of line numbers, so unrelated edits above
//! a finding never resurrect it, and free of layout, so a rustfmt re-wrap
//! of the statement (or of anything else) keeps every key. Identical
//! statements in one fn aggregate into a count.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::diag::{Diagnostic, Report};
use crate::lex::Line;
use crate::parse::{self, ParsedFile, Tok};
use crate::workspace::{FileKind, ScannedFile};

/// Workspace-relative path of the checked-in baseline.
pub const BASELINE_REL: &str = "scripts/lint_baseline.json";

/// A loaded baseline: fingerprint -> accepted count.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    entries: HashMap<String, usize>,
}

/// The fingerprint of one diagnostic: rule, file and
/// [`Diagnostic::context`].
#[must_use]
pub fn fingerprint(d: &Diagnostic) -> String {
    format!("{}|{}|{}", d.rule, d.file, d.context)
}

/// A finding's key within its file: `fn|statement`, where `fn` is the
/// qualified name of the innermost fn around line `lineno` (`-` outside
/// any fn) and `statement` the canonical tokens of the statement the line
/// belongs to (a manifest's line stands alone).
///
/// The statement grows from the flagged line while it is unfinished —
/// the line before does not end in `;`, `{` or `}`, the last line does
/// not, or a `(`/`[` opened on one line closes on another — and never
/// leaves the fn. Its tokens come from the comment- and literal-blanked
/// code view, joined with a space only between two words and without
/// trailing commas, so only a change to the code itself, not rustfmt's
/// layout, changes the key.
#[must_use]
pub fn context(file: &ScannedFile, parsed: &ParsedFile, lineno: usize) -> String {
    let (name, lo, hi) = match parsed.fn_at(lineno) {
        // The body's closing line belongs to no statement in it.
        Some(f) => {
            let end = f.body_end.map_or(f.sig_line, |end| end - 1);
            (f.qualified(), f.sig_line, end.max(lineno))
        }
        None => ("-".to_string(), 1, file.lines.len()),
    };
    let (start, end) = if file.kind == FileKind::Manifest {
        (lineno, lineno)
    } else {
        statement_span(&file.lines, lo, hi, lineno)
    };
    let lines = file
        .lines
        .get(start.saturating_sub(1)..end)
        .unwrap_or_default();
    format!("{name}|{}", canonical(lines))
}

/// The first and last line (1-based) of the statement around `at`,
/// within lines `lo..=hi`.
fn statement_span(lines: &[Line], lo: usize, hi: usize, at: usize) -> (usize, usize) {
    let code = |n: usize| {
        n.checked_sub(1)
            .and_then(|i| lines.get(i))
            .map_or("", |l| l.code.trim())
    };
    let finished = |n: usize| code(n).ends_with([';', '{', '}']);
    let prev = |n: usize| (lo..n).rev().find(|&p| !code(p).is_empty());
    let next = |n: usize| (n + 1..=hi).find(|&p| !code(p).is_empty());
    let (mut start, mut end) = (at, at);
    loop {
        // Paren and bracket depth across the span: a closer without its
        // opener means the statement began earlier; an opener left open
        // means it ends later.
        let (mut depth, mut lowest) = (0i64, 0i64);
        for n in start..=end {
            for c in code(n).chars() {
                match c {
                    '(' | '[' => depth += 1,
                    ')' | ']' => depth -= 1,
                    _ => continue,
                }
                lowest = lowest.min(depth);
            }
        }
        if let Some(p) = prev(start).filter(|&p| lowest < 0 || !finished(p)) {
            start = p;
        } else if let Some(n) = next(end).filter(|_| depth > lowest || !finished(end)) {
            end = n;
        } else {
            return (start, end);
        }
    }
}

/// The canonical text of `lines`' tokens: words separated by one space
/// where two meet, punctuation unspaced, and a comma before a closer (or
/// at the end) dropped, as rustfmt adds one to every vertical list.
fn canonical(lines: &[Line]) -> String {
    let toks = parse::tokenize(lines);
    let mut out = String::new();
    let mut prev_word = false;
    for (i, (tok, _)) in toks.iter().enumerate() {
        match tok {
            Tok::Word(w) => {
                if prev_word {
                    out.push(' ');
                }
                out.push_str(w);
                prev_word = true;
            }
            Tok::Punct(',')
                if toks
                    .get(i + 1)
                    .is_none_or(|(t, _)| matches!(t, Tok::Punct(')' | ']' | '}'))) => {}
            Tok::Punct(c) => {
                out.push(*c);
                prev_word = false;
            }
        }
    }
    out
}

impl Baseline {
    /// Builds a baseline accepting exactly the given report's findings.
    #[must_use]
    pub fn from_report(report: &Report) -> Self {
        let mut entries: HashMap<String, usize> = HashMap::new();
        for d in &report.diagnostics {
            *entries.entry(fingerprint(d)).or_insert(0) += 1;
        }
        Self { entries }
    }

    /// Number of accepted findings (sum of counts).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.values().sum()
    }

    /// `true` when the baseline accepts nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Loads the baseline from `path`.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file; a parse failure of a hand-mangled
    /// file surfaces as [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        parse(&text).map_err(|msg| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {msg}", path.display()),
            )
        })
    }

    /// Serializes the baseline in canonical order (sorted fingerprints).
    #[must_use]
    pub fn render(&self) -> String {
        let mut sorted: Vec<(&String, &usize)> = self.entries.iter().collect();
        sorted.sort();
        let mut out = String::from("{\n  \"version\": 1,\n  \"tool\": \"ss-lint\",\n");
        let _ = writeln!(
            out,
            "  \"note\": \"machine-managed ratchet; regenerate with `cargo run -p ss-lint -- --write-baseline`\","
        );
        out.push_str("  \"entries\": [");
        for (i, (fp, count)) in sorted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{ \"count\": {count}, \"fingerprint\": {} }}",
                crate::diag::json_str(fp)
            );
        }
        if !sorted.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Applies the baseline to `report` in place: accepted findings move
    /// out of `diagnostics` into the `baselined` count, and entries no
    /// finding matched are recorded as `stale_baseline` (which fail the
    /// run, see [`Report::is_clean`]).
    pub fn apply(&self, report: &mut Report) {
        let mut remaining = self.entries.clone();
        let mut kept = Vec::with_capacity(report.diagnostics.len());
        for d in report.diagnostics.drain(..) {
            let fp = fingerprint(&d);
            match remaining.get_mut(&fp) {
                Some(count) if *count > 0 => {
                    *count -= 1;
                    report.baselined += 1;
                }
                _ => kept.push(d),
            }
        }
        report.diagnostics = kept;
        let mut stale: Vec<String> = remaining
            .into_iter()
            .filter(|(_, count)| *count > 0)
            .map(|(fp, count)| {
                if count > 1 {
                    format!("{fp} (x{count})")
                } else {
                    fp
                }
            })
            .collect();
        stale.sort();
        report.stale_baseline = stale;
    }
}

/// Parses the canonical baseline format. Tolerant of whitespace but not
/// of structural surgery — the file is machine-managed.
fn parse(text: &str) -> Result<Baseline, String> {
    let mut entries = HashMap::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"count\"") {
        rest = &rest[pos + "\"count\"".len()..];
        let rest2 = rest
            .trim_start()
            .strip_prefix(':')
            .ok_or("missing ':' after count")?;
        let digits: String = rest2
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let count: usize = digits.parse().map_err(|_| "bad count".to_string())?;
        let fp_key = rest2
            .find("\"fingerprint\"")
            .ok_or("entry missing fingerprint")?;
        let after = rest2[fp_key + "\"fingerprint\"".len()..]
            .trim_start()
            .strip_prefix(':')
            .ok_or("missing ':' after fingerprint")?;
        let (fp, consumed) = parse_json_string(after.trim_start())?;
        *entries.entry(fp).or_insert(0) += count;
        rest = &after.trim_start()[consumed..];
    }
    Ok(Baseline { entries })
}

/// Parses a JSON string literal at the start of `s`; returns the decoded
/// value and the number of bytes consumed.
fn parse_json_string(s: &str) -> Result<(String, usize), String> {
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err("expected '\"'".to_string()),
    }
    let mut out = String::new();
    let mut escaped = false;
    for (idx, c) in chars {
        if escaped {
            match c {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => out.push('\u{FFFD}'), // \uXXXX: fidelity not needed for matching
                other => out.push(other),
            }
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Ok((out, idx + 1));
        } else {
            out.push(c);
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str, context: &str) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.to_string(),
            line: 1,
            message: "m".to_string(),
            snippet: context.to_string(),
            context: context.to_string(),
        }
    }

    /// The context of line `lineno` of `text`.
    fn context_at(text: &str, lineno: usize) -> String {
        let file = ScannedFile::rust("a.rs", FileKind::Source, text, &[]);
        context(&file, &parse::parse(&file.lines), lineno)
    }

    fn report_with(diags: Vec<Diagnostic>) -> Report {
        Report {
            diagnostics: diags,
            ..Report::default()
        }
    }

    #[test]
    fn roundtrip_render_and_load() {
        let r = report_with(vec![
            diag("panic-freedom", "a.rs", "x[0] + \"q\""),
            diag("panic-freedom", "a.rs", "x[0] + \"q\""),
            diag("shift-bound", "b.rs", "v << n"),
        ]);
        let b = Baseline::from_report(&r);
        let text = b.render();
        let parsed = parse(&text).expect("parse own output");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed.entries, b.entries);
    }

    #[test]
    fn apply_subtracts_and_reports_new_and_stale() {
        let accepted = report_with(vec![
            diag("panic-freedom", "a.rs", "old finding"),
            diag("shift-bound", "b.rs", "fixed since"),
        ]);
        let b = Baseline::from_report(&accepted);
        let mut current = report_with(vec![
            diag("panic-freedom", "a.rs", "old finding"),
            diag("determinism", "c.rs", "brand new"),
        ]);
        b.apply(&mut current);
        assert_eq!(current.baselined, 1);
        assert_eq!(current.diagnostics.len(), 1, "only the new finding remains");
        assert_eq!(current.diagnostics[0].rule, "determinism");
        assert_eq!(current.stale_baseline.len(), 1);
        assert!(current.stale_baseline[0].starts_with("shift-bound|b.rs|"));
    }

    #[test]
    fn line_drift_does_not_resurrect_findings() {
        let mut d1 = diag("panic-freedom", "a.rs", "f|let x=v[i];");
        d1.line = 10;
        let b = Baseline::from_report(&report_with(vec![d1]));
        let mut d2 = diag("panic-freedom", "a.rs", "f|let x=v[i];");
        d2.line = 99; // moved
        let mut current = report_with(vec![d2]);
        b.apply(&mut current);
        assert!(current.diagnostics.is_empty());
        assert!(current.stale_baseline.is_empty());
    }

    #[test]
    fn context_is_the_fn_and_the_whole_statement_whatever_its_layout() {
        let one_line = "impl Codec {\n    fn read(&self, v: &[u32], i: usize) -> u32 {\n        \
                        let x = self.scale(v[i], \"why\") + v[i + 1];\n        x\n    }\n}\n";
        let wrapped = "impl Codec {\n    fn read(&self, v: &[u32], i: usize) -> u32 {\n\n        \
                       // a comment\n        let x = self.scale(\n            v[i],\n            \
                       \"other\",\n        )\n            + v[i + 1];\n        x\n    }\n}\n";
        let want = "Codec::read|let x=self.scale(v[i],\"\")+v[i+1];";
        assert_eq!(context_at(one_line, 3), want);
        for line in 5..=9 {
            assert_eq!(context_at(wrapped, line), want, "line {line}");
        }
        // The statement after it is its own, without the fn's brace.
        assert_eq!(context_at(one_line, 4), "Codec::read|x");
        assert_eq!(context_at(wrapped, 10), "Codec::read|x");
        // Outside any fn the key says so.
        assert_eq!(
            context_at("static T: [u8; 2] = [1, 2];\n", 1),
            "-|static T:[u8;2]=[1,2];"
        );
    }

    #[test]
    fn duplicate_snippets_ratchet_by_count() {
        let b = Baseline::from_report(&report_with(vec![diag("r", "a.rs", "v[i]")]));
        let mut current = report_with(vec![diag("r", "a.rs", "v[i]"), diag("r", "a.rs", "v[i]")]);
        b.apply(&mut current);
        assert_eq!(current.baselined, 1);
        assert_eq!(current.diagnostics.len(), 1, "second occurrence is new");
    }
}
