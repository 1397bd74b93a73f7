//! Diagnostics and report rendering (human, JSON and SARIF 2.1.0).

use std::fmt::Write as _;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier (`panic-freedom`, `unsafe-wall`, ...).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found and why it matters.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// What the baseline keys the finding on besides rule and file: the
    /// enclosing fn and the flagged statement's tokens
    /// ([`crate::baseline::context`]). Filled by [`crate::lint`]; empty
    /// until then.
    pub context: String,
}

/// The outcome of a lint pass.
#[derive(Debug, Default)]
pub struct Report {
    /// Every violation found, in deterministic (file, line) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Number of allow-annotations honored across the workspace.
    pub allows_honored: usize,
    /// Ids of the rules that ran.
    pub rules_run: Vec<&'static str>,
    /// `(id, description)` for every rule that ran — the SARIF rule
    /// metadata.
    pub rule_meta: Vec<(&'static str, &'static str)>,
    /// Number of fns in the hot reachability closure (informational).
    pub hot_fns: usize,
    /// Findings accepted by the baseline ratchet (not in `diagnostics`).
    pub baselined: usize,
    /// Baseline fingerprints no current finding matched — fixed findings
    /// whose entries should be removed (`--write-baseline`). Warnings,
    /// never failures.
    pub stale_baseline: Vec<String>,
}

impl Report {
    /// `true` when no rule fired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Sorts diagnostics into deterministic (file, line, rule) order.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Renders the report for terminals: one `file:line [rule] message`
    /// block per finding plus a summary line.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
            if !d.snippet.is_empty() {
                let _ = writeln!(out, "    | {}", d.snippet);
            }
        }
        for fp in &self.stale_baseline {
            let _ = writeln!(
                out,
                "warning: stale baseline entry (fixed? regenerate): {fp}"
            );
        }
        let _ = writeln!(
            out,
            "ss-lint: {} violation(s) across {} file(s); {} rule(s) run, {} allow annotation(s) honored",
            self.diagnostics.len(),
            self.files_scanned,
            self.rules_run.len(),
            self.allows_honored,
        );
        if self.baselined > 0 || !self.stale_baseline.is_empty() {
            let _ = writeln!(
                out,
                "ss-lint: baseline ratchet: {} finding(s) accepted, {} stale entr(y/ies)",
                self.baselined,
                self.stale_baseline.len(),
            );
        }
        if self.hot_fns > 0 {
            let _ = writeln!(
                out,
                "ss-lint: call-graph closure: {} fn(s) reachable from the hot entry points",
                self.hot_fns,
            );
        }
        out
    }

    /// Renders the report as a single JSON object (no external deps; the
    /// writer escapes everything it emits).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"violations\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}}}",
                json_str(d.rule),
                json_str(&d.file),
                d.line,
                json_str(&d.message),
                json_str(&d.snippet),
            );
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "],\n  \"files_scanned\": {},\n  \"allows_honored\": {},\n  \"rules_run\": [",
            self.files_scanned, self.allows_honored
        );
        for (i, r) in self.rules_run.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(r));
        }
        let _ = write!(
            out,
            "],\n  \"hot_fns\": {},\n  \"baselined\": {},\n  \"stale_baseline\": [",
            self.hot_fns, self.baselined
        );
        for (i, fp) in self.stale_baseline.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(fp));
        }
        out.push_str("],\n  \"clean\": ");
        out.push_str(if self.is_clean() { "true" } else { "false" });
        out.push_str("\n}\n");
        out
    }

    /// Renders the report as a SARIF 2.1.0 log — one run, one result per
    /// diagnostic, rule metadata from the registry, and a
    /// `partialFingerprints` entry carrying the baseline fingerprint so
    /// SARIF consumers dedup across line drift exactly like the ratchet.
    #[must_use]
    pub fn render_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"ss-lint\",\n          \"informationUri\": \"https://github.com/shapeshifter/shapeshifter\",\n          \"rules\": [",
        );
        for (i, (id, desc)) in self.rule_meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n            {{ \"id\": {}, \"shortDescription\": {{ \"text\": {} }} }}",
                json_str(id),
                json_str(desc)
            );
        }
        if !self.rule_meta.is_empty() {
            out.push_str("\n          ");
        }
        out.push_str("]\n        }\n      },\n      \"results\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let fp = crate::baseline::fingerprint(d);
            let _ = write!(
                out,
                "\n        {{\n          \"ruleId\": {},\n          \"level\": \"error\",\n          \"message\": {{ \"text\": {} }},\n          \"locations\": [\n            {{\n              \"physicalLocation\": {{\n                \"artifactLocation\": {{ \"uri\": {} }},\n                \"region\": {{ \"startLine\": {} }}\n              }}\n            }}\n          ],\n          \"partialFingerprints\": {{ \"ssLint/v1\": {} }}\n        }}",
                json_str(d.rule),
                json_str(&d.message),
                json_str(&d.file),
                d.line,
                json_str(&fp),
            );
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }\n  ]\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            diagnostics: vec![Diagnostic {
                rule: "panic-freedom",
                file: "crates/x/src/lib.rs".to_string(),
                line: 7,
                message: "call to `.unwrap()` in a hot-path module".to_string(),
                snippet: "let v = map.get(&k).unwrap();".to_string(),
                context: String::new(),
            }],
            files_scanned: 3,
            allows_honored: 1,
            rules_run: vec!["panic-freedom"],
            rule_meta: vec![("panic-freedom", "hot paths never panic")],
            ..Report::default()
        }
    }

    #[test]
    fn human_output_has_span_and_summary() {
        let text = sample().render_human();
        assert!(text.contains("crates/x/src/lib.rs:7: [panic-freedom]"));
        assert!(text.contains("1 violation(s)"));
    }

    #[test]
    fn json_output_is_escaped_and_flagged_dirty() {
        let mut r = sample();
        r.diagnostics[0].snippet = "quote \" and \\ slash".to_string();
        let json = r.render_json();
        assert!(json.contains(r#""clean": false"#));
        assert!(json.contains(r#"quote \" and \\ slash"#));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::default();
        assert!(r.is_clean());
        assert!(r.render_json().contains(r#""clean": true"#));
    }

    #[test]
    fn sarif_output_carries_rule_meta_location_and_fingerprint() {
        let sarif = sample().render_sarif();
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"ruleId\": \"panic-freedom\""));
        assert!(sarif.contains("\"uri\": \"crates/x/src/lib.rs\""));
        assert!(sarif.contains("\"startLine\": 7"));
        assert!(sarif.contains("ssLint/v1"));
        assert!(sarif.contains("hot paths never panic"));
    }

    #[test]
    fn sarif_empty_report_is_well_formed() {
        let sarif = Report::default().render_sarif();
        assert!(sarif.contains("\"results\": []"));
    }

    #[test]
    fn baseline_counts_surface_in_human_and_json() {
        let mut r = sample();
        r.baselined = 4;
        r.stale_baseline = vec!["r|f.rs|snippet".to_string()];
        let human = r.render_human();
        assert!(human.contains("4 finding(s) accepted"));
        assert!(human.contains("stale baseline entry"));
        let json = r.render_json();
        assert!(json.contains("\"baselined\": 4"));
        assert!(json.contains("r|f.rs|snippet"));
    }

    #[test]
    fn sort_orders_by_file_then_line() {
        let mut r = sample();
        let mut d2 = r.diagnostics[0].clone();
        d2.line = 2;
        r.diagnostics.push(d2);
        r.sort();
        assert_eq!(r.diagnostics[0].line, 2);
    }
}
