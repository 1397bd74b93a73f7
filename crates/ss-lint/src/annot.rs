//! The `ss-lint` allow-annotation grammar.
//!
//! Violations that are structurally impossible (an index proven in range,
//! a cast masked on the line above) are suppressed in place with a
//! mandatory reason:
//!
//! ```text
//! // ss-lint: allow(<rule-id>) -- <reason>       line-scoped
//! // ss-lint: allow-file(<rule-id>) -- <reason>  whole file
//! #  ss-lint: allow(vendor-drift) -- <reason>    TOML manifests
//! ```
//!
//! A line-scoped annotation written as a trailing comment applies to its
//! own line; written on a comment-only line it applies to the next line
//! that carries code (blank and comment-only lines in between are skipped,
//! so annotations may be stacked). The reason after ` -- ` is mandatory
//! and non-empty — an annotation without one, or naming an unknown rule,
//! is itself reported under the always-on `annotation` meta-rule.

use std::collections::HashMap;

use crate::lex::Line;

/// Marker that introduces an annotation inside a comment.
pub const MARKER: &str = "ss-lint:";

/// Rule id under which malformed annotations are reported.
pub const ANNOTATION_RULE: &str = "annotation";

/// Parsed allow-annotations for one file.
#[derive(Debug, Default)]
pub struct Allows {
    /// Rule ids allowed on specific (1-based) lines.
    line: HashMap<usize, Vec<String>>,
    /// Rule ids allowed for the whole file.
    file: Vec<String>,
    /// `(line, message)` for annotations that failed to parse.
    pub malformed: Vec<(usize, String)>,
}

impl Allows {
    /// `true` when `rule` is suppressed on `line` (1-based).
    #[must_use]
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.file.iter().any(|r| r == rule)
            || self
                .line
                .get(&line)
                .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }

    /// Number of annotations parsed (for reporting).
    #[must_use]
    pub fn count(&self) -> usize {
        self.line.values().map(Vec::len).sum::<usize>() + self.file.len()
    }
}

/// Extracts annotations from a file's lines.
///
/// `comment` is the comment introducer the annotation must follow —
/// `"//"` for Rust sources, `"#"` for TOML manifests. `known_rules`
/// validates the rule id; unknown ids are reported as malformed so a typo
/// never silently disables a rule.
#[must_use]
pub fn collect(lines: &[Line], comment: &str, known_rules: &[&str]) -> Allows {
    let mut allows = Allows::default();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let Some(comment_at) = line.raw.find(comment) else {
            continue;
        };
        // Doc comments (`///`, `//!`) are prose: grammar examples quoted
        // in them must not parse as (malformed) annotations.
        let after = line.raw[comment_at + comment.len()..].chars().next();
        if comment == "//" && matches!(after, Some('/' | '!')) {
            continue;
        }
        let comment_text = &line.raw[comment_at..];
        let Some(marker_at) = comment_text.find(MARKER) else {
            continue;
        };
        let directive = comment_text[marker_at + MARKER.len()..].trim();
        match parse_directive(directive, known_rules) {
            Ok((rule, file_scoped)) => {
                if file_scoped {
                    allows.file.push(rule);
                } else {
                    // Trailing comment -> this line; comment-only line ->
                    // the next line that carries code.
                    let own_code_blank = line.raw[..comment_at].trim().is_empty();
                    let target = if own_code_blank {
                        lines
                            .iter()
                            .enumerate()
                            .skip(lineno)
                            .find(|(_, l)| !l.is_code_blank())
                            .map_or(lineno + 1, |(j, _)| j + 1)
                    } else {
                        lineno
                    };
                    allows.line.entry(target).or_default().push(rule);
                }
            }
            Err(msg) => allows.malformed.push((lineno, msg)),
        }
    }
    allows
}

/// Parses `allow(<rule>) -- <reason>` / `allow-file(<rule>) -- <reason>`.
/// Returns the rule id and whether the scope is the whole file.
fn parse_directive(directive: &str, known_rules: &[&str]) -> Result<(String, bool), String> {
    let (head, file_scoped) = if let Some(rest) = directive.strip_prefix("allow-file(") {
        (rest, true)
    } else if let Some(rest) = directive.strip_prefix("allow(") {
        (rest, false)
    } else {
        return Err(format!(
            "unknown ss-lint directive {directive:?}: expected `allow(<rule>) -- <reason>` \
             or `allow-file(<rule>) -- <reason>`"
        ));
    };
    let Some(close) = head.find(')') else {
        return Err("unterminated rule id: missing `)`".to_string());
    };
    let rule = head[..close].trim();
    if rule.is_empty() {
        return Err("empty rule id".to_string());
    }
    if !known_rules.contains(&rule) {
        return Err(format!(
            "unknown rule {rule:?} (known: {})",
            known_rules.join(", ")
        ));
    }
    let tail = head[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix("--") else {
        return Err(format!(
            "annotation for rule {rule:?} is missing its ` -- <reason>` clause"
        ));
    };
    if reason.trim().is_empty() {
        return Err(format!("annotation for rule {rule:?} has an empty reason"));
    }
    Ok((rule.to_string(), file_scoped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::strip;

    const RULES: &[&str] = &["panic-freedom", "vendor-drift"];

    #[test]
    fn trailing_annotation_hits_its_own_line() {
        let lines = strip("x.unwrap(); // ss-lint: allow(panic-freedom) -- proven nonempty\n");
        let a = collect(&lines, "//", RULES);
        assert!(a.is_allowed("panic-freedom", 1));
        assert!(!a.is_allowed("vendor-drift", 1));
        assert!(a.malformed.is_empty());
    }

    #[test]
    fn standalone_annotation_hits_next_code_line() {
        let src =
            "// ss-lint: allow(panic-freedom) -- bounded above\n\n// another comment\nx[0];\n";
        let a = collect(&strip(src), "//", RULES);
        assert!(a.is_allowed("panic-freedom", 4));
        assert!(!a.is_allowed("panic-freedom", 1));
    }

    #[test]
    fn file_scope_covers_everything() {
        let src =
            "// ss-lint: allow-file(vendor-drift) -- stand-in crate\nuse rand::Rng;\nmore();\n";
        let a = collect(&strip(src), "//", RULES);
        assert!(a.is_allowed("vendor-drift", 2));
        assert!(a.is_allowed("vendor-drift", 999));
    }

    #[test]
    fn missing_reason_is_malformed() {
        let a = collect(
            &strip("// ss-lint: allow(panic-freedom)\nx;\n"),
            "//",
            RULES,
        );
        assert_eq!(a.malformed.len(), 1);
        assert!(!a.is_allowed("panic-freedom", 2));
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let a = collect(
            &strip("// ss-lint: allow(no-such-rule) -- why\nx;\n"),
            "//",
            RULES,
        );
        assert_eq!(a.malformed.len(), 1);
    }

    #[test]
    fn doc_comments_are_prose_not_annotations() {
        let src = "//! `// ss-lint: allow(<rule>) -- <reason>` is the grammar\n\
                   /// see also: ss-lint: allow(bogus)\nfn f() {}\n";
        let a = collect(&strip(src), "//", RULES);
        assert!(a.malformed.is_empty());
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn toml_comment_marker() {
        let src = "# ss-lint: allow(vendor-drift) -- calibrated stand-in\nrand.workspace = true\n";
        let a = collect(&strip(src), "#", RULES);
        assert!(a.is_allowed("vendor-drift", 2));
    }
}
