//! A minimal Rust surface lexer: splits a source file into lines whose
//! comment and string-literal contents have been blanked out.
//!
//! The rules in this crate are lexical — they look for token patterns such
//! as `.unwrap()` or `Mutex` — so the one hard requirement is to never
//! match inside comments (including doc comments and the code examples
//! they embed) or inside string/char literals. The lexer tracks just
//! enough state to do that faithfully: nested block comments, line
//! comments, regular/byte strings with escapes, raw strings with `#`
//! fences, and the `'a` lifetime vs `'a'` char-literal distinction.
//!
//! Column positions are preserved: every blanked character becomes a
//! space, so byte offsets in the `code` view line up with the original
//! line (diagnostics can point at real columns if they ever need to).

/// One source line, in two views.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line with comment and literal contents replaced by spaces.
    /// Rules pattern-match against this view only.
    pub code: String,
    /// The raw line as written, used for annotation parsing (annotations
    /// live *inside* comments) and diagnostic snippets.
    pub raw: String,
}

impl Line {
    /// `true` when the code view holds no tokens at all (blank line,
    /// comment-only line, or a line entirely inside a literal).
    #[must_use]
    pub fn is_code_blank(&self) -> bool {
        self.code.trim().is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Nested block comment depth.
    BlockComment(u32),
    /// Regular or byte string; `bool` marks a pending escape.
    Str,
    /// Raw string terminated by `"` followed by this many `#`s.
    RawStr(u8),
    /// Char or byte-char literal.
    Char,
}

/// Splits `source` into [`Line`]s with comments and literals blanked.
#[must_use]
pub fn strip(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut raw = String::new();
    let mut state = State::Code;
    let mut escaped = false;
    let mut i = 0usize;

    let at = |j: usize| chars.get(j).copied();

    while i < chars.len() {
        let c = chars[i];
        // CRLF: drop the `\r` so `code`/`raw` columns match LF sources and
        // token patterns never see a trailing carriage return.
        if c == '\r' && at(i + 1) == Some('\n') {
            i += 1;
            continue;
        }
        if c == '\n' {
            // Line comments end at the newline; every other state persists.
            if state == State::LineComment {
                state = State::Code;
            }
            // A backslash immediately before the newline inside a string is
            // a line continuation: the newline itself is the escaped
            // character, so the escape must not carry into the next line
            // (or a closing `"` there would be swallowed and the rest of
            // the file blanked — real span drift).
            if matches!(state, State::Str | State::Char) {
                escaped = false;
            }
            lines.push(Line {
                code: std::mem::take(&mut code),
                raw: std::mem::take(&mut raw),
            });
            i += 1;
            continue;
        }
        raw.push(c);
        match state {
            State::Code => match c {
                '/' if at(i + 1) == Some('/') => {
                    state = State::LineComment;
                    code.push(' ');
                }
                '/' if at(i + 1) == Some('*') => {
                    state = State::BlockComment(1);
                    code.push(' ');
                    // Consume the '*' so "/*/" does not also close.
                    raw.push('*');
                    code.push(' ');
                    i += 1;
                }
                '"' => {
                    state = State::Str;
                    escaped = false;
                    code.push('"');
                }
                'r' | 'b' if !prev_is_ident(&code) => {
                    // Possible raw/byte string prefix: r" r#" br" br#" b".
                    let mut j = i + 1;
                    if c == 'b' && at(j) == Some('r') {
                        j += 1;
                    }
                    let mut hashes = 0u8;
                    while at(j) == Some('#') && hashes < u8::MAX {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = (c == 'r' || at(i + 1) == Some('r')) && at(j) == Some('"');
                    let is_byte_str = c == 'b' && hashes == 0 && at(i + 1) == Some('"');
                    if is_raw || is_byte_str {
                        // Emit the prefix as code, then enter the literal.
                        code.push(c);
                        for k in i + 1..=j {
                            if let Some(pc) = at(k) {
                                raw.push(pc);
                                code.push(pc);
                            }
                        }
                        state = if is_raw {
                            State::RawStr(hashes)
                        } else {
                            State::Str
                        };
                        escaped = false;
                        i = j;
                    } else {
                        code.push(c);
                    }
                }
                '\'' => {
                    // Lifetime ('a) vs char literal ('a', '\n').
                    let next = at(i + 1);
                    let is_char = next == Some('\\') || (next.is_some() && at(i + 2) == Some('\''));
                    if is_char {
                        state = State::Char;
                        escaped = false;
                        code.push('\'');
                    } else {
                        code.push('\'');
                    }
                }
                _ => code.push(c),
            },
            State::LineComment => code.push(' '),
            State::BlockComment(depth) => {
                code.push(' ');
                if c == '/' && at(i + 1) == Some('*') {
                    state = State::BlockComment(depth + 1);
                    raw.push('*');
                    code.push(' ');
                    i += 1;
                } else if c == '*' && at(i + 1) == Some('/') {
                    raw.push('/');
                    code.push(' ');
                    i += 1;
                    state = if depth > 1 {
                        State::BlockComment(depth - 1)
                    } else {
                        State::Code
                    };
                }
            }
            State::Str => {
                if escaped {
                    escaped = false;
                    code.push(' ');
                } else if c == '\\' {
                    escaped = true;
                    code.push(' ');
                } else if c == '"' {
                    state = State::Code;
                    code.push('"');
                } else {
                    code.push(' ');
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if at(i + 1 + k as usize) != Some('#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        code.push('"');
                        for _ in 0..hashes {
                            raw.push('#');
                            code.push('#');
                        }
                        i += hashes as usize;
                        state = State::Code;
                    } else {
                        code.push(' ');
                    }
                } else {
                    code.push(' ');
                }
            }
            State::Char => {
                if escaped {
                    escaped = false;
                    code.push(' ');
                } else if c == '\\' {
                    escaped = true;
                    code.push(' ');
                } else if c == '\'' {
                    state = State::Code;
                    code.push('\'');
                } else {
                    code.push(' ');
                }
            }
        }
        i += 1;
    }
    if !raw.is_empty() || !code.is_empty() {
        lines.push(Line { code, raw });
    }
    lines
}

/// `true` when the last emitted code character continues an identifier —
/// used to tell a raw-string prefix `r"` from an identifier ending in `r`.
fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .last()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        strip(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_blanked() {
        let c = code_of("let x = 1; // trailing .unwrap()\n// whole line panic!\nlet y = 2;");
        assert!(c[0].starts_with("let x = 1;"));
        assert!(!c[0].contains("unwrap"));
        assert!(c[1].trim().is_empty());
        assert_eq!(c[2], "let y = 2;");
    }

    #[test]
    fn nested_block_comments() {
        let c = code_of("a /* one /* two */ still */ b");
        assert!(c[0].contains('a') && c[0].contains('b'));
        assert!(!c[0].contains("still"));
    }

    #[test]
    fn strings_are_blanked_but_quotes_kept() {
        let c = code_of(r#"let s = "panic! \" .unwrap()"; x"#);
        assert!(!c[0].contains("panic"));
        assert!(!c[0].contains("unwrap"));
        assert!(c[0].ends_with("; x"));
    }

    #[test]
    fn raw_strings_with_fences() {
        let c = code_of("let s = r#\"Mutex \" inside\"#; y[0]");
        assert!(!c[0].contains("Mutex"));
        assert!(c[0].contains("y[0]"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let c = code_of("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(c[0], "fn f<'a>(x: &'a str) -> &'a str { x }");
    }

    #[test]
    fn char_literals_are_blanked() {
        let c = code_of("let c = '['; let d = '\\n'; arr");
        assert!(!c[0].contains('['));
        assert!(c[0].contains("arr"));
    }

    #[test]
    fn multiline_string_spans_lines() {
        let c = code_of("let s = \"first\nsecond panic!\nthird\"; tail");
        assert!(!c[1].contains("panic"));
        assert!(c[2].contains("tail"));
    }

    #[test]
    fn raw_lines_survive_verbatim() {
        let lines = strip("let x = 1; // ss-lint: allow(rule) -- reason");
        assert!(lines[0].raw.contains("ss-lint: allow(rule) -- reason"));
    }

    /// Column preservation is the invariant every downstream span depends
    /// on: each blanked character becomes exactly one space, so `code` and
    /// `raw` always have the same char count on every line.
    fn assert_spans_aligned(src: &str) {
        for (idx, line) in strip(src).iter().enumerate() {
            assert_eq!(
                line.code.chars().count(),
                line.raw.chars().count(),
                "span drift on line {} of {src:?}: code={:?} raw={:?}",
                idx + 1,
                line.code,
                line.raw
            );
        }
    }

    #[test]
    fn string_line_continuation_does_not_swallow_the_closing_quote() {
        // `\` + newline is a line continuation; the `"` on the next line
        // closes the string and `tail.unwrap()` is real code again.
        let c = code_of("let s = \"abc\\\n\"; tail.unwrap()");
        assert!(
            c[1].contains(".unwrap()"),
            "closing quote was swallowed: {:?}",
            c[1]
        );
        assert_spans_aligned("let s = \"abc\\\n\"; tail.unwrap()");
    }

    #[test]
    fn char_escape_before_newline_is_not_sticky() {
        // Unterminated char literal ending in `\` at EOL (invalid Rust,
        // but the lexer must not let the escape leak across the line).
        let c = code_of("let c = '\\\n'; x.unwrap()");
        assert!(c[1].contains(".unwrap()"));
    }

    #[test]
    fn crlf_lines_lose_the_carriage_return_and_stay_aligned() {
        let lines = strip("let a = 1;\r\nlet b = \"x\";\r\n");
        assert_eq!(lines.len(), 2);
        assert!(!lines[0].raw.contains('\r'));
        assert_eq!(lines[0].code, "let a = 1;");
        assert_spans_aligned("let a = 1;\r\nlet b = \"y\\\"z\";\r\ndone");
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let c = code_of("let r#match = r#struct + 1; x.unwrap()");
        assert!(c[0].contains("r#match"));
        assert!(c[0].contains(".unwrap()"));
    }

    #[test]
    fn raw_string_with_double_fence_keeps_inner_fence_blanked() {
        let c = code_of("let s = r##\"inner \"# panic! fence\"##; tail");
        assert!(!c[0].contains("panic"));
        assert!(c[0].contains("tail"));
        assert_spans_aligned("let s = r##\"inner \"# panic! fence\"##; tail");
    }

    #[test]
    fn multiline_raw_string_and_block_comment_preserve_line_count() {
        let src = "a\nr#\"one\ntwo panic!\nthree\"#\n/* x\ny */\nb";
        let lines = strip(src);
        assert_eq!(lines.len(), src.lines().count());
        assert!(!lines[2].code.contains("panic"));
        assert_spans_aligned(src);
    }

    #[test]
    fn lifetimes_in_turbofish_and_bounds() {
        let src = "let v = Vec::<&'a str>::new(); fn g<'b: 'a>() {}";
        assert_eq!(code_of(src)[0], src);
        assert_spans_aligned(src);
    }

    #[test]
    fn byte_strings_and_byte_chars_are_blanked() {
        let c = code_of("let s = b\"panic!\"; let c = b'\\n'; tail");
        assert!(!c[0].contains("panic"));
        assert!(c[0].contains("tail"));
        assert_spans_aligned("let s = b\"panic!\"; let c = b'\\n'; tail");
    }

    #[test]
    fn escaped_backslash_then_quote_closes_the_string() {
        let src = r#"let s = "a\\"; x.unwrap()"#;
        let c = code_of(src);
        assert!(c[0].contains(".unwrap()"));
        assert_spans_aligned(src);
    }

    #[test]
    fn gnarly_mixed_source_stays_aligned() {
        let src = "fn f<'a>(x: &'a str) -> u8 {\n\
                   let c = '\\'';\n\
                   let s = r#\"q \" p\"#; /* c /* n */ c */ let b = b\"z\";\n\
                   x.len() as u8\n}";
        assert_spans_aligned(src);
        let c = code_of(src);
        assert!(c[3].contains("as u8"));
    }
}
