//! A brace-matched item parser on top of the [`crate::lex`] token stream.
//!
//! The v1 linter was purely lexical: rules matched token patterns against
//! a hand-maintained module list. This module recovers just enough
//! *structure* from the blanked `code` view to reason about reachability:
//!
//! * `fn` items with their name, surrounding `impl` type, signature line
//!   and brace-matched body span;
//! * call expressions inside each body (`helper(..)`, `path::helper(..)`,
//!   `Type::method(..)`, `.method(..)`, and turbofish forms);
//! * per-line loop depth inside each body (`for`/`while`/`loop` scopes),
//!   which the `alloc-in-hot-loop` and `lock-discipline` rules consume.
//!
//! It is deliberately not a full Rust parser: it never sees comment or
//! literal contents (the lexer blanked them), it treats struct-literal
//! braces as anonymous blocks, and it resolves nothing — resolution lives
//! in [`crate::symbols`]. The invariants it does maintain are pinned by
//! the `spans_differential` integration test against every file of the
//! real workspace: item spans nest, the `fn` keyword really is on the
//! recorded signature line, and bodies close on the recorded end line.

use crate::lex::Line;

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name: the last path segment before the argument list.
    pub name: String,
    /// Qualifier, when the call is written `Qual::name(..)`. `Self` is
    /// rewritten to the surrounding impl type during parsing.
    pub qual: Option<String>,
    /// `true` for `.name(..)` method-call syntax.
    pub is_method: bool,
    /// 1-based line of the callee token.
    pub line: usize,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's own name.
    pub name: String,
    /// Surrounding `impl` type, if the fn is an associated item.
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 1-based line of the body's opening `{`; `None` for bodiless
    /// declarations (trait method signatures).
    pub body_start: Option<usize>,
    /// 1-based line of the body's closing `}` (inclusive).
    pub body_end: Option<usize>,
    /// Calls made inside the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// Qualified display name (`Type::name` or bare `name`).
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// `true` when `lineno` (1-based) falls inside this item, signature
    /// included.
    #[must_use]
    pub fn contains_line(&self, lineno: usize) -> bool {
        let end = self.body_end.unwrap_or(self.sig_line);
        lineno >= self.sig_line && lineno <= end
    }
}

/// Parse result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item, in source order (nested fns appear after their
    /// parent).
    pub fns: Vec<FnItem>,
    /// Loop depth per line (0-based index = line - 1): the number of
    /// enclosing `for`/`while`/`loop` bodies at that line. Lines outside
    /// any loop are 0.
    pub loop_depth: Vec<u32>,
}

impl ParsedFile {
    /// Innermost `fn` item covering `lineno`, if any.
    #[must_use]
    pub fn fn_at(&self, lineno: usize) -> Option<&FnItem> {
        // Later items start later; the innermost cover is the last match.
        self.fns.iter().rev().find(|f| f.contains_line(lineno))
    }

    /// Loop depth at `lineno` (1-based); 0 when out of range.
    #[must_use]
    pub fn loop_depth_at(&self, lineno: usize) -> u32 {
        lineno
            .checked_sub(1)
            .and_then(|i| self.loop_depth.get(i))
            .copied()
            .unwrap_or(0)
    }
}

/// A token of the blanked code view: a word (identifier, keyword or
/// number) or a single punctuation char, with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    Word(String),
    Punct(char),
}

pub(crate) fn tokenize(lines: &[Line]) -> Vec<(Tok, usize)> {
    let mut toks = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let mut word = String::new();
        for c in line.code.chars() {
            if c.is_alphanumeric() || c == '_' {
                word.push(c);
            } else {
                if !word.is_empty() {
                    toks.push((Tok::Word(std::mem::take(&mut word)), lineno));
                }
                if !c.is_whitespace() {
                    toks.push((Tok::Punct(c), lineno));
                }
            }
        }
        if !word.is_empty() {
            toks.push((Tok::Word(word), lineno));
        }
    }
    toks
}

/// Words that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "fn",
    "impl", "let", "mut", "ref", "move", "use", "pub", "where", "enum", "struct", "trait", "type",
    "const", "static", "crate", "super", "dyn", "as", "unsafe", "async", "await", "mod", "extern",
];

#[derive(Debug)]
enum Scope {
    /// An `impl` block with its subject type.
    Impl(String),
    /// A fn body; the payload indexes into the output `fns` vec.
    Fn(usize),
    /// A `for`/`while`/`loop` body.
    Loop,
    /// Any other brace pair (blocks, struct literals, match arms, ...).
    Block,
}

#[derive(Debug, PartialEq, Eq)]
enum Pending {
    None,
    /// `impl` header seen; the next top-level `{` opens the impl block.
    Impl(String),
    /// `fn` signature seen; the next `{` at bracket/paren depth 0 opens
    /// the body (or `;` ends a bodiless declaration). Payload is the
    /// `fns` index.
    Fn(usize),
    /// A loop keyword seen inside a fn; the next `{` opens the loop body.
    Loop,
}

/// Parses one file's blanked lines into items, calls and loop depths.
#[must_use]
pub fn parse(lines: &[Line]) -> ParsedFile {
    let toks = tokenize(lines);
    let mut out = ParsedFile {
        fns: Vec::new(),
        loop_depth: vec![0; lines.len()],
    };
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending = Pending::None;
    // Bracket/paren depth while a fn signature is pending, so the `;` in
    // `fn f(x: [u8; 3]);` does not end the declaration early.
    let mut sig_depth: i32 = 0;

    let word_at = |i: usize| match toks.get(i) {
        Some((Tok::Word(w), _)) => Some(w.as_str()),
        _ => None,
    };
    let punct_at = |i: usize| match toks.get(i) {
        Some((Tok::Punct(p), _)) => Some(*p),
        _ => None,
    };

    let mut i = 0usize;
    while i < toks.len() {
        let (tok, lineno) = &toks[i];
        let lineno = *lineno;

        // Record loop depth for every line that carries tokens.
        let depth = scopes.iter().filter(|s| matches!(s, Scope::Loop)).count();
        let slot = &mut out.loop_depth[lineno - 1];
        *slot = (*slot).max(depth as u32);

        match tok {
            Tok::Word(w) => match w.as_str() {
                "impl" if matches!(pending, Pending::None) => {
                    let (ty, next) = parse_impl_header(&toks, i + 1);
                    pending = Pending::Impl(ty);
                    i = next;
                    continue;
                }
                "fn" => {
                    // `fn` name may be absent (bare `fn` pointer types);
                    // only a following word makes this an item.
                    if let Some(name) = word_at(i + 1) {
                        let qual = scopes.iter().rev().find_map(|s| match s {
                            Scope::Impl(t) => Some(t.clone()),
                            _ => None,
                        });
                        out.fns.push(FnItem {
                            name: name.to_string(),
                            qual,
                            sig_line: lineno,
                            body_start: None,
                            body_end: None,
                            calls: Vec::new(),
                        });
                        pending = Pending::Fn(out.fns.len() - 1);
                        sig_depth = 0;
                        i += 2;
                        continue;
                    }
                }
                "for" | "while" | "loop"
                    if !matches!(pending, Pending::Impl(_) | Pending::Fn(_))
                        && scopes.iter().any(|s| matches!(s, Scope::Fn(_))) =>
                {
                    pending = Pending::Loop;
                }
                _ => {
                    // Call detection: word followed by `(`, or by a
                    // turbofish `::<`.
                    let is_call = punct_at(i + 1) == Some('(')
                        || (punct_at(i + 1) == Some(':')
                            && punct_at(i + 2) == Some(':')
                            && punct_at(i + 3) == Some('<'));
                    if is_call && !NON_CALL_KEYWORDS.contains(&w.as_str()) {
                        if let Some(fn_idx) = scopes.iter().rev().find_map(|s| match s {
                            Scope::Fn(idx) => Some(*idx),
                            _ => None,
                        }) {
                            let is_method = i > 0 && punct_at(i - 1) == Some('.');
                            let qual = if !is_method
                                && i >= 3
                                && punct_at(i - 1) == Some(':')
                                && punct_at(i - 2) == Some(':')
                                && punct_at(i - 3) != Some(':')
                            {
                                word_at(i - 3).map(str::to_string)
                            } else {
                                None
                            };
                            // `Self::helper(..)` means the surrounding
                            // impl type.
                            let qual = match qual.as_deref() {
                                Some("Self") => scopes.iter().rev().find_map(|s| match s {
                                    Scope::Impl(t) => Some(t.clone()),
                                    _ => None,
                                }),
                                _ => qual,
                            };
                            out.fns[fn_idx].calls.push(CallSite {
                                name: w.clone(),
                                qual,
                                is_method,
                                line: lineno,
                            });
                        }
                    }
                }
            },
            Tok::Punct(p) => match p {
                '(' | '[' if matches!(pending, Pending::Fn(_)) => sig_depth += 1,
                ')' | ']' if matches!(pending, Pending::Fn(_)) => sig_depth -= 1,
                ';' if matches!(pending, Pending::Fn(_)) && sig_depth == 0 => {
                    // Bodiless declaration (trait method signature).
                    pending = Pending::None;
                }
                '{' => {
                    let scope = match std::mem::replace(&mut pending, Pending::None) {
                        Pending::Fn(idx) if sig_depth == 0 => {
                            out.fns[idx].body_start = Some(lineno);
                            Scope::Fn(idx)
                        }
                        Pending::Fn(idx) => {
                            // `{` inside the signature (const-generic
                            // expression): keep the fn pending.
                            pending = Pending::Fn(idx);
                            sig_depth += 1;
                            Scope::Block
                        }
                        Pending::Impl(ty) => Scope::Impl(ty),
                        Pending::Loop => Scope::Loop,
                        Pending::None => Scope::Block,
                    };
                    scopes.push(scope);
                }
                '}' => {
                    if let Some(scope) = scopes.pop() {
                        if let Scope::Fn(idx) = scope {
                            out.fns[idx].body_end = Some(lineno);
                        }
                        if matches!(pending, Pending::Fn(_)) {
                            sig_depth -= 1;
                        }
                    }
                }
                _ => {}
            },
        }
        i += 1;
    }

    // Unterminated bodies (truncated input): close at the last line so
    // spans stay well-formed.
    let last = lines.len();
    for f in &mut out.fns {
        if f.body_start.is_some() && f.body_end.is_none() {
            f.body_end = Some(last);
        }
    }
    out
}

/// Parses an `impl` header starting at token `start` (just past `impl`),
/// returning the subject type name and the index of the token that ends
/// the header (`{` or `;`). For `impl Trait for Type` the subject is
/// `Type`; generic parameter lists are skipped at angle-depth.
fn parse_impl_header(toks: &[(Tok, usize)], start: usize) -> (String, usize) {
    let mut angle: i32 = 0;
    let mut after_for = false;
    let mut first: Option<String> = None;
    let mut subject: Option<String> = None;
    let mut i = start;
    while i < toks.len() {
        match &toks[i].0 {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('{') | Tok::Punct(';') => break,
            Tok::Word(w) if angle == 0 => {
                if w == "for" {
                    after_for = true;
                } else if after_for && subject.is_none() {
                    subject = Some(w.clone());
                } else if first.is_none() {
                    first = Some(w.clone());
                }
            }
            _ => {}
        }
        i += 1;
    }
    let ty = subject.or(first).unwrap_or_default();
    (ty, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::strip;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&strip(src))
    }

    #[test]
    fn free_fn_with_span_and_calls() {
        let p = parse_src("pub fn alpha(x: u32) -> u32 {\n    beta(x) + gamma::delta(x)\n}\n");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "alpha");
        assert_eq!(f.qual, None);
        assert_eq!(f.sig_line, 1);
        assert_eq!(f.body_start, Some(1));
        assert_eq!(f.body_end, Some(3));
        let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["beta", "delta"]);
        assert_eq!(f.calls[1].qual.as_deref(), Some("gamma"));
    }

    #[test]
    fn impl_methods_carry_the_type_qualifier() {
        let src = "impl<T: Clone> Session<T> {\n  pub fn encode_into(&mut self) {\n    self.scratch.clear();\n    Self::reset(self);\n  }\n}\n";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].qualified(), "Session::encode_into");
        // `.clear()` is a method call; `Self::reset` resolves to Session.
        let reset = p.fns[0]
            .calls
            .iter()
            .find(|c| c.name == "reset")
            .expect("reset call");
        assert_eq!(reset.qual.as_deref(), Some("Session"));
        let clear = p.fns[0]
            .calls
            .iter()
            .find(|c| c.name == "clear")
            .expect("clear call");
        assert!(clear.is_method);
    }

    #[test]
    fn trait_impl_subject_is_the_type_after_for() {
        let p = parse_src("impl Rule for PanicFreedom {\n  fn id(&self) -> u8 { 1 }\n}\n");
        assert_eq!(p.fns[0].qualified(), "PanicFreedom::id");
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let p = parse_src("trait R {\n  fn id(&self) -> u8;\n  fn go(&self) { helper() }\n}\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].body_start, None);
        assert_eq!(p.fns[1].body_start, Some(3));
        assert_eq!(p.fns[1].calls.len(), 1);
    }

    #[test]
    fn signature_brackets_do_not_end_the_declaration() {
        let p = parse_src("fn f(x: [u8; 3]) -> u8 {\n  x[0]\n}\nfn g();\n");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].body_end, Some(3));
        assert_eq!(p.fns[1].body_start, None);
    }

    #[test]
    fn loop_depth_tracks_nesting_and_kinds() {
        let src = "fn f(v: &[u32]) {\n  setup();\n  for x in v {\n    while go() {\n      inner();\n    }\n  }\n  loop {\n    tick();\n    break;\n  }\n}\n";
        let p = parse_src(src);
        assert_eq!(p.loop_depth_at(2), 0, "setup is outside loops");
        assert_eq!(p.loop_depth_at(5), 2, "inner() is two loops deep");
        assert_eq!(p.loop_depth_at(9), 1, "tick() is one loop deep");
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let src = "impl Iterator for Walker {\n  fn next(&mut self) -> Option<u8> { step() }\n}\n";
        let p = parse_src(src);
        assert_eq!(p.loop_depth_at(2), 0);
        assert_eq!(p.fns[0].qualified(), "Walker::next");
    }

    #[test]
    fn turbofish_calls_are_recorded() {
        let p =
            parse_src("fn f() {\n  let v = helper::<u32>(1);\n  let w = x.convert::<u64>();\n}\n");
        let names: Vec<&str> = p.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"helper"));
        assert!(names.contains(&"convert"));
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let p = parse_src("fn f(x: u32) -> u32 {\n  if check(x) { return x; }\n  assert!(x > 0);\n  match x { _ => other(x) }\n}\n");
        let names: Vec<&str> = p.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        // `assert!` is a macro — the `!` breaks word-`(` adjacency, so
        // macros are never call sites; `if`/`match`/`return` are keywords.
        assert_eq!(names, ["check", "other"]);
    }

    #[test]
    fn nested_fn_spans_nest() {
        let src = "fn outer() {\n  fn inner(y: u8) -> u8 { y }\n  inner(2);\n}\n";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "outer");
        assert_eq!(p.fns[0].body_end, Some(4));
        assert_eq!(p.fns[1].body_end, Some(2));
        // fn_at picks the innermost item.
        assert_eq!(p.fn_at(2).expect("inner").name, "inner");
        assert_eq!(p.fn_at(3).expect("outer").name, "outer");
    }

    #[test]
    fn struct_literals_and_match_braces_stay_balanced() {
        let src = "fn f() -> P {\n  let p = P { a: 1, b: 2 };\n  match p.a {\n    1 => use_it(p),\n    _ => P { a: 0, b: 0 },\n  }\n}\nfn after() {}\n";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].body_end, Some(7));
        assert_eq!(p.fns[1].sig_line, 8);
    }

    #[test]
    fn truncated_body_closes_at_eof() {
        let p = parse_src("fn f() {\n  call_a();\n");
        assert_eq!(p.fns[0].body_end, Some(2));
    }
}
