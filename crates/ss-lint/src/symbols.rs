//! Workspace symbol table: every parsed `fn` item, indexed for call
//! resolution.
//!
//! Resolution is deliberately an over-approximation — the linter must
//! never *miss* hot code, so an ambiguous call resolves to every
//! plausible target:
//!
//! * `Qual::name(..)` resolves to fns named `name` inside `impl Qual`
//!   blocks; when no such impl exists the qualifier is treated as a
//!   module path (`par::par_map`) and resolution falls back to name
//!   matching;
//! * `.name(..)` method calls resolve to every *associated* fn named
//!   `name` (free fns can't be called with method syntax);
//! * bare `name(..)` calls resolve to every fn named `name`.
//!
//! False edges only ever enlarge the hot set, which is the safe
//! direction for `panic-freedom` and friends.

use std::collections::HashMap;

use crate::parse::{CallSite, FnItem, ParsedFile};

/// Identifies one fn item: (file index, fn index within the file).
pub type FnId = (usize, usize);

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// fn name -> every item with that name.
    by_name: HashMap<String, Vec<FnId>>,
    /// "Type::name" -> associated items with that qualified name.
    by_qual: HashMap<String, Vec<FnId>>,
    /// fn name -> associated items (any impl type) with that name.
    methods: HashMap<String, Vec<FnId>>,
    /// Total number of indexed items.
    count: usize,
}

impl SymbolTable {
    /// Indexes every fn of every parsed file. `parsed[i]` must correspond
    /// to the workspace file with index `i`.
    #[must_use]
    pub fn build(parsed: &[ParsedFile]) -> Self {
        let mut table = Self::default();
        for (file_idx, file) in parsed.iter().enumerate() {
            for (fn_idx, item) in file.fns.iter().enumerate() {
                let id = (file_idx, fn_idx);
                table.by_name.entry(item.name.clone()).or_default().push(id);
                if item.qual.is_some() {
                    table.by_qual.entry(item.qualified()).or_default().push(id);
                    table.methods.entry(item.name.clone()).or_default().push(id);
                }
                table.count += 1;
            }
        }
        table
    }

    /// Number of indexed fn items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Resolves an entry-point spec (`name` or `Type::name`) to items.
    #[must_use]
    pub fn resolve_entry(&self, spec: &str) -> Vec<FnId> {
        if spec.contains("::") {
            self.by_qual.get(spec).cloned().unwrap_or_default()
        } else {
            self.by_name.get(spec).cloned().unwrap_or_default()
        }
    }

    /// Resolves one call site to candidate targets (see module docs).
    #[must_use]
    pub fn resolve_call(&self, call: &CallSite) -> Vec<FnId> {
        if let Some(q) = &call.qual {
            let qualified = format!("{q}::{}", call.name);
            if let Some(ids) = self.by_qual.get(&qualified) {
                return ids.clone();
            }
            // Module-path qualifier (`par::par_map`): fall through to
            // name resolution.
            return self.by_name.get(&call.name).cloned().unwrap_or_default();
        }
        if call.is_method {
            return self.methods.get(&call.name).cloned().unwrap_or_default();
        }
        self.by_name.get(&call.name).cloned().unwrap_or_default()
    }

    /// Looks up the item for an id.
    #[must_use]
    pub fn item<'a>(&self, parsed: &'a [ParsedFile], id: FnId) -> Option<&'a FnItem> {
        parsed.get(id.0).and_then(|f| f.fns.get(id.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::strip;
    use crate::parse::parse;

    fn table(srcs: &[&str]) -> (Vec<ParsedFile>, SymbolTable) {
        let parsed: Vec<ParsedFile> = srcs.iter().map(|s| parse(&strip(s))).collect();
        let t = SymbolTable::build(&parsed);
        (parsed, t)
    }

    #[test]
    fn qualified_resolution_prefers_the_impl() {
        let (_, t) = table(&["impl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\nfn go() {}"]);
        let call = CallSite {
            name: "go".into(),
            qual: Some("A".into()),
            is_method: false,
            line: 1,
        };
        assert_eq!(t.resolve_call(&call).len(), 1);
    }

    #[test]
    fn method_calls_resolve_to_associated_items_only() {
        let (_, t) = table(&["impl A { fn go(&self) {} }\nfn go() {}"]);
        let call = CallSite {
            name: "go".into(),
            qual: None,
            is_method: true,
            line: 1,
        };
        assert_eq!(
            t.resolve_call(&call).len(),
            1,
            "free fn is not a method target"
        );
    }

    #[test]
    fn module_path_qualifier_falls_back_to_name() {
        let (_, t) = table(&["fn par_map() {}"]);
        let call = CallSite {
            name: "par_map".into(),
            qual: Some("par".into()),
            is_method: false,
            line: 1,
        };
        assert_eq!(t.resolve_call(&call).len(), 1);
    }

    #[test]
    fn entry_specs_support_both_forms() {
        let (_, t) = table(&["impl Pipeline { fn process(&self) {} }\nfn scan_group() {}"]);
        assert_eq!(t.resolve_entry("Pipeline::process").len(), 1);
        assert_eq!(t.resolve_entry("scan_group").len(), 1);
        assert!(t.resolve_entry("Pipeline::missing").is_empty());
    }
}
