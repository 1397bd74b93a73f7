//! Call-graph construction and hot-path reachability.
//!
//! v1 policed a hand-maintained `HOT_PATHS` module list — which is
//! exactly the design that misses a panicking helper in an *unlisted*
//! module the moment a hot entry point starts calling it. v2 replaces the
//! list with a seeded closure: the paper-critical entry points below are
//! resolved through the [`crate::symbols::SymbolTable`], and every fn
//! transitively reachable from them (over the conservatively
//! over-approximated call edges) is hot. Rules ask [`Analysis::is_hot`]
//! per line instead of consulting a path list.

use std::collections::HashMap;

use crate::parse::{self, ParsedFile};
use crate::symbols::{FnId, SymbolTable};
use crate::workspace::{FileKind, Workspace};

/// Hot entry points, as `name` or `Type::name` specs. These are the
/// serving-path roots: the codec's framing path and group layouts, its
/// public API, the reusable session, the batch engine, the word-parallel
/// scan kernels, and the accelerator simulator's top-level loop.
/// Everything they transitively call inherits panic-freedom, determinism
/// and allocation discipline — including helpers in modules no list ever
/// named.
pub const ENTRY_POINTS: &[&str] = &[
    // The one framing path every wire scheme runs through: stream-level
    // framing and the Section 3 container's encode/decode group loops.
    "write_stream",
    "read_stream",
    "write_groups",
    "read_groups",
    // Each built-in scheme's per-group layout.
    "ShapeShifterScheme::write_group",
    "ShapeShifterScheme::read_group",
    "DeltaShapeShifter::write_group",
    "DeltaShapeShifter::read_group",
    "DpRed::write_group",
    "DpRed::read_group",
    "AdaBitsScheme::write_group",
    "AdaBitsScheme::read_group",
    // Word-parallel scan kernels (the Fig. 5(c) OR-tree analogue).
    "scan_group",
    "scan_gather",
    // The one-shot codec: its one encode and one decode (behind the
    // `SSPK` container too), and the measure.
    "ShapeShifterCodec::encode_with",
    "ShapeShifterCodec::decode_scheme_stream",
    "ShapeShifterCodec::measure",
    // The reusable zero-allocation session: its one encode and its
    // decodes (each built-in scheme gets `ContainerScheme` from its group
    // layout, and the registry resolves a stream's wire id).
    "CodecSession::encode_stream",
    "CodecSession::decode_stream",
    "CodecSession::decode_scheme_stream",
    "SchemeRegistry::get",
    // Batch engine: its one encode and one decode, and the verifying run.
    "Pipeline::process",
    "Pipeline::encode_batch_with",
    "Pipeline::decode_batch_with",
    // Shard store serving paths: streaming append and random-access get
    // both sit on the model-loading critical path.
    "ShardWriter::append",
    "ModelWriter::append_tensor",
    "ModelStore::get",
    "ModelStore::verify",
    // Accelerator simulator inner loop.
    "simulate",
    // Serve request handling: admission control, the worker dispatch
    // loop, and the per-connection SSRP framing path.
    "ServeHandle::submit_with_id",
    "worker_main",
    "run_connection",
];

/// The analysis context handed to every rule alongside the raw
/// [`Workspace`]: parsed items per file (aligned with `ws.files`), the
/// symbol table, and the reachability-derived hot set.
#[derive(Debug)]
pub struct Analysis {
    /// `parsed[i]` corresponds to `ws.files[i]`. Manifests parse to an
    /// empty [`ParsedFile`].
    pub parsed: Vec<ParsedFile>,
    /// The workspace symbol table.
    pub symbols: SymbolTable,
    /// Hot fn ids, and per-file hot line intervals derived from them.
    hot: HashMap<usize, Vec<(usize, usize)>>,
    hot_fn_count: usize,
    /// File index by relative path, for by-path queries.
    file_idx: HashMap<String, usize>,
}

impl Analysis {
    /// Parses every source file, builds the symbol table and computes the
    /// hot closure from [`ENTRY_POINTS`].
    #[must_use]
    pub fn build(ws: &Workspace) -> Self {
        let parsed: Vec<ParsedFile> = ws
            .files
            .iter()
            .map(|f| {
                if f.kind == FileKind::Manifest {
                    ParsedFile::default()
                } else {
                    parse::parse(&f.lines)
                }
            })
            .collect();
        let symbols = SymbolTable::build(&parsed);
        // A call reaches only fns of crates its own crate is joined to by
        // dependencies: a crate with no dependency path to the caller's
        // (ss-lint itself, say) cannot be called from it, however its fns
        // are named. A crate with no scanned manifest is joined to all.
        let component = ws.crate_components();
        let connected = |a: usize, b: usize| match (
            component.get(a).copied().flatten(),
            component.get(b).copied().flatten(),
        ) {
            (Some(x), Some(y)) => x == y,
            _ => true,
        };

        // Seed with the entry points, then close over call edges.
        let mut hot_ids: Vec<FnId> = Vec::new();
        let mut seen: HashMap<FnId, ()> = HashMap::new();
        for spec in ENTRY_POINTS {
            for id in symbols.resolve_entry(spec) {
                if seen.insert(id, ()).is_none() {
                    hot_ids.push(id);
                }
            }
        }
        let mut cursor = 0;
        while cursor < hot_ids.len() {
            let id = hot_ids[cursor];
            cursor += 1;
            let Some(item) = symbols.item(&parsed, id) else {
                continue;
            };
            for call in &item.calls {
                for target in symbols.resolve_call(call) {
                    if connected(id.0, target.0) && seen.insert(target, ()).is_none() {
                        hot_ids.push(target);
                    }
                }
            }
        }

        // Collapse to per-file line intervals (signature through body
        // end) for O(intervals) line queries.
        let mut hot: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
        for id in &hot_ids {
            if let Some(item) = symbols.item(&parsed, *id) {
                let end = item.body_end.unwrap_or(item.sig_line);
                hot.entry(id.0).or_default().push((item.sig_line, end));
            }
        }
        for spans in hot.values_mut() {
            spans.sort_unstable();
        }

        let file_idx = ws
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.rel.clone(), i))
            .collect();

        Self {
            parsed,
            symbols,
            hot,
            hot_fn_count: hot_ids.len(),
            file_idx,
        }
    }

    /// File index for a workspace-relative path.
    #[must_use]
    pub fn file_index(&self, rel: &str) -> Option<usize> {
        self.file_idx.get(rel).copied()
    }

    /// `true` when `lineno` (1-based) of the file at `file_idx` is inside
    /// a transitively-hot fn (signature included).
    #[must_use]
    pub fn is_hot(&self, file_idx: usize, lineno: usize) -> bool {
        self.hot
            .get(&file_idx)
            .is_some_and(|spans| spans.iter().any(|&(s, e)| lineno >= s && lineno <= e))
    }

    /// `true` when any fn of the file is hot — a cheap pre-filter.
    #[must_use]
    pub fn file_has_hot_code(&self, file_idx: usize) -> bool {
        self.hot.contains_key(&file_idx)
    }

    /// Number of fns in the hot closure (reported in the summary line).
    #[must_use]
    pub fn hot_fn_count(&self) -> usize {
        self.hot_fn_count
    }

    /// The parsed view of one file.
    #[must_use]
    pub fn parsed_file(&self, file_idx: usize) -> Option<&ParsedFile> {
        self.parsed.get(file_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{ScannedFile, Workspace};

    const RULES: &[&str] = &["panic-freedom"];

    fn ws(files: Vec<(&str, &str)>) -> Workspace {
        let files = files
            .into_iter()
            .map(|(rel, src)| ScannedFile::rust(rel, FileKind::Source, src, RULES))
            .collect();
        Workspace::from_parts(files, vec![])
    }

    #[test]
    fn closure_crosses_module_boundaries() {
        let ws = ws(vec![
            (
                "crates/ss-core/src/codec.rs",
                "pub fn write_groups(v: &[u32]) -> u32 {\n  helper_pack(v)\n}\n",
            ),
            (
                "crates/ss-models/src/packer.rs",
                "pub fn helper_pack(v: &[u32]) -> u32 {\n  v.len() as u32\n}\npub fn cold(v: &[u32]) -> u32 { v.len() as u32 }\n",
            ),
        ]);
        let cx = Analysis::build(&ws);
        assert_eq!(cx.hot_fn_count(), 2);
        // helper_pack (lines 1..3) is hot; cold (line 4) is not.
        assert!(cx.is_hot(1, 2));
        assert!(!cx.is_hot(1, 4));
    }

    #[test]
    fn method_entry_points_resolve_through_impls() {
        let ws = ws(vec![(
            "crates/ss-pipeline/src/engine.rs",
            "impl Pipeline {\n  pub fn process(&self) {\n    self.dispatch();\n  }\n  fn dispatch(&self) {}\n  fn unrelated(&self) {}\n}\n",
        )]);
        let cx = Analysis::build(&ws);
        assert!(cx.is_hot(0, 3), "process body is hot");
        assert!(cx.is_hot(0, 5), "dispatch reached via method call");
        assert!(!cx.is_hot(0, 6), "unrelated stays cold");
    }

    #[test]
    fn recursive_and_cyclic_calls_terminate() {
        let ws = ws(vec![(
            "crates/ss-core/src/kernels.rs",
            "pub fn scan_group(n: u32) -> u32 {\n  if n == 0 { 0 } else { scan_helper(n) }\n}\nfn scan_helper(n: u32) -> u32 { scan_group(n - 1) }\n",
        )]);
        let cx = Analysis::build(&ws);
        assert_eq!(cx.hot_fn_count(), 2);
    }

    #[test]
    fn a_same_named_fn_in_an_unconnected_crate_is_not_a_call_target() {
        let manifest = |rel: &str, name: &str| {
            ScannedFile::manifest(rel, &format!("[package]\nname = \"{name}\"\n"), RULES)
        };
        let mut files = vec![
            manifest("crates/ss-core/Cargo.toml", "ss-core"),
            manifest("crates/ss-lint/Cargo.toml", "ss-lint"),
        ];
        files.extend(
            [
                (
                    "crates/ss-core/src/codec.rs",
                    "pub fn write_groups(c: &Config) {\n  c.build();\n  parse::parse();\n}\n\
                     impl Config {\n  fn build(&self) {}\n}\nfn parse() {}\n",
                ),
                (
                    "crates/ss-lint/src/callgraph.rs",
                    "impl Analysis {\n  fn build(&self) {}\n}\nfn parse() {}\n",
                ),
            ]
            .map(|(rel, src)| ScannedFile::rust(rel, FileKind::Source, src, RULES)),
        );
        let cx = Analysis::build(&Workspace::from_parts(files, vec![]));
        // write_groups, Config::build and ss-core's parse; nothing of ss-lint.
        assert_eq!(cx.hot_fn_count(), 3);
        assert!(cx.is_hot(2, 6) && cx.is_hot(2, 8));
        assert!(!cx.is_hot(3, 2) && !cx.is_hot(3, 4));
    }

    #[test]
    fn no_entry_points_means_nothing_is_hot() {
        let ws = ws(vec![(
            "crates/ss-bitio/src/writer.rs",
            "pub fn pack(v: u64) -> u64 { v << 1 }\n",
        )]);
        let cx = Analysis::build(&ws);
        assert_eq!(cx.hot_fn_count(), 0);
        assert!(!cx.is_hot(0, 1));
    }
}
