//! Workspace discovery and file classification.
//!
//! The linter is a pure source scanner: it walks the workspace's own
//! layout (`src/`, `tests/`, `examples/` at the root; `src/`, `tests/`,
//! `benches/`, `examples/` under each `crates/*` member) plus every
//! member `Cargo.toml`. `vendor/` (offline registry stand-ins), `target/`
//! and the linter's own `fixtures/` are never scanned — fixtures carry
//! deliberately seeded violations.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::annot::{self, Allows};
use crate::lex::{self, Line};

/// What a scanned file is, which decides the rules that apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Product code: every rule applies.
    Source,
    /// Test, bench or example code: exempt from the code rules (tests
    /// assert with `unwrap` by design) but still scanned for annotations.
    TestSource,
    /// A `Cargo.toml`; only manifest rules (vendor drift) apply.
    Manifest,
}

/// One scanned file with both lexed views and its parsed annotations.
#[derive(Debug)]
pub struct ScannedFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// File classification.
    pub kind: FileKind,
    /// Lexed lines (comments/literals blanked in `code`).
    pub lines: Vec<Line>,
    /// Allow-annotations parsed from the file.
    pub allows: Allows,
    /// First line (1-based) of a `#[cfg(test)]` region, if any. Everything
    /// from that line to the end of the file is treated as test code —
    /// this workspace keeps its unit-test modules at the bottom of each
    /// file, and the conservative direction (exempting too much) never
    /// produces a false violation.
    pub test_start: Option<usize>,
}

impl ScannedFile {
    /// Builds a scanned Rust source file from its text.
    #[must_use]
    pub fn rust(rel: &str, kind: FileKind, text: &str, known_rules: &[&str]) -> Self {
        let lines = lex::strip(text);
        let allows = annot::collect(&lines, "//", known_rules);
        let test_start = lines
            .iter()
            .position(|l| l.code.contains("cfg(test)"))
            .map(|idx| idx + 1);
        Self {
            rel: rel.to_string(),
            kind,
            lines,
            allows,
            test_start,
        }
    }

    /// Builds a scanned manifest: TOML has no string/comment ambiguity the
    /// Rust lexer handles, so `code` is simply the line up to any `#`.
    #[must_use]
    pub fn manifest(rel: &str, text: &str, known_rules: &[&str]) -> Self {
        let lines: Vec<Line> = text
            .lines()
            .map(|raw| Line {
                code: raw.split('#').next().unwrap_or_default().to_string(),
                raw: raw.to_string(),
            })
            .collect();
        let allows = annot::collect(&lines, "#", known_rules);
        Self {
            rel: rel.to_string(),
            kind: FileKind::Manifest,
            lines,
            allows,
            test_start: None,
        }
    }

    /// `true` when `lineno` (1-based) is test code — either the whole file
    /// is test/bench/example code or the line sits in a `#[cfg(test)]`
    /// region.
    #[must_use]
    pub fn is_test_line(&self, lineno: usize) -> bool {
        self.kind == FileKind::TestSource || self.test_start.is_some_and(|start| lineno >= start)
    }

    /// `true` when `rule` is suppressed at `lineno` by an annotation.
    #[must_use]
    pub fn is_allowed(&self, rule: &str, lineno: usize) -> bool {
        self.allows.is_allowed(rule, lineno)
    }

    /// The raw text of `lineno` (1-based), trimmed, for snippets.
    #[must_use]
    pub fn snippet(&self, lineno: usize) -> String {
        self.lines
            .get(lineno.saturating_sub(1))
            .map(|l| l.raw.trim().to_string())
            .unwrap_or_default()
    }
}

/// The scanned workspace: all files plus the crate-root index.
#[derive(Debug)]
pub struct Workspace {
    /// Every scanned file, sorted by relative path.
    pub files: Vec<ScannedFile>,
    /// Relative paths of crate-root `lib.rs` files (workspace members and
    /// the root package), for the unsafe-wall rule.
    pub crate_roots: Vec<String>,
}

impl Workspace {
    /// Builds a workspace directly from in-memory parts — the fixture and
    /// self-test entry point.
    #[must_use]
    pub fn from_parts(files: Vec<ScannedFile>, crate_roots: Vec<String>) -> Self {
        Self { files, crate_roots }
    }

    /// Loads the workspace rooted at `root` from disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory walks and file reads.
    pub fn load(root: &Path, known_rules: &[&str]) -> io::Result<Self> {
        let mut files = Vec::new();
        let mut crate_roots = Vec::new();

        let mut package_dirs: Vec<PathBuf> = vec![root.to_path_buf()];
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect();
            members.sort();
            package_dirs.extend(members);
        }

        for dir in &package_dirs {
            let manifest = dir.join("Cargo.toml");
            if manifest.is_file() {
                let text = fs::read_to_string(&manifest)?;
                files.push(ScannedFile::manifest(
                    &relpath(root, &manifest),
                    &text,
                    known_rules,
                ));
            }
            let lib = dir.join("src").join("lib.rs");
            if lib.is_file() {
                crate_roots.push(relpath(root, &lib));
            }
            for (sub, kind) in [
                ("src", FileKind::Source),
                ("tests", FileKind::TestSource),
                ("benches", FileKind::TestSource),
                ("examples", FileKind::TestSource),
            ] {
                let sub_dir = dir.join(sub);
                if sub_dir.is_dir() {
                    walk_rust(root, &sub_dir, kind, known_rules, &mut files)?;
                }
            }
        }

        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        crate_roots.sort();
        Ok(Self { files, crate_roots })
    }

    /// Looks up a scanned file by relative path.
    #[must_use]
    pub fn file(&self, rel: &str) -> Option<&ScannedFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// For each file, the connected component of its crate in the
    /// workspace dependency graph: two crates share a component when a
    /// chain of member-manifest dependencies (in either direction) joins
    /// them. `None` for a file whose crate has no scanned manifest.
    #[must_use]
    pub fn crate_components(&self) -> Vec<Option<usize>> {
        // (crate directory, package name, dependency names) per manifest.
        let manifests: Vec<(String, String, Vec<String>)> = self
            .files
            .iter()
            .filter(|f| f.kind == FileKind::Manifest)
            .map(|f| {
                let (name, deps) = manifest_package(f);
                (crate_dir(&f.rel), name, deps)
            })
            .collect();
        let mut parent: Vec<usize> = (0..manifests.len()).collect();
        for (i, (_, _, deps)) in manifests.iter().enumerate() {
            for dep in deps {
                if let Some(j) = manifests.iter().position(|(_, name, _)| name == dep) {
                    let (a, b) = (root_of(&parent, i), root_of(&parent, j));
                    if let Some(slot) = parent.get_mut(a) {
                        *slot = b;
                    }
                }
            }
        }
        self.files
            .iter()
            .map(|f| {
                let dir = crate_dir(&f.rel);
                let i = manifests.iter().position(|(d, _, _)| *d == dir)?;
                Some(root_of(&parent, i))
            })
            .collect()
    }
}

/// The crate directory a workspace-relative path belongs to:
/// `crates/<member>`, or `""` for the root package.
fn crate_dir(rel: &str) -> String {
    let mut parts = rel.splitn(3, '/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some(member), Some(_)) => format!("crates/{member}"),
        _ => String::new(),
    }
}

/// A manifest's `[package]` name and the names it lists in its
/// dependency tables (not the `[workspace.dependencies]` declarations).
fn manifest_package(file: &ScannedFile) -> (String, Vec<String>) {
    let mut section = "";
    let mut name = String::new();
    let mut deps = Vec::new();
    for line in &file.lines {
        let code = line.code.trim();
        if code.starts_with('[') {
            section = code.trim_matches(|c| c == '[' || c == ']');
            continue;
        }
        let Some((key, value)) = code.split_once('=') else {
            continue;
        };
        if section == "package" && key.trim() == "name" {
            name = value.trim().trim_matches('"').to_string();
        } else if section.ends_with("dependencies") && section != "workspace.dependencies" {
            if let Some(dep) = key.split('.').next() {
                deps.push(dep.trim().to_string());
            }
        }
    }
    (name, deps)
}

/// The representative of `i`'s set in a union-find parent table.
fn root_of(parent: &[usize], mut i: usize) -> usize {
    while let Some(&up) = parent.get(i) {
        if up == i {
            break;
        }
        i = up;
    }
    i
}

/// Recursively collects `.rs` files under `dir`.
fn walk_rust(
    root: &Path,
    dir: &Path,
    kind: FileKind,
    known_rules: &[&str],
    out: &mut Vec<ScannedFile>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rust(root, &path, kind, known_rules, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path)?;
            out.push(ScannedFile::rust(
                &relpath(root, &path),
                kind,
                &text,
                known_rules,
            ));
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes.
fn relpath(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]` — how the CLI finds the workspace root from any subdir.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &[&str] = &["panic-freedom"];

    #[test]
    fn cfg_test_region_extends_to_eof() {
        let f = ScannedFile::rust(
            "crates/x/src/lib.rs",
            FileKind::Source,
            "fn hot() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\n",
            RULES,
        );
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
    }

    #[test]
    fn test_source_kind_is_all_test() {
        let f = ScannedFile::rust("tests/t.rs", FileKind::TestSource, "fn a() {}\n", RULES);
        assert!(f.is_test_line(1));
    }

    #[test]
    fn manifest_comment_stripping() {
        let f = ScannedFile::manifest(
            "Cargo.toml",
            "[dependencies] # section\nrand = \"1\"\n",
            &["vendor-drift"],
        );
        assert_eq!(f.lines[0].code.trim(), "[dependencies]");
    }

    #[test]
    fn crates_joined_by_dependencies_share_a_component() {
        let files = vec![
            ScannedFile::manifest(
                "Cargo.toml",
                "[workspace.dependencies]\nss-lint = { path = \"crates/ss-lint\" }\n\
                 [package]\nname = \"facade\"\n[dependencies]\nss-core.workspace = true\n",
                RULES,
            ),
            ScannedFile::manifest(
                "crates/ss-core/Cargo.toml",
                "[package]\nname = \"ss-core\"\n[dependencies]\nss-bitio.workspace = true\n",
                RULES,
            ),
            ScannedFile::manifest(
                "crates/ss-bitio/Cargo.toml",
                "[package]\nname = \"ss-bitio\"\n[[bench]]\nname = \"ss-lint\"\n",
                RULES,
            ),
            ScannedFile::manifest(
                "crates/ss-lint/Cargo.toml",
                "[package]\nname = \"ss-lint\"\n[dependencies]\n",
                RULES,
            ),
            ScannedFile::rust("src/lib.rs", FileKind::Source, "", RULES),
            ScannedFile::rust("crates/ss-bitio/src/lib.rs", FileKind::Source, "", RULES),
            ScannedFile::rust("crates/ss-lint/src/lib.rs", FileKind::Source, "", RULES),
            ScannedFile::rust("crates/ss-quant/src/lib.rs", FileKind::Source, "", RULES),
        ];
        let c = Workspace::from_parts(files, vec![]).crate_components();
        // The facade reaches ss-bitio through ss-core; ss-lint is alone.
        assert!(c[0].is_some() && c[0] == c[1] && c[1] == c[2]);
        assert_eq!(c[4], c[0]);
        assert_eq!(c[5], c[0]);
        assert!(c[6].is_some() && c[6] != c[0]);
        assert_eq!(c[3], c[6]);
        // A crate with no scanned manifest has no component.
        assert_eq!(c[7], None);
    }

    #[test]
    fn load_scans_this_workspace() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let ws = Workspace::load(&root, RULES).expect("load");
        assert!(ws
            .files
            .iter()
            .any(|f| f.rel == "crates/ss-core/src/codec.rs"));
        assert!(ws.crate_roots.iter().any(|r| r == "src/lib.rs"));
        // Fixtures and vendor stand-ins must never be scanned.
        assert!(!ws.files.iter().any(|f| f.rel.contains("fixtures/")));
        assert!(!ws.files.iter().any(|f| f.rel.starts_with("vendor/")));
    }
}
