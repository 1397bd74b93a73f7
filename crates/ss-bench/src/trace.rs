//! Shared `--trace` plumbing for the experiment binaries.
//!
//! Every fig/ablation binary routes its `main` through
//! [`main_with_trace`], which adds two flags without touching the
//! experiment code:
//!
//! * `--trace <path>` (or `--trace=<path>`) — install a collecting
//!   [`TraceRecorder`] for the run and write the `ss-trace/1` analysis
//!   JSON (counters, width histograms, per-layer records, spans) to
//!   `path` on exit.
//! * `--trace-chrome <path>` — additionally (or instead) write a Chrome
//!   trace-event file loadable in `chrome://tracing` / Perfetto.
//!
//! Without either flag nothing is installed: the hot layers find no
//! recorder through [`ss_trace::installed`] and pay one branch.

use std::io::{self, Write};
use std::path::PathBuf;

use ss_trace::{Span, TraceRecorder};

/// Parsed trace-related CLI flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceArgs {
    /// Destination for the `ss-trace/1` analysis JSON.
    pub json: Option<PathBuf>,
    /// Destination for the Chrome trace-event JSON.
    pub chrome: Option<PathBuf>,
}

impl TraceArgs {
    /// Parses `--trace`/`--trace-chrome` out of an argument stream
    /// (ignoring everything else — the experiment binaries take no other
    /// arguments).
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut out = TraceArgs::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if let Some(path) = arg.strip_prefix("--trace=") {
                out.json = Some(PathBuf::from(path));
            } else if let Some(path) = arg.strip_prefix("--trace-chrome=") {
                out.chrome = Some(PathBuf::from(path));
            } else if arg == "--trace" {
                out.json = args.next().map(PathBuf::from);
            } else if arg == "--trace-chrome" {
                out.chrome = args.next().map(PathBuf::from);
            }
        }
        out
    }

    /// Parses the process arguments (skipping `argv[0]`).
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// `true` when any trace output was requested.
    #[must_use]
    pub fn active(&self) -> bool {
        self.json.is_some() || self.chrome.is_some()
    }

    /// Installs the process-wide collecting recorder if tracing was
    /// requested (idempotent across helpers: a second install is a no-op).
    pub fn install(&self) {
        if self.active() {
            ss_trace::install(TraceRecorder::new());
        }
    }

    /// Snapshots the installed recorder and writes the requested files.
    ///
    /// # Errors
    ///
    /// Propagates file-write errors.
    pub fn export(&self) -> io::Result<()> {
        let Some(rec) = ss_trace::installed() else {
            return Ok(());
        };
        let snap = rec.snapshot();
        if let Some(path) = &self.json {
            std::fs::write(path, snap.to_json())?;
            eprintln!("trace: wrote {}", path.display());
        }
        if let Some(path) = &self.chrome {
            std::fs::write(path, snap.to_chrome_trace())?;
            eprintln!("trace: wrote chrome trace {}", path.display());
        }
        Ok(())
    }
}

/// The shared `main` body of every experiment binary: parse trace flags,
/// install the recorder, run the experiment under a span, export.
///
/// # Errors
///
/// Propagates the experiment's I/O errors and trace-file write errors.
pub fn main_with_trace(
    slug: &str,
    run: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let args = TraceArgs::from_env();
    args.install();
    let result = {
        let _span = Span::enter(ss_trace::installed(), "experiment", slug);
        let mut out = io::stdout().lock();
        run(&mut out)
    };
    args.export()?;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> TraceArgs {
        TraceArgs::parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_both_flag_forms() {
        assert_eq!(parse(&[]), TraceArgs::default());
        assert!(!parse(&[]).active());
        let a = parse(&["--trace", "out.json"]);
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert!(a.active());
        let b = parse(&["--trace=x.json", "--trace-chrome=y.json"]);
        assert_eq!(b.json.as_deref(), Some(std::path::Path::new("x.json")));
        assert_eq!(b.chrome.as_deref(), Some(std::path::Path::new("y.json")));
        let c = parse(&["--trace-chrome", "t.json", "ignored-positional"]);
        assert_eq!(c.chrome.as_deref(), Some(std::path::Path::new("t.json")));
        assert_eq!(c.json, None);
    }

    #[test]
    fn dangling_flag_is_inactive() {
        let a = parse(&["--trace"]);
        assert_eq!(a.json, None);
        assert!(!a.active());
    }
}
