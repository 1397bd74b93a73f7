//! `--trace` plumbing for the `all_experiments` binary.
//!
//! [`TraceArgs::parse`] splits the command line into two flags and the
//! experiment slugs, without touching the experiment code:
//!
//! * `--trace <path>` (or `--trace=<path>`) — install a collecting
//!   [`TraceRecorder`] for the run and write the `ss-trace/1` analysis
//!   JSON (counters, width histograms, per-layer records, spans) to
//!   `path` on exit.
//! * `--trace-chrome <path>` — additionally (or instead) write a Chrome
//!   trace-event file loadable in `chrome://tracing` / Perfetto.
//!
//! Any other flag, or either flag without a path, is refused before
//! anything runs. Without either flag nothing is installed: the hot
//! layers find no recorder through [`ss_trace::installed`] and pay one
//! branch.

use std::io;
use std::path::PathBuf;

use ss_trace::TraceRecorder;

/// Parsed trace-related CLI flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceArgs {
    /// Destination for the `ss-trace/1` analysis JSON.
    pub json: Option<PathBuf>,
    /// Destination for the Chrome trace-event JSON.
    pub chrome: Option<PathBuf>,
}

impl TraceArgs {
    /// Splits an argument list into the trace flags and the positional
    /// arguments, which keep their order.
    ///
    /// # Errors
    ///
    /// Returns the first argument it cannot use: one that starts with `-`
    /// and is not one of the two flags, or either flag without a
    /// (non-empty) path.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<(Self, Vec<String>), String> {
        let mut out = TraceArgs::default();
        let mut positional = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, path)) => (flag, Some(path)),
                None => (arg.as_str(), None),
            };
            let slot = match flag {
                "--trace" => &mut out.json,
                "--trace-chrome" => &mut out.chrome,
                _ if arg.starts_with('-') => return Err(arg),
                _ => {
                    positional.push(arg);
                    continue;
                }
            };
            let path = inline
                .map(PathBuf::from)
                .or_else(|| args.next().map(PathBuf::from));
            match path.filter(|p| !p.as_os_str().is_empty()) {
                Some(path) => *slot = Some(path),
                None => return Err(arg),
            }
        }
        Ok((out, positional))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(TraceArgs, Vec<String>), String> {
        TraceArgs::parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_both_flag_forms() {
        let (none, rest) = parse(&[]).unwrap();
        assert_eq!(none, TraceArgs::default());
        assert!(!none.active());
        assert!(rest.is_empty());
        let (a, _) = parse(&["--trace", "out.json"]).unwrap();
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert!(a.active());
        let (b, _) = parse(&["--trace=x.json", "--trace-chrome=y.json"]).unwrap();
        assert_eq!(b.json.as_deref(), Some(std::path::Path::new("x.json")));
        assert_eq!(b.chrome.as_deref(), Some(std::path::Path::new("y.json")));
        let (c, rest) = parse(&["fig13", "--trace-chrome", "t.json", "fig12"]).unwrap();
        assert_eq!(c.chrome.as_deref(), Some(std::path::Path::new("t.json")));
        assert_eq!(c.json, None);
        assert_eq!(rest, ["fig13", "fig12"]);
    }

    #[test]
    fn dangling_flag_is_refused() {
        for (args, bad) in [
            (&["--trace"][..], "--trace"),
            (&["fig12", "--trace-chrome"], "--trace-chrome"),
            (&["--trace="], "--trace="),
            (&["--trace-chrome", ""], "--trace-chrome"),
        ] {
            assert_eq!(parse(args), Err(bad.to_string()), "{args:?}");
        }
    }

    #[test]
    fn unknown_flag_is_refused() {
        for (args, bad) in [
            (&["--tarce", "t.json"][..], "--tarce"),
            (
                &["fig12", "--trace-chrome-x=t.json"],
                "--trace-chrome-x=t.json",
            ),
            (&["-t"], "-t"),
        ] {
            assert_eq!(parse(args), Err(bad.to_string()), "{args:?}");
        }
    }
}
