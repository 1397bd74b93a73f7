//! `ss-lint` command-line interface.
//!
//! Exit codes: `0` clean, `1` violations (or self-test failures), `2`
//! usage or I/O error.

#![forbid(unsafe_code)]

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use ss_lint::baseline::{Baseline, BASELINE_REL};
use ss_lint::diag::Report;
use ss_lint::{lint_root_raw, rules, selftest, workspace};

const USAGE: &str = "\
ss-lint: ShapeShifter workspace invariant analyzer

USAGE:
    ss-lint [OPTIONS]

OPTIONS:
    --root <DIR>       workspace root (default: walk up from the cwd)
    --format <FMT>     output format: human (default), json or sarif
    --baseline <FILE>  baseline ratchet file (default: scripts/lint_baseline.json)
    --no-baseline      report every finding; disable the ratchet
    --write-baseline   regenerate the baseline accepting all current findings
    --self-test        run every rule against its seeded fixture
    --fixture <RULE>   lint one seeded fixture (exits 1: violations are seeded)
    --list-rules       print the rule registry and exit
    -h, --help         show this help
";

enum Mode {
    Workspace,
    SelfTest,
    Fixture(String),
    ListRules,
    WriteBaseline,
}

enum Format {
    Human,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ss-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut mode = Mode::Workspace;
    let mut format = Format::Human;
    let mut root: Option<PathBuf> = None;
    let mut baseline_override: Option<PathBuf> = None;
    let mut use_baseline = true;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let dir = it.next().ok_or("--root requires a directory argument")?;
                root = Some(PathBuf::from(dir));
            }
            "--format" => match it.next().map(String::as_str) {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                Some(other) => return Err(format!("unknown format `{other}` (human|json|sarif)")),
                None => return Err("--format requires an argument (human|json|sarif)".to_string()),
            },
            "--baseline" => {
                let path = it.next().ok_or("--baseline requires a file argument")?;
                baseline_override = Some(PathBuf::from(path));
            }
            "--no-baseline" => use_baseline = false,
            "--write-baseline" => mode = Mode::WriteBaseline,
            "--self-test" => mode = Mode::SelfTest,
            "--fixture" => {
                let rule = it.next().ok_or("--fixture requires a rule id")?;
                mode = Mode::Fixture(rule.clone());
            }
            "--list-rules" => mode = Mode::ListRules,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }

    match mode {
        Mode::ListRules => {
            for rule in rules::registry() {
                println!("{:<24} {}", rule.id(), rule.description());
            }
            println!(
                "{:<24} (meta) every ss-lint annotation parses and names a real rule",
                "annotation"
            );
            Ok(ExitCode::SUCCESS)
        }
        Mode::SelfTest => {
            let failures = selftest::run();
            if failures.is_empty() {
                println!(
                    "ss-lint self-test: all {} rules fire on their seeded fixtures; \
                     reachability closure crosses modules; negative control clean; \
                     baseline keys survive rustfmt",
                    rules::known_rule_ids().len()
                );
                Ok(ExitCode::SUCCESS)
            } else {
                for f in &failures {
                    eprintln!("ss-lint self-test: FAIL: {f}");
                }
                Ok(ExitCode::FAILURE)
            }
        }
        Mode::Fixture(rule) => {
            let report = selftest::lint_fixture(&rule)
                .ok_or_else(|| format!("no fixture named `{rule}` (try --list-rules)"))?;
            emit(&report, &format);
            Ok(exit_for(&report))
        }
        Mode::WriteBaseline => {
            let root = resolve_root(root)?;
            let report =
                lint_root_raw(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
            let path = baseline_override.unwrap_or_else(|| root.join(BASELINE_REL));
            let baseline = Baseline::from_report(&report);
            std::fs::write(&path, baseline.render())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!(
                "ss-lint: wrote baseline accepting {} finding(s) to {}",
                baseline.len(),
                path.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        Mode::Workspace => {
            let root = resolve_root(root)?;
            let mut report =
                lint_root_raw(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
            if use_baseline {
                let path = baseline_override.unwrap_or_else(|| root.join(BASELINE_REL));
                if path.exists() {
                    let baseline =
                        Baseline::load(&path).map_err(|e| format!("loading baseline: {e}"))?;
                    baseline.apply(&mut report);
                }
            }
            emit(&report, &format);
            Ok(exit_for(&report))
        }
    }
}

fn resolve_root(root: Option<PathBuf>) -> Result<PathBuf, String> {
    match root {
        Some(r) => Ok(r),
        None => {
            let cwd = env::current_dir().map_err(|e| e.to_string())?;
            workspace::find_root(&cwd)
                .ok_or_else(|| "no workspace root found above the cwd (pass --root)".to_string())
        }
    }
}

fn emit(report: &Report, format: &Format) {
    match format {
        Format::Human => print!("{}", report.render_human()),
        Format::Json => print!("{}", report.render_json()),
        Format::Sarif => print!("{}", report.render_sarif()),
    }
}

fn exit_for(report: &Report) -> ExitCode {
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
