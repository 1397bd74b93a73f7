//! End-to-end checks of the `all_experiments` command line: the
//! `--trace` plumbing on `fig12_sstripes` (at smoke scale), whose JSON
//! must carry the per-layer EOG width histograms and stall counters the
//! observability layer promises; slugs run in the order given, with
//! stdout equal to their `SS_OUT_DIR` files; and a mistyped slug or flag
//! refused before anything runs or is written.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs the binary at smoke scale in `cwd`, with `SS_OUT_DIR` set.
fn all_experiments(args: &[&str], cwd: &Path, out_dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .current_dir(cwd)
        .env("SS_OUT_DIR", out_dir)
        .env("SS_SCALE", "8")
        .env("SS_INPUTS", "1")
        .output()
        .expect("spawn all_experiments")
}

/// A fresh, empty directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ss_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn fig12_emits_trace_json_with_layer_records() {
    let dir = scratch_dir("fig12_trace");
    let json_path = dir.join("trace.json");
    let chrome_path = dir.join("chrome.json");

    let output = all_experiments(
        &[
            "fig12_sstripes",
            "--trace",
            "trace.json",
            "--trace-chrome=chrome.json",
        ],
        &dir,
        &dir.join("out"),
    );
    assert!(
        output.status.success(),
        "all_experiments fig12_sstripes failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The experiment's own stdout is unaffected by tracing.
    assert!(!output.stdout.is_empty(), "experiment printed nothing");

    let json = std::fs::read_to_string(&json_path).expect("trace file written");
    // Document envelope.
    assert!(json.trim_start().starts_with('{'));
    assert!(json.contains("\"schema\": \"ss-trace/1\""));
    assert!(json.contains("\"counters\""));
    assert!(json.contains("\"width_hists\""));
    // Stall counters from the simulator sweep.
    assert!(json.contains("\"sim_stall_cycles\""));
    assert!(json.contains("\"sim_compute_cycles\""));
    // Per-layer records with EOG width histograms.
    assert!(json.contains("\"layers\": ["));
    assert!(json.contains("\"eog_width_hist\""));
    assert!(json.contains("\"stall_cycles\""));
    assert!(json.contains("\"layer_eog_width\""));
    // The experiment's span, named by its slug.
    assert!(json.contains("\"fig12_sstripes\""));

    let chrome = std::fs::read_to_string(&chrome_path).expect("chrome trace written");
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"ph\":\"X\""));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slugs_print_their_out_dir_files_in_the_order_given() {
    let dir = scratch_dir("slug_order");
    let out_dir = dir.join("out");
    let output = all_experiments(&["sec53_loom", "fig02_wgt_cdf"], &dir, &out_dir);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let mut files: Vec<_> = std::fs::read_dir(&out_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["fig02_wgt_cdf.txt", "sec53_loom.txt"]);
    let loom = std::fs::read(out_dir.join("sec53_loom.txt")).unwrap();
    let wgt = std::fs::read(out_dir.join("fig02_wgt_cdf.txt")).unwrap();
    assert!(!loom.is_empty() && !wgt.is_empty());
    assert!(
        output.stdout == [loom, wgt].concat(),
        "stdout is not the two files in the order given"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_slug_or_flag_is_refused_before_anything_runs() {
    for args in [
        &["fig99", "--trace", "t.json"][..],
        &["fig12_sstripes", "--tarce", "x"],
        &["fig12_sstripes", "--trace"],
    ] {
        let dir = scratch_dir("refused");
        let output = all_experiments(args, &dir, &dir.join("out"));
        assert!(!output.status.success(), "{args:?} was accepted");
        assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("fig12_sstripes") && stderr.contains("ext_energy"),
            "{args:?}: the message does not list the slugs: {stderr}"
        );
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
