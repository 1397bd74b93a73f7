//! Stall-accounting audit: cross-checks the driver's stall arithmetic
//! against a naive single-loop reference model, and the ss-trace stall
//! counters against the per-layer results.
//!
//! Background: `simulate` and `RunResult::with_dram` each derived the
//! stall as `memory.saturating_sub(compute)` at two independent sites,
//! and `LayerResult::stall_cycles` as `max(c, m) - c`. The three are
//! algebraically identical under the overlap model (`wall = max(c, m)`),
//! but nothing enforced it — this test is that enforcement, and the
//! shared `ss_sim::stall_cycles` helper is the single definition they now
//! all call.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ss_core::scheme::{Base, ShapeShifterScheme};
use ss_sim::accel::{DaDianNao, SStripes};
use ss_sim::sim::simulate;
use ss_sim::{stall_cycles, DramConfig, LayerResult, RunResult, SimConfig};
use ss_trace::{Counter, TraceRecorder};

/// The naive reference: walk the layers once, recomputing every stall
/// quantity from first principles (`wall = max(c, m)`).
struct Reference {
    per_layer_stall: Vec<u64>,
    total_stall: u64,
    total_wall: u64,
    total_compute: u64,
}

fn reference(run: &RunResult) -> Reference {
    let mut per_layer_stall = Vec::new();
    let mut total_stall = 0u64;
    let mut total_wall = 0u64;
    let mut total_compute = 0u64;
    for l in &run.layers {
        let wall = if l.compute_cycles > l.memory_cycles {
            l.compute_cycles
        } else {
            l.memory_cycles
        };
        let stall = wall - l.compute_cycles;
        per_layer_stall.push(stall);
        total_stall += stall;
        total_wall += wall;
        total_compute += l.compute_cycles;
    }
    Reference {
        per_layer_stall,
        total_stall,
        total_wall,
        total_compute,
    }
}

fn check_against_reference(run: &RunResult, cfg: &SimConfig) {
    let r = reference(run);
    for (l, &stall_ref) in run.layers.iter().zip(&r.per_layer_stall) {
        // All three formulations agree per layer.
        assert_eq!(l.stall_cycles(), stall_ref, "layer {}", l.name);
        assert_eq!(
            stall_cycles(l.compute_cycles, l.memory_cycles),
            stall_ref,
            "layer {}",
            l.name
        );
        // Idle energy is priced from the stall exactly once.
        let expected_idle = stall_ref as f64 * cfg.energy.idle_pj_per_cycle;
        assert!(
            (l.energy.idle_pj - expected_idle).abs() <= expected_idle.abs() * 1e-12,
            "layer {}: idle {} vs {}",
            l.name,
            l.energy.idle_pj,
            expected_idle
        );
    }
    // No double counting across tile/layer boundaries: the run's wall
    // clock decomposes exactly into compute plus stall.
    assert_eq!(run.total_cycles(), r.total_wall);
    assert_eq!(run.total_cycles(), r.total_compute + r.total_stall);
    assert_eq!(
        r.total_stall,
        run.layers
            .iter()
            .map(LayerResult::stall_cycles)
            .sum::<u64>()
    );
}

// One test function: the trace half installs the process-wide recorder,
// so the untraced half must run before it in the same sequential body.
#[test]
fn stall_accounting_matches_naive_reference_model() {
    let net = ss_models::zoo::alexnet().scaled_down(8);

    // Memory-starved: every layer stalls.
    let slow = SimConfig::with_dram(DramConfig::new(100, 1));
    let starved = simulate(&net, &DaDianNao::new(), &Base, &slow, 1);
    assert!(starved.layers.iter().any(|l| l.stall_cycles() > 0));
    check_against_reference(&starved, &slow);

    // Default DRAM: a mix of compute- and memory-bound layers.
    let cfg = SimConfig::default();
    let mixed = simulate(
        &net,
        &SStripes::new(),
        &ShapeShifterScheme::default(),
        &cfg,
        1,
    );
    check_against_reference(&mixed, &cfg);

    // Repricing under a different DRAM uses the same stall definition:
    // the repriced run must satisfy the reference too, and match a fresh
    // simulation exactly.
    let repriced = mixed.with_dram(
        DramConfig::DDR4_2133,
        &SimConfig::with_dram(DramConfig::DDR4_2133),
    );
    check_against_reference(&repriced, &SimConfig::with_dram(DramConfig::DDR4_2133));
    let direct = simulate(
        &net,
        &SStripes::new(),
        &ShapeShifterScheme::default(),
        &SimConfig::with_dram(DramConfig::DDR4_2133),
        1,
    );
    assert_eq!(repriced, direct);

    // --- trace counters agree with the per-layer results ---
    assert!(ss_trace::install(TraceRecorder::new()));
    let rec = ss_trace::installed().expect("just installed");
    let stall0 = rec.counter(Counter::SimStallCycles);
    let compute0 = rec.counter(Counter::SimComputeCycles);
    let layers0 = rec.counter(Counter::SimLayers);
    let traced = simulate(&net, &DaDianNao::new(), &Base, &slow, 1);
    let r = reference(&traced);
    assert_eq!(rec.counter(Counter::SimStallCycles) - stall0, r.total_stall);
    assert_eq!(
        rec.counter(Counter::SimComputeCycles) - compute0,
        r.total_compute
    );
    assert_eq!(
        rec.counter(Counter::SimLayers) - layers0,
        traced.layers.len() as u64
    );
    // Layer records carry the same stalls.
    let snap = rec.snapshot();
    let recorded_stall: u64 = snap
        .layers
        .iter()
        .filter(|l| l.accel == traced.accel && l.scheme == traced.scheme)
        .map(|l| l.stall_cycles)
        .sum();
    assert_eq!(recorded_stall, r.total_stall);
}
