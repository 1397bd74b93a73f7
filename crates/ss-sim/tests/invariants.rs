//! Cross-accelerator invariants over real zoo workloads: orderings the
//! paper's designs must respect on every model, and equivalence of the
//! caching wrapper.

use ss_core::scheme::{Base, ProfileScheme, ShapeShifterScheme};
use ss_models::zoo;
use ss_sim::accel::{BitFusion, DaDianNao, Loom, SStripes, Scnn, Stripes, Tartan};
use ss_sim::sim::{simulate, SimConfig};
use ss_sim::workload::Cached;
use ss_sim::{DramConfig, TensorSource};

fn nets() -> Vec<ss_models::Network> {
    vec![
        zoo::alexnet().scaled_down(8),
        zoo::googlenet().scaled_down(8),
        zoo::mobilenet().scaled_down(8),
        zoo::bilstm().scaled_down(2),
    ]
}

#[test]
fn cached_wrapper_is_transparent() {
    let net = zoo::alexnet().scaled_down(8);
    let cfg = SimConfig::default();
    let scheme = ShapeShifterScheme::default();
    let direct = simulate(&net, &Stripes::new(), &scheme, &cfg, 3);
    let cached = Cached::new(&net);
    // Run twice through the cache: second run must hit and still match.
    let first = simulate(&cached, &Stripes::new(), &scheme, &cfg, 3);
    let second = simulate(&cached, &Stripes::new(), &scheme, &cfg, 3);
    assert_eq!(direct, first);
    assert_eq!(direct, second);
}

#[test]
fn bit_serial_designs_never_beat_their_width_budget() {
    // At worst-case widths every bit-serial design converges to the same
    // 4K-MAC/cycle peak as DaDianNao*, so none can have *fewer* compute
    // cycles than DaDianNao on any layer once widths hit the container.
    let cfg = SimConfig::with_dram(DramConfig::new(100_000, 8)); // no stalls
    for net in nets() {
        let dad = simulate(&net, &DaDianNao::new(), &Base, &cfg, 1);
        let stripes = simulate(&net, &Stripes::new(), &Base, &cfg, 1);
        let loom = simulate(&net, &Loom::new(), &Base, &cfg, 1);
        for ((d, s), l) in dad.layers.iter().zip(&stripes.layers).zip(&loom.layers) {
            // Profiled widths are < 16, so serial designs are faster.
            assert!(
                s.compute_cycles <= d.compute_cycles,
                "{}: stripes {} vs dadiannao {}",
                net.name(),
                s.compute_cycles,
                d.compute_cycles
            );
            assert!(l.compute_cycles <= d.compute_cycles);
        }
    }
}

#[test]
fn sstripes_dominates_stripes_and_sstartan_dominates_tartan() {
    let cfg = SimConfig::default();
    let scheme = ShapeShifterScheme::default();
    for net in nets() {
        let cached = Cached::new(&net);
        let stripes = simulate(&cached, &Stripes::new(), &ProfileScheme, &cfg, 1);
        let sstripes = simulate(&cached, &SStripes::new(), &scheme, &cfg, 1);
        assert!(sstripes.speedup_over(&stripes) >= 1.0, "{}", net.name());
        let tartan = simulate(&cached, &Tartan::new(), &ProfileScheme, &cfg, 1);
        let sstartan = simulate(&cached, &Tartan::with_shapeshifter(), &scheme, &cfg, 1);
        assert!(sstartan.speedup_over(&tartan) >= 1.0, "{}", net.name());
        // Tartan never loses to Stripes (it only changes FC behaviour,
        // always for the better when weight profiles are narrower than
        // the full container).
        assert!(
            tartan.total_cycles() <= stripes.total_cycles(),
            "{}",
            net.name()
        );
    }
}

#[test]
fn scnn_gains_track_sparsity() {
    // The denser the model, the smaller SCNN's edge over the dense
    // baseline at equal traffic.
    let cfg = SimConfig::with_dram(DramConfig::new(100_000, 8));
    let dense = zoo::alexnet().scaled_down(8);
    let sparse = zoo::alexnet_s().scaled_down(8);
    let cycles =
        |net: &ss_models::Network| simulate(net, &Scnn::new(), &Base, &cfg, 1).total_cycles();
    assert!(cycles(&sparse) < cycles(&dense));
}

#[test]
fn bitfusion_prefers_low_precision_profiles() {
    // Layers whose 16b profile exceeds 8 bits fall off Bit Fusion's
    // spatial cliff (per-operand 2x temporal decomposition); the same
    // layer quantized to 8 bits recovers the fused rate.
    let cfg = SimConfig::with_dram(DramConfig::new(100_000, 8));
    // Full scale: the profiled widths of a down-scaled model shrink with
    // its sample count and would all fit 8 bits.
    let master = zoo::googlenet_s();
    let quant = ss_quant::QuantizedNetwork::new(master.clone(), ss_quant::QuantMethod::RangeAware);
    let m16 = simulate(&master, &BitFusion::new(), &Base, &cfg, 1);
    let m8 = simulate(&quant, &BitFusion::new(), &Base, &cfg, 1);
    let mut compared = 0;
    for (i, (l16, l8)) in m16.layers.iter().zip(&m8.layers).enumerate() {
        // A >8b activation profile forces the 2x temporal decomposition
        // on the activation operand.
        if TensorSource::profiled_act_width(&master, i) > 8 {
            compared += 1;
            assert!(
                // Allow one cycle of div_ceil slack.
                l16.compute_cycles + 1 >= 2 * l8.compute_cycles,
                "layer {i}: 16b {} vs 8b {}",
                l16.compute_cycles,
                l8.compute_cycles
            );
        } else {
            assert!(l16.compute_cycles >= l8.compute_cycles, "layer {i}");
        }
    }
    assert!(compared > 0, "no wide layers to compare");
}

#[test]
fn energy_components_are_all_accounted() {
    let net = zoo::vgg_s().scaled_down(8);
    let cfg = SimConfig::default();
    let run = simulate(
        &net,
        &SStripes::new(),
        &ShapeShifterScheme::default(),
        &cfg,
        1,
    );
    let e = run.total_energy();
    assert!(e.dram_pj > 0.0);
    assert!(e.sram_pj > 0.0);
    assert!(e.compute_pj > 0.0);
    let sum = run.layers.iter().map(|l| l.energy.total_pj()).sum::<f64>();
    assert!((sum - e.total_pj()).abs() < 1e-6 * sum.max(1.0));
}

#[test]
fn traffic_is_scheme_dependent_but_compute_is_not() {
    let net = zoo::resnet50().scaled_down(8);
    let cfg = SimConfig::default();
    let cached = Cached::new(&net);
    let a = simulate(&cached, &Stripes::new(), &Base, &cfg, 1);
    let b = simulate(
        &cached,
        &Stripes::new(),
        &ShapeShifterScheme::default(),
        &cfg,
        1,
    );
    for (x, y) in a.layers.iter().zip(&b.layers) {
        assert_eq!(x.compute_cycles, y.compute_cycles);
        assert!(y.traffic_bits <= x.traffic_bits);
        assert_eq!(x.base_traffic_bits, y.base_traffic_bits);
    }
}
