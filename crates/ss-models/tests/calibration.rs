//! Zoo-wide calibration validation: generated tensors must land on the
//! per-layer effective-width targets embedded from the paper's Table 1 —
//! the central contract of the synthetic-model substitution (DESIGN.md
//! §4).

use ss_models::stats::CALIBRATION_GROUP;
use ss_models::{zoo, Network};
use ss_tensor::Signedness;

/// Worst per-layer deviation between measured and target activation
/// effective widths, and the layer it occurs at.
fn worst_act_error(net: &Network, seed: u64) -> (f64, usize) {
    let mut worst = (0.0f64, 0usize);
    for (i, layer) in net.layers().iter().enumerate() {
        let measured = net.input_tensor(i, seed).effective_width(CALIBRATION_GROUP);
        let err = (measured - layer.stats().act_width).abs();
        if err > worst.0 {
            worst = (err, i);
        }
    }
    worst
}

/// The feasibility floor for a weight-width target: a non-zero signed
/// value needs at least 2 bits, so a 16-value group's expected width
/// cannot drop below ~2 unless sparsity empties groups. Targets below the
/// floor are clamped by calibration (documented behaviour).
fn wgt_floor(sparsity: f64) -> f64 {
    // P(group all zero) = sparsity^16; otherwise width >= 2.
    2.0 * (1.0 - sparsity.powi(16))
}

#[test]
fn activation_calibration_holds_across_the_table1_networks() {
    for net in [
        zoo::alexnet(),
        zoo::vgg_m(),
        zoo::vgg_s(),
        zoo::googlenet(),
        zoo::resnet50(),
        zoo::yolo(),
        zoo::mobilenet(),
    ] {
        let (err, layer) = worst_act_error(&net, 7);
        // Tolerance covers sampling noise on small layers plus the
        // clamped extremes of the feasible range.
        assert!(
            err < 0.6,
            "{}: worst activation deviation {err:.3} at layer {} ({})",
            net.name(),
            layer,
            net.layers()[layer].name()
        );
    }
}

#[test]
fn weight_calibration_holds_where_feasible() {
    for net in [
        zoo::alexnet(),
        zoo::googlenet(),
        zoo::resnet50(),
        zoo::yolo(),
    ] {
        for (i, layer) in net.layers().iter().enumerate() {
            let target = layer.stats().wgt_width;
            let floor = wgt_floor(layer.stats().wgt_sparsity);
            if target < floor + 0.3 {
                continue; // clamped by design; skip infeasible targets
            }
            let measured = net.weight_tensor(i, 0).effective_width(CALIBRATION_GROUP);
            assert!(
                (measured - target).abs() < 0.6,
                "{} layer {} ({}): target {target} measured {measured:.3}",
                net.name(),
                i,
                layer.name()
            );
        }
    }
}

#[test]
fn sparsity_targets_are_met() {
    for net in [zoo::alexnet_s(), zoo::googlenet_s(), zoo::resnet50_s()] {
        for (i, layer) in net.layers().iter().enumerate() {
            let t = net.weight_tensor(i, 0);
            if t.len() < 10_000 {
                continue; // too small for a tight statistical check
            }
            let err = (t.sparsity() - layer.stats().wgt_sparsity).abs();
            assert!(
                err < 0.02,
                "{} layer {i}: sparsity {} vs target {}",
                net.name(),
                t.sparsity(),
                layer.stats().wgt_sparsity
            );
        }
    }
}

#[test]
fn signedness_conventions_hold_zoo_wide() {
    for net in zoo::all() {
        let net = net.scaled_down(8);
        let w = net.weight_tensor(0, 0);
        assert_eq!(w.signedness(), Signedness::Signed, "{} weights", net.name());
        let a = net.input_tensor(0, 1);
        assert_eq!(
            a.signedness(),
            Signedness::Unsigned,
            "{} activations",
            net.name()
        );
        assert!(a.values().iter().all(|&v| v >= 0));
    }
}

#[test]
fn profiles_dominate_effective_widths_everywhere() {
    // Figure 1/2's premise as a zoo-wide invariant: the profile-derived
    // width is always at least the per-group effective width.
    for net in [zoo::googlenet(), zoo::mobilenet(), zoo::segnet()] {
        let net = net.scaled_down(4);
        for i in 0..net.layers().len() {
            let a = net.input_tensor(i, 3);
            assert!(
                f64::from(a.profiled_width()) >= a.effective_width(16) - 1e-9,
                "{} layer {i}",
                net.name()
            );
        }
    }
}
