//! Ablation: the container's zero bit-vector `Z`.
//!
//! ShapeShifter's container spends one bit per value on `Z` to elide zero
//! payloads entirely. This ablation prices the alternative — no `Z`,
//! every value (zeros included) stored at the group width — quantifying
//! how much of the compression comes from zero elision vs width trimming.

use std::io::{self, Write};

use ss_core::WidthDetector;
use ss_sim::sim::MODEL_SEED;
use ss_sim::TensorSource;
use ss_tensor::{width, Tensor};

use crate::suites::suite_16b;
use crate::{header, row};

/// `(with Z, without Z)` compressed bits for one tensor at group 16.
#[must_use]
pub fn variants(t: &Tensor) -> (u64, u64) {
    let det = WidthDetector::new(t.dtype().bits(), t.signedness());
    let prefix = u64::from(det.prefix_bits());
    let mut with_z = 0u64;
    let mut without_z = 0u64;
    for g in t.values().chunks(16) {
        let p = u64::from(width::group_width(g, t.signedness()));
        let nonzero = g.iter().filter(|&&v| v != 0).count() as u64;
        with_z += g.len() as u64 + prefix + p * nonzero;
        // Without Z there is no per-value flag, but zeros occupy payload
        // slots at the group width (which zero itself never widens).
        without_z += prefix + p * g.len() as u64;
    }
    (with_z, without_z)
}

/// Runs the ablation.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Ablation: zero vector Z on/off (traffic ratio vs Base, group 16)\n"
    )?;
    writeln!(out, "{}", header("model", &["with Z", "no Z"]))?;
    for net in suite_16b() {
        let mut with_z = 0u64;
        let mut without_z = 0u64;
        let mut base = 0u64;
        for i in 0..net.layers().len() {
            for t in [
                TensorSource::weight_tensor(&net, i, MODEL_SEED),
                TensorSource::input_tensor(&net, i, 1),
                TensorSource::output_tensor(&net, i, 1),
            ] {
                let (w, wo) = variants(&t);
                with_z += w;
                without_z += wo;
                base += t.container_bits();
            }
        }
        writeln!(
            out,
            "{}",
            row(
                net.name(),
                &[with_z as f64 / base as f64, without_z as f64 / base as f64]
            )
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_tensor::{FixedType, Shape};

    #[test]
    fn z_pays_off_on_sparse_data() {
        let mut vals = vec![0i32; 28];
        vals.extend([500, 600, 700, 800]);
        let t = Tensor::from_vec(Shape::flat(32), FixedType::U16, vals).unwrap();
        let (with_z, without_z) = variants(&t);
        assert!(with_z < without_z, "with {with_z} vs without {without_z}");
    }

    #[test]
    fn z_costs_on_dense_data() {
        let vals: Vec<i32> = (1..=32).collect();
        let t = Tensor::from_vec(Shape::flat(32), FixedType::U16, vals).unwrap();
        let (with_z, without_z) = variants(&t);
        // All non-zero: Z is pure overhead (one bit per value).
        assert_eq!(with_z, without_z + 32);
    }
}
