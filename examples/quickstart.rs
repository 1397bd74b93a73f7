//! Quickstart: encode a group of values exactly as the paper's Figure 6
//! worked example, then compress a realistic activation tensor and verify
//! the round-trip.
//!
//! Run with `cargo run --release --example quickstart`.

use shapeshifter::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The Figure 6 worked example: two groups of eight 8b values. ---
    let values = vec![
        0x25, 0x00, 0x01, 0x00, 0x07, 0x00, 0x00, 0x3F, // group A: needs 6 bits
        0x01, 0x02, 0x00, 0x00, 0x03, 0x05, 0x00, 0x07, // group B: needs 3 bits
    ];
    let tensor = Tensor::from_vec(Shape::flat(16), FixedType::U8, values)?;
    let codec = ShapeShifterCodec::new(8);
    let encoded = codec.encode_with(&ShapeShifterScheme::default(), &tensor)?;
    println!("Figure 6 example:");
    println!("  uncompressed: {} bits", tensor.container_bits());
    println!(
        "  compressed:   {} bits ({} metadata + {} payload)",
        encoded.bit_len, encoded.report.metadata_bits, encoded.report.payload_bits
    );
    assert_eq!(codec.decode(&encoded)?, tensor);
    println!("  round-trip:   lossless\n");

    // --- The width detector of Figure 5c. ---
    let det = WidthDetector::new(16, Signedness::Unsigned);
    let group = [0x0801, 0x0102, 0x0403, 0x0204];
    println!(
        "Figure 5c example: group {group:04x?} needs {} bits",
        det.detect(&group)
    );

    // --- A realistic layer from the zoo. ---
    let net = zoo::googlenet();
    let acts = net.input_tensor(1, 7); // conv2_reduce input activations
    let codec = ShapeShifterCodec::new(16);
    let enc = codec.encode_with(&ShapeShifterScheme::default(), &acts)?;
    println!(
        "\nGoogLeNet {} input activations ({} values):",
        net.layers()[1].name(),
        acts.len()
    );
    println!(
        "  profiled width {}b, effective width {:.2}b, sparsity {:.0}%",
        acts.profiled_width(),
        acts.effective_width(16),
        acts.sparsity() * 100.0
    );
    println!(
        "  ShapeShifter stores it in {:.1}% of the 16b container",
        enc.bit_len as f64 / acts.container_bits() as f64 * 100.0
    );
    assert_eq!(codec.decode(&enc)?, acts);
    Ok(())
}
