//! Corruption suite for `SSRD` shards, mirroring the container fuzz
//! tests: damage anywhere in a shard must surface as a typed
//! [`StoreError`] from open, get or verify — never a panic, a wrap, or a
//! silently wrong tensor.
//!
//! The shards live in a [`MemoryProvider`], so each case rewrites the
//! damaged bytes in place and runs the full read pipeline against them.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ss_store::format::crc32;
use ss_store::{MemoryProvider, ModelStore, ModelWriter, StorageProvider, StoreError};
use ss_tensor::{FixedType, Shape, Tensor};

fn tensor(seed: i32, len: usize) -> Tensor {
    let vals = (0..len as i32).map(|i| (i * seed) % 800 - 400).collect();
    Tensor::from_vec(Shape::flat(len), FixedType::I16, vals).unwrap()
}

/// A two-shard model plus the expected tensors, keyed by record name.
fn build_model(p: &MemoryProvider) -> Vec<(String, Tensor)> {
    let mut w = ModelWriter::new(p, "m").with_shard_bytes(1_200);
    let tensors: Vec<(String, Tensor)> = (0..4)
        .map(|i| (format!("layer{i}.weight"), tensor(i + 5, 400)))
        .collect();
    for (i, (name, t)) in tensors.iter().enumerate() {
        w.append_tensor(name, i as u32, t).unwrap();
    }
    let summary = w.finish().unwrap();
    assert!(summary.shards.len() >= 2, "model must span multiple shards");
    tensors
}

/// Runs the whole read pipeline and reports whether any stage surfaced
/// an error (all of which are typed `StoreError`s by construction). A
/// successful pipeline must reproduce every tensor exactly — a corrupted
/// shard that decodes to *different* values would be a silent failure,
/// which this helper turns into a test failure.
fn pipeline_detects(p: &MemoryProvider, expected: &[(String, Tensor)]) -> bool {
    let mut store = match ModelStore::open(p, "m") {
        Ok(s) => s,
        Err(_) => return true,
    };
    let mut failed = false;
    for (name, t) in expected {
        match store.get(name) {
            Ok(back) => assert_eq!(&back, t, "corruption silently changed {name:?}"),
            Err(_) => failed = true,
        }
    }
    if store.verify().is_err() {
        failed = true;
    }
    failed
}

#[test]
fn every_single_bit_flip_is_detected() {
    let p = MemoryProvider::new();
    let tensors = build_model(&p);
    let shard_names: Vec<String> = p.list().unwrap();
    for shard in &shard_names {
        let clean = p.snapshot(shard).unwrap();
        // One flip per byte, walking the bit position with the offset so
        // all eight bit lanes are exercised across the file. Covers the
        // header, every record body, both length prefixes, the record
        // CRCs, the EOF index, its CRC trailer, and the footer.
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 1 << (i % 8);
            p.overwrite(shard, bytes);
            assert!(
                pipeline_detects(&p, &tensors),
                "{shard}: flip at byte {i} went undetected"
            );
        }
        p.overwrite(shard, clean.clone());
        // The clean shard must be clean again (guards the harness).
        assert!(!pipeline_detects(&p, &tensors));
    }
}

#[test]
fn all_bits_of_both_crc_fields_are_load_bearing() {
    let p = MemoryProvider::new();
    let tensors = build_model(&p);
    let shard = p.list().unwrap()[0].clone();
    let clean = p.snapshot(&shard).unwrap();
    let n = clean.len();
    // The whole-shard CRC sits at EOF-8..EOF-4; the index CRC trailer is
    // the 4 bytes just before the index's end at EOF-16. Every one of
    // their 32 bits must individually trip detection.
    let shard_crc = n - 8..n - 4;
    let index_crc = n - 16 - 4..n - 16;
    for range in [shard_crc, index_crc] {
        for byte in range {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                p.overwrite(&shard, bytes);
                assert!(
                    pipeline_detects(&p, &tensors),
                    "{shard}: CRC bit {bit} of byte {byte} went undetected"
                );
            }
        }
    }
}

#[test]
fn truncated_shards_fail_cleanly() {
    let p = MemoryProvider::new();
    let tensors = build_model(&p);
    let shard = p.list().unwrap()[0].clone();
    let clean = p.snapshot(&shard).unwrap();
    for cut in 0..clean.len() {
        p.overwrite(&shard, clean[..cut].to_vec());
        assert!(
            pipeline_detects(&p, &tensors),
            "{shard}: truncation to {cut} bytes went undetected"
        );
    }
    // Growing the file also breaks the footer's position.
    let mut grown = clean.clone();
    grown.extend_from_slice(&[0; 7]);
    p.overwrite(&shard, grown);
    assert!(pipeline_detects(&p, &tensors));
}

#[test]
fn errors_are_the_expected_variants() {
    let p = MemoryProvider::new();
    build_model(&p);
    let shard = p.list().unwrap()[0].clone();
    let clean = p.snapshot(&shard).unwrap();

    // Bad magic.
    let mut bytes = clean.clone();
    bytes[0] = b'X';
    p.overwrite(&shard, bytes);
    assert!(matches!(
        ModelStore::open(&p, "m"),
        Err(StoreError::BadMagic { .. })
    ));

    // Unsupported version.
    let mut bytes = clean.clone();
    bytes[4] = 9;
    p.overwrite(&shard, bytes);
    assert!(matches!(
        ModelStore::open(&p, "m"),
        Err(StoreError::UnsupportedVersion { version: 9, .. })
    ));

    // Shard number disagreeing with the file name.
    let mut bytes = clean.clone();
    bytes[6] ^= 0xFF;
    p.overwrite(&shard, bytes);
    assert!(matches!(
        ModelStore::open(&p, "m"),
        Err(StoreError::CorruptShard { .. })
    ));

    // A flipped payload byte: open succeeds (the index is intact), the
    // damaged record's get fails its CRC, the others still decode.
    let mut bytes = clean.clone();
    bytes[60] ^= 0x20; // inside the first record block's payload
    p.overwrite(&shard, bytes);
    let mut store = ModelStore::open(&p, "m").unwrap();
    assert!(matches!(
        store.get("layer0.weight"),
        Err(StoreError::RecordChecksum { .. }) | Err(StoreError::CorruptShard { .. })
    ));
    assert!(store.verify().is_err());

    // Hostile index length in the footer.
    let mut bytes = clean.clone();
    let n = bytes.len();
    bytes[n - 16..n - 8].copy_from_slice(&u64::MAX.to_le_bytes());
    p.overwrite(&shard, bytes);
    assert!(matches!(
        ModelStore::open(&p, "m"),
        Err(StoreError::CorruptShard { .. })
    ));

    p.overwrite(&shard, clean);
    assert!(ModelStore::open(&p, "m").is_ok());
}

/// Writes the CRC-32 of `bytes[from..at]` as the four bytes at `at`.
fn reseal(bytes: &mut [u8], from: usize, at: usize) {
    let crc = crc32(&bytes[from..at]);
    bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn a_block_disagreeing_with_its_index_entry_is_refused_by_every_read() {
    let p = MemoryProvider::new();
    let tensors = build_model(&p);
    let shard = p.list().unwrap()[0].clone();
    let clean = p.snapshot(&shard).unwrap();
    let entry = ModelStore::open(&p, "m").unwrap().list()[0].clone();
    let name = entry.meta.name.clone();
    // The first block names another layer than its index entry. Every
    // checksum is recomputed to match: the block's trailer, the index's
    // copy of it (after the entry count, block offset and length), the
    // index trailer and the whole-shard CRC. Only the comparison of the
    // block's metadata with the index entry can tell.
    let mut bytes = clean.clone();
    let n = bytes.len();
    let start = entry.block_offset as usize;
    let end = start + entry.block_len as usize;
    bytes[start + 4 + 2 + name.len()] ^= 1;
    reseal(&mut bytes, start, end - 4);
    let index_len = u64::from_le_bytes(bytes[n - 16..n - 8].try_into().unwrap()) as usize;
    let index_start = n - 16 - index_len;
    let block_crc = bytes[end - 4..end].to_vec();
    bytes[index_start + 4 + 16..index_start + 4 + 20].copy_from_slice(&block_crc);
    reseal(&mut bytes, index_start, n - 20);
    reseal(&mut bytes, 0, n - 8);
    p.overwrite(&shard, bytes);

    let mut store = ModelStore::open(&p, "m").unwrap();
    assert!(matches!(
        store.get(&name),
        Err(StoreError::CorruptShard { .. })
    ));
    assert!(matches!(
        store.get_raw(&name),
        Err(StoreError::CorruptShard { .. })
    ));
    assert!(matches!(
        store.verify(),
        Err(StoreError::CorruptShard { .. })
    ));
    // Every other record still reads.
    for (other, t) in tensors.iter().filter(|(n, _)| *n != name) {
        assert_eq!(&store.get(other).unwrap(), t);
    }
    p.overwrite(&shard, clean);
    assert!(ModelStore::open(&p, "m").unwrap().verify().is_ok());
}
