//! End-to-end: a synthetic-zoo model's weight tensors round-trip through
//! `ModelWriter` / `ModelStore` bit-identically, across both storage
//! backends, with shard rotation in play.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use shapeshifter::SchemeId;
use ss_store::{
    codec_fingerprint, LocalFsProvider, MemoryProvider, ModelStore, ModelWriter, StorageProvider,
};
use ss_tensor::Tensor;

const MODEL_SEED: u64 = 0xA11E7;

fn zoo_weights() -> (String, Vec<(String, Tensor)>) {
    let net = ss_models::zoo::alexnet().scaled_down(8);
    let tensors = net
        .layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.weight_count() > 0)
        .map(|(i, l)| {
            (
                format!("{}.weight", l.name()),
                net.weight_tensor(i, MODEL_SEED),
            )
        })
        .collect();
    // The zoo name ("AlexNet@1/8") contains a path separator, which
    // providers rightly reject as an object name; store under a slug.
    ("alexnet-s8".to_string(), tensors)
}

fn roundtrip_on(provider: &dyn StorageProvider) {
    let (model, tensors) = zoo_weights();
    let mut w = ModelWriter::new(provider, &model).with_shard_bytes(64 << 10);
    for (layer, (name, t)) in tensors.iter().enumerate() {
        w.append_tensor(name, layer as u32, t).unwrap();
    }
    let summary = w.finish().unwrap();
    assert_eq!(summary.records, tensors.len());
    assert!(
        summary.shards.len() > 1,
        "a zoo model under a 64 KiB budget must span shards, got {}",
        summary.shards.len()
    );

    let mut store = ModelStore::open(provider, &model).unwrap();
    assert_eq!(store.len(), tensors.len());
    assert_eq!(store.shard_count(), summary.shards.len());
    // Bit-identical round-trip, accessed out of order.
    for (name, t) in tensors.iter().rev() {
        assert_eq!(&store.get(name).unwrap(), t, "{name:?} did not round-trip");
    }
    // Index metadata matches what was written.
    for (layer, (name, t)) in tensors.iter().enumerate() {
        let e = store.entry(name).unwrap();
        assert_eq!(e.meta.layer, layer as u32);
        assert_eq!(e.meta.values, t.len() as u64);
        assert_eq!(e.meta.dtype, t.dtype());
        assert_eq!(
            e.meta.fingerprint,
            codec_fingerprint(SchemeId::SHAPESHIFTER, 16, t.dtype())
        );
    }
    let report = store.verify().unwrap();
    assert_eq!(report.records, tensors.len());
    assert_eq!(report.shards, store.shard_count());
    assert!(report.bytes > 0);
}

#[test]
fn zoo_model_roundtrips_in_memory() {
    roundtrip_on(&MemoryProvider::new());
}

#[test]
fn zoo_model_roundtrips_on_disk() {
    let dir = std::env::temp_dir().join(format!("ss-store-zoo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    roundtrip_on(&LocalFsProvider::new(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plugin_schemes_roundtrip_through_the_store() {
    // DPRed and AdaBits records flow through ModelWriter/ModelStore just
    // like the built-ins: same shard format, scheme resolved from the
    // registry at read time, bit-identical values back.
    let (model_base, tensors) = zoo_weights();
    for scheme in [SchemeId::DPRED, SchemeId::ADABITS] {
        let provider = MemoryProvider::new();
        let model = format!("{model_base}-{}", scheme.as_byte());
        let mut w = ModelWriter::new(&provider, &model)
            .with_scheme(scheme, 16)
            .with_shard_bytes(64 << 10);
        for (layer, (name, t)) in tensors.iter().enumerate() {
            w.append_tensor(name, layer as u32, t).unwrap();
        }
        w.finish().unwrap();
        let mut store = ModelStore::open(&provider, &model).unwrap();
        for (name, t) in &tensors {
            let e = store.entry(name).unwrap();
            assert_eq!(e.meta.scheme, scheme);
            assert_eq!(e.meta.fingerprint, codec_fingerprint(scheme, 16, t.dtype()));
            assert_eq!(&store.get(name).unwrap(), t, "{name:?} under {scheme}");
        }
        store.verify().unwrap();
    }
}

#[test]
fn shard_bytes_are_identical_across_backends() {
    // The format has no timestamps or platform-dependent fields: the
    // same model must serialize to byte-identical shards everywhere.
    let (model, tensors) = zoo_weights();
    let mem_a = MemoryProvider::new();
    let mem_b = MemoryProvider::new();
    for p in [&mem_a, &mem_b] {
        let mut w = ModelWriter::new(p, &model).with_shard_bytes(64 << 10);
        for (layer, (name, t)) in tensors.iter().enumerate() {
            w.append_tensor(name, layer as u32, t).unwrap();
        }
        w.finish().unwrap();
    }
    let names = mem_a.list().unwrap();
    assert_eq!(names, mem_b.list().unwrap());
    for name in &names {
        assert_eq!(
            mem_a.snapshot(name).unwrap(),
            mem_b.snapshot(name).unwrap(),
            "{name} differs between two identical write runs"
        );
    }
}
