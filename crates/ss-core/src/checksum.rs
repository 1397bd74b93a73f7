//! The workspace's two checksums: CRC-32 for corruption detection and
//! 64-bit FNV-1a for content fingerprints.
//!
//! There is one implementation of each. The container-v2
//! [`crate::ChunkIndex`] trailer and the `ss-store` shard format share
//! [`Crc32`] (the SSRP serve protocol reaches it through
//! `ss_store::format`); the registry's configuration fingerprint, the
//! batch report's stream hash and the bench gates share [`fnv1a_64`] and
//! its running form [`fnv1a_update`].

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) nibble table.
/// Record payloads run to megabytes, so the checksum steps four bits at a
/// time from a 16-entry table: still effectively free of cache pressure,
/// and about 4× fewer steps per byte than the bitwise loop.
const CRC_TABLE: [u32; 16] = build_crc_table();

const fn build_crc_table() -> [u32; 16] {
    let mut table = [0u32; 16];
    let mut n = 0;
    while n < 16 {
        let mut crc = n as u32;
        let mut bit = 0;
        while bit < 4 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[n] = crc;
        n += 1;
    }
    table
}

/// Incremental CRC-32 for streaming writes: a whole-shard checksum is
/// folded in as bytes hit the sink, never buffering them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh checksum.
    #[must_use]
    pub const fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc ^= u32::from(b);
            // ss-lint: allow(panic-freedom) -- crc & 0xF < 16 == CRC_TABLE.len()
            crc = (crc >> 4) ^ CRC_TABLE[(crc & 0xF) as usize];
            // ss-lint: allow(panic-freedom) -- crc & 0xF < 16 == CRC_TABLE.len()
            crc = (crc >> 4) ^ CRC_TABLE[(crc & 0xF) as usize];
        }
        self.state = crc;
    }

    /// The finalized CRC-32 (the running state is not consumed; more
    /// updates continue from where they were).
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// FNV-1a 64-bit offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Continues a running FNV-1a hash over `bytes`. Chaining updates hashes
/// the concatenation, so `fnv1a_update(FNV_OFFSET, b)` is
/// `fnv1a_64(b)`.
#[must_use]
pub fn fnv1a_update(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// 64-bit FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        // The IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Incremental equals one-shot across arbitrary split points.
        let data: Vec<u8> = (0u16..700).map(|i| (i * 31 % 251) as u8).collect();
        for split in [0, 1, 350, 699, 700] {
            let mut inc = Crc32::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.finish(), crc32(&data));
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), FNV_OFFSET);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
        // Chained updates hash the concatenation.
        assert_eq!(fnv1a_update(fnv1a_64(b"foo"), b"bar"), fnv1a_64(b"foobar"));
    }
}
