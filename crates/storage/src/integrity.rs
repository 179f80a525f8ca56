//! End-to-end data integrity: CRC32C, in hardware where the CPU has it.
//!
//! Fragment layout v3 stamps one CRC32C per fragment section (header,
//! stored index, stored values) so every fetch verifies the bytes it is
//! about to trust — bit rot, torn sectors, and buggy devices surface as
//! typed [`StorageError::ChecksumMismatch`](crate::error::StorageError)
//! instead of silently wrong query answers. Checksums cover the *stored*
//! (possibly compressed) bytes, so verification never needs to decompress
//! or decode an organization — which is what lets
//! [`StorageEngine::scrub`](crate::engine::StorageEngine::scrub) audit a
//! whole store with pure sequential reads.
//!
//! The polynomial is Castagnoli's (CRC32C, reflected `0x82F63B78`) — the
//! same checksum iSCSI, ext4, and most storage systems use, chosen for
//! its published error-detection bounds on storage-sized payloads, and
//! the one x86-64 has an instruction for.
//!
//! [`Crc32c::update`] picks its path at run time, per call:
//!
//! * on x86-64 with SSE4.2 (`is_x86_feature_detected!`, one cached atomic
//!   load) it folds eight bytes per `crc32` instruction — ≈ 0.11 ns/B on
//!   the 2-core development host, so verifying a fetched section costs
//!   less than copying it did;
//! * everywhere else — other architectures, older x86 — it runs the
//!   portable slicing-by-8 tables (≈ 0.65 ns/B on the same host), which
//!   are also the oracle the tests compare the hardware path against.
//!
//! Both paths keep the same register in [`Crc32c`] (the reflected CRC,
//! initialised to all ones), so incremental use may mix them and every
//! checksum ever stored stays valid. The hardware path is this
//! workspace's only `unsafe`: one call into a `#[target_feature]`
//! function, guarded by the detection above.

/// Reflected CRC32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 lookup tables, built at compile time.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC32C of `data` in one call.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(data);
    h.finalize()
}

/// Incremental CRC32C state, for checksumming streamed or segmented
/// payloads without concatenating them first.
#[derive(Debug, Clone, Copy)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Fresh state (equivalent to having hashed zero bytes).
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Fold more bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: `update_sse42` requires SSE4.2, which was detected
            // on the running CPU on the line above.
            self.state = unsafe { update_sse42(self.state, data) };
            return;
        }
        self.state = update_software(self.state, data);
    }

    /// Finish and return the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// Advance the CRC register over `data` with the slicing-by-8 tables:
/// the portable path, and the reference the hardware path is tested
/// against.
fn update_software(mut crc: u32, mut data: &[u8]) -> u32 {
    while data.len() >= 8 {
        let lo = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) ^ crc;
        let hi = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
        data = &data[8..];
    }
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Advance the CRC register over `data` with the SSE4.2 `crc32`
/// instruction, which implements exactly the reflected Castagnoli
/// polynomial over the same register [`update_software`] keeps.
///
/// # Safety
///
/// The running CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut wide = crc as u64;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        wide = _mm_crc32_u64(wide, word);
    }
    // The instruction zero-extends its 32-bit result.
    let mut crc = wide as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One-shot CRC32C over the portable tables, whatever the host CPU.
    fn software(data: &[u8]) -> u32 {
        !update_software(!0, data)
    }

    /// RFC 7143 (iSCSI) CRC32C test vectors, on the dispatched path and
    /// on the tables.
    #[test]
    fn known_vectors() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want, "dispatched, {data:?}");
            assert_eq!(software(data), want, "tables, {data:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The dispatched path (the `crc32` instruction on an SSE4.2
        /// host) and the tables agree on every input: any length up to
        /// 4 096, any start alignment, one-shot and across every two-way
        /// split of an incremental update — on both paths, since a
        /// checksum may be started on one and finished on the other.
        #[test]
        fn hardware_and_software_paths_agree(
            len in 0usize..=4096,
            bytes in prop::collection::vec(any::<u8>(), 4096 + 7),
        ) {
            for align in 0..8 {
                let data = &bytes[align..align + len];
                let want = software(data);
                prop_assert_eq!(crc32c(data), want, "one-shot, align {}", align);
                for split in 0..=len {
                    let mut h = Crc32c::new();
                    h.update(&data[..split]);
                    h.update(&data[split..]);
                    prop_assert_eq!(h.finalize(), want, "align {} split {}", align, split);
                    let tables = update_software(update_software(!0, &data[..split]), &data[split..]);
                    prop_assert_eq!(!tables, want, "tables, align {} split {}", align, split);
                }
            }
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|v| v.to_le_bytes()).collect();
        let whole = crc32c(&data);
        for split in [0, 1, 7, 8, 9, 500, data.len()] {
            let mut h = Crc32c::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
        // Byte-at-a-time must agree with slicing-by-8.
        let mut h = Crc32c::new();
        for &b in &data {
            h.update(&[b]);
        }
        assert_eq!(h.finalize(), whole);
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        let data: Vec<u8> = (0..257u32).flat_map(|v| (v * 31).to_le_bytes()).collect();
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
