//! CRC-32 (IEEE 802.3 polynomial), table-driven.
//!
//! Chunk payloads and the footer are checksummed so a reader can detect
//! torn writes and bit rot — the same integrity role TsFile's chunk
//! checksums play.

/// Reflected polynomial of CRC-32/IEEE.
const POLY: u32 = 0xEDB8_8320;

/// The 256-entry lookup table, computed at compile time.
#[expect(
    clippy::indexing_slicing,
    reason = "the loop keeps i < 256 = table.len()"
)]
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
};

/// Computes the CRC-32 of `data`.
#[expect(
    clippy::indexing_slicing,
    reason = "the index is masked to 0..=255, and the table has 256 entries"
)]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_any_flip() {
        let data = vec![0xA5u8; 1000];
        let base = crc32(&data);
        for i in (0..data.len()).step_by(97) {
            let mut corrupted = data.clone();
            corrupted[i] ^= 1;
            assert_ne!(crc32(&corrupted), base, "flip at {i} undetected");
        }
    }
}
