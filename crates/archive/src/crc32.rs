//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), slicing-by-8.
//!
//! Every block and footer frame in a segment file carries a CRC over its
//! payload so torn writes and bit rot are detected at open/scan time
//! rather than silently corrupting training data. Hand-rolled because the
//! workspace builds with no external dependencies.
//!
//! Every byte a scan reads goes through here, so the loop consumes eight
//! bytes per step: `TABLES[k][b]` is the CRC of byte `b` followed by `k`
//! zero bytes, and the CRC of an 8-byte word is the XOR of eight
//! independent lookups. Same polynomial and same values as the
//! byte-at-a-time loop (`TABLES[0]` is its table; the tail still uses it).

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_byte_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let good = crc32(&data);
        for i in 0..data.len() {
            let mut bad = data.clone();
            bad[i] ^= 0x40;
            assert_ne!(crc32(&bad), good, "flip at byte {i} went undetected");
        }
    }

    /// The bit-at-a-time definition, carried one byte forward.
    fn reference_step(mut c: u32, byte: u8) -> u32 {
        c ^= byte as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        c
    }

    #[test]
    fn matches_the_bytewise_reference_at_every_length_and_alignment() {
        const MAX_LEN: usize = 4096;
        // SplitMix64: seeded, so a failure names a reproducible input.
        let mut state = 0x5EED_CAFE_u64;
        let buf: Vec<u8> = (0..MAX_LEN + 8)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for align in 0..8 {
            let mut c = 0xFFFF_FFFFu32;
            for len in 0..=MAX_LEN {
                assert_eq!(
                    crc32(&buf[align..align + len]),
                    c ^ 0xFFFF_FFFF,
                    "align {align}, len {len}"
                );
                c = reference_step(c, buf[align + len]);
            }
        }
    }
}
