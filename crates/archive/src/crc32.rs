//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320): slicing-by-8
//! on four lanes at once.
//!
//! Every block frame in a segment file carries a CRC over its payload, so
//! torn writes and bit rot are detected at open/scan time rather than
//! silently corrupting training data. Hand-rolled because the workspace
//! builds with no external dependencies.
//!
//! Every byte a scan reads goes through here. A lane consumes eight bytes
//! per step: `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
//! bytes, and a word's CRC is the XOR of eight independent lookups. Each
//! step waits on the last, so from [`FOUR_LANES_FROM`] bytes four lanes
//! run interleaved, one per quarter, joined as zlib's `crc32_combine`
//! does: `crc(a ‖ b)` is `crc(a) · x^(8|b|) mod P` in GF(2) plus `b`'s
//! lane started from zero. Same values as the byte-at-a-time loop
//! (`TABLES[0]` is its table; tails still use it).

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0u32;
    while i < 256 {
        let mut c = i;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i as usize] = c;
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

/// Inputs this long or longer run on four lanes; shorter ones on one,
/// where joining the lanes would cost more than it saves.
const FOUR_LANES_FROM: usize = 512;

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    if bytes.len() < FOUR_LANES_FROM {
        return !update(!0, bytes);
    }
    // Four lanes of whole 8-byte words; the tail continues the joined one.
    let quarter = bytes.len() / 32 * 8;
    let lane = |i: usize| bytes[i * quarter..(i + 1) * quarter].as_chunks::<8>().0;
    let mut reg = [!0, 0, 0, 0];
    let words = (lane(0).iter().zip(lane(1))).zip(lane(2).iter().zip(lane(3)));
    for ((wa, wb), (wc, wd)) in words {
        reg = [
            step(reg[0], wa),
            step(reg[1], wb),
            step(reg[2], wc),
            step(reg[3], wd),
        ];
    }
    let shift = x_pow_8n(quarter);
    let joined = reg[1..].iter().fold(reg[0], |c, r| mul_mod_p(shift, c) ^ r);
    !update(joined, &bytes[4 * quarter..])
}

/// The register `c` carried over one 8-byte word: byte `k` of
/// `c ^ word` is followed by `7 - k` more bytes.
#[inline(always)]
fn step(c: u32, w: &[u8; 8]) -> u32 {
    let word = u64::from_le_bytes(*w) ^ u64::from(c);
    (0..8).fold(0, |acc, k| {
        acc ^ TABLES[7 - k][((word >> (8 * k)) & 0xFF) as usize]
    })
}

/// The register `c` carried over `bytes` on one lane.
fn update(mut c: u32, bytes: &[u8]) -> u32 {
    let (words, rest) = bytes.as_chunks::<8>();
    for w in words {
        c = step(c, w);
    }
    for &b in rest {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// `a · b mod P` over GF(2), in the reflected bit order the register
/// uses (the top bit is `x^0`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let (mut product, mut bit) = (0, 32);
    while bit > 0 {
        bit -= 1;
        product ^= b & ((a >> bit) & 1).wrapping_neg();
        b = (b >> 1) ^ (0xEDB8_8320 & (b & 1).wrapping_neg());
    }
    product
}

/// `x^(2^k) mod P` for `k` in `0..64`, reflected.
const fn build_powers() -> [u32; 64] {
    let mut p = [0u32; 64];
    p[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 64 {
        p[k] = mul_mod_p(p[k - 1], p[k - 1]);
        k += 1;
    }
    p
}

static POWERS: [u32; 64] = build_powers();

/// `x^(8n) mod P`: what carrying a register over `n` zero bytes
/// multiplies it by.
fn x_pow_8n(n: usize) -> u32 {
    let (mut power, mut k) = (1u32 << 31, 3); // x^0; 8n = n << 3
    let mut n = n as u64;
    while n != 0 {
        if n & 1 != 0 {
            power = mul_mod_p(POWERS[k], power);
        }
        (n, k) = (n >> 1, k + 1);
    }
    power
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

    /// `len` seeded bytes (SplitMix64), so a failure names a reproducible
    /// input.
    fn seeded_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x5EED_CAFE_u64;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn matches_the_bytewise_reference_at_every_length_and_alignment() {
        const MAX_LEN: usize = 4096;
        let buf = seeded_bytes(MAX_LEN + 8);
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

    /// Across the one-lane/four-lane threshold, at every quarter's
    /// remainder, and up to 1 MiB + 7, at alignments 0–7.
    #[test]
    fn four_lanes_match_the_bytewise_reference_up_to_a_mebibyte() {
        const MAX_LEN: usize = (1 << 20) + 7;
        let t = FOUR_LANES_FROM;
        let mut lengths: Vec<usize> = (t - 40..t + 40).collect();
        for base in [1 << 12, 1 << 16, 1 << 20] {
            lengths.extend((base - 33..=base + 7).step_by(5));
        }
        lengths.extend([12_345, 100_003, 777_777, MAX_LEN]);
        lengths.sort_unstable();
        let buf = seeded_bytes(MAX_LEN + 8);
        for align in 0..8 {
            let mut c = 0xFFFF_FFFFu32;
            let mut done = 0;
            for &len in &lengths {
                for &b in &buf[align + done..align + len] {
                    c = reference_step(c, b);
                }
                done = len;
                let got = crc32(&buf[align..align + len]);
                assert_eq!(got, c ^ 0xFFFF_FFFF, "align {align}, len {len}");
            }
        }
    }

    /// The join `crc32` does between lanes, on whole inputs: the CRC of
    /// `a ‖ b` from the CRCs of `a` and `b` and the length of `b`.
    #[test]
    fn the_crc_of_a_concatenation_combines_from_its_parts() {
        let combine =
            |crc_a: u32, crc_b: u32, len_b: usize| mul_mod_p(x_pow_8n(len_b), crc_a) ^ crc_b;
        let buf = seeded_bytes(5_000);
        for split in [0, 1, 7, 8, 9, 511, 512, 513, 2_500, 4_999, 5_000] {
            let (a, b) = buf.split_at(split);
            assert_eq!(
                combine(crc32(a), crc32(b), b.len()),
                crc32(&buf),
                "split {split}"
            );
        }
        assert_eq!(x_pow_8n(0), 1 << 31, "x^0 is the identity");
    }
}
