//! Column codecs: varint, zigzag deltas, and frame-of-reference
//! bit-packing.
//!
//! Every per-sample field in a block is stored as a column of `u64`
//! values (floats go through `f64::to_bits`, so reconstruction is
//! bit-identical — including NaNs). Two physical encodings compete per
//! column and the smaller wins (both are sized first; only the winner is
//! encoded):
//!
//! * **tag 0 — delta + zigzag + varint.** Values are wrapping-delta'd
//!   against the previous value, zigzag-mapped to `u64`, and LEB128
//!   varint coded. Near-monotonic columns (`start_ns`) and low-variance
//!   columns collapse to ~1 byte/value.
//! * **tag 1 — frame-of-reference bit-packing.** The column minimum is
//!   stored once, then `v - min` is packed at the minimum bit width that
//!   fits the column's range. Constant columns cost 0 bits/value;
//!   small-range columns (`tid`, `template`, vector lengths) pack to a
//!   few bits.
//!
//! Both are self-describing (`tag`, value count, byte length) so a block
//! decoder never reads past its column, and steps over a column it was
//! not asked for without decoding it.

/// The most values a column (so the most rows a block) may hold: a corrupt
/// count must not OOM a decoder. A constant (width-0) column is tiny, so
/// the cap is a hard value count, far above any real block.
pub(crate) const MAX_COLUMN_VALUES: u64 = 1 << 24;

/// Append `v` as a LEB128 varint.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Bytes [`put_varint`] takes for `v`.
fn varint_len(v: u64) -> usize {
    (bit_width(v).max(1) as usize).div_ceil(7)
}

/// Read a LEB128 varint at `*pos`, advancing it. `None` on truncation or
/// a value that would overflow 64 bits.
pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None; // would overflow u64
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Zigzag-map a signed delta into an unsigned varint-friendly value.
fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Bits needed to represent `v` (0 for 0).
fn bit_width(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Append the payload for tag 0 (delta + zigzag + varint).
fn put_delta(out: &mut Vec<u8>, values: &[u64]) {
    let mut prev = 0u64;
    for &v in values {
        put_varint(out, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

fn decode_delta(buf: &[u8], n: usize, out: &mut Vec<u64>) -> Option<()> {
    // Every value takes at least one byte, so a count beyond the payload
    // is corrupt — checked before reserving for it.
    if n > buf.len() {
        return None;
    }
    out.reserve(n);
    let mut pos = 0usize;
    let mut prev = 0u64;
    for _ in 0..n {
        let d = unzigzag(get_varint(buf, &mut pos)?);
        prev = prev.wrapping_add(d as u64);
        out.push(prev);
    }
    if pos != buf.len() {
        return None; // trailing garbage: corrupt column
    }
    Some(())
}

/// Append the payload for tag 1 (frame-of-reference bit-packing):
/// `varint min`, `u8 width`, packed little-endian bits of `v - min`,
/// where `min` is the column's minimum and `width` the bits its range
/// `max - min` needs (0 and 0 for an empty column).
fn put_packed(out: &mut Vec<u8>, values: &[u64], min: u64, width: u32) {
    put_varint(out, min);
    out.push(width as u8);
    let mut acc = 0u128;
    let mut acc_bits = 0u32;
    for &v in values {
        acc |= ((v - min) as u128) << acc_bits;
        acc_bits += width;
        while acc_bits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if acc_bits > 0 {
        out.push((acc & 0xFF) as u8);
    }
}

fn decode_packed(buf: &[u8], n: usize, out: &mut Vec<u64>) -> Option<()> {
    let mut pos = 0usize;
    let min = get_varint(buf, &mut pos)?;
    let width = *buf.get(pos)? as u32;
    pos += 1;
    if width > 64 {
        return None;
    }
    let needed = (n as u64 * width as u64).div_ceil(8);
    if (buf.len() - pos) as u64 != needed {
        return None;
    }
    if width == 0 {
        out.resize(n, min);
        return Some(());
    }
    out.reserve(n);
    let packed = &buf[pos..];
    let mask = u64::MAX >> (64 - width);
    for i in 0..n {
        let bit = i * width as usize;
        let (byte, shift) = (bit >> 3, bit & 7);
        let raw = match packed.get(byte..byte + 8) {
            // A value of up to 57 bits starting within the first byte
            // lies inside one unaligned little-endian word.
            Some(word) if width <= 57 => {
                let word = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
                (word >> shift) & mask
            }
            // Wider values, and the last few of the column: gather the
            // bytes the value spans (`needed` above says they exist).
            _ => {
                let spanned = &packed[byte..(bit + width as usize).div_ceil(8)];
                let wide = spanned
                    .iter()
                    .rev()
                    .fold(0u128, |acc, &b| (acc << 8) | b as u128);
                (wide >> shift) as u64 & mask
            }
        };
        out.push(min.checked_add(raw)?);
    }
    Some(())
}

/// Append one self-describing column: `u8 tag`, `varint n`,
/// `varint byte_len`, payload. One pass sizes both codecs, then the
/// cheaper one (packed only when strictly smaller) is encoded straight
/// into `out`.
pub(crate) fn put_column(out: &mut Vec<u8>, values: &[u64]) {
    let (mut delta_len, mut prev, mut min, mut max) = (0usize, 0u64, u64::MAX, 0u64);
    for &v in values {
        delta_len += varint_len(zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
        min = min.min(v);
        max = max.max(v);
    }
    // An empty column leaves (MAX, 0); its frame is min 0, width 0.
    let min = min.min(max);
    let width = bit_width(max - min);
    let packed_len = varint_len(min) + 1 + (values.len() * width as usize).div_ceil(8);
    let packed = packed_len < delta_len;
    let byte_len = if packed { packed_len } else { delta_len };
    out.push(u8::from(packed));
    put_varint(out, values.len() as u64);
    put_varint(out, byte_len as u64);
    let start = out.len();
    if packed {
        put_packed(out, values, min, width);
    } else {
        put_delta(out, values);
    }
    // The length is on disk ahead of the payload it describes.
    assert_eq!(out.len() - start, byte_len, "column sized wrongly");
}

/// One column's self-description at `*pos`: `(tag, value count,
/// payload)`, with `*pos` advanced past the payload. `None` when the
/// tag is unknown, the count is beyond any real block, or the byte
/// length runs off the buffer (an adversarial length must not overflow
/// the offset arithmetic).
fn column_header<'a>(buf: &'a [u8], pos: &mut usize) -> Option<(u8, usize, &'a [u8])> {
    let tag = *buf.get(*pos)?;
    *pos += 1;
    let n = get_varint(buf, pos)?;
    let len = usize::try_from(get_varint(buf, pos)?).ok()?;
    let end = pos.checked_add(len)?;
    let payload = buf.get(*pos..end)?;
    *pos = end;
    if tag > 1 || n > MAX_COLUMN_VALUES {
        return None;
    }
    Some((tag, n as usize, payload))
}

/// Decode one column at `*pos` into `out` (cleared first, capacity
/// kept), advancing past it. `None` on any structural inconsistency (the
/// caller treats the block as corrupt); `out` is then unspecified.
pub(crate) fn get_column(buf: &[u8], pos: &mut usize, out: &mut Vec<u64>) -> Option<()> {
    let (tag, n, payload) = column_header(buf, pos)?;
    out.clear();
    match tag {
        0 => decode_delta(payload, n, out),
        _ => decode_packed(payload, n, out),
    }
}

/// Step over one column at `*pos` by its self-described byte length
/// without decoding its values; returns its value count. The header is
/// checked as [`get_column`] checks it; the payload's bytes are covered
/// by the frame CRC only.
pub(crate) fn skip_column(buf: &[u8], pos: &mut usize) -> Option<usize> {
    column_header(buf, pos).map(|(_, n, _)| n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[u64]) {
        let mut buf = Vec::new();
        put_column(&mut buf, values);
        let mut pos = 0;
        let mut back = vec![99]; // stale contents must not survive
        get_column(&buf, &mut pos, &mut back).expect("decode failed");
        assert_eq!(back, values);
        assert_eq!(pos, buf.len());
        let mut pos = 0;
        assert_eq!(skip_column(&buf, &mut pos), Some(values.len()));
        assert_eq!(pos, buf.len());
    }

    /// Tag 1's payload with the frame found the way every earlier build
    /// found it.
    fn encode_packed(values: &[u64]) -> Vec<u8> {
        let min = values.iter().copied().min().unwrap_or(0);
        let width = values.iter().map(|&v| bit_width(v - min)).max();
        let mut out = Vec::new();
        put_packed(&mut out, values, min, width.unwrap_or(0));
        out
    }

    /// `put_column` as every earlier build wrote it: encode both
    /// payloads, keep the smaller.
    fn reference_put_column(out: &mut Vec<u8>, values: &[u64]) {
        let mut delta = Vec::new();
        put_delta(&mut delta, values);
        let packed = encode_packed(values);
        let (tag, payload) = if packed.len() < delta.len() {
            (1u8, packed)
        } else {
            (0u8, delta)
        };
        out.push(tag);
        put_varint(out, values.len() as u64);
        put_varint(out, payload.len() as u64);
        out.extend_from_slice(&payload);
    }

    /// xorshift64: seeded, reproducible.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn sizing_first_writes_the_bytes_encoding_both_wrote() {
        let mut next = xorshift(0xC01);
        let (mut tags, mut cases) = ([0usize; 2], 0);
        for width in 0..=64u32 {
            let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
            for n in [0usize, 1, 2, 3, 8, 9, 64, 65, 300] {
                // Random, sorted (small deltas over a wide range) and
                // high-based (a long varint `min`) columns.
                let random: Vec<u64> = (0..n).map(|_| next() & mask).collect();
                let mut sorted = random.clone();
                sorted.sort_unstable();
                let based = (random.iter()).map(|v| (u64::MAX - mask) | v);
                for values in [random.clone(), sorted, based.collect()] {
                    let (mut got, mut want) = (vec![0xEE], vec![0xEE]);
                    put_column(&mut got, &values);
                    reference_put_column(&mut want, &values);
                    assert_eq!(got, want, "width {width}, n {n}");
                    tags[want[1] as usize] += 1;
                    cases += 1;
                }
            }
        }
        // Both codecs win often enough for the comparison to mean something.
        assert!(tags[0] * 5 > cases && tags[1] * 5 > cases, "{tags:?}");
    }

    #[test]
    fn varint_round_trip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(get_varint(&[0x80], &mut pos), None);
        let mut pos = 0;
        // 10 continuation bytes with a high final byte overflows u64.
        assert_eq!(get_varint(&[0xFF; 10], &mut pos), None);
    }

    #[test]
    fn columns_round_trip() {
        round_trip(&[]);
        round_trip(&[0]);
        round_trip(&[42; 1000]); // constant → 0 bits/value packed
        round_trip(&[u64::MAX, 0, u64::MAX, 1]); // full-range deltas
        round_trip(&(0..500u64).map(|i| 1_000_000 + i * 8).collect::<Vec<_>>());
        round_trip(&[
            f64::to_bits(1.5),
            f64::to_bits(-0.0),
            f64::to_bits(f64::NAN),
        ]);
    }

    #[test]
    fn monotonic_column_is_compact() {
        let values: Vec<u64> = (0..1000u64).map(|i| 5_000_000_000 + i * 2_100).collect();
        let mut buf = Vec::new();
        put_column(&mut buf, &values);
        // Deltas are constant (~2 bytes each max); raw would be 8000 bytes.
        assert!(
            buf.len() < 2_200,
            "monotonic column took {} bytes",
            buf.len()
        );
    }

    #[test]
    fn small_range_column_bit_packs() {
        let values: Vec<u64> = (0..4096u64).map(|i| 7 + (i % 4)).collect();
        let mut buf = Vec::new();
        put_column(&mut buf, &values);
        // 2 bits/value = 1024 bytes + tiny header.
        assert!(buf.len() < 1_100, "2-bit column took {} bytes", buf.len());
        let mut back = Vec::new();
        get_column(&buf, &mut 0, &mut back).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn packed_codec_round_trips_every_width_and_tail_length() {
        let mut next = xorshift(0x5EED);
        let mut back = Vec::new();
        for width in 0..=64u32 {
            let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
            for n in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 300] {
                // Offset so `min` is not 0; the first two values pin the
                // column's range to exactly `width` bits.
                let base = if width == 64 { 0 } else { 1_000 };
                let mut values: Vec<u64> = (0..n).map(|_| base + (next() & mask)).collect();
                values[0] = base;
                if n > 1 {
                    values[1] = base + mask;
                }
                let buf = encode_packed(&values);
                back.clear();
                decode_packed(&buf, n, &mut back).expect("decode failed");
                assert_eq!(back, values, "width {width}, n {n}");
            }
        }
    }

    #[test]
    fn corrupt_columns_fail_closed() {
        let mut buf = Vec::new();
        put_column(&mut buf, &[1, 2, 3, 4, 5]);
        // Bad tag.
        let mut bad = buf.clone();
        bad[0] = 9;
        let mut out = Vec::new();
        assert!(get_column(&bad, &mut 0, &mut out).is_none());
        assert!(skip_column(&bad, &mut 0).is_none());
        // Truncated payload.
        assert!(get_column(&buf[..buf.len() - 1], &mut 0, &mut out).is_none());
        assert!(skip_column(&buf[..buf.len() - 1], &mut 0).is_none());
    }

    #[test]
    fn hostile_lengths_fail_closed_instead_of_overflowing() {
        let mut out = Vec::new();
        for tag in [0u8, 1] {
            // byte_len = u64::MAX: `pos + len` must not be computed unchecked.
            let mut buf = vec![tag];
            put_varint(&mut buf, 3);
            put_varint(&mut buf, u64::MAX);
            buf.extend_from_slice(&[1, 2, 3]);
            assert!(get_column(&buf, &mut 0, &mut out).is_none());
            assert!(skip_column(&buf, &mut 0).is_none());
            // A count far beyond the payload must not be allocated for.
            let mut buf = vec![tag];
            put_varint(&mut buf, u64::MAX);
            put_varint(&mut buf, 3);
            buf.extend_from_slice(&[1, 2, 3]);
            assert!(get_column(&buf, &mut 0, &mut out).is_none());
            assert!(skip_column(&buf, &mut 0).is_none());
        }
        // Packed: a width whose bit count disagrees with the payload.
        let mut buf = vec![1u8];
        put_varint(&mut buf, 1 << 20);
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0, 64]);
        assert!(get_column(&buf, &mut 0, &mut out).is_none());
    }
}
