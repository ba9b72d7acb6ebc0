//! Column codecs: varint, zigzag deltas, and frame-of-reference
//! bit-packing.
//!
//! Every per-sample field in a block is stored as a column of `u64`
//! values (floats go through `f64::to_bits`, so reconstruction is
//! bit-identical — including NaNs). Two physical encodings compete per
//! column and the smaller wins (both are sized first, the deltas only as
//! far as the choice needs; only the winner is encoded):
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
//!
//! A column decodes into a [`ColumnSink`]: a `Vec<u64>` stores the
//! values (scans), a [`Tally`] keeps only what a block's checks read of
//! them (recovery). Both go through the one decoder, so they fail on the
//! same bytes.

/// The most values a column (so the most rows a block) may hold: a corrupt
/// count must not OOM a decoder. A constant (width-0) column is tiny, so
/// the cap is a hard value count, far above any real block.
pub(crate) const MAX_COLUMN_VALUES: u64 = 1 << 24;

/// Where [`get_column`] puts a column's values.
pub(crate) trait ColumnSink {
    /// Forget the previous column (a `Vec` keeps its capacity).
    fn clear(&mut self);
    /// Values taken since the last [`ColumnSink::clear`].
    fn len(&self) -> usize;
    fn reserve(&mut self, n: usize);
    fn push(&mut self, v: u64);
    fn push_all(&mut self, values: impl Iterator<Item = u64>);
    /// Take `n` copies of `v`.
    fn fill(&mut self, n: usize, v: u64);
    /// Take `n` values, each at most `max`, without seeing them; `false`
    /// (nothing taken) when this sink must see every value.
    fn take_unseen(&mut self, n: usize, max: u64) -> bool;
    /// Whether a value past `u32::MAX` was taken.
    fn exceeds_u32(&self) -> bool;
    /// The values' sum, `None` when it overflows `u64`.
    fn sum(&self) -> Option<u64>;
}

impl ColumnSink for Vec<u64> {
    fn clear(&mut self) {
        Vec::clear(self);
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn reserve(&mut self, n: usize) {
        Vec::reserve(self, n);
    }

    fn push(&mut self, v: u64) {
        Vec::push(self, v);
    }

    fn push_all(&mut self, values: impl Iterator<Item = u64>) {
        Extend::extend(self, values);
    }

    fn fill(&mut self, n: usize, v: u64) {
        self.resize(Vec::len(self) + n, v);
    }

    fn take_unseen(&mut self, _: usize, _: u64) -> bool {
        false
    }

    fn exceeds_u32(&self) -> bool {
        self.iter().fold(0, |or, &v| or | v) > u64::from(u32::MAX)
    }

    fn sum(&self) -> Option<u64> {
        self.iter().try_fold(0u64, |sum, &v| sum.checked_add(v))
    }
}

/// What a [`Tally`] keeps of the values besides their count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Watch {
    #[default]
    Count,
    /// Whether one is past `u32::MAX` ([`ColumnSink::exceeds_u32`]).
    U32,
    /// Their sum ([`ColumnSink::sum`]).
    Sum,
}

/// A [`ColumnSink`] that stores no values: it counts them and keeps what
/// its [`Watch`] names. A count-only tally takes a column whose values
/// cannot overflow by its length; a `U32` one too when none can pass
/// `u32::MAX`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    watch: Watch,
    n: usize,
    /// OR of the values (`Watch::U32`).
    or: u64,
    /// Their sum (`Watch::Sum`); set once it overflows.
    sum: u64,
    overflowed: bool,
}

impl Tally {
    pub(crate) fn new(watch: Watch) -> Self {
        Tally {
            watch,
            ..Tally::default()
        }
    }

    fn add(&mut self, v: u64) {
        let (sum, over) = self.sum.overflowing_add(v);
        (self.sum, self.overflowed) = (sum, self.overflowed || over);
    }
}

impl ColumnSink for Tally {
    fn clear(&mut self) {
        *self = Tally::new(self.watch);
    }

    fn len(&self) -> usize {
        self.n
    }

    fn reserve(&mut self, _: usize) {}

    fn push(&mut self, v: u64) {
        self.n += 1;
        match self.watch {
            Watch::Count => {}
            Watch::U32 => self.or |= v,
            Watch::Sum => self.add(v),
        }
    }

    fn push_all(&mut self, values: impl Iterator<Item = u64>) {
        values.for_each(|v| self.push(v));
    }

    fn fill(&mut self, n: usize, v: u64) {
        self.n += n;
        match self.watch {
            Watch::Count => {}
            Watch::U32 => self.or |= if n > 0 { v } else { 0 },
            Watch::Sum => match v.checked_mul(n as u64) {
                Some(all) => self.add(all),
                None => self.overflowed = true,
            },
        }
    }

    fn take_unseen(&mut self, n: usize, max: u64) -> bool {
        let unseen = match self.watch {
            Watch::Count => true,
            Watch::U32 => max <= u64::from(u32::MAX),
            Watch::Sum => false,
        };
        if unseen {
            self.n += n;
        }
        unseen
    }

    fn exceeds_u32(&self) -> bool {
        debug_assert_eq!(self.watch, Watch::U32);
        self.or > u64::from(u32::MAX)
    }

    fn sum(&self) -> Option<u64> {
        debug_assert_eq!(self.watch, Watch::Sum);
        (!self.overflowed).then_some(self.sum)
    }
}

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

/// Bytes [`put_varint`] takes for `v`: `⌈bits / 7⌉` (at least 1), as
/// `(⌊log2 v⌋ · 9 + 73) / 64`, which holds for every `u64` and costs no
/// division.
fn varint_len(v: u64) -> usize {
    ((63 - (v | 1).leading_zeros()) * 9 + 73) as usize >> 6
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

/// Bytes [`put_delta`] takes for `values`, or `None` once they pass
/// `cap` (checked every 64 values).
fn delta_len_within(values: &[u64], cap: usize) -> Option<usize> {
    let (mut len, mut prev) = (0usize, 0u64);
    for chunk in values.chunks(64) {
        for &v in chunk {
            len += varint_len(zigzag(v.wrapping_sub(prev) as i64));
            prev = v;
        }
        if len > cap {
            return None;
        }
    }
    Some(len)
}

/// Append the payload for tag 0 (delta + zigzag + varint).
pub(crate) fn put_delta(out: &mut Vec<u8>, values: &[u64]) {
    let mut prev = 0u64;
    for &v in values {
        put_varint(out, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

fn decode_delta(buf: &[u8], n: usize, out: &mut impl ColumnSink) -> Option<()> {
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
pub(crate) fn put_packed(out: &mut Vec<u8>, values: &[u64], min: u64, width: u32) {
    put_varint(out, min);
    // Fits: `bit_width` is at most 64.
    #[allow(clippy::cast_possible_truncation)]
    out.push(width as u8);
    if width == 0 {
        return;
    }
    // The bits go out a whole little-endian word at a time; `acc` holds
    // the `bits` (< 64) not yet written.
    let (mut acc, mut bits) = (0u64, 0u32);
    for &v in values {
        let raw = v - min;
        acc |= raw << bits;
        bits += width;
        if bits >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            bits -= 64;
            // The high `bits` bits of `raw` did not fit in the word.
            acc = if bits == 0 { 0 } else { raw >> (width - bits) };
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..bits.div_ceil(8) as usize]);
}

fn decode_packed(buf: &[u8], n: usize, out: &mut impl ColumnSink) -> Option<()> {
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
        out.fill(n, min);
        return Some(());
    }
    let mask = u64::MAX >> (64 - width);
    // When no value can overflow `min + raw`, the column is valid as soon
    // as its length is: a sink that need not see the values takes them
    // by count.
    let max = min.checked_add(mask);
    if max.is_some_and(|max| out.take_unseen(n, max)) {
        return Some(());
    }
    out.reserve(n);
    let packed = &buf[pos..];
    let width = width as usize;
    // Where none can overflow, every value of up to 57 bits whose 8-byte
    // window lies in the column is one unaligned load.
    let windowed = match packed.len().checked_sub(8) {
        Some(last) if width <= 57 && max.is_some() => ((last * 8 + 7) / width + 1).min(n),
        _ => 0,
    };
    out.push_all((0..windowed).map(|i| {
        let bit = i * width;
        let (byte, shift) = (bit >> 3, bit & 7);
        // The slice is 8 bytes long (it is in bounds: `windowed` says so).
        #[allow(clippy::expect_used)]
        let word = u64::from_le_bytes(packed[byte..byte + 8].try_into().expect("8 bytes"));
        min + ((word >> shift) & mask)
    }));
    // The last few values, and every value when one might overflow or is
    // wider than 57 bits: gather the bytes each spans (`needed` above says
    // they exist), checked.
    for i in windowed..n {
        let bit = i * width;
        let spanned = &packed[bit >> 3..(bit + width).div_ceil(8)];
        let wide = spanned
            .iter()
            .rev()
            .fold(0u128, |acc, &b| (acc << 8) | b as u128);
        // Fits: `mask` keeps the low `width` (at most 64) bits.
        #[allow(clippy::cast_possible_truncation)]
        out.push(min.checked_add((wide >> (bit & 7)) as u64 & mask)?);
    }
    Some(())
}

/// Append one self-describing column: `u8 tag`, `varint n`,
/// `varint byte_len`, payload. The column's range sizes the packed codec
/// and the deltas are sized as far as the choice needs; then the cheaper
/// one (packed only when strictly smaller) is encoded straight into
/// `out`, which grows once, by the column's size.
pub(crate) fn put_column(out: &mut Vec<u8>, values: &[u64]) {
    let (min, max) = (values.iter()).fold((u64::MAX, 0), |(min, max), &v| (min.min(v), max.max(v)));
    // An empty column leaves (MAX, 0); its frame is min 0, width 0.
    let min = min.min(max);
    let width = bit_width(max - min);
    let packed_len = varint_len(min) + 1 + (values.len() * width as usize).div_ceil(8);
    // Every delta takes a byte or more, so a packed column shorter than
    // its value count wins unsized; otherwise the deltas are sized only
    // until they pass the packed length.
    let delta_len = if packed_len < values.len() {
        None
    } else {
        delta_len_within(values, packed_len)
    };
    let (packed, byte_len) = match delta_len {
        Some(delta_len) => (false, delta_len),
        None => (true, packed_len),
    };
    out.reserve(1 + varint_len(values.len() as u64) + varint_len(byte_len as u64) + byte_len);
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
    Some((tag, usize::try_from(n).ok()?, payload))
}

/// Decode one column at `*pos` into `out` (cleared first, capacity
/// kept), advancing past it. `None` on any structural inconsistency (the
/// caller treats the block as corrupt); `out` is then unspecified.
pub(crate) fn get_column(buf: &[u8], pos: &mut usize, out: &mut impl ColumnSink) -> Option<()> {
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
        // Both sides of every width: the lengths `varint_len` computes.
        let tops = (0..64).map(|bits| (1u64 << bits) - 1);
        let edges = tops.flat_map(|top| [top, top + 1]);
        for v in [300, u32::MAX as u64, u64::MAX].into_iter().chain(edges) {
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

    /// `min + raw` is checked wherever it could overflow: a column whose
    /// frame reaches past `u64::MAX` decodes while its values fit and
    /// fails closed on one that does not, at any position.
    #[test]
    fn packed_values_past_u64_max_fail_closed() {
        let width = 12;
        let column = |min: u64, raws: &[u64]| {
            let mut packed = Vec::new();
            put_packed(&mut packed, raws, 0, width);
            let mut buf = Vec::new();
            put_varint(&mut buf, min);
            buf.extend_from_slice(&packed[1..]); // past `min` = 0's one byte
            buf
        };
        let top = u64::MAX - 100;
        let fits: Vec<u64> = (0..40).map(|i| i * 7 % 100).collect();
        let mut back = Vec::new();
        decode_packed(&column(top, &fits), 40, &mut back).expect("every value fits");
        assert!(back.iter().zip(&fits).all(|(&v, &raw)| v == top + raw));
        for at in 0..40 {
            let mut over = fits.clone();
            over[at] = 101;
            back.clear();
            assert!(
                decode_packed(&column(top, &over), 40, &mut back).is_none(),
                "{at}"
            );
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
