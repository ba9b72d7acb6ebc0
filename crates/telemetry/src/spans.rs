//! Ring-buffered span storage.
//!
//! Spans are complete intervals (`start_ns`, `dur_ns` in virtual time)
//! recorded after the fact — the simulation always knows both endpoints,
//! so there is no open-span bookkeeping. Storage is a fixed-capacity
//! ring: under sustained load old spans are overwritten, mirroring the
//! no-back-pressure philosophy of the perf ring buffer itself, and the
//! overwrite count is reported so exports can say what they lost.

use std::collections::VecDeque;

/// Default span ring capacity. At ~100 bytes per span this bounds span
/// memory to a few MiB regardless of run length.
pub const DEFAULT_SPAN_CAPACITY: usize = 16 * 1024;

/// One completed interval. Names and categories are the recording
/// site's literals, so a span is plain data: recording one allocates
/// nothing and cloning the ring is a flat copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub category: &'static str,
    pub start_ns: f64,
    pub dur_ns: f64,
}

/// Fixed-capacity span ring. Overwrites oldest on overflow.
#[derive(Debug, Clone)]
pub struct SpanRing {
    buf: VecDeque<Span>,
    capacity: usize,
    dropped: u64,
}

impl Default for SpanRing {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanRing {
    pub fn with_capacity(capacity: usize) -> Self {
        SpanRing {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    pub fn record(&mut self, span: Span) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(span);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span number `i`, identified by its start time.
    fn span(i: usize) -> Span {
        Span {
            name: "s",
            category: "t",
            start_ns: i as f64,
            dur_ns: 1.0,
        }
    }

    fn ids(r: &SpanRing) -> Vec<usize> {
        r.iter().map(|s| s.start_ns as usize).collect()
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = SpanRing::with_capacity(4);
        for i in 0..10 {
            r.record(span(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(ids(&r), [6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = SpanRing::with_capacity(0);
        r.record(span(0));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn eviction_is_strict_fifo_across_multiple_wraps() {
        // Wrap the ring several times over; at every step the survivors
        // must be exactly the newest `capacity` spans, oldest first.
        let mut r = SpanRing::with_capacity(3);
        for i in 0..17 {
            r.record(span(i));
            let lo = (i + 1).saturating_sub(3);
            let want: Vec<usize> = (lo..=i).collect();
            assert_eq!(ids(&r), want, "after record {i}");
        }
    }

    #[test]
    fn dropped_counts_every_overflow_exactly() {
        let mut r = SpanRing::with_capacity(1);
        assert_eq!(r.dropped(), 0);
        r.record(span(0));
        assert_eq!(r.dropped(), 0, "filling to capacity drops nothing");
        for i in 1..=100 {
            r.record(span(i));
            assert_eq!(r.dropped(), i as u64);
            assert_eq!(r.len(), 1);
        }
        // Accounting closes: recorded = retained + dropped.
        assert_eq!(101, r.len() as u64 + r.dropped());
    }

    #[test]
    fn iterator_after_wraparound_preserves_order_and_contents() {
        let mut r = SpanRing::with_capacity(4);
        for i in 0..10 {
            r.record(span(i));
        }
        // Contents are the newest four, in insertion order, every field
        // intact.
        let got: Vec<Span> = r.iter().copied().collect();
        assert_eq!(got, [span(6), span(7), span(8), span(9)]);
        assert!(!r.is_empty());
        assert_eq!(r.iter().count(), r.len());
    }
}
