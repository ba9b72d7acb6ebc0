//! The last two counter scrapes of the metric registry.
//!
//! The health engine's `CounterRate` rules need one thing from history:
//! how far each counter moved between the latest two observability
//! ticks. The [`TimeSeries`] keeps exactly that — the previous and the
//! latest scrape, each the **cumulative** per-family counter totals at
//! its (virtual) time — so the rate is an exact difference and the
//! registry's size (and the cost of cloning it for a scrape of the
//! operator plane) does not grow with the length of the run. A longer
//! history belongs to whoever scrapes `/metrics` or `ts_metrics`.
//!
//! Scrapes are driven by the caller (the workload driver scrapes at its
//! pump cadence; tests scrape explicitly), keeping this module wall-
//! clock-free like the rest of the crate.

use std::collections::BTreeMap;

/// One scrape: cumulative counter totals at `end_ns`.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub end_ns: f64,
    /// Counter family name -> cumulative value, summed across label sets.
    pub counters: BTreeMap<String, u64>,
}

/// The previous and the latest scrape.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    prev: Option<Window>,
    last: Option<Window>,
}

impl TimeSeries {
    /// Record a scrape. A scrape at exactly the latest one's time
    /// replaces it (idempotent re-scrape). One *earlier* than the latest
    /// starts over — a later run on the same database begins before the
    /// previous run's closing tick — so there is no rate for that tick
    /// and an exact one from the next.
    pub fn push(&mut self, window: Window) {
        match &self.last {
            Some(last) if window.end_ns == last.end_ns => {}
            Some(last) if window.end_ns < last.end_ns => self.prev = None,
            _ => self.prev = self.last.take(),
        }
        self.last = Some(window);
    }

    /// Scrapes retained: 0, 1 or 2.
    pub fn len(&self) -> usize {
        self.prev.iter().chain(&self.last).count()
    }

    pub fn is_empty(&self) -> bool {
        self.last.is_none()
    }

    /// Retained scrape `i`, oldest first.
    pub fn window(&self, i: usize) -> Option<&Window> {
        self.prev.iter().chain(&self.last).nth(i)
    }

    /// Cumulative value of `name` (summed across label sets) in scrape `i`.
    pub fn total_in_window(&self, name: &str, i: usize) -> u64 {
        self.window(i)
            .and_then(|w| w.counters.get(name))
            .copied()
            .unwrap_or(0)
    }

    /// [`Self::latest_rate_per_sec`], 0.0 where that has no signal.
    pub fn rate_per_sec(&self, name: &str) -> f64 {
        self.latest_rate_per_sec(name).unwrap_or(0.0)
    }

    /// Rate of `name` (summed across label sets) between the two
    /// retained scrapes, in events per virtual **second**. `None` with
    /// fewer than two scrapes — the health rules treat that as "no
    /// signal" rather than a zero rate.
    pub fn latest_rate_per_sec(&self, name: &str) -> Option<f64> {
        let (prev, last) = (self.prev.as_ref()?, self.last.as_ref()?);
        let total = |w: &Window| w.counters.get(name).copied().unwrap_or(0);
        let d = total(last).saturating_sub(total(prev));
        // `push` keeps `prev` strictly earlier than `last`.
        Some(d as f64 / ((last.end_ns - prev.end_ns) / 1e9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win(end_ns: f64, pairs: &[(&str, u64)]) -> Window {
        Window {
            end_ns,
            counters: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn rate_spans_the_last_two_scrapes() {
        let mut ts = TimeSeries::default();
        assert_eq!((ts.len(), ts.is_empty()), (0, true));
        ts.push(win(0.0, &[("c", 0)]));
        // A single scrape has no span.
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.rate_per_sec("c"), 0.0);
        assert_eq!(ts.latest_rate_per_sec("c"), None);
        ts.push(win(1e9, &[("c", 1_000), ("other", 1)]));
        ts.push(win(2e9, &[("c", 1_010), ("other", 1)]));
        // Only the latest interval counts; the burst before it is gone.
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.window(0).unwrap().end_ns, 1e9);
        assert_eq!(ts.total_in_window("c", 0), 1_000);
        assert_eq!(ts.total_in_window("c", 1), 1_010);
        assert_eq!(ts.total_in_window("absent", 1), 0);
        assert_eq!(ts.latest_rate_per_sec("c"), Some(10.0));
        assert_eq!(ts.rate_per_sec("other"), 0.0);
    }

    #[test]
    fn same_time_replaces_the_latest_scrape() {
        let mut ts = TimeSeries::default();
        ts.push(win(5.0, &[("c", 1)]));
        ts.push(win(5.0, &[("c", 9)]));
        // Still one scrape: no span, so no rate and no division by zero.
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.total_in_window("c", 0), 9);
        assert_eq!(ts.latest_rate_per_sec("c"), None);
        ts.push(win(1e9 + 5.0, &[("c", 19)]));
        ts.push(win(1e9 + 5.0, &[("c", 29)]));
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.latest_rate_per_sec("c"), Some(20.0));
    }

    #[test]
    fn an_earlier_scrape_starts_over_and_the_next_one_has_a_rate() {
        // A second run on one database: its first pump tick is earlier
        // than the first run's closing tick (stamped 2 s past its end).
        // Dropping such scrapes left the loss-rate rules blind for the
        // whole later run.
        let mut ts = TimeSeries::default();
        for (ms, c) in [(1.0, 10), (2.0, 20), (3.0, 30)] {
            ts.push(win(ms * 1e6, &[("c", c)]));
        }
        assert_eq!(ts.latest_rate_per_sec("c"), Some(10_000.0));
        ts.push(win(1.5e6, &[("c", 40)]));
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.latest_rate_per_sec("c"), None, "that tick only");
        ts.push(win(2.5e6, &[("c", 70)]));
        assert_eq!(ts.latest_rate_per_sec("c"), Some(30_000.0));
    }
}
