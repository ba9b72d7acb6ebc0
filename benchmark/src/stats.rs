//! The stats core: the only place a list of timings becomes a number.
//!
//! Every reported timing is a median with a max−min spread and a sample
//! count; a tail percentile is reported only where the sample supports
//! it (at least ten samples beyond it).

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest value; 0 for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest value; 0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// max − min: the spread stated next to every median.
pub fn spread(values: &[f64]) -> f64 {
    max(values) - min(values)
}

/// Nearest-rank percentile `p` in (0, 100] of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    // The epsilon keeps p = 99.9 of 10 000 at rank 9990, not 9991.
    let rank = (p * v.len() as f64 / 100.0 - 1e-6).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentiles a report may quote, highest first, in
/// hundredths of a percent (integers, so the ten-sample rule is exact).
const TAILS: [usize; 5] = [9999, 9990, 9900, 9500, 9000];

/// The highest of [`TAILS`] that still has at least ten samples beyond
/// it, with its value; `None` when even p90 is unsupported (n < 100).
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .into_iter()
        .find(|p| values.len() * (10_000 - p) >= 10 * 10_000)
        .map(|p| p as f64 / 100.0)
        .map(|p| (p, percentile(values, p)))
}

/// Metric names are restricted to `[A-Za-z0-9_.-]`, start with a letter
/// or digit, and are at most 64 characters (the `BENCHMARK.json`
/// contract).
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_spread() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(min(&[4.0, 1.5, 3.0]), 1.5);
        assert_eq!(max(&[4.0, 1.5, 3.0]), 4.0);
        assert_eq!(spread(&[4.0, 1.5, 3.0]), 2.5);
        assert_eq!(spread(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(supported_tail(&ramp(9)), None);
        assert_eq!(supported_tail(&ramp(10)), None);
        assert_eq!(supported_tail(&ramp(99)), None);
        assert_eq!(supported_tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(supported_tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(supported_tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(supported_tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["setup_s", "bpf.vm_triple_ns", "a-b", "9lives", "A.b_c-1"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".x", "_x", "a b", "a/b", "a%", "é", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
