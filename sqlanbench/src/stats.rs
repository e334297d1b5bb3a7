//! Order statistics with the benchmark's reporting rule: a timing is
//! reported as its median and the highest percentile that still has at
//! least [`MIN_BEYOND`] samples beyond it, together with the sample count.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the rule chooses from, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
/// Infinite samples (failed requests) sort last and count as misses.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The middle value, or the mean of the middle two.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of an empty sample");
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// strictly beyond its rank, or `None` when even the median lacks them.
pub fn supported_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| n as f64 * (1.0 - p / 100.0) + 1e-9 >= MIN_BEYOND as f64)
}

/// The tail of a timing sample, by the reporting rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    pub n: usize,
    /// The percentile [`supported_percentile`] picked for `n`.
    pub tail_pct: f64,
    pub tail: f64,
}

impl Tail {
    pub fn of(values: &[f64]) -> Option<Tail> {
        let tail_pct = supported_percentile(values.len())?;
        let s = sorted(values);
        Some(Tail {
            n: s.len(),
            tail_pct,
            tail: percentile(&s, tail_pct),
        })
    }

    /// The value at `p`, only if the sample supports that percentile.
    pub fn at(values: &[f64], p: f64) -> Option<f64> {
        let t = Tail::of(values)?;
        (t.tail_pct >= p).then(|| percentile(&sorted(values), p))
    }
}

/// p99 robust to a passing stall: split the samples, in order, into as
/// many equal windows as hold [`WINDOW`] samples each and report the
/// median of the windows' p99. With fewer than three windows a median
/// rejects nothing, so the p99 of all samples is reported instead.
/// `None` below one window.
pub fn windowed_p99(values: &[f64]) -> Option<f64> {
    let windows = values.len() / WINDOW;
    if windows == 0 {
        return None;
    }
    if windows < 3 {
        return Tail::at(values, 99.0);
    }
    let n = values.len();
    let p99s: Vec<f64> = (0..windows)
        .map(|w| &values[w * n / windows..(w + 1) * n / windows])
        .map(|w| Tail::at(w, 99.0).expect("a window supports p99"))
        .collect();
    Some(median(&p99s))
}

/// Samples per p99 window: the fewest that support p99.
pub const WINDOW: usize = 1000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
    }

    #[test]
    fn tail_reports_the_count_and_the_chosen_percentile() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Tail::of(&values).expect("enough samples");
        assert_eq!(t.n, 1000);
        assert_eq!(t.tail_pct, 99.0);
        assert_eq!(t.tail, 990.0);
        // Ten samples lie beyond the reported p99.
        assert_eq!(values.iter().filter(|&&v| v > t.tail).count(), MIN_BEYOND);
        assert_eq!(Tail::at(&values[..500], 99.0), None);
        assert_eq!(Tail::at(&values, 99.0), Some(990.0));
    }

    #[test]
    fn median_of_even_count_is_the_mean_of_the_middle_two() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn windowed_p99_ignores_a_stall_in_one_window() {
        assert_eq!(windowed_p99(&[1.0; 999]), None);
        let mut values = vec![1.0; 3000];
        // A stall delays 20 requests of the middle window only.
        for v in &mut values[1500..1520] {
            *v = 50.0;
        }
        assert_eq!(Tail::at(&values, 99.0), Some(1.0));
        assert_eq!(windowed_p99(&values), Some(1.0));
        for v in &mut values[500..530] {
            *v = 50.0;
        }
        // Two of three windows stalled: the median window shows it.
        assert_eq!(windowed_p99(&values), Some(50.0));
        // 3500 samples make three windows of 1166, 1167 and 1167.
        let ramp: Vec<f64> = (0..3500).map(f64::from).collect();
        assert_eq!(windowed_p99(&ramp), Some(1166.0 + 1155.0));
        // Every window keeps at least 1000 samples, whatever the count.
        for n in [3000, 3001, 3999, 25_001, 25_999] {
            assert!(windowed_p99(&vec![1.0; n]).is_some(), "{n}");
        }
        // Two windows' worth is one sample: its own p99.
        assert_eq!(windowed_p99(&ramp[..2500]), Some(2474.0));
    }

    #[test]
    fn failures_sort_last_and_miss_any_limit() {
        let mut values: Vec<f64> = vec![1.0; 990];
        values.extend([f64::INFINITY; 10]);
        assert_eq!(Tail::at(&values, 99.0), Some(1.0));
        values.push(f64::INFINITY);
        assert_eq!(Tail::at(&values, 99.0), Some(f64::INFINITY));
    }
}
