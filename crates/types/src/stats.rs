//! Statistics toolkit: empirical CDFs, log-binned histograms, daily time
//! series and ranked tallies.
//!
//! These primitives back every figure and ranked table in the
//! reproduction: duration and intensity CDFs (Figures 2-4, 9-11), the
//! co-hosting histogram (Figure 6), the daily attack time series
//! (Figures 1, 5, 7) and, through [`tally`] and [`rank`], every per-key
//! count listed highest first (Tables 4, 6 and 8, the joint-attack ASes
//! and countries, the Section 8 lists).

use crate::time::DayIndex;
use std::collections::BTreeMap;

/// An empirical cumulative distribution function over `f64` samples.
///
/// Samples are collected unsorted and sorted once on first query (interior
/// mutability is avoided: [`Ecdf::freeze`] returns a queryable view).
///
/// ```
/// use dosscope_types::Ecdf;
///
/// let durations: Ecdf = [60.0, 120.0, 454.0, 900.0].into_iter().collect();
/// let cdf = durations.freeze();
/// assert_eq!(cdf.cdf(300.0), 0.5);      // half the attacks last <= 5 min
/// assert_eq!(cdf.median(), Some(120.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ecdf {
    samples: Vec<f64>,
}

impl Ecdf {
    /// New empty ECDF.
    pub fn new() -> Ecdf {
        Ecdf::default()
    }

    /// Add one sample. Non-finite samples are ignored.
    pub fn push(&mut self, x: f64) {
        if x.is_finite() {
            self.samples.push(x);
        }
    }

    /// Add many samples.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.push(x);
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sort and freeze into a queryable [`FrozenEcdf`].
    ///
    /// The sort is unstable under the IEEE total order (`-0.0` before
    /// `0.0`). Samples are finite, and values equal under that order are
    /// bit-identical, so the frozen samples depend only on the multiset
    /// pushed, never on push order.
    pub fn freeze(mut self) -> FrozenEcdf {
        self.samples.sort_unstable_by(f64::total_cmp);
        FrozenEcdf {
            sorted: self.samples,
        }
    }
}

impl FromIterator<f64> for Ecdf {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut e = Ecdf::new();
        e.extend(iter);
        e
    }
}

/// A sorted, immutable empirical distribution supporting CDF and quantile
/// queries.
#[derive(Debug, Clone)]
pub struct FrozenEcdf {
    sorted: Vec<f64>,
}

impl FrozenEcdf {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (the CDF evaluated at `x`); 0 for an
    /// empty distribution.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point returns the count of elements <= x because the
        // predicate is `v <= x` on a sorted slice.
        let n = self.sorted.partition_point(|v| *v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile for `q` in `[0, 1]` using the nearest-rank method;
    /// `None` for an empty distribution.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Evaluate the CDF at each of the given thresholds, returning
    /// `(threshold, fraction <= threshold)` pairs — the series format used
    /// by the figure renderers.
    pub fn curve(&self, thresholds: &[f64]) -> Vec<(f64, f64)> {
        thresholds.iter().map(|&t| (t, self.cdf(t))).collect()
    }

    /// Access the sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// A histogram with power-of-ten bins, used for the co-hosting group
/// distribution of Figure 6 (`n=1`, `1<n<=10`, `10<n<=100`, ...).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// `bins[0]` counts exact value 1; `bins[k]` (k >= 1) counts values in
    /// `(10^(k-1), 10^k]`.
    bins: Vec<u64>,
}

impl LogHistogram {
    /// A histogram with bins up to `(10^(max_decade-1), 10^max_decade]`.
    pub fn new(max_decade: u32) -> LogHistogram {
        LogHistogram {
            bins: vec![0; max_decade as usize + 1],
        }
    }

    /// Insert a positive count; zero is ignored (an IP with no associated
    /// Web sites does not appear in Figure 6).
    pub fn push(&mut self, value: u64) {
        if value == 0 {
            return;
        }
        let idx = if value == 1 {
            0
        } else {
            // Smallest k with value <= 10^k.
            let mut k = 1usize;
            let mut bound = 10u64;
            while value > bound {
                k += 1;
                bound = bound.saturating_mul(10);
            }
            k
        };
        let idx = idx.min(self.bins.len() - 1);
        self.bins[idx] += 1;
    }

    /// The raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Human-readable bin labels matching the figure's x axis.
    pub fn labels(&self) -> Vec<String> {
        (0..self.bins.len())
            .map(|k| {
                if k == 0 {
                    "n=1".to_string()
                } else if k == 1 {
                    "1<n<=10".to_string()
                } else {
                    format!("10^{}<n<=10^{}", k - 1, k)
                }
            })
            .collect()
    }

    /// Total number of inserted values.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }
}

/// A value-per-day series over the study window, used for Figures 1, 5, 7.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    values: Vec<f64>,
}

impl TimeSeries {
    /// A zeroed series covering `days` days.
    pub fn zeros(days: u32) -> TimeSeries {
        TimeSeries {
            values: vec![0.0; days as usize],
        }
    }

    /// Number of days covered.
    pub fn days(&self) -> u32 {
        self.values.len() as u32
    }

    /// Add `v` to the bucket for `day` (out-of-window days are ignored).
    pub fn add(&mut self, day: DayIndex, v: f64) {
        if let Some(slot) = self.values.get_mut(day.0 as usize) {
            *slot += v;
        }
    }

    /// Set the bucket for `day`.
    pub fn set(&mut self, day: DayIndex, v: f64) {
        if let Some(slot) = self.values.get_mut(day.0 as usize) {
            *slot = v;
        }
    }

    /// Value at `day` (0 outside the window).
    pub fn get(&self, day: DayIndex) -> f64 {
        self.values.get(day.0 as usize).copied().unwrap_or(0.0)
    }

    /// The underlying per-day values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean over all days.
    pub fn daily_mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Sum over all days.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Maximum daily value with its day, or `None` for an empty series.
    pub fn peak(&self) -> Option<(DayIndex, f64)> {
        self.values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("series values are finite"))
            .map(|(i, v)| (DayIndex(i as u32), *v))
    }
}

/// Count each key and rank the counts with [`rank`]: the tally behind
/// every top-N table and share list (Tables 4, 6 and 8, the joint-attack
/// ASes and countries, the Section 8 organisation and party lists).
///
/// ```
/// use dosscope_types::tally;
///
/// let ranked = tally(["NTP", "DNS", "NTP", "SSDP", "DNS"]);
/// assert_eq!(ranked, [("DNS", 2), ("NTP", 2), ("SSDP", 1)]);
/// ```
pub fn tally<K: Ord>(keys: impl IntoIterator<Item = K>) -> Vec<(K, u64)> {
    let mut counts: BTreeMap<K, u64> = BTreeMap::new();
    for key in keys {
        *counts.entry(key).or_default() += 1;
    }
    rank(counts)
}

/// Order `(key, count)` pairs by count descending, then by key ascending,
/// so equal counts rank the same way on every run.
pub fn rank<K: Ord>(pairs: impl IntoIterator<Item = (K, u64)>) -> Vec<(K, u64)> {
    let mut ranked: Vec<(K, u64)> = pairs.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basics() {
        let e: Ecdf = [5.0, 1.0, 3.0, 2.0, 4.0].into_iter().collect();
        let f = e.freeze();
        assert_eq!(f.len(), 5);
        assert_eq!(f.cdf(0.0), 0.0);
        assert_eq!(f.cdf(3.0), 0.6);
        assert_eq!(f.cdf(100.0), 1.0);
        assert_eq!(f.median(), Some(3.0));
        assert_eq!(f.mean(), Some(3.0));
        assert_eq!(f.min(), Some(1.0));
        assert_eq!(f.max(), Some(5.0));
        assert_eq!(f.quantile(0.0), Some(1.0));
        assert_eq!(f.quantile(1.0), Some(5.0));
    }

    #[test]
    fn ecdf_freeze_ignores_push_order() {
        let samples = [
            3.5, 0.0, -0.0, 1.0, 3.5, -2.0, 0.0, -0.0, 1e300, -1e-300, 1.0, -0.0,
        ];
        let bits =
            |e: Ecdf| -> Vec<u64> { e.freeze().samples().iter().map(|x| x.to_bits()).collect() };
        let want = bits(samples.into_iter().collect());
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(want, sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        // Fisher-Yates with a fixed LCG: many distinct push orders.
        let mut order = samples.to_vec();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..200 {
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            assert_eq!(
                bits(order.iter().copied().collect()),
                want,
                "push order {order:?}"
            );
        }
    }

    #[test]
    fn ecdf_ignores_non_finite() {
        let mut e = Ecdf::new();
        e.push(f64::NAN);
        e.push(f64::INFINITY);
        e.push(1.0);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn ecdf_empty() {
        let f = Ecdf::new().freeze();
        assert!(f.is_empty());
        assert_eq!(f.cdf(1.0), 0.0);
        assert_eq!(f.quantile(0.5), None);
    }

    #[test]
    fn ecdf_curve() {
        let f: FrozenEcdf = [1.0, 2.0, 3.0, 4.0].into_iter().collect::<Ecdf>().freeze();
        let c = f.curve(&[0.5, 2.0, 10.0]);
        assert_eq!(c, vec![(0.5, 0.0), (2.0, 0.5), (10.0, 1.0)]);
    }

    #[test]
    fn log_histogram_binning() {
        let mut h = LogHistogram::new(7);
        h.push(1); // bin 0
        h.push(2); // bin 1 (1 < n <= 10)
        h.push(10); // bin 1
        h.push(11); // bin 2
        h.push(100); // bin 2
        h.push(3_600_000); // bin 7 (10^6 < n <= 10^7)
        h.push(0); // ignored
        assert_eq!(h.bins(), &[1, 2, 2, 0, 0, 0, 0, 1]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.labels()[0], "n=1");
        assert_eq!(h.labels()[1], "1<n<=10");
        assert_eq!(h.labels()[7], "10^6<n<=10^7");
    }

    #[test]
    fn log_histogram_clamps_overflow() {
        let mut h = LogHistogram::new(2);
        h.push(1_000_000);
        assert_eq!(h.bins(), &[0, 0, 1]);
    }

    #[test]
    fn timeseries_basics() {
        let mut ts = TimeSeries::zeros(5);
        ts.add(DayIndex(0), 2.0);
        ts.add(DayIndex(0), 1.0);
        ts.add(DayIndex(4), 10.0);
        ts.add(DayIndex(9), 99.0); // out of window, ignored
        assert_eq!(ts.get(DayIndex(0)), 3.0);
        assert_eq!(ts.total(), 13.0);
        assert_eq!(ts.peak(), Some((DayIndex(4), 10.0)));
        assert!((ts.daily_mean() - 13.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn tally_counts_and_breaks_ties_by_key() {
        let ranked = tally([3u8, 1, 2, 3, 2, 9, 3]);
        assert_eq!(ranked, [(3, 3), (2, 2), (1, 1), (9, 1)]);
        assert_eq!(ranked.iter().map(|&(_, n)| n).sum::<u64>(), 7);
        assert!(tally(std::iter::empty::<u8>()).is_empty());
    }

    #[test]
    fn rank_orders_by_count_then_key() {
        let ranked = rank([("b", 5), ("c", 7), ("a", 5), ("d", 0)]);
        assert_eq!(ranked, [("c", 7), ("a", 5), ("b", 5), ("d", 0)]);
        assert!(rank(Vec::<(u8, u64)>::new()).is_empty());
    }
}
