//! Sample summaries and the two-set comparison rule behind
//! `dosbench --compare`.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the exclusive method of Python's
    /// `statistics.quantiles(values, n=4)`, so the spreads printed here
    /// are the ones a reader recomputes from the samples. A single
    /// sample is its own median and quartiles. `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = match n {
            0 => return None,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        if n == 1 {
            return Some(Summary {
                median,
                q1: median,
                q3: median,
                n,
            });
        }
        let quartile = |i: usize| {
            let m = i * (n + 1);
            let j = (m / 4).clamp(1, n - 1);
            let delta = m as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        };
        Some(Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        })
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The verdict for one (workload, end-to-end metric) pair of two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare set `b` against set `a`.
///
/// The allowance is `bound` times A's median, but never less than
/// `floor` (absolute, in the metric's unit). When either set's
/// inter-quartile distance exceeds the allowance the pair is
/// unresolved, unless every B sample beats every A sample. Otherwise B
/// is worse (or better) when its median moved the wrong (right) way by
/// more than the allowance, and unchanged in between.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64, floor: f64) -> Verdict {
    let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
        return Verdict::Unresolved;
    };
    let allowance = (bound * sa.median.abs()).max(floor);
    // Positive when B is worse than A.
    let worse_by = |x: f64, y: f64| if lower_is_better { y - x } else { x - y };
    let spread = (sa.q3 - sa.q1).max(sb.q3 - sb.q1);
    if spread > allowance {
        let b_always_wins = a.iter().all(|&x| b.iter().all(|&y| worse_by(x, y) < 0.0));
        return if b_always_wins {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let moved = worse_by(sa.median, sb.median);
    if moved > allowance {
        Verdict::Worse
    } else if -moved > allowance {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 98.0), 98.0);
        assert_eq!(percentile(&[7.0], 98.0), 7.0);
    }

    const TIGHT_A: [f64; 5] = [1.00, 1.01, 0.99, 1.00, 1.02];

    #[test]
    fn small_moves_are_unchanged() {
        let b = [1.03, 1.04, 1.02, 1.03, 1.05];
        assert_eq!(verdict(&TIGHT_A, &b, true, 0.10, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn moves_past_the_bound_are_worse_or_better() {
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(verdict(&TIGHT_A, &slower, true, 0.10, 0.0), Verdict::Worse);
        let faster = [0.80, 0.81, 0.79, 0.80, 0.82];
        assert_eq!(verdict(&TIGHT_A, &faster, true, 0.10, 0.0), Verdict::Better);
        // For higher-is-better metrics the directions swap.
        assert_eq!(
            verdict(&TIGHT_A, &slower, false, 0.10, 0.0),
            Verdict::Better
        );
        assert_eq!(verdict(&TIGHT_A, &faster, false, 0.10, 0.0), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_always_wins() {
        let noisy_a = [1.0, 1.5, 0.8, 1.3, 0.9];
        let noisy_b = [1.1, 1.4, 0.7, 1.2, 1.0];
        assert_eq!(
            verdict(&noisy_a, &noisy_b, true, 0.10, 0.0),
            Verdict::Unresolved
        );
        // Wide, but every B run is faster than every A run.
        let all_faster = [0.2, 0.5, 0.3, 0.6, 0.4];
        assert_eq!(
            verdict(&noisy_a, &all_faster, true, 0.10, 0.0),
            Verdict::Better
        );
        // Every B run slower is still unresolved: only wins override.
        let all_slower = [2.0, 2.5, 2.2, 2.9, 2.1];
        assert_eq!(
            verdict(&noisy_a, &all_slower, true, 0.10, 0.0),
            Verdict::Unresolved
        );
    }

    #[test]
    fn the_floor_absorbs_tiny_absolute_moves() {
        let a = [0.010, 0.010, 0.010];
        let b = [0.015, 0.015, 0.015];
        assert_eq!(verdict(&a, &b, true, 0.10, 0.0), Verdict::Worse);
        assert_eq!(verdict(&a, &b, true, 0.10, 0.02), Verdict::Unchanged);
    }

    #[test]
    fn deterministic_counts_with_zero_bound() {
        assert_eq!(
            verdict(&[69.0], &[69.0], false, 0.0, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&[69.0], &[68.0], false, 0.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(&[68.0], &[69.0], false, 0.0, 0.0), Verdict::Better);
    }
}
