//! Sampling primitives for the ecosystem generator: a piecewise
//! log-linear inverse-CDF sampler anchored directly on the paper's
//! published distribution curves, a truncated log-normal, a heavy-tailed
//! repeat-count sampler and a small weighted-choice helper.

use rand::Rng;

/// A distribution defined by CDF anchor points `(value, cdf)` with
/// log-linear interpolation between anchors.
///
/// This is how the generator encodes the paper's figures directly: e.g.
/// Figure 3's intensity CDF is reproduced by anchoring (1 pps, 0.50),
/// (2 pps, 0.70), (10 pps, 0.83), ... and sampling by inverse transform.
/// Values interpolate geometrically between anchors (log-uniform within a
/// segment), which matches the log-x axes of the paper's CDF plots.
#[derive(Debug, Clone)]
pub struct AnchorDist {
    /// `(value, cdf)` pairs; values and cdfs strictly increasing,
    /// first cdf 0, last cdf 1.
    anchors: Vec<(f64, f64)>,
}

impl AnchorDist {
    /// Build from anchor points. Panics on malformed anchors (this is
    /// developer-provided calibration data, not user input).
    pub fn new(anchors: &[(f64, f64)]) -> AnchorDist {
        assert!(anchors.len() >= 2, "need at least two anchors");
        assert_eq!(anchors[0].1, 0.0, "first anchor must have cdf 0");
        assert!(
            (anchors.last().expect("non-empty").1 - 1.0).abs() < 1e-12,
            "last anchor must have cdf 1"
        );
        for w in anchors.windows(2) {
            assert!(w[0].0 > 0.0, "values must be positive (log scale)");
            assert!(w[1].0 > w[0].0, "values must increase");
            assert!(w[1].1 >= w[0].1, "cdf must be non-decreasing");
        }
        AnchorDist {
            anchors: anchors.to_vec(),
        }
    }

    /// Inverse-CDF sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        self.quantile(u)
    }

    /// The value at CDF position `u` (clamped to [0, 1]).
    pub fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let anchors = &self.anchors;
        for w in anchors.windows(2) {
            let (v0, c0) = w[0];
            let (v1, c1) = w[1];
            if u <= c1 {
                if c1 == c0 {
                    return v1;
                }
                let t = (u - c0) / (c1 - c0);
                // Log-linear interpolation.
                return (v0.ln() + t * (v1.ln() - v0.ln())).exp();
            }
        }
        anchors.last().expect("non-empty").0
    }

    /// The CDF at `x` (piecewise log-linear; 0 below the first anchor, 1
    /// above the last).
    pub fn cdf(&self, x: f64) -> f64 {
        let anchors = &self.anchors;
        if x <= anchors[0].0 {
            return 0.0;
        }
        for w in anchors.windows(2) {
            let (v0, c0) = w[0];
            let (v1, c1) = w[1];
            if x <= v1 {
                let t = (x.ln() - v0.ln()) / (v1.ln() - v0.ln());
                return c0 + t * (c1 - c0);
            }
        }
        1.0
    }

    /// Approximate mean via the log-uniform segment means
    /// (`(b-a)/ln(b/a)` per segment, weighted by segment mass).
    pub fn mean(&self) -> f64 {
        self.anchors
            .windows(2)
            .map(|w| {
                let (a, c0) = w[0];
                let (b, c1) = w[1];
                let mass = c1 - c0;
                if mass == 0.0 {
                    return 0.0;
                }
                let seg_mean = if (b - a).abs() < f64::EPSILON {
                    a
                } else {
                    (b - a) / (b / a).ln()
                };
                mass * seg_mean
            })
            .sum()
    }
}

/// Sample a log-normal with the given `median` and `sigma` (of the
/// underlying normal), truncated below at `min` by resampling (Box-Muller;
/// two uniforms per draw).
pub fn lognormal_min<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64, min: f64) -> f64 {
    let mu = median.ln();
    loop {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let x = (mu + sigma * z).exp();
        if x >= min {
            return x;
        }
    }
}

/// Heavy-tailed repeat count: `k = ceil(u^(-1/alpha))` capped at `max` — a
/// discretised Pareto with index `alpha`. Smaller `alpha` means a heavier
/// tail (more repeat attacks on the same target): the continuous mean is
/// `alpha/(alpha-1)`, so `alpha` ≈ 2.2 gives a mean around 2 and
/// `alpha` ≈ 1.25 around 5 (the cap trims both slightly).
pub fn repeat_count<R: Rng + ?Sized>(rng: &mut R, alpha: f64, max: u32) -> u32 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let k = u.powf(-1.0 / alpha).ceil();
    (k as u32).clamp(1, max)
}

/// Weighted choice over a small fixed slice: returns an index.
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    weighted_index_by(rng, weights.iter().copied())
}

/// [`weighted_index`] over weights given by an iterator, which is walked
/// twice (once for the total): the same draw and the same index as the
/// slice form, without collecting the weights.
pub(crate) fn weighted_index_by<R, I>(rng: &mut R, weights: I) -> usize
where
    R: Rng + ?Sized,
    I: Iterator<Item = f64> + Clone,
{
    let total: f64 = weights.clone().sum();
    debug_assert!(total > 0.0, "weights must not all be zero");
    let mut x = rng.gen_range(0.0..total);
    let mut last = 0;
    for (i, w) in weights.enumerate() {
        if x < w {
            return i;
        }
        x -= w;
        last = i;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn anchor_quantiles_hit_anchors() {
        let d = AnchorDist::new(&[(1.0, 0.0), (10.0, 0.5), (100.0, 1.0)]);
        assert!((d.quantile(0.0) - 1.0).abs() < 1e-9);
        assert!((d.quantile(0.5) - 10.0).abs() < 1e-9);
        assert!((d.quantile(1.0) - 100.0).abs() < 1e-9);
        // Midway in log space.
        let q25 = d.quantile(0.25);
        assert!((q25 - 10f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn anchor_cdf_inverts_quantile() {
        let d = AnchorDist::new(&[(0.5, 0.0), (2.0, 0.4), (50.0, 0.9), (1000.0, 1.0)]);
        for u in [0.1, 0.3, 0.5, 0.77, 0.95] {
            let x = d.quantile(u);
            assert!((d.cdf(x) - u).abs() < 1e-9, "u={u}");
        }
        assert_eq!(d.cdf(0.1), 0.0);
        assert_eq!(d.cdf(2000.0), 1.0);
    }

    #[test]
    fn anchor_samples_match_cdf() {
        let d = AnchorDist::new(&[(1.0, 0.0), (2.0, 0.7), (10.0, 0.83), (100.0, 1.0)]);
        let mut r = rng();
        let n = 20_000;
        let below2 = (0..n).filter(|_| d.sample(&mut r) <= 2.0).count();
        let frac = below2 as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.02, "P(<=2)≈0.7, got {frac}");
    }

    #[test]
    fn anchor_mean_formula() {
        // Log-uniform on [1, e]: mean = (e-1)/1 = e-1.
        let d = AnchorDist::new(&[(1.0, 0.0), (std::f64::consts::E, 1.0)]);
        assert!((d.mean() - (std::f64::consts::E - 1.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "values must increase")]
    fn anchor_rejects_nonincreasing() {
        AnchorDist::new(&[(1.0, 0.0), (1.0, 1.0)]);
    }

    #[test]
    fn lognormal_median_and_truncation() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| lognormal_min(&mut r, 454.0, 1.9, 60.0)).collect();
        assert!(samples.iter().all(|&x| x >= 60.0));
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[n / 2];
        // Truncation at 60 pushes the median up slightly from 454.
        assert!(
            (400.0..700.0).contains(&median),
            "median ≈ 454+, got {median}"
        );
    }

    #[test]
    fn repeat_count_bounds_and_mean() {
        let mut r = rng();
        let n = 50_000;
        let ks: Vec<u32> = (0..n).map(|_| repeat_count(&mut r, 2.2, 100)).collect();
        assert!(ks.iter().all(|&k| (1..=100).contains(&k)));
        let mean = ks.iter().map(|&k| k as f64).sum::<f64>() / n as f64;
        assert!((1.5..3.0).contains(&mean), "mean ≈ 2, got {mean}");
        let heavy: Vec<u32> = (0..n).map(|_| repeat_count(&mut r, 1.2, 200)).collect();
        let hmean = heavy.iter().map(|&k| k as f64).sum::<f64>() / n as f64;
        assert!(hmean > mean, "smaller alpha gives heavier tail");
    }

    #[test]
    fn weighted_index_proportions() {
        let mut r = rng();
        let weights = [0.5, 0.3, 0.2];
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[weighted_index(&mut r, &weights)] += 1;
        }
        for (i, w) in weights.iter().enumerate() {
            let frac = counts[i] as f64 / 30_000.0;
            assert!((frac - w).abs() < 0.02, "index {i}: {frac} vs {w}");
        }
    }
}
