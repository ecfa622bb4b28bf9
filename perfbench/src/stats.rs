//! Summaries of repeated measurements, and the seeded generator the
//! benchmark draws its inputs and schedules from.

/// The median and the highest standard percentile that still has at least
/// ten samples beyond it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is (99.9, 99, 95, 90 or 50).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

/// Nearest-rank percentile of sorted samples (`pct` in 0..=100).
fn rank(sorted: &[f64], pct: f64) -> f64 {
    let idx = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // "At least ten beyond": n·(1 − p) ≥ 10, in integer per-mille.
    let tail_pct = [999, 990, 950, 900]
        .into_iter()
        .find(|&pm| n * (1000 - pm) / 1000 >= 10)
        .map_or(50.0, |pm| pm as f64 / 10.0);
    Some(Summary {
        n,
        p50: median(&s),
        tail_pct,
        tail: rank(&s, tail_pct),
    })
}

/// Percentile `pct` of `samples` (nearest rank); `None` when empty.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(rank(&s, pct))
}

/// Median (mean of the middle two for even counts); NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// SplitMix64: small, seedable, and stable across platforms, so the same
/// `--seed` yields the same request mix and arrival schedule everywhere.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.tail_pct, s.tail), (1000, 99.0, 990.0));
        assert_eq!(s.p50, 500.5);

        let s = summarize(&v[..200]).unwrap();
        assert_eq!((s.tail_pct, s.tail), (95.0, 190.0));
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (3, 2.0, 50.0, 2.0));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(summarize(&v).unwrap().tail_pct, 99.9);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn splitmix_is_reproducible_and_in_range() {
        let (mut a, mut b) = (SplitMix::new(7), SplitMix::new(7));
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
            let u = a.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(a.below(5) < 5);
            b.unit();
            b.below(5);
        }
    }
}
