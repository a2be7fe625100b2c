//! Order statistics over small sample sets.

/// Median and quartiles of a sample set, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what the
/// driver that accepts this benchmark computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Inter-quartile distance as a share of the median (0 for a zero
    /// median, where a share has no meaning).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of `values`; a single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |m: usize| -> f64 {
        // Exclusive method: position m·(n+1)/4 in 1-based ranks, clamped
        // to the sample range, linearly interpolated.
        let pos = m * (n + 1);
        let j = (pos / 4).clamp(1, n.max(2) - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        let lo = v[j - 1];
        let hi = v[j.min(n - 1)];
        lo + (hi - lo) * delta
    };
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
            n,
        };
    }
    Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
        n,
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample set, the
/// rule `LoadDriver::latency_percentile` uses.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_nearest_rank(samples: &mut [u32], q: f64) -> u32 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
    samples[rank.min(samples.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_and_spread() {
        let q = quartiles(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(q.spread(), 0.0);
        let q = quartiles(&[9.0, 10.0, 11.0]);
        assert!((q.spread() - 0.2).abs() < 1e-12);
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0]).median, 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = vec![50, 10, 40, 20, 30];
        assert_eq!(percentile_nearest_rank(&mut s, 0.5), 30);
        assert_eq!(percentile_nearest_rank(&mut s, 0.0), 10);
        assert_eq!(percentile_nearest_rank(&mut s, 1.0), 50);
        assert_eq!(percentile_nearest_rank(&mut [7], 0.99), 7);
    }
}
