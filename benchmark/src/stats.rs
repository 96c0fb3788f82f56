//! Order statistics for timing samples.

use crate::json::Json;

/// Median and quartiles of one metric's samples, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`; an empty slice gives NaN everywhere, which the
    /// record writer prints as `null` and the run reports as a failure.
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        let [q1, median, q3] = quartiles(&sorted);
        Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
        }
    }

    /// A value with no distribution behind it (a count, a byte size).
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// About two standard errors of the median, as a share of it: what the
    /// samples of one run say about how well that run knows its own median.
    /// For roughly normal samples the median's standard error is
    /// 1.2533 sigma / sqrt(n) and sigma is the interquartile distance over
    /// 1.349, hence 0.93 x spread / sqrt(n) for one.
    pub fn median_uncertainty(&self) -> f64 {
        2.0 * 0.93 * self.spread() / (self.n.max(1) as f64).sqrt()
    }

    pub fn to_json(self, unit: &str) -> Json {
        Json::obj([
            ("value", Json::Num(self.median)),
            ("unit", Json::str(unit)),
            ("n", Json::Num(self.n as f64)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
        ])
    }
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// `[q1, median, q3]` of sorted data by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is the one the
/// acceptance check of this benchmark uses.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    match sorted.len() {
        0 => [f64::NAN; 3],
        1 => [sorted[0]; 3],
        n => [1, 2, 3].map(|i| {
            let pos = i * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 / 4.0 - j as f64;
            sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
        }),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(&sorted(samples))[1]
}

/// Nearest-rank percentile (`p` in 0..=1) of sorted data.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&sorted(&[3.0, 1.0, 2.0])), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn summary_orders_and_counts() {
        let s = Summary::of(&[5.0, 1.0, 3.0, f64::NAN, 2.0, 4.0]);
        assert_eq!((s.n, s.median), (5, 3.0));
        assert!(s.q1 < s.median && s.median < s.q3);
        assert!((s.spread() - (4.5 - 1.5) / 3.0).abs() < 1e-12);
        assert!((s.median_uncertainty() - 1.86 / 5f64.sqrt()).abs() < 1e-12);
        assert_eq!(Summary::single(7.0).median_uncertainty(), 0.0);
        assert!(Summary::of(&[]).median.is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
