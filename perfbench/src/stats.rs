//! Order statistics: medians, the tail-percentile rule and quartiles.

/// Percentiles the tail rule may pick, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail reading: the percentile the rule picked and its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub samples: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the sample at 1-based
/// rank `ceil(p/100 * n)`.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median (nearest-rank p50); `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    v[rank(v.len(), 50.0) - 1]
}

/// The highest percentile of [`TAIL_LADDER`], at most `cap`, that has at
/// least ten samples beyond it.  The cap keeps a workload's tail on one
/// percentile when a faster program completes more operations in the same
/// run; with fewer than twenty samples the rule falls back to p50.
pub fn tail(samples: &[f64], cap: f64) -> Tail {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return Tail {
            pct: 50.0,
            value: 0.0,
            samples: 0,
        };
    }
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| n - rank(n, p) >= 10)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: v[rank(n, pct) - 1],
        samples: n,
    }
}

/// Quartiles `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&ramp(100), 99.0).pct, 90.0);
        assert_eq!(tail(&ramp(100), 99.0).value, 90.0);
        assert_eq!(tail(&ramp(200), 99.0).pct, 95.0);
        assert_eq!(tail(&ramp(1000), 99.0).pct, 99.0);
        assert_eq!(tail(&ramp(40), 99.0).pct, 75.0);
        assert_eq!(tail(&ramp(39), 99.0).pct, 50.0);
        assert_eq!(tail(&ramp(20), 99.0).pct, 50.0);
    }

    #[test]
    fn tail_respects_the_cap_and_falls_back_to_the_median() {
        assert_eq!(tail(&ramp(1000), 90.0).pct, 90.0);
        assert_eq!(tail(&ramp(1000), 75.0).value, 750.0);
        let few = tail(&ramp(5), 99.0);
        assert_eq!((few.pct, few.value, few.samples), (50.0, 3.0, 5));
        assert_eq!(tail(&[], 99.0).value, 0.0);
    }

    #[test]
    fn median_is_order_independent() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_iqr(&ramp(10)), Some(5.5 / 5.5));
    }
}
