//! Order statistics for the benchmark's reports.
//!
//! Timings are reported as a median plus the highest tail percentile that
//! has at least [`MIN_BEYOND`] samples beyond it; a tail estimated from
//! fewer samples is noise, so it is not printed at all. Quartiles follow
//! Python's `statistics.quantiles(values, n=4)` (its default "exclusive"
//! method), so the spreads this program prints match the ones computed
//! over its results.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(xs, n=4)` computes them (one sample: all three
/// equal it).
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// A tail percentile with the sample counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Samples it was estimated from.
    pub samples: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// Nearest-rank `pct`-th percentile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(xs: &[f64], pct: usize) -> Option<Tail> {
    assert!((1..100).contains(&pct), "tail percentile must be in 1..100");
    let n = xs.len();
    let rank = (pct * n).div_ceil(100);
    let beyond = n - rank;
    if rank == 0 || beyond < MIN_BEYOND {
        return None;
    }
    Some(Tail {
        value: sorted(xs)[rank - 1],
        samples: n,
        beyond,
    })
}

/// Smallest sample count for which [`tail`] reports the `pct`-th
/// percentile.
pub fn samples_for_tail(pct: usize) -> usize {
    (1..)
        .find(|&n| tail(&vec![0.0; n], pct).is_some())
        .expect("some n qualifies")
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), [1.5, 3.0, 4.5]);
        // statistics.quantiles([0.5, 2.0, 2.5, 9.0], n=4) == [0.875, 2.25, 7.375]
        assert_eq!(quartiles(&[9.0, 2.5, 2.0, 0.5]), [0.875, 2.25, 7.375]);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // Sample counts behind earlier, rejected tail figures.
        for n in [21, 36, 54] {
            assert_eq!(tail(&ramp(n), 90), None, "n={n} must not print a p90");
        }
        assert_eq!(tail(&ramp(99), 90), None);
        let t = tail(&ramp(100), 90).expect("n=100 qualifies");
        assert_eq!((t.value, t.samples, t.beyond), (90.0, 100, 10));
        let t = tail(&ramp(250), 90).expect("n=250 qualifies");
        assert_eq!((t.value, t.beyond), (225.0, 25));
        assert_eq!(samples_for_tail(90), 100);
    }

    #[test]
    fn tail_counts_beyond_the_rank() {
        // n=20: p50 rank 10, ten samples beyond.
        let t = tail(&ramp(20), 50).expect("qualifies");
        assert_eq!((t.value, t.beyond), (10.0, 10));
        assert_eq!(tail(&ramp(19), 50), None);
        // Order of the input does not matter.
        let mut r = ramp(100);
        r.reverse();
        assert_eq!(tail(&r, 90).map(|t| t.value), Some(90.0));
    }
}
