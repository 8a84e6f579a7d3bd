//! Order statistics over round times.
//!
//! Interference on a shared host only ever makes a round slower, so the
//! gated statistic is the *fast decile* (10th percentile): it moves when
//! the code gets slower or faster and barely moves when a neighbour is
//! noisy. The median and the tail are reported next to it so a change that
//! slows more than a tenth of the rounds, or only the tail, still shows.

/// Ascending copy of `samples`. NaNs never occur (all samples are elapsed
/// times), so `total_cmp` is only there to make the sort total.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 10th-percentile sample.
pub fn fast_decile(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.10)
}

/// The 50th-percentile sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.50)
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`. With so few samples that this would not even be
/// above the median (short traced and smoke runs) there is no tail to speak
/// of, and the maximum is returned as the 100th.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "tail of no samples");
    if n < 22 {
        return (100.0, s[n - 1]);
    }
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, s[idx])
}

/// Fast decile, median and tail of one run's round times.
#[derive(Copy, Clone, Debug)]
pub struct Timing {
    pub fast: f64,
    pub median: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

pub fn timing(round_secs: &[f64]) -> Timing {
    let (tail_pct, tail) = tail(round_secs);
    Timing {
        fast: fast_decile(round_secs),
        median: median(round_secs),
        tail,
        tail_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_decile_is_the_nearest_rank_tenth() {
        // 1..=20 shuffled: a tenth of 20 samples is 2, so the 2nd smallest.
        let v: Vec<f64> = [
            7, 20, 1, 13, 2, 19, 3, 18, 4, 17, 5, 16, 6, 15, 8, 14, 9, 12, 10, 11,
        ]
        .iter()
        .map(|&x| x as f64)
        .collect();
        assert_eq!(fast_decile(&v), 2.0);
        assert_eq!(median(&v), 10.0);
        // 25 samples: ceil(2.5) = 3rd smallest.
        let w: Vec<f64> = (1..=25).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&w), 3.0);
        // Fewer than ten samples: the minimum.
        assert_eq!(fast_decile(&[5.0, 3.0, 4.0]), 3.0);
    }

    #[test]
    fn fast_decile_ignores_one_sided_noise() {
        let quiet: Vec<f64> = (0..100).map(|i| 10.0 + 0.001 * f64::from(i)).collect();
        let mut noisy = quiet.clone();
        // Eighty of the hundred rounds hit interference and run 1.5x slower.
        for x in noisy.iter_mut().skip(20) {
            *x *= 1.5;
        }
        assert_eq!(fast_decile(&quiet), fast_decile(&noisy));
        assert!(median(&noisy) > 1.4 * median(&quiet));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (pct, value) = tail(&v);
        assert_eq!(value, 190.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(pct, 95.0);
        // 1000 samples reach the 99th percentile exactly.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&w), (99.0, 990.0));
        // 22 samples: the 12th is the first above the median with ten beyond.
        let x: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(tail(&x), (100.0 * 12.0 / 22.0, 12.0));
        // Fewer: no tail to speak of, fall back to the maximum.
        let y: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&y), (100.0, 21.0));
        assert_eq!(tail(&[3.0, 9.0, 1.0]), (100.0, 9.0));
    }
}
