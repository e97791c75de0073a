//! Order statistics for the reported timings.

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Candidate tail percentiles, in tenths of a percent.
const TAIL_PERMILLE: [u64; 3] = [900, 990, 999];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of a sample set: its value and which order statistic it is.
#[derive(Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// `p90`, `p99`, `p99.9` or `max`.
    pub label: String,
}

/// The highest of p90/p99/p99.9 (nearest rank) with at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it; the maximum when even
/// p90 has fewer (under 100 samples). The ladder is coarse so that the chosen percentile
/// stays put while the sample count drifts with machine speed.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as u64;
    for &p in TAIL_PERMILLE.iter().rev() {
        let rank = (p * n).div_ceil(1000);
        if rank >= 1 && (n - rank) as usize >= TAIL_MIN_BEYOND {
            let label = if p % 10 == 0 {
                format!("p{}", p / 10)
            } else {
                format!("p{}.{}", p / 10, p % 10)
            };
            return Tail {
                value: v[rank as usize - 1],
                label,
            };
        }
    }
    Tail {
        value: v.last().copied().unwrap_or(0.0),
        label: "max".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        // Reverse order: the rule must not depend on input order.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_maximum_below_a_hundred_samples() {
        for n in [1, 2, 5, 19, 20, 99] {
            let t = tail(&seq(n));
            assert_eq!(
                t,
                Tail {
                    value: n as f64,
                    label: "max".into()
                },
                "n = {n}"
            );
        }
        assert_eq!(tail(&[]).label, "max");
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // n = 99: p90 is rank 90 with 9 beyond; n = 100: rank 90, 10 beyond.
        assert_eq!(
            tail(&seq(100)),
            Tail {
                value: 90.0,
                label: "p90".into()
            }
        );
        assert_eq!(tail(&seq(999)).label, "p90");
        assert_eq!(
            tail(&seq(1000)),
            Tail {
                value: 990.0,
                label: "p99".into()
            }
        );
        assert_eq!(
            tail(&seq(10_000)),
            Tail {
                value: 9990.0,
                label: "p99.9".into()
            }
        );
    }

    #[test]
    fn every_reported_tail_has_ten_samples_beyond_it() {
        for n in 100..1200 {
            let t = tail(&seq(n));
            let beyond = seq(n).iter().filter(|&&x| x > t.value).count();
            assert!(
                beyond >= TAIL_MIN_BEYOND,
                "n = {n}: {t:?} has {beyond} beyond"
            );
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
