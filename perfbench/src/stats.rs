//! Summary statistics over the benchmark's samples, and the rule every
//! reported metric name follows.

use std::ops::Range;

/// Fewest samples a reported tail percentile must have beyond it. With
/// fewer, the "percentile" is one or two outliers and does not repeat.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median (mean of the two middle values for an even count); NaN when
/// there are no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank index of quantile `q` among `n ≥ 1` sorted samples: the
/// first rank whose cumulative share reaches `q`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Number of samples strictly beyond the nearest-rank `q` quantile of `n`
/// samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The nearest-rank `q` quantile of `xs`, refused when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it (so a p90 needs ≥ 100).
pub fn tail_percentile(xs: &[f64], q: f64) -> Result<f64, String> {
    let have = beyond(xs.len(), q);
    if have < MIN_TAIL_SAMPLES {
        return Err(format!(
            "the {q} quantile of {} samples has {have} beyond it, {MIN_TAIL_SAMPLES} are needed",
            xs.len()
        ));
    }
    Ok(sorted(xs)[rank(xs.len(), q)])
}

/// Samples per block of the blocked statistics: a block's p90 then has
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub const BLOCK: usize = 100;

/// Consecutive blocks of [`BLOCK`] samples out of `n`, the remainder
/// joining the last block: one block when `n < 2·BLOCK`, none when `n = 0`.
pub fn blocks(n: usize) -> Vec<Range<usize>> {
    let count = (n / BLOCK).max(usize::from(n > 0));
    (0..count)
        .map(|b| b * BLOCK..if b + 1 == count { n } else { (b + 1) * BLOCK })
        .collect()
}

/// Median over consecutive [`blocks`] of each block's nearest-rank `q`
/// quantile. A shared host slows down for seconds at a time; a slow
/// stretch that covers fewer than half the blocks leaves this where it
/// was, where it would pull a whole-run tail up. Refused like
/// [`tail_percentile`] when a block has too few samples beyond its quantile.
pub fn blocked_percentile(xs: &[f64], q: f64) -> Result<f64, String> {
    if xs.is_empty() {
        return tail_percentile(xs, q);
    }
    let per_block = blocks(xs.len())
        .into_iter()
        .map(|r| tail_percentile(&xs[r], q))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&per_block))
}

/// True for a valid metric name: a letter or digit, then up to 63 more
/// characters from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(1000, 0.9), 100);
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        // Ranks 91..=100 lie beyond the 90th value.
        assert_eq!(tail_percentile(&xs, 0.9), Ok(90.0));
        assert!(tail_percentile(&xs[..99], 0.9).is_err());
        assert!(tail_percentile(&[], 0.9).is_err());
    }

    #[test]
    fn p50_tail_rule_holds_from_twenty_samples() {
        let xs: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.5), Ok(10.0));
        assert_eq!(tail_percentile(&xs[..20], 0.5), Ok(9.0));
        assert!(tail_percentile(&xs[..19], 0.5).is_err());
    }

    #[test]
    fn blocks_cover_every_sample_once() {
        assert!(blocks(0).is_empty());
        assert_eq!(blocks(42), vec![0..42]);
        assert_eq!(blocks(199), vec![0..199]);
        assert_eq!(blocks(200), vec![0..100, 100..200]);
        assert_eq!(blocks(350), vec![0..100, 100..200, 200..350]);
    }

    #[test]
    fn blocked_p90_ignores_a_slow_minority_of_blocks() {
        // Five blocks of 100 samples, each 1..=100 ms; the last two run
        // twice as slow, as on a host that stalls for a stretch.
        let xs: Vec<f64> = (0..500)
            .map(|i| (i % 100 + 1) as f64 * if i >= 300 { 2.0 } else { 1.0 })
            .collect();
        assert_eq!(blocked_percentile(&xs, 0.9), Ok(90.0));
        assert_eq!(tail_percentile(&xs, 0.9), Ok(150.0));
        // Every block must satisfy the tail rule on its own.
        assert!(blocked_percentile(&xs[..99], 0.9).is_err());
        assert_eq!(blocked_percentile(&xs[..150], 0.9), Ok(85.0));
        assert!(blocked_percentile(&[], 0.9).is_err());
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["step_s_p50", "comm.p2p_bytes", "fullbatch-hp-dblp", "9x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".step", "_x", "a b", "a/b", "ä", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }
}
