//! Sample statistics and name rules for the benchmark report.
//!
//! Every reported timing is a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, computed from the
//! raw samples the run kept in memory (never from histogram buckets).

/// Percentiles a tail may be quoted at, in hundredths of a percent.
const TAIL_LADDER: [u32; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples a quoted percentile must have strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Median, tail and sample count of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples when `n` is even).
    pub median: f64,
    /// `(percentile, value)` of the highest ladder percentile with at
    /// least [`MIN_BEYOND`] samples beyond it; `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
}

/// Nearest rank (1-based) of percentile `hundredths` among `n` samples.
fn rank(n: usize, hundredths: u32) -> usize {
    (n * hundredths as usize).div_ceil(10_000).max(1)
}

/// The highest ladder percentile (in hundredths of a percent) that has at
/// least [`MIN_BEYOND`] of `n` samples beyond its nearest rank.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(n, p).min(n) >= MIN_BEYOND)
}

/// The nearest-rank percentile `hundredths` (in hundredths of a percent)
/// of unsorted samples; `None` when empty.
pub fn percentile(samples: &[f64], hundredths: u32) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(rank(sorted.len(), hundredths) - 1).copied()
}

/// Median of unsorted samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.median)
}

/// Summarize raw samples; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = match n {
        0 => return None,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    };
    let tail = tail_percentile(n).map(|p| (p as f64 / 100.0, sorted[rank(n, p) - 1]));
    Some(Summary { n, median, tail })
}

/// Render a summary's tail as `p90=1.25`, or `-` when too few samples.
pub fn render_tail(summary: &Summary) -> String {
    match summary.tail {
        Some((p, v)) => format!("p{p}={v:.6}"),
        None => "-".to_string(),
    }
}

/// A metric name: starts with a letter or digit, at most 64 characters of
/// `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(allowed)
}

/// A unit: 1 to 16 characters of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(allowed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so summarize must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None, "median has only 9 beyond");
        assert_eq!(tail_percentile(20), Some(5_000));
        assert_eq!(tail_percentile(99), Some(5_000), "p90 of 99 has 9 beyond");
        assert_eq!(tail_percentile(100), Some(9_000));
        assert_eq!(tail_percentile(999), Some(9_000));
        assert_eq!(tail_percentile(1_000), Some(9_900));
        assert_eq!(tail_percentile(10_000), Some(9_990));
        assert_eq!(tail_percentile(100_000), Some(9_999));
        assert_eq!(
            tail_percentile(10_000_000),
            Some(9_999),
            "ladder tops out at p99.99"
        );
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let s = summarize(&ramp(100)).expect("samples");
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(
            s.tail,
            Some((90.0, 90.0)),
            "10 samples (91..=100) lie beyond p90"
        );

        let s = summarize(&ramp(1_000)).expect("samples");
        assert_eq!(s.tail, Some((99.0, 990.0)));

        assert_eq!(percentile(&ramp(10_000), 9_990), Some(9_990.0));
        assert_eq!(percentile(&[], 9_990), None);

        let s = summarize(&ramp(5)).expect("samples");
        assert_eq!((s.n, s.median, s.tail), (5, 3.0, None));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn metric_names_follow_the_report_alphabet() {
        for ok in [
            "wall_s",
            "stage.crawl_campaign_s",
            "httpd.rtt_p999_us",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok} should be valid");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/ed",
            "pct%",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?} should be rejected");
        }
        for ok in ["s", "ms", "1/s", "MB/s", "count", "%", "ratio"] {
            assert!(valid_unit(ok), "{ok} should be a valid unit");
        }
        for bad in ["", "m s", "seconds-per-request", "µs"] {
            assert!(!valid_unit(bad), "{bad:?} should be rejected");
        }
    }
}
