//! Order statistics over request latencies.
//!
//! A request that failed or was refused has no latency: it is recorded
//! as `None` and sorts above every finite latency, so it counts as
//! missing any latency limit a percentile is compared against.

use std::time::Duration;

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Latencies in seconds, failures as `+∞`, sorted ascending.
pub fn sorted_seconds(latencies: &[Option<Duration>]) -> Vec<f64> {
    let mut v: Vec<f64> = latencies
        .iter()
        .map(|l| l.map_or(f64::INFINITY, |d| d.as_secs_f64()))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0 < p < 100) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Fewest samples for which [`percentile`] reports `p`.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            rank >= 1 && n - rank >= MIN_BEYOND
        })
        .expect("some sample count supports every p < 100")
}

/// The median over consecutive windows of `window` latencies (a short
/// last window dropped) of each window's percentile `p`, or `None` when
/// no window reports it. A burst of host noise moves the percentile of
/// the windows it hits, not the median over windows.
pub fn windowed_percentile(latencies: &[Option<Duration>], window: usize, p: f64) -> Option<f64> {
    let per_window: Vec<f64> = latencies
        .chunks_exact(window.max(1))
        .filter_map(|w| percentile(&sorted_seconds(w), p))
        .collect();
    (!per_window.is_empty()).then(|| median(&per_window))
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Option<Duration> {
        Some(Duration::from_millis(v))
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples has exactly 10 above rank 90: reported.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        // 99 samples leave only 9 above rank 90: withheld.
        assert_eq!(percentile(&hundred[..99], 90.0), None);
        // p99 needs a thousand.
        assert_eq!(percentile(&hundred, 99.0), None);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
    }

    #[test]
    fn a_failed_request_misses_every_latency_limit() {
        // 19 fast answers and one failure: the failure is the slowest
        // sample, above any finite limit.
        let mut lat: Vec<Option<Duration>> = (0..19).map(|_| ms(1)).collect();
        lat.push(None);
        let sorted = sorted_seconds(&lat);
        assert_eq!(sorted.last(), Some(&f64::INFINITY));
        assert!(sorted.iter().filter(|&&s| s > 3600.0).count() == 1);
        // With half the requests failed, the median itself is a miss.
        let half: Vec<Option<Duration>> = (0..40)
            .map(|i| if i % 2 == 0 { ms(1) } else { None })
            .collect();
        let sorted = sorted_seconds(&half);
        assert_eq!(percentile(&sorted, 50.0), Some(0.001));
        assert_eq!(percentile(&sorted, 51.0), Some(f64::INFINITY));
    }

    #[test]
    fn a_windowed_percentile_is_the_median_over_whole_windows() {
        // Three windows of 100, the second slowed tenfold, then a short
        // window that is dropped.
        let mut lat: Vec<Option<Duration>> = Vec::new();
        for scale in [1, 10, 1] {
            lat.extend((1..=100).map(|i| ms(i * scale)));
        }
        lat.extend((0..50).map(|_| ms(1000)));
        assert_eq!(windowed_percentile(&lat, 100, 90.0), Some(0.09));
        // The pooled p90 lands in the slowed window.
        assert!(percentile(&sorted_seconds(&lat), 90.0).unwrap() > 0.5);
        // Windows too small for the percentile report nothing.
        assert_eq!(windowed_percentile(&lat, 50, 90.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
