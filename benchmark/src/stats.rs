//! Percentile and quartile maths for latency samples.
//!
//! Percentiles are nearest-rank over the sorted samples. A tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: below that, the figure is one or two outliers, not a
//! property of the distribution.

use serde::Serialize;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of ascending `sorted`.
/// `None` when there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile`], but `None` unless at least [`MIN_BEYOND`] samples lie
/// strictly beyond the chosen rank.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let beyond = sorted.len().saturating_sub(rank.max(1));
    if beyond < MIN_BEYOND {
        return None;
    }
    percentile(sorted, p)
}

/// A duration in microseconds, with all its digits.
pub fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of unsorted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 50.0)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The time a repeated operation takes when the host leaves it alone:
/// the 2nd percentile (nearest rank) of its repetitions, which is the
/// fastest of fewer than fifty.
///
/// The host is a few virtual processors of a shared machine. What it
/// takes away it takes in spells that last from seconds to minutes and
/// slow everything by up to a third, so the median of a run's samples
/// says how much of the run fell into such spells: ten 30 s runs of the
/// seed code, two minutes apart, put the median cached request anywhere
/// between 15.6 and 22.1 µs and its lower quartile between 13.8 and
/// 19.0 µs, while the fastest fiftieth of the median request lay between
/// 12.4 and 13.4 µs. Interference only ever adds time, and a slower
/// program is slower in its best repetitions too. With thousands of
/// repetitions the 2nd percentile is used rather than the minimum
/// because the minimum is one sample.
pub fn best(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 2.0)
}

/// Width of the windows behind [`windowed_percentile`].
pub const WINDOW_S: f64 = 1.0;

/// Fewest samples a window needs to count.
const MIN_WINDOW_SAMPLES: usize = 20;

/// The median, over consecutive [`WINDOW_S`]-second windows, of each
/// window's percentile `p`. `samples` are `(seconds since the phase
/// began, value)`.
///
/// One stall (a compaction's publish pause, a scheduler hiccup) lands in
/// one or two windows and the median window does not see it, so this is
/// the latency the phase delivered most of the time. A percentile over
/// all samples instead moves with the number and depth of such stalls:
/// on `ingest_mixed` its p95 ranged 155-228 ms over three runs of the
/// same code. The stalls themselves are reported as counts
/// (`ingest.read_stalled_share`) and in the whole-phase summary.
/// Falls back to the whole-phase percentile when no window has
/// [`MIN_WINDOW_SAMPLES`].
pub fn windowed_percentile(samples: &[(f64, f64)], p: f64) -> Option<f64> {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = std::collections::BTreeMap::new();
    for &(at_s, value) in samples {
        windows
            .entry((at_s / WINDOW_S) as u64)
            .or_default()
            .push(value);
    }
    let per_window: Vec<f64> = windows
        .values()
        .filter(|w| w.len() >= MIN_WINDOW_SAMPLES)
        .filter_map(|w| percentile(&sorted(w), p))
        .collect();
    if per_window.is_empty() {
        let all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        return percentile(&sorted(&all), p);
    }
    median(&per_window)
}

/// A closed-loop phase seen request by request: every distinct request
/// at its [`best`] latency over the times it was sent.
///
/// Such a phase cycles through a fixed list of requests whose costs
/// differ a hundredfold (a cached answer, a query that expands to a
/// whole large domain), so a percentile over time windows carries the
/// luck of which requests fell into which window, and a percentile over
/// all samples the share of the phase the host disturbed. Taken over the
/// distinct requests, each at the latency it has when the host leaves it
/// alone, the figures are properties of the program and the dataset: the
/// cost of the median request, of the one in twenty that is most
/// expensive, and the rate at which one connection gets through the
/// list.
#[derive(Debug, Clone, Default)]
pub struct PerRequest {
    /// Ascending best latencies, one per distinct request.
    best: Vec<f64>,
    /// Queries answered per second of best latency: what the phase's
    /// requests, each as often as it was sent, take at their best.
    pub rate_per_s: f64,
}

impl PerRequest {
    /// Group `samples` (`(request index, queries carried, latency in
    /// µs)`) by request.
    pub fn of(samples: &[(usize, u64, f64)]) -> PerRequest {
        let mut by_request: std::collections::BTreeMap<usize, (u64, Vec<f64>)> =
            std::collections::BTreeMap::new();
        for &(index, queries, us) in samples {
            let entry = by_request.entry(index).or_default();
            entry.0 = queries;
            entry.1.push(us);
        }
        let (mut levels, mut queries, mut busy_us) = (Vec::new(), 0.0, 0.0);
        for (carried, latencies) in by_request.values() {
            let level = best(latencies).unwrap_or(0.0);
            // A request sent more often weighs more in the rate, as it
            // does in the traffic.
            queries += (*carried * latencies.len() as u64) as f64;
            busy_us += level * latencies.len() as f64;
            levels.push(level);
        }
        PerRequest {
            best: sorted(&levels),
            rate_per_s: queries / (busy_us / 1e6).max(f64::MIN_POSITIVE),
        }
    }

    /// Percentile `p` over the distinct requests (0 when there are none).
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.best, p).unwrap_or(0.0)
    }
}

/// One latency distribution as every report prints it: sample count,
/// quartiles, and the tail percentiles that have enough samples beyond
/// them (`None` otherwise).
#[derive(Debug, Clone, Default, Serialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub q3: f64,
    /// 95th percentile, when at least [`MIN_BEYOND`] samples exceed it.
    pub p95: Option<f64>,
    /// 99th percentile, under the same rule.
    pub p99: Option<f64>,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// The p95, or the largest sample when too few lie beyond it.
    pub fn p95_or_max(&self) -> f64 {
        self.p95.unwrap_or(self.max)
    }

    /// The p99, or the largest sample when too few lie beyond it.
    pub fn p99_or_max(&self) -> f64 {
        self.p99.unwrap_or(self.max)
    }

    /// Summarize unsorted samples (all zeros when there are none).
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            count: s.len(),
            q1: percentile(&s, 25.0).unwrap_or(0.0),
            p50: percentile(&s, 50.0).unwrap_or(0.0),
            q3: percentile(&s, 75.0).unwrap_or(0.0),
            p95: tail_percentile(&s, 95.0),
            p99: tail_percentile(&s, 99.0),
            max: s.last().copied().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn quartiles_and_median_of_unsorted_input() {
        let summary = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((summary.q1, summary.p50, summary.q3), (1.0, 2.0, 3.0));
        assert_eq!(summary.count, 4);
        assert_eq!(summary.max, 4.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn windowed_percentile_ignores_a_stall_confined_to_one_window() {
        // Ten one-second windows of 100 samples at 1.0, except that the
        // fourth window is a stall: every sample there reads 500.
        let samples: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                let at_s = i as f64 / 100.0;
                (
                    at_s,
                    if (3.0..4.0).contains(&at_s) {
                        500.0
                    } else {
                        1.0
                    },
                )
            })
            .collect();
        assert_eq!(windowed_percentile(&samples, 95.0), Some(1.0));
        let all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        assert_eq!(percentile(&sorted(&all), 95.0), Some(500.0));
        // Too few samples for any window: the plain percentile.
        assert_eq!(windowed_percentile(&samples[..10], 50.0), Some(1.0));
        assert_eq!(windowed_percentile(&[], 50.0), None);
    }

    #[test]
    fn best_is_the_fastest_of_few_and_the_second_percentile_of_many() {
        assert_eq!(best(&[5.0, 3.0, 9.0]), Some(3.0));
        assert_eq!(best(&ramp(49)), Some(1.0));
        assert_eq!(best(&ramp(1000)), Some(20.0));
        assert_eq!(best(&[]), None);
    }

    #[test]
    fn per_request_takes_each_request_at_its_best_repetition() {
        // Request 0 is cheap, sent three times and disturbed once;
        // request 1 carries 16 queries, was sent twice and stalled once.
        let samples = [
            (0, 1, 10.0),
            (1, 16, 400.0),
            (0, 1, 50.0),
            (1, 16, 100.0),
            (0, 1, 11.0),
        ];
        let per = PerRequest::of(&samples);
        assert_eq!(per.percentile(50.0), 10.0);
        assert_eq!(per.percentile(95.0), 100.0);
        // 3 + 32 queries in 3 x 10 + 2 x 100 µs.
        assert!((per.rate_per_s - 35.0 / 230e-6).abs() < 1e-6);
        let nothing = PerRequest::of(&[]);
        assert_eq!((nothing.percentile(50.0), nothing.rate_per_s), (0.0, 0.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has rank 990: exactly 10 beyond.
        assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
        // One sample fewer leaves 9 beyond rank 990 (ceil(989.01)).
        assert_eq!(tail_percentile(&ramp(999), 99.0), None);
        // p95 of 200 samples: rank 190, 10 beyond.
        assert_eq!(tail_percentile(&ramp(200), 95.0), Some(190.0));
        assert_eq!(tail_percentile(&ramp(199), 95.0), None);
        let summary = Summary::of(&ramp(300));
        assert_eq!(summary.p95, Some(285.0));
        assert_eq!(summary.p99, None);
    }
}
