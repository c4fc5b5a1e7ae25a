//! Order statistics over rep values and latency samples, and the
//! interval arithmetic behind span self time.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// True when `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }

    /// How much worse `value` is than `reference`, as a share of
    /// `reference` (negative when it is better).
    pub fn worsening(self, value: f64, reference: f64) -> f64 {
        if reference == 0.0 {
            return if value == reference {
                0.0
            } else {
                f64::INFINITY
            };
        }
        match self {
            Better::Higher => (reference - value) / reference.abs(),
            Better::Lower => (value - reference) / reference.abs(),
        }
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice:
/// the smallest sample with at least `q` of the samples at or below it.
/// With `n` samples, `n − ⌈q·n⌉` of them lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Calls per throughput window, and the most windows one rep is cut into.
pub const WINDOW_CALLS: usize = 1_000;
pub const MAX_WINDOWS: usize = 8;

/// The timing one rep reports: throughput, p50 and p99 of one window,
/// the rep's fastest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepTiming {
    pub throughput: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// Times one rep from each call's start offset and duration, in
/// nanoseconds, in call order.
///
/// The calls are cut into up to [`MAX_WINDOWS`] consecutive windows of
/// at least [`WINDOW_CALLS`] calls (one window when there are fewer than
/// twice that), so a window's p99 has at least ten calls beyond it. A
/// window's throughput runs from its first call's start to its last
/// call's end, so gaps between calls count against it. The window with
/// the highest throughput gives all three numbers, so they describe one
/// stretch of time. A stall that recurs at least once per window (every
/// few hundred calls) shows in p99; one confined to a single window is
/// skipped, because that window is no longer the fastest.
///
/// Why windows: the host this benchmark was built on alternates between
/// fast stretches and ~1.5× slower ones, each lasting about a second. A
/// window of a few hundred milliseconds often falls wholly inside a fast
/// stretch; a whole rep rarely does, and its p99 then reports how much
/// of the rep was slow (see the README).
pub fn rep_timing(starts: &[u64], latencies: &[u64], requests_per_call: f64) -> RepTiming {
    assert!(!latencies.is_empty(), "timing of no calls");
    assert_eq!(starts.len(), latencies.len(), "one start per call");
    let windows = (latencies.len() / WINDOW_CALLS).clamp(1, MAX_WINDOWS);
    let size = latencies.len() / windows;
    let (throughput, first, end) = (0..windows)
        .map(|w| {
            let first = w * size;
            let end = if w + 1 == windows {
                latencies.len()
            } else {
                first + size
            };
            let span = starts[end - 1] + latencies[end - 1] - starts[first];
            let throughput = (end - first) as f64 * requests_per_call / span.max(1) as f64 * 1e9;
            (throughput, first, end)
        })
        .reduce(|best, window| if window.0 > best.0 { window } else { best })
        .expect("at least one window");
    let mut sorted = latencies[first..end].to_vec();
    sorted.sort_unstable();
    RepTiming {
        throughput,
        p50_ns: percentile(&sorted, 0.50),
        p99_ns: percentile(&sorted, 0.99),
    }
}

/// First quartile, median and third quartile, interpolated the way
/// Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so the spreads printed here match that
/// definition. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        // CPython's integer form: j = ⌊i(n+1)/4⌋ clamped to 1..n−1, and
        // a weight that may leave [0, 4] after the clamp (it then
        // extrapolates, as Python does for tiny samples).
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of a slice (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The best of a set of rep values: the highest for higher-is-better
/// metrics, the lowest otherwise.
pub fn best(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best of no values");
    values
        .iter()
        .copied()
        .reduce(|a, b| if better.beats(b, a) { b } else { a })
        .expect("non-empty")
}

/// Total length covered by a set of half-open `[start, end)` intervals,
/// counting overlaps once.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut open: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match open {
            Some((s, e)) if start <= e => open = Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                open = Some((start, end));
            }
            None => open = Some((start, end)),
        }
    }
    covered + open.map_or(0, |(s, e)| e - s)
}

/// Self time of a span over `[start, end)`: its length minus the part of
/// it that its children cover. Children may overlap one another (batch
/// estimates run on pool threads), so their union is subtracted, not
/// their sum.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|&(s, e)| e > s)
        .collect();
    (end - start) - union_len(&mut clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile(&samples, 0.5), 500);
        assert_eq!(percentile(&samples, 0.99), 990);
        // Ten samples lie beyond the p99 of a thousand.
        assert_eq!(samples.iter().filter(|&&s| s > 990).count(), 10);
        assert_eq!(percentile(&samples, 1.0), 1_000);
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    /// Back-to-back calls of the given durations, in nanoseconds.
    fn back_to_back(latencies: &[u64]) -> Vec<u64> {
        latencies
            .iter()
            .scan(0, |t, &l| {
                let start = *t;
                *t += l;
                Some(start)
            })
            .collect()
    }

    #[test]
    fn the_fast_window_gives_every_number() {
        // A fast window (1..=1000 ns) and one twice as slow, in either
        // order: all three numbers are the fast one's.
        let mut calls: Vec<u64> = (1..=1_000).collect();
        calls.extend((1..=1_000).map(|v| 2 * v));
        let fast_throughput = 1_000.0 / 500_500.0 * 1e9;
        for _ in 0..2 {
            let timing = rep_timing(&back_to_back(&calls), &calls, 1.0);
            assert!((timing.throughput - fast_throughput).abs() < 1e-6);
            assert_eq!((timing.p50_ns, timing.p99_ns), (500, 990));
            calls.rotate_left(1_000);
        }
        // Requests per call scale throughput.
        let batch = rep_timing(&back_to_back(&calls), &calls, 32.0);
        assert!((batch.throughput - 32.0 * fast_throughput).abs() < 1e-3);
        // Fewer than two windows' worth: one window over everything.
        let few: Vec<u64> = (1..=1_500).collect();
        let timing = rep_timing(&back_to_back(&few), &few, 1.0);
        assert_eq!((timing.p50_ns, timing.p99_ns), (750, 1_485));
        // Many calls: at most eight windows; a leftover joins the last.
        let many: Vec<u64> = (0..16_005).map(|i| if i < 2_000 { 1 } else { 7 }).collect();
        let timing = rep_timing(&back_to_back(&many), &many, 1.0);
        assert_eq!(
            (timing.p50_ns, timing.p99_ns, timing.throughput),
            (1, 1, 1e9)
        );
        // Gaps between calls count against throughput.
        let gapped = rep_timing(&[0, 10], &[5, 5], 1.0);
        assert!((gapped.throughput - 2.0 / 15.0 * 1e9).abs() < 1e-3);
    }

    #[test]
    fn percentiles_come_from_the_window_that_set_throughput() {
        // The first window is faster overall (980 calls of 1 µs and 20 of
        // 5 µs: 1.08 ms) than the second (1,000 calls of 1.2 µs: 1.2 ms),
        // but has the worse tail. Its tail is the one reported.
        let mut calls = vec![1_000u64; 980];
        calls.extend([5_000; 20]);
        calls.extend([1_200; 1_000]);
        let timing = rep_timing(&back_to_back(&calls), &calls, 1.0);
        assert!((timing.throughput - 1_000.0 / 1.08e6 * 1e9).abs() < 1e-6);
        assert_eq!((timing.p50_ns, timing.p99_ns), (1_000, 5_000));
    }

    #[test]
    fn a_stall_in_every_window_moves_p99() {
        // 8,000 calls of 1 µs: eight windows. A 20-call stall at 100 µs
        // every 1,000 calls (a periodic compaction, say) lands in every
        // window, whichever is fastest, so p99 reports it.
        let steady = vec![1_000u64; 8_000];
        let mut stalled = steady.clone();
        for period in stalled.chunks_mut(1_000) {
            period[500..520].fill(100_000);
        }
        let before = rep_timing(&back_to_back(&steady), &steady, 1.0);
        let after = rep_timing(&back_to_back(&stalled), &stalled, 1.0);
        assert_eq!((before.p50_ns, before.p99_ns), (1_000, 1_000));
        assert_eq!((after.p50_ns, after.p99_ns), (1_000, 100_000));
        assert!(after.throughput < before.throughput);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([16, 1, 8, 2, 4], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 2.5, 3.75));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_and_best_follow_the_direction() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let reps = [410.0, 455.0, 390.0, 452.0];
        assert_eq!(best(&reps, Better::Higher), 455.0);
        assert_eq!(best(&reps, Better::Lower), 390.0);
        assert!(Better::Lower.beats(1.0, 2.0));
        assert!(!Better::Higher.beats(1.0, 2.0));
        assert!((Better::Higher.worsening(90.0, 100.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(90.0, 100.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10)]), 10);
        assert_eq!(union_len(&mut [(5, 15), (0, 10)]), 15);
        assert_eq!(union_len(&mut [(0, 4), (6, 10)]), 8);
        assert_eq!(union_len(&mut [(0, 10), (2, 3), (4, 5)]), 10);
        assert_eq!(union_len(&mut [(0, 4), (4, 8)]), 8);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping pool-thread children cover [10, 40).
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 40)]), 70);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 30)]), 3);
        assert_eq!(self_time(0, 50, &[]), 50);
        assert_eq!(self_time(0, 50, &[(0, 50), (10, 20)]), 0);
    }
}
