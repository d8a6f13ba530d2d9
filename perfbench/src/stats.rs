//! The benchmark's timing summary: medians and quartiles over every
//! sample, never a best-of-N.

use std::time::Duration;

/// Order statistics of one set of samples.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest percentile of the ladder below with at least ten
    /// samples beyond it (the median when there are fewer than twenty).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

impl Summary {
    /// Summarizes `samples` (any order). An empty slice yields all zeros.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_pct = TAIL_LADDER
            .iter()
            .copied()
            // Ten samples beyond p: n * (100 - p) / 100 >= 10, with slack
            // for the rounding of 100 - p.
            .find(|p| n as f64 * (100.0 - p) >= 1000.0 - 1e-6)
            .unwrap_or(50.0);
        Summary {
            n,
            median: percentile_sorted(&sorted, 50.0),
            q1: percentile_sorted(&sorted, 25.0),
            q3: percentile_sorted(&sorted, 75.0),
            tail_pct,
            tail: percentile_sorted(&sorted, tail_pct),
        }
    }

    /// One human-readable line: median, quartiles, tail and count.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "median {:.4} {unit} (q1 {:.4}, q3 {:.4}, p{} {:.4}, n={})",
            self.median, self.q1, self.q3, self.tail_pct, self.tail, self.n
        )
    }
}

/// The `p`-th percentile of `samples` (any order), linearly interpolated
/// between closest ranks.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// One timed operation: when it completed (seconds since its phase
/// began), how long it took, and the bytes it matched.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub end_s: f64,
    pub latency_ms: f64,
    pub bytes: usize,
}

/// The `p`-th percentile latency of each whole one-second window of
/// `ops` (by completion time), and their median. A stall of the shared
/// machine, and the backlog it leaves, spoils a window, not the run.
pub fn windowed_latency_ms(ops: &[Op], p: f64) -> f64 {
    let span = ops.iter().map(|op| op.end_s).fold(0.0, f64::max);
    let windows = (span.floor() as usize).max(1);
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for op in ops {
        if let Some(window) = per_window.get_mut(op.end_s as usize) {
            window.push(op.latency_ms);
        }
    }
    let tails: Vec<f64> =
        per_window.iter().filter(|w| !w.is_empty()).map(|w| percentile(w, p)).collect();
    median(&tails)
}

/// Width of the throughput windows.
const WINDOW_S: f64 = 0.5;

/// Bytes per second in MB of each whole half-second window of `ops` (by
/// completion time), and their median.
pub fn windowed_mb_s(ops: &[Op]) -> f64 {
    let window_s = WINDOW_S;
    let span = ops.iter().map(|op| op.end_s).fold(0.0, f64::max);
    let windows = ((span / window_s).floor() as usize).max(1);
    let mut bytes = vec![0usize; windows];
    for op in ops {
        if let Some(slot) = bytes.get_mut((op.end_s / window_s) as usize) {
            *slot += op.bytes;
        }
    }
    let rates: Vec<f64> = bytes.iter().map(|&b| b as f64 / window_s / 1e6).collect();
    median(&rates)
}

/// The timed operations of one closed loop.
#[derive(Default)]
pub struct LoopResult {
    pub bytes: usize,
    /// Time spent inside the timed calls.
    pub wall: Duration,
    pub ops: Vec<Op>,
}

impl LoopResult {
    pub fn secs_per_byte(&self) -> f64 {
        self.wall.as_secs_f64() / self.bytes.max(1) as f64
    }

    /// Sets the throughput and latency metrics: medians over windows, so
    /// a transient stall of the shared machine does not decide a run.
    pub fn report(&self, out: &mut crate::report::Outcome, what: &str) {
        let latencies: Vec<f64> = self.ops.iter().map(|op| op.latency_ms).collect();
        let latency = Summary::of(&latencies);
        out.set("throughput_mb_s", windowed_mb_s(&self.ops));
        out.set("latency_p50_ms", windowed_latency_ms(&self.ops, 50.0));
        out.set("latency_p90_ms", windowed_latency_ms(&self.ops, 90.0));
        out.note(format!("{what}: {}", latency.describe("ms")));
        out.note(format!(
            "whole-run throughput {:.2} MB/s over {} operations",
            self.bytes as f64 / 1e6 / self.wall.as_secs_f64(),
            self.ops.len()
        ));
        out.samples = self.ops.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3), (5, 3.0, 2.0, 4.0));
        assert_eq!(s.tail_pct, 50.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).tail_pct, 99.0);
        assert_eq!(Summary::of(&samples[..100]).tail_pct, 90.0);
        assert_eq!(Summary::of(&samples[..40]).tail_pct, 75.0);
    }
}
