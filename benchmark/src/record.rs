//! What a measured pass records and how it becomes numbers.
//!
//! Every analyst appends one [`Sample`] per completed operation.
//! Analyst 0 (the pacer) also marks a boundary after each fixed count
//! of its own operations; the interval between two boundaries is a
//! *window*. Windows hold the same operation mix by construction, so
//! each metric is computed per window and the median across windows is
//! reported — a noisy-neighbour episode shorter than half the run then
//! moves nothing.

use crate::stats::{percentile, Summary};

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds since the pass began.
    pub end_ns: u64,
    /// Latency in nanoseconds (saturating; no operation takes 4 s).
    pub lat_ns: u32,
    /// Workload-defined operation class.
    pub class: u8,
}

impl Sample {
    pub fn new(start_ns: u64, end_ns: u64, class: u8) -> Sample {
        Sample {
            end_ns,
            lat_ns: u32::try_from(end_ns - start_ns).unwrap_or(u32::MAX),
            class,
        }
    }

    pub fn start_ns(&self) -> u64 {
        self.end_ns - u64::from(self.lat_ns)
    }
}

/// Everything one pass recorded.
#[derive(Debug, Default)]
pub struct PassLog {
    /// Samples per analyst, in completion order.
    pub samples: Vec<Vec<Sample>>,
    /// Window boundaries marked by the pacer; the first is the start
    /// of the pass.
    pub boundaries: Vec<u64>,
}

/// Marks window boundaries for the pacing analyst and says when the
/// pass has measured long enough.
#[derive(Debug)]
pub struct Pacer {
    boundaries: Vec<u64>,
    window_ops: usize,
    warmup_windows: usize,
    measure_ns: f64,
    ops: usize,
}

impl Pacer {
    /// A pacer whose first boundary is `now_ns`, the start of the pass.
    pub fn new(now_ns: u64, window_ops: usize, warmup_windows: usize, seconds: f64) -> Pacer {
        Pacer {
            boundaries: vec![now_ns],
            window_ops: window_ops.max(1),
            warmup_windows,
            measure_ns: seconds * 1e9,
            ops: 0,
        }
    }

    /// Count one paced operation. At the end of a window, `now_ns` is
    /// called for the boundary and the answer is `Some(done)`, where
    /// `done` means the warm-up windows are over and the measured
    /// time has passed.
    pub fn tick(&mut self, now_ns: impl FnOnce() -> u64) -> Option<bool> {
        self.ops += 1;
        if !self.ops.is_multiple_of(self.window_ops) {
            return None;
        }
        let t = now_ns();
        self.boundaries.push(t);
        let from = self.boundaries.get(self.warmup_windows).copied();
        Some(from.is_some_and(|from| (t - from) as f64 >= self.measure_ns))
    }

    pub fn into_boundaries(self) -> Vec<u64> {
        self.boundaries
    }
}

/// The end-to-end timing metrics of one window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
}

impl PassLog {
    /// Per-window metrics, warm-up windows excluded.
    pub fn windows(&self, warmup: usize) -> Vec<Window> {
        let mut cursors = vec![0usize; self.samples.len()];
        let mut out = Vec::new();
        for (i, pair) in self.boundaries.windows(2).enumerate() {
            let (lo, hi) = (pair[0], pair[1]);
            let mut lats: Vec<u64> = Vec::new();
            for (analyst, cursor) in self.samples.iter().zip(cursors.iter_mut()) {
                while *cursor < analyst.len() && analyst[*cursor].end_ns < lo {
                    *cursor += 1;
                }
                while *cursor < analyst.len() && analyst[*cursor].end_ns < hi {
                    lats.push(u64::from(analyst[*cursor].lat_ns));
                    *cursor += 1;
                }
            }
            if i < warmup || lats.is_empty() || hi <= lo {
                continue;
            }
            lats.sort_unstable();
            out.push(Window {
                ops_per_s: lats.len() as f64 * 1e9 / (hi - lo) as f64,
                p50_us: percentile(&lats, 50.0).unwrap_or(0) as f64 / 1e3,
                p95_us: percentile(&lats, 95.0).unwrap_or(0) as f64 / 1e3,
            });
        }
        out
    }

    /// Operations completed inside measured windows.
    pub fn measured_span(&self, warmup: usize) -> Option<(u64, u64)> {
        let lo = *self.boundaries.get(warmup)?;
        let hi = *self.boundaries.last()?;
        (hi > lo).then_some((lo, hi))
    }

    /// Sorted latencies (ns) of every measured sample whose class
    /// satisfies `keep`.
    pub fn latencies(&self, warmup: usize, keep: impl Fn(u8) -> bool) -> Vec<u64> {
        let Some((lo, hi)) = self.measured_span(warmup) else {
            return Vec::new();
        };
        let mut lats: Vec<u64> = self
            .samples
            .iter()
            .flatten()
            .filter(|s| s.end_ns >= lo && s.end_ns < hi && keep(s.class))
            .map(|s| u64::from(s.lat_ns))
            .collect();
        lats.sort_unstable();
        lats
    }
}

/// A pass's timing metrics across its windows.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub ops_per_s: Summary,
    pub p50_us: Summary,
    pub p95_us: Summary,
}

impl Timing {
    pub fn of(windows: &[Window]) -> Timing {
        let col = |f: fn(&Window) -> f64| Summary::of(&windows.iter().map(f).collect::<Vec<_>>());
        Timing {
            ops_per_s: col(|w| w.ops_per_s),
            p50_us: col(|w| w.p50_us),
            p95_us: col(|w| w.p95_us),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> PassLog {
        // Two analysts, three windows of 1 µs each; the first is warm-up.
        let a: Vec<Sample> = (0..30)
            .map(|i| Sample::new(i * 100, i * 100 + 50, 0))
            .collect();
        let b: Vec<Sample> = (0..15)
            .map(|i| Sample::new(i * 200, i * 200 + 150, 1))
            .collect();
        PassLog {
            samples: vec![a, b],
            boundaries: vec![0, 1_000, 2_000, 3_000],
        }
    }

    #[test]
    fn windows_pool_all_analysts_and_drop_warmup() {
        let w = log().windows(1);
        assert_eq!(w.len(), 2);
        // 10 samples of analyst a and 5 of analyst b end in [1000, 2000).
        assert!((w[0].ops_per_s - 15.0e9 / 1_000.0).abs() < 1e-6);
        assert!((w[0].p50_us - 0.05).abs() < 1e-12);
        assert!((w[0].p95_us - 0.15).abs() < 1e-12);
    }

    #[test]
    fn pacer_marks_whole_windows_and_stops_after_warmup_plus_measured_time() {
        // Windows of 3 ops, 1 warm-up window, 10 ns to measure.
        let mut pacer = Pacer::new(100, 3, 1, 10e-9);
        let mut clock = 100u64;
        let mut answers = Vec::new();
        for _ in 0..9 {
            clock += 2;
            answers.push(pacer.tick(|| clock));
        }
        // Boundaries at 106 (warm-up ends), 112 (6 ns measured), 118 (12 ns).
        assert_eq!(
            answers,
            vec![
                None,
                None,
                Some(false),
                None,
                None,
                Some(false),
                None,
                None,
                Some(true)
            ]
        );
        assert_eq!(pacer.into_boundaries(), vec![100, 106, 112, 118]);
    }

    #[test]
    fn class_filtered_latencies_cover_measured_windows_only() {
        let l = log();
        assert_eq!(l.latencies(1, |c| c == 1).len(), 10);
        assert_eq!(l.latencies(0, |_| true).len(), 45);
        assert!(l.latencies(3, |_| true).is_empty());
    }
}
