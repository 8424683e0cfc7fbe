//! Host-side measurement helpers: spans around layer calls, order
//! statistics, peak memory and the report digest.

use std::hash::{BuildHasher, Hasher};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sim_engine::collections::DetState;
use sim_engine::trace::{Tracer, Track};
use sim_engine::Cycle;

/// Spans recorded around the calls one pass makes into the layers. A
/// disabled recorder runs the closure and takes no timestamps, so the
/// untraced measured phase pays nothing.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    done: Mutex<Vec<(&'static str, u64, Duration, Duration)>>,
}

impl Spans {
    pub fn new(enabled: bool, origin: Instant) -> Spans {
        Spans {
            origin,
            enabled,
            done: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f`, recording it as span `name` on thread track `tid`.
    pub fn time<R>(&self, name: &'static str, tid: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.done
            .lock()
            .expect("span list lock")
            .push((name, tid, start, end));
        out
    }

    /// Seconds covered by every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.sum(|s| s.0 == name)
    }

    /// Seconds covered by all spans on track `tid`.
    pub fn track_total(&self, tid: u64) -> f64 {
        self.sum(|s| s.1 == tid)
    }

    fn sum(&self, keep: impl Fn(&(&'static str, u64, Duration, Duration)) -> bool) -> f64 {
        self.done
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| keep(s))
            .map(|s| (s.3 - s.2).as_secs_f64())
            .sum()
    }

    /// Copies the spans into a Chrome-trace recorder as process `pid`
    /// (1 trace microsecond = 1 host microsecond).
    pub fn into_tracer(self, pid: u32, pass: &str) -> Tracer {
        let mut t = Tracer::enabled();
        t.set_process_name(pid, pass);
        let us = |d: Duration| Cycle(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        for (name, tid, start, end) in self.done.into_inner().expect("span list lock") {
            let track = Track { pid, tid };
            t.span("bench", name, track, us(start), us(end), &[]);
        }
        t
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail order statistic of per-cell latencies (`iters[i][c]` is cell
/// `c`'s latency in iteration `i`): the highest percentile with at least
/// ten samples beyond it. Returns `(value, percentile)`. When that
/// percentile would be below p90 (fewer than 100 samples), returns the
/// slowest cell's median across iterations with percentile 100.
pub fn tail(iters: &[Vec<f64>]) -> (f64, f64) {
    let mut s = iters.concat();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 100 {
        let slowest = per_cell_medians(iters).into_iter().fold(0.0, f64::max);
        return (slowest, 100.0);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Median over cells of each cell's median latency across iterations.
/// Robust to a few cells dominating the sample count or its extremes.
pub fn cell_median(iters: &[Vec<f64>]) -> f64 {
    median(&per_cell_medians(iters))
}

fn per_cell_medians(iters: &[Vec<f64>]) -> Vec<f64> {
    let cells = iters.iter().map(Vec::len).max().unwrap_or(0);
    (0..cells)
        .map(|c| {
            median(
                &iters
                    .iter()
                    .filter_map(|it| it.get(c).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fixed-seed hash over the canonical reports, in cell order: the same
/// hasher `canon::job_key` uses, immune to `IDYLL_HASH_SEED`.
pub fn digest<'a>(texts: impl IntoIterator<Item = &'a String>) -> u64 {
    let mut h = DetState::with_seed(0).build_hasher();
    for t in texts {
        h.write(t.as_bytes());
        h.write_u8(0);
    }
    h.finish()
}

/// Host cost of one `Instant::now()` pair in ns, median of 5 batches.
pub fn instant_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..PAIRS {
                let a = Instant::now();
                std::hint::black_box(a.elapsed());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    median(&batches)
}
