//! Host-speed reference for the end-to-end timings.
//!
//! The benchmark runs on small shared virtual machines whose effective
//! speed drifts by tens of percent within minutes as neighbours come and
//! go; a drift that large hides any change to the program. So each run
//! also times a fixed kernel owned by this benchmark (a naive f32 matrix
//! product, never touched by changes to the program), on as many threads
//! as the workload uses, interleaved with the measured work. End-to-end
//! times are reported at the reference speed: each unit of work's raw
//! time x [`NOMINAL_MS`] / the median of the reference samples taken
//! around it. The speed of a core shifts within seconds (and a thread may
//! move between a fast and a slow core), so the factor is local rather
//! than one per run. The raw figures and the mean factor are printed
//! beside every normalised metric.

use crate::report::Report;
use crate::stats;
use crate::sys::ms_since;
use std::hint::black_box;
use std::time::Instant;

/// Matrix side of the reference product (3 x 64 KiB of operands per thread).
const N: usize = 128;
/// Products per reference sample.
const REPS: usize = 4;
/// Reference sample time, ms, of the nominal host the normalised figures
/// refer to.
pub const NOMINAL_MS: f64 = 2.5;
/// Samples whose median gives the factor at a position.
const WINDOW: usize = 5;

/// Reference samples of one run, each tagged with the work position it
/// followed.
pub struct HostRef {
    threads: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    pos: u64,
    samples: Vec<(u64, f64)>,
}

fn product(a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; N * N];
    for _ in 0..REPS {
        for i in 0..N {
            for k in 0..N {
                let x = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += x * b[k * N + j];
                }
            }
        }
    }
    c
}

impl HostRef {
    /// A reference run on `threads` concurrent threads (the workload's
    /// worker count).
    pub fn new(threads: usize) -> Self {
        let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.125).collect();
        let b: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32 * 0.25).collect();
        Self {
            threads: threads.max(1),
            a,
            b,
            pos: 0,
            samples: Vec::new(),
        }
    }

    /// Mark the end of one unit of work; returns its position.
    pub fn advance(&mut self) -> u64 {
        self.pos += 1;
        self.pos
    }

    /// Time one reference sample at the current position; returns its
    /// time, ms.
    pub fn sample(&mut self) -> f64 {
        let (a, b) = (black_box(&self.a[..]), black_box(&self.b[..]));
        let t = Instant::now();
        if self.threads == 1 {
            black_box(product(a, b));
        } else {
            std::thread::scope(|s| {
                for _ in 0..self.threads {
                    s.spawn(|| black_box(product(a, b)));
                }
            });
        }
        let ms = ms_since(t);
        self.samples.push((self.pos, ms));
        ms
    }

    /// A mark for [`Self::factor_since`].
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// Median reference time over nominal of the samples taken since
    /// `mark`.
    ///
    /// # Panics
    /// Panics when no sample was taken since `mark`.
    pub fn factor_since(&self, mark: usize) -> f64 {
        let ms: Vec<f64> = self.samples[mark..].iter().map(|&(_, m)| m).collect();
        stats::median(&ms) / NOMINAL_MS
    }

    /// Reference time over nominal around work position `pos` (above 1 on
    /// a slower host): the median of the `WINDOW` samples nearest to it.
    ///
    /// # Panics
    /// Panics when no sample was taken.
    pub fn factor_at(&self, pos: u64) -> f64 {
        let n = self.samples.len();
        assert!(n > 0, "no host reference sample");
        let j = self.samples.partition_point(|&(p, _)| p < pos);
        let lo = j.saturating_sub(WINDOW / 2).min(n.saturating_sub(WINDOW));
        let hi = (lo + WINDOW).min(n);
        let ms: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, m)| m).collect();
        stats::median(&ms) / NOMINAL_MS
    }

    /// `raw[i] / factor_at(pos[i])`: times at the reference speed.
    pub fn normalise(&self, raw: &[f64], pos: &[u64]) -> Vec<f64> {
        raw.iter()
            .zip(pos)
            .map(|(&r, &p)| r / self.factor_at(p))
            .collect()
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Threads each sample runs on.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// End-to-end timings of one run at the reference speed, with the raw
/// busy time for the note.
pub struct EndToEnd<'a> {
    /// Each set-up's time, s.
    pub setups_s: &'a [f64],
    /// Tokens trained or generated in the timed window.
    pub tokens: f64,
    /// Protected busy time of the timed window, ms.
    pub busy_ms: f64,
    /// The same, as measured.
    pub raw_busy_ms: f64,
    /// What the throughput counts.
    pub throughput_what: String,
    /// Latency samples, ms.
    pub latency_ms: &'a [f64],
    /// What a latency sample spans.
    pub latency_what: &'a str,
    /// Time-to-first-token samples, ms.
    pub ttft_ms: &'a [f64],
    /// What a time-to-first-token sample spans.
    pub ttft_what: &'a str,
}

impl EndToEnd<'_> {
    /// Record `setup_s`, `throughput_tok_s`, `latency_ms_p50`,
    /// `latency_ms_p90` and `ttft_ms_p50`. A p90 with fewer than ten
    /// samples beyond it is not printed; it counts a failure.
    pub fn report(&self, host: &HostRef, report: &mut Report) {
        let factor = self.raw_busy_ms / self.busy_ms;
        let at_ref = format!(
            "at reference speed, mean host factor {factor:.4} ({} x {}-thread samples)",
            host.samples(),
            host.threads()
        );
        let n_setups = self.setups_s.len();
        report.metric(
            "setup_s",
            stats::median(self.setups_s),
            "s",
            format!("median of {n_setups} set-ups, {at_ref}"),
        );
        let thr = self.tokens / (self.busy_ms / 1e3);
        report.metric(
            "throughput_tok_s",
            thr,
            "tok/s",
            format!(
                "{}; raw {:.4}, {at_ref}",
                self.throughput_what,
                thr / factor
            ),
        );
        let n = self.latency_ms.len();
        report.metric(
            "latency_ms_p50",
            stats::median(self.latency_ms),
            "ms",
            format!("{}, n={n}", self.latency_what),
        );
        match stats::tail(self.latency_ms, 90) {
            Some(t) => report.metric(
                "latency_ms_p90",
                t.value,
                "ms",
                format!("{}, n={n}, {} beyond", self.latency_what, t.beyond),
            ),
            None => report.op(false, || {
                format!(
                    "latency_ms_p90: {n} samples leave fewer than {} beyond the p90",
                    stats::MIN_BEYOND
                )
            }),
        }
        report.metric(
            "ttft_ms_p50",
            stats::median(self.ttft_ms),
            "ms",
            format!("{}, n={}", self.ttft_what, self.ttft_ms.len()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_local_median_over_nominal() {
        let mut h = HostRef::new(1);
        // Positions 1..=10: a slow stretch (2x nominal) then a fast one.
        h.samples = (1..=10)
            .map(|p| (p, if p <= 5 { 2.0 } else { 1.0 } * NOMINAL_MS))
            .collect();
        assert_eq!(h.factor_at(1), 2.0);
        assert_eq!(h.factor_at(2), 2.0);
        assert_eq!(h.factor_at(9), 1.0);
        assert_eq!(h.factor_at(99), 1.0);
        assert_eq!(h.normalise(&[4.0, 4.0], &[1, 10]), vec![2.0, 4.0]);
        let mark = h.mark();
        h.advance();
        let ms = h.sample();
        assert_eq!(h.samples(), 11);
        assert_eq!(h.factor_since(mark), ms / NOMINAL_MS);
    }

    #[test]
    fn product_is_deterministic() {
        let h = HostRef::new(2);
        assert_eq!(product(&h.a, &h.b), product(&h.a, &h.b));
    }
}
