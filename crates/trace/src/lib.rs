//! Std-only observability primitives for the decision stack (DESIGN.md §12).
//!
//! Three pieces live here:
//!
//! * [`kernel`] — a **fixed** set of per-kernel step counters
//!   ([`kernel::Metric`]) backed by a thread-local array of `Cell<u64>`.
//!   The decision kernels ([`co-cq`'s hom search, `co-object`'s
//!   simulation and Hoare order, `co-sim`'s §5 tree walk) call
//!   [`kernel::bump`] at their inner-loop sites; the cost is one
//!   thread-local access plus an array index — comparable to the
//!   cooperative-cancellation probe the same sites already pay, so the
//!   instrumentation stays within the perf budget of the hot paths.
//!   A serving layer brackets each kernel invocation with
//!   [`kernel::snapshot`]/[`kernel::Counters::delta`] to obtain the
//!   *per-request* step counts (the `EXPLAIN` breakdown) and
//!   [`kernel::publish`]es the delta into process-wide atomics
//!   ([`kernel::global_totals`], the `METRICS` fleet view) — one
//!   mechanism feeds both sinks.
//!
//! * [`Histogram`] — a lock-free log₂-bucketed latency histogram.
//!
//! * [`Exposition`] — one process's exported values as one row list,
//!   rendered either as `STATS` (`key value` lines) or as Prometheus
//!   text. A server builds it from its live counters on each scrape, so
//!   a value has exactly one name per format and one place it is read.
//!
//! Plus [`Span`], a minimal monotonic timer for phase breakdowns.
//!
//! Everything is `std`-only: no registry dependencies, usable from every
//! crate in the workspace including the kernels themselves.

use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub mod kernel;

pub use kernel::{bump, bump_by, Metric};

/// A lightweight monotonic span timer for phase breakdowns.
///
/// Not tied to a registry: callers read [`Span::elapsed_us`] and decide
/// where the measurement goes (an `EXPLAIN` reply, a histogram, a log
/// line). Overhead is two `Instant::now()` calls per measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    started: Instant,
}

impl Span {
    /// Starts a span now.
    pub fn start() -> Span {
        Span { started: Instant::now() }
    }

    /// Microseconds elapsed since the span started, rounded to nearest.
    /// Rounding, not truncation: a phase breakdown sums many short spans,
    /// and truncating each one biases the sum low by ~0.5 µs per span —
    /// enough to visibly undercount a microsecond-scale request.
    pub fn elapsed_us(&self) -> u64 {
        let ns = self.started.elapsed().as_nanos();
        ((ns.saturating_add(500)) / 1_000).min(u64::MAX as u128) as u64
    }

    /// Elapsed time since the span started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Number of log₂ buckets in a [`Histogram`]: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` (bucket 0 is `< 1`), topping out at `2^30` ≈ 1.07e9.
const HIST_BUCKETS: usize = 31;

/// A lock-free log₂-bucketed histogram over non-negative samples
/// (conventionally microseconds).
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&self, sample: u64) {
        let bucket = (64 - sample.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating, not wrapping: a sum that pins at u64::MAX is obviously
        // exhausted, one that wraps small silently corrupts every mean.
        let mut current = self.sum.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(sample);
            match self.sum.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
    }

    /// Records a duration as microseconds (clamped to `u64::MAX`).
    pub fn observe_duration(&self, elapsed: Duration) {
        self.observe(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// `sum / count`, rounded down (0 with no samples).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the q-quantile, `0 <= q <= 1`
    /// (0 with no samples; within 2× of the true value by construction).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((n as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        1u64 << (HIST_BUCKETS - 1)
    }
}

/// The Prometheus type of an exported family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone.
    Counter,
    /// Moves both ways.
    Gauge,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// The summary quantiles every [`Exposition::summary`] series carries.
const SUMMARY_QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// One process's exported values, in one row order, with one renderer
/// per format.
///
/// Each row names its value for `STATS` (a dotted key), for `METRICS` (a
/// Prometheus family with help text and type), or both; every row is
/// appended to both renderings at once, so the two can never list a
/// value in different places or under unpaired names. Labeled families
/// (per-path, per-shard) are `METRICS`-only.
#[derive(Default)]
pub struct Exposition {
    stats: String,
    prometheus: String,
}

impl Exposition {
    /// An empty row list.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// A value exported under both a `STATS` key and a one-sample family.
    pub fn row(&mut self, key: &str, family: &str, help: &str, kind: Kind, value: impl Display) {
        self.stat(key, &value);
        self.family(family, help, kind, value);
    }

    /// A ratio row: a gauge printed with four decimals in both formats.
    pub fn ratio(&mut self, key: &str, family: &str, help: &str, value: f64) {
        self.row(key, family, help, Kind::Gauge, format_args!("{value:.4}"));
    }

    /// A `STATS`-only value.
    pub fn stat(&mut self, key: &str, value: impl Display) {
        let _ = writeln!(self.stats, "{key} {value}");
    }

    /// A `METRICS`-only family with one unlabeled sample.
    pub fn family(&mut self, name: &str, help: &str, kind: Kind, value: impl Display) {
        self.header(name, help, kind.name());
        let _ = writeln!(self.prometheus, "{name} {value}");
    }

    /// A `METRICS`-only family with one sample per label set (each label
    /// set rendered `k="v",…`, without braces).
    pub fn labeled<V: Display>(
        &mut self,
        name: &str,
        help: &str,
        kind: Kind,
        series: impl IntoIterator<Item = (String, V)>,
    ) {
        self.header(name, help, kind.name());
        for (labels, value) in series {
            let _ = writeln!(self.prometheus, "{name}{{{labels}}} {value}");
        }
    }

    /// A `METRICS`-only summary family: per label set, the 0.5, 0.9 and
    /// 0.99 quantiles of its histogram plus `_sum` and `_count`.
    pub fn summary<'h>(
        &mut self,
        name: &str,
        help: &str,
        series: impl IntoIterator<Item = (String, &'h Histogram)>,
    ) {
        self.header(name, help, "summary");
        for (labels, h) in series {
            for (q, tag) in SUMMARY_QUANTILES {
                let value = h.quantile(q);
                let _ = writeln!(self.prometheus, "{name}{{{labels},quantile=\"{tag}\"}} {value}");
            }
            let _ = writeln!(self.prometheus, "{name}_sum{{{labels}}} {}", h.sum());
            let _ = writeln!(self.prometheus, "{name}_count{{{labels}}} {}", h.count());
        }
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = write!(self.prometheus, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
    }

    /// The `STATS` rendering: `key value` lines, then `END`.
    pub fn stats(mut self) -> String {
        self.stats.push_str("END");
        self.stats
    }

    /// The Prometheus text rendering, **without** a trailing `# EOF` —
    /// callers that speak OpenMetrics append it.
    pub fn prometheus(self) -> String {
        self.prometheus
    }
}

/// Whether `name` is a valid Prometheus metric name.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::new();
        for v in [0u64, 1, 3, 8, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1112);
        assert_eq!(h.mean(), 185);
        assert!(h.quantile(0.5) <= 16);
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!((h.count(), h.sum(), h.mean()), (0, 0, 0));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::new();
        h.observe_duration(Duration::from_micros(100));
        assert_eq!((h.count(), h.sum(), h.mean()), (1, 100, 100));
        // Log₂ buckets: the answer is the bucket's upper bound, within 2×.
        let p50 = h.quantile(0.5);
        assert!((100..=256).contains(&p50), "{p50}");
        assert_eq!(h.quantile(0.0), h.quantile(1.0));
    }

    #[test]
    fn extreme_samples_saturate_without_wrapping() {
        let h = Histogram::new();
        // A Duration whose µs exceed u64::MAX must clamp, not wrap.
        h.observe_duration(Duration::MAX);
        assert_eq!((h.count(), h.sum(), h.mean()), (1, u64::MAX, u64::MAX));
        // The sample lands in the top bucket and the quantile stays there.
        assert_eq!(h.quantile(1.0), 1u64 << (HIST_BUCKETS - 1));
        // A second extreme sample keeps count exact and pins the sum at
        // the boundary instead of wrapping.
        h.observe_duration(Duration::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX, "sum must saturate, not wrap");
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 50, 900, 7_000, 120_000] {
            h.observe(v);
        }
        let values: Vec<u64> =
            [0.0, 0.1, 0.5, 0.9, 0.99, 1.0].iter().map(|&q| h.quantile(q)).collect();
        for pair in values.windows(2) {
            assert!(pair[0] <= pair[1], "quantiles not monotone: {values:?}");
        }
    }

    #[test]
    fn concurrent_observations_sum_exactly() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1_000 {
                        h.observe(7);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8_000);
        assert_eq!(h.sum(), 56_000);
    }

    #[test]
    fn exposition_renders_each_row_in_both_formats() {
        let h = Histogram::new();
        h.observe(9);
        let build = || {
            let mut t = Exposition::new();
            t.row("a.hits", "a_hits_total", "Hits", Kind::Counter, 3);
            t.stat("a.only_stats", -1);
            t.ratio("a.rate", "a_rate", "Rate", 1.0 / 3.0);
            t.family("a_steps_total", "Steps", Kind::Counter, 7);
            t.labeled("a_up", "Up", Kind::Gauge, [("shard=\"s:1\"".to_string(), 1)]);
            t.summary("a_us", "Latency", [("path=\"flat\"".to_string(), &h)]);
            t
        };
        assert_eq!(build().stats(), "a.hits 3\na.only_stats -1\na.rate 0.3333\nEND");
        let text = build().prometheus();
        assert_eq!(
            text,
            "# HELP a_hits_total Hits\n# TYPE a_hits_total counter\na_hits_total 3\n\
             # HELP a_rate Rate\n# TYPE a_rate gauge\na_rate 0.3333\n\
             # HELP a_steps_total Steps\n# TYPE a_steps_total counter\na_steps_total 7\n\
             # HELP a_up Up\n# TYPE a_up gauge\na_up{shard=\"s:1\"} 1\n\
             # HELP a_us Latency\n# TYPE a_us summary\n\
             a_us{path=\"flat\",quantile=\"0.5\"} 16\n\
             a_us{path=\"flat\",quantile=\"0.9\"} 16\n\
             a_us{path=\"flat\",quantile=\"0.99\"} 16\n\
             a_us_sum{path=\"flat\"} 9\na_us_count{path=\"flat\"} 1\n"
        );
        // Every sample line is `name[{labels}] value` with a valid name
        // and a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(is_valid_metric_name(series.split('{').next().unwrap()), "{line}");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn metric_name_validity() {
        assert!(is_valid_metric_name("coqld_cache_hits_total"));
        assert!(is_valid_metric_name("ok_name:x0"));
        assert!(!is_valid_metric_name("bad.name"));
        assert!(!is_valid_metric_name("0bad"));
        assert!(!is_valid_metric_name(""));
    }

    #[test]
    fn kernel_publish_is_thread_safe_and_monotone() {
        let before = kernel::global_totals();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let local_before = kernel::snapshot();
                    for _ in 0..5_000 {
                        kernel::bump(kernel::Metric::SimCounterUpdates);
                    }
                    kernel::publish(&kernel::snapshot().delta(&local_before));
                });
            }
        });
        let after = kernel::global_totals();
        let grew = after.delta(&before).get(kernel::Metric::SimCounterUpdates);
        assert_eq!(grew, 20_000, "every thread's delta must be folded in exactly");
    }
}
