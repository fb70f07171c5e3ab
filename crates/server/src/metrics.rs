//! Per-endpoint request counters and latency histograms for
//! `GET /v1/stats`.
//!
//! Latency is recorded into log2 microsecond buckets: bucket 0 holds
//! sub-microsecond requests, bucket *i* ≥ 1 holds `[2^(i-1), 2^i)` µs.
//! Quantiles are answered from the cumulative bucket counts as the
//! upper bound of the covering bucket (clamped to the exact observed
//! maximum), so a reported p99 is an upper estimate within a factor of
//! two of the true order statistic. That is deliberate: the histogram
//! is a fixed-size array of relaxed atomics — recording is a handful of
//! `fetch_add`s with no lock and no allocation, cheap enough to sit on
//! the hot path of every request. The *exact* percentiles come from the
//! repository benchmark's client (`perfbench`, `serve_mixed`), which
//! keeps every sample; the histogram serves live observability.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 latency buckets. Bucket 31 is open-ended and starts
/// at 2^30 µs ≈ 18 minutes — far beyond any request the connection
/// deadline lets live.
pub const BUCKETS: usize = 32;

/// The endpoint labels tracked independently; `other` absorbs unknown
/// paths (404s).
pub const ENDPOINT_LABELS: [&str; 11] = [
    "healthz",
    "scenarios",
    "reports",
    "stats",
    "metrics",
    "eval",
    "sweep",
    "optimize",
    "equilibrium",
    "generate",
    "other",
];

/// A fixed-size log2 latency histogram over relaxed atomics.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

/// The bucket index covering `us` (see the [module docs](self)).
fn bucket_index(us: u64) -> usize {
    ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The inclusive upper bound of bucket `i` in microseconds — also the
/// `le` boundary of the Prometheus `_bucket` series (`/metrics`).
pub fn bucket_ceil_us(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The exact largest sample, in microseconds (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Sum of all samples, in microseconds (the Prometheus `_sum`).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Per-bucket sample counts (non-cumulative), in bucket order — the
    /// raw series behind the Prometheus cumulative `_bucket` lines.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// The upper-estimate `q`-quantile in microseconds (0 when empty):
    /// the upper bound of the first bucket whose cumulative count
    /// reaches `⌈q·n⌉`, clamped to the observed maximum.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                return bucket_ceil_us(i).min(self.max_us());
            }
        }
        self.max_us()
    }
}

/// One endpoint's live counters.
#[derive(Debug, Default)]
struct EndpointMetrics {
    requests: AtomicU64,
    /// Responses with status ≥ 400.
    errors: AtomicU64,
    latency: Histogram,
}

/// A point-in-time snapshot of one endpoint's counters, quantiles
/// resolved (see [`Histogram::quantile_us`] for their meaning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointSnapshot {
    /// The label from [`ENDPOINT_LABELS`].
    pub endpoint: &'static str,
    /// Requests routed here.
    pub requests: u64,
    /// Responses with status ≥ 400.
    pub errors: u64,
    /// Upper-estimate median latency, µs.
    pub p50_us: u64,
    /// Upper-estimate 95th-percentile latency, µs.
    pub p95_us: u64,
    /// Upper-estimate 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Exact maximum latency, µs.
    pub max_us: u64,
}

/// Per-endpoint request counters and latency histograms; all recording
/// is lock-free and `&self`.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    endpoints: [EndpointMetrics; ENDPOINT_LABELS.len()],
}

impl ServiceMetrics {
    /// An empty metrics table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one handled request. Unknown labels fold into `other`.
    pub fn record(&self, label: &str, status: u16, elapsed: Duration) {
        let i = ENDPOINT_LABELS
            .iter()
            .position(|&l| l == label)
            .unwrap_or(ENDPOINT_LABELS.len() - 1);
        let e = &self.endpoints[i];
        e.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            e.errors.fetch_add(1, Ordering::Relaxed);
        }
        e.latency.record(elapsed);
    }

    /// Visits every endpoint that has seen at least one request, in
    /// [`ENDPOINT_LABELS`] order, with its request/error counts and raw
    /// latency histogram — the iteration behind the Prometheus
    /// exposition.
    pub fn for_each_live(&self, mut f: impl FnMut(&'static str, u64, u64, &Histogram)) {
        for (&label, e) in ENDPOINT_LABELS.iter().zip(&self.endpoints) {
            let requests = e.requests.load(Ordering::Relaxed);
            if requests > 0 {
                f(
                    label,
                    requests,
                    e.errors.load(Ordering::Relaxed),
                    &e.latency,
                );
            }
        }
    }

    /// Snapshots of every endpoint that has seen at least one request,
    /// in [`ENDPOINT_LABELS`] order.
    pub fn snapshot(&self) -> Vec<EndpointSnapshot> {
        ENDPOINT_LABELS
            .iter()
            .zip(&self.endpoints)
            .filter(|(_, e)| e.requests.load(Ordering::Relaxed) > 0)
            .map(|(&endpoint, e)| EndpointSnapshot {
                endpoint,
                requests: e.requests.load(Ordering::Relaxed),
                errors: e.errors.load(Ordering::Relaxed),
                p50_us: e.latency.quantile_us(0.50),
                p95_us: e.latency.quantile_us(0.95),
                p99_us: e.latency.quantile_us(0.99),
                max_us: e.latency.max_us(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_log2_ranges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_ceil_us(0), 0);
        assert_eq!(bucket_ceil_us(10), 1023);
    }

    #[test]
    fn quantiles_are_upper_bounds_clamped_to_the_max() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.99), 0, "empty histogram");
        // 99 fast samples in [512, 1024) µs, one slow outlier.
        for _ in 0..99 {
            h.record(Duration::from_micros(700));
        }
        h.record(Duration::from_micros(5_000));
        assert_eq!(h.count(), 100);
        assert_eq!(h.max_us(), 5_000);
        // p50/p95 land in the fast bucket: upper bound 1023 µs ≥ 700.
        assert_eq!(h.quantile_us(0.50), 1023);
        assert_eq!(h.quantile_us(0.95), 1023);
        // p100 covers the outlier and clamps to the exact max.
        assert_eq!(h.quantile_us(1.0), 5_000);
    }

    #[test]
    fn single_sample_quantiles_are_exactly_the_max() {
        let h = Histogram::default();
        h.record(Duration::from_micros(137));
        for q in [0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 137);
        }
    }

    #[test]
    fn metrics_count_per_endpoint_and_fold_unknowns() {
        let m = ServiceMetrics::new();
        m.record("eval", 200, Duration::from_micros(10));
        m.record("eval", 400, Duration::from_micros(20));
        m.record("no-such-endpoint", 404, Duration::from_micros(5));
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        let eval = snap.iter().find(|s| s.endpoint == "eval").unwrap();
        assert_eq!((eval.requests, eval.errors), (2, 1));
        assert_eq!(eval.max_us, 20);
        let other = snap.iter().find(|s| s.endpoint == "other").unwrap();
        assert_eq!((other.requests, other.errors), (1, 1));
    }
}
