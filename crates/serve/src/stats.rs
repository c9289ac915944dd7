//! Lock-free service counters and latency histograms.
//!
//! Every handler thread bumps shared atomics; the `stats` endpoint
//! renders a snapshot without stopping the world. Latencies land in
//! power-of-two microsecond buckets (`[1µs, 2µs)`, `[2µs, 4µs)`, …),
//! which is coarse but monotone — good enough to read p50/p99 trends off
//! a dashboard without a t-digest dependency.

use clairvoyant::report::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets: the last bucket catches
/// everything at or above ~2.2 minutes (2^31 µs).
const BUCKETS: usize = 32;

/// A histogram over power-of-two microsecond buckets.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl LatencyHistogram {
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Upper bound (µs) of the bucket containing quantile `q` in [0, 1].
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (BUCKETS - 1)
    }

    /// Non-empty buckets as `{"us_lt": upper_bound, "count": n}` objects.
    fn to_json(&self) -> Json {
        Json::Array(
            self.buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let count = b.load(Ordering::Relaxed);
                    (count > 0).then(|| {
                        Json::object(vec![
                            ("us_lt", Json::Number((1u64 << i) as f64)),
                            ("count", Json::Number(count as f64)),
                        ])
                    })
                })
                .collect(),
        )
    }
}

/// One endpoint's counters.
#[derive(Debug, Default)]
pub struct EndpointStats {
    pub requests: AtomicU64,
    pub errors: AtomicU64,
    pub latency: LatencyHistogram,
}

impl EndpointStats {
    fn to_json(&self) -> Json {
        Json::object(vec![
            (
                "requests",
                Json::Number(self.requests.load(Ordering::Relaxed) as f64),
            ),
            (
                "errors",
                Json::Number(self.errors.load(Ordering::Relaxed) as f64),
            ),
            ("p50_us", Json::Number(self.latency.quantile_us(0.5) as f64)),
            (
                "p99_us",
                Json::Number(self.latency.quantile_us(0.99) as f64),
            ),
            (
                "p999_us",
                Json::Number(self.latency.quantile_us(0.999) as f64),
            ),
            ("latency_buckets", self.latency.to_json()),
        ])
    }
}

/// Whole-service counters, one [`EndpointStats`] per protocol op plus
/// service-wide admission and connection counts.
#[derive(Debug, Default)]
pub struct ServiceStats {
    pub score: EndpointStats,
    pub explain: EndpointStats,
    pub compare: EndpointStats,
    pub health: EndpointStats,
    pub stats: EndpointStats,
    pub reload: EndpointStats,
    pub shutdown: EndpointStats,
    /// Score requests refused by admission control (`busy` responses).
    pub rejected_busy: AtomicU64,
    /// Frames that failed to parse into a request (`bad_request`s).
    pub bad_requests: AtomicU64,
    /// Connections accepted since startup.
    pub connections: AtomicU64,
    /// Connections dropped for framing violations (desync).
    pub desyncs: AtomicU64,
    /// Apps scored through the batcher, and the batches they rode in —
    /// `batches < scored` means micro-batching is actually coalescing.
    pub scored_apps: AtomicU64,
    pub batches: AtomicU64,
    /// Batches whose scoring panicked; every job in them was answered
    /// with an `internal` error. Non-zero here means a model or feature
    /// row is tripping a bug — worth alerting on.
    pub batch_panics: AtomicU64,
    /// Times a reactor thread's `poll` returned. Idle connections are
    /// parked with an infinite timeout, so on a quiet server this
    /// counter is *flat* — it moving while no requests arrive means a
    /// wakeup storm (the bug the reactor replaced: per-connection
    /// read-timeout spinning). A regression test pins this down.
    pub reactor_wakeups: AtomicU64,
    /// Warm-context cache: functions served from resident per-function
    /// entries during request resolution (fixpoints skipped). A repeat
    /// score of an unchanged source is all hits.
    pub incr_hits: AtomicU64,
    /// Functions whose fingerprint found no resident entry.
    pub incr_misses: AtomicU64,
    /// Functions fully re-analyzed. An edited source moves this by the
    /// number of *changed* functions, not the program size.
    pub incr_rebuilt_fns: AtomicU64,
}

impl ServiceStats {
    /// Snapshot as the `stats` response body. `shard_depths` is each
    /// batcher shard's queued-job count; `queue_depth` stays in the
    /// schema as their sum so dashboards keyed on the old field keep
    /// working. `incr_resident_fns` is the per-function entries resident
    /// across every shard's incremental engine (the warm cache's size).
    pub fn to_json(
        &self,
        inflight: usize,
        shard_depths: &[usize],
        incr_resident_fns: usize,
    ) -> Json {
        let n = |a: &AtomicU64| Json::Number(a.load(Ordering::Relaxed) as f64);
        Json::object(vec![
            (
                "endpoints",
                Json::object(vec![
                    ("score", self.score.to_json()),
                    ("explain", self.explain.to_json()),
                    ("compare", self.compare.to_json()),
                    ("health", self.health.to_json()),
                    ("stats", self.stats.to_json()),
                    ("reload", self.reload.to_json()),
                    ("shutdown", self.shutdown.to_json()),
                ]),
            ),
            ("rejected_busy", n(&self.rejected_busy)),
            ("bad_requests", n(&self.bad_requests)),
            ("connections", n(&self.connections)),
            ("desyncs", n(&self.desyncs)),
            ("scored_apps", n(&self.scored_apps)),
            ("batches", n(&self.batches)),
            ("batch_panics", n(&self.batch_panics)),
            ("reactor_wakeups", n(&self.reactor_wakeups)),
            ("incr_hits", n(&self.incr_hits)),
            ("incr_misses", n(&self.incr_misses)),
            ("incr_rebuilt_fns", n(&self.incr_rebuilt_fns)),
            ("incr_resident_fns", Json::Number(incr_resident_fns as f64)),
            ("inflight", Json::Number(inflight as f64)),
            (
                "queue_depth",
                Json::Number(shard_depths.iter().sum::<usize>() as f64),
            ),
            (
                "queue_depths",
                Json::Array(
                    shard_depths
                        .iter()
                        .map(|d| Json::Number(*d as f64))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(0));
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        assert_eq!(h.total(), 4);
        // 3µs lands in [2, 4): upper bound 4.
        assert_eq!(h.quantile_us(0.75), 4);
        assert!(h.quantile_us(1.0) >= 1024);
    }

    #[test]
    fn quantiles_on_empty_histogram_are_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
    }

    #[test]
    fn snapshot_serializes() {
        let s = ServiceStats::default();
        s.score.requests.fetch_add(2, Ordering::Relaxed);
        s.score.latency.record(Duration::from_micros(10));
        let json = s.to_json(1, &[3, 4], 5).to_string();
        assert!(json.contains("\"requests\":2"));
        assert!(json.contains("\"inflight\":1"));
        // Per-shard depths plus the legacy total.
        assert!(json.contains("\"queue_depths\":[3,4]"));
        assert!(json.contains("\"queue_depth\":7"));
        assert!(json.contains("\"p999_us\""));
        assert!(json.contains("\"reactor_wakeups\""));
        assert!(json.contains("\"incr_hits\""));
        assert!(json.contains("\"incr_misses\""));
        assert!(json.contains("\"incr_rebuilt_fns\""));
        assert!(json.contains("\"incr_resident_fns\":5"));
    }
}
