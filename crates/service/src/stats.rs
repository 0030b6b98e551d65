//! Service-wide counters behind `GET /stats` and `GET /metrics`.
//!
//! Every counter lives on an [`em_obs::Registry`], so one increment
//! feeds both the legacy `/stats` JSON document (field order preserved
//! byte-for-byte from the pre-registry daemon) and the Prometheus text
//! exposition at `/metrics`. The numbers feed dashboards and the
//! loadgen report, not control flow (admission decisions read the real
//! queue under its lock). Thread leases stay plain atomics — the
//! scheduler-invariant test reads `peak_threads_in_use` to prove the
//! worker pool never outgrew its [`mwd_core::ThreadBudget`] — and
//! `/metrics` publishes them as scrape-time gauges.

use em_json::Json;
use em_obs::{Counter, Histogram, Registry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Family name of the per-endpoint request-latency histogram.
pub const HTTP_LATENCY_METRIC: &str = "em_http_request_seconds";

/// Endpoint labels the latency histogram is pre-registered under, so a
/// scrape of a fresh daemon already lists the whole family. `route()`
/// normalizes every request onto one of these.
pub const ENDPOINTS: &[&str] = &[
    "/healthz",
    "/stats",
    "/metrics",
    "/jobs",
    "/jobs/:id",
    "/jobs/:id/result",
    "/jobs/:id/cancel",
    "/results/:key",
    "/shutdown",
    "other",
];

pub struct ServiceStats {
    registry: Arc<Registry>,
    /// HTTP requests received (any route, any outcome): counted once a
    /// request frames — or fails to frame — so keep-alive connections
    /// count per request, not per connection, and a connection that
    /// closes without sending a byte counts nothing.
    pub requests: Arc<Counter>,
    /// `POST /jobs` bodies that parsed + validated.
    pub submitted: Arc<Counter>,
    /// Submissions answered straight from the result store (no job).
    pub store_hits: Arc<Counter>,
    /// Submissions coalesced onto an already queued/running job.
    pub coalesced: Arc<Counter>,
    /// Jobs that ran to a stored result.
    pub completed: Arc<Counter>,
    /// Jobs that errored.
    pub failed: Arc<Counter>,
    /// Jobs cancelled — by shutdown, `POST /jobs/:id/cancel`, or a
    /// tripped stop flag mid-solve.
    pub cancelled: Arc<Counter>,
    /// Jobs whose deadline expired (shed while queued or halted
    /// mid-solve).
    pub timeout: Arc<Counter>,
    /// Submissions rejected with 429 (queue full).
    pub rejected_overload: Arc<Counter>,
    /// Submissions rejected with 400/413.
    pub rejected_bad: Arc<Counter>,
    /// `GET .../result` responses actually written to a client.
    pub results_served: Arc<Counter>,
    /// Requests answered 408 for exhausting the per-request wall-clock
    /// budget (silent, stalled, or trickling clients — slowloris).
    pub conn_timeouts: Arc<Counter>,
    /// `engine = "auto"` resolutions answered by the shared tune cache.
    pub tune_hits: Arc<Counter>,
    /// `engine = "auto"` resolutions that ran a tuning search.
    pub tune_misses: Arc<Counter>,
    /// Engine threads currently leased by running jobs.
    pub threads_in_use: AtomicUsize,
    /// High-water mark of `threads_in_use`.
    pub peak_threads_in_use: AtomicUsize,
}

impl Default for ServiceStats {
    fn default() -> Self {
        ServiceStats::on_registry(Arc::new(Registry::new()))
    }
}

impl ServiceStats {
    /// Register every counter family on `registry`.
    pub fn on_registry(registry: Arc<Registry>) -> ServiceStats {
        let stats = ServiceStats {
            requests: registry.counter(
                "em_http_requests_total",
                "HTTP requests received (any route, any outcome).",
                &[],
            ),
            submitted: registry.counter(
                "em_jobs_submitted_total",
                "POST /jobs bodies that parsed, validated, and queued a new job.",
                &[],
            ),
            store_hits: registry.counter(
                "em_dedupe_hits_total",
                "Submissions answered without new work, by dedupe kind.",
                &[("kind", "store")],
            ),
            coalesced: registry.counter(
                "em_dedupe_hits_total",
                "Submissions answered without new work, by dedupe kind.",
                &[("kind", "coalesced")],
            ),
            completed: registry.counter(
                "em_jobs_finished_total",
                "Jobs that reached a terminal state, by outcome.",
                &[("outcome", "completed")],
            ),
            failed: registry.counter(
                "em_jobs_finished_total",
                "Jobs that reached a terminal state, by outcome.",
                &[("outcome", "failed")],
            ),
            cancelled: registry.counter(
                "em_jobs_finished_total",
                "Jobs that reached a terminal state, by outcome.",
                &[("outcome", "cancelled")],
            ),
            timeout: registry.counter(
                "em_jobs_finished_total",
                "Jobs that reached a terminal state, by outcome.",
                &[("outcome", "timeout")],
            ),
            rejected_overload: registry.counter(
                "em_admission_rejected_total",
                "Submissions turned away at admission, by reason.",
                &[("reason", "overload")],
            ),
            rejected_bad: registry.counter(
                "em_admission_rejected_total",
                "Submissions turned away at admission, by reason.",
                &[("reason", "bad_request")],
            ),
            results_served: registry.counter(
                "em_results_served_total",
                "Result documents successfully written to clients.",
                &[],
            ),
            conn_timeouts: registry.counter(
                "em_conn_timeouts_total",
                "Connections closed after hitting the socket read/write timeout.",
                &[],
            ),
            tune_hits: registry.counter(
                "em_tune_cache_requests_total",
                "auto-engine resolutions through the shared tune cache, by result.",
                &[("result", "hit")],
            ),
            tune_misses: registry.counter(
                "em_tune_cache_requests_total",
                "auto-engine resolutions through the shared tune cache, by result.",
                &[("result", "miss")],
            ),
            threads_in_use: AtomicUsize::new(0),
            peak_threads_in_use: AtomicUsize::new(0),
            registry,
        };
        for endpoint in ENDPOINTS {
            stats.latency(endpoint);
        }
        // Pre-register the dist halo families (a zero-valued
        // `worker="0"` series each) so a scrape of a fresh daemon
        // already lists them; multi-worker jobs add their own
        // per-worker series on the same names.
        stats.registry.counter(
            em_dist::HALO_EXCHANGES_METRIC,
            "Halo blocks received and applied by dist workers",
            &[("worker", "0")],
        );
        stats.registry.histogram(
            em_dist::HALO_WAIT_METRIC,
            "Seconds dist workers spent blocked waiting for a halo block",
            &[("worker", "0")],
        );
        stats
    }

    /// The registry all counters live on (rendered by `GET /metrics`).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    pub fn bump(counter: &Counter) {
        counter.inc();
    }

    /// The latency histogram series for one normalized endpoint.
    pub fn latency(&self, endpoint: &str) -> Arc<Histogram> {
        self.registry.histogram(
            HTTP_LATENCY_METRIC,
            "Wall time from request read to response written, per endpoint.",
            &[("endpoint", endpoint)],
        )
    }

    /// Lease `n` engine threads (called as a job starts); maintains the
    /// peak watermark.
    pub fn lease_threads(&self, n: usize) {
        let now = self.threads_in_use.fetch_add(n, Ordering::SeqCst) + n;
        self.peak_threads_in_use.fetch_max(now, Ordering::SeqCst);
    }

    /// Return `n` engine threads (called as a job finishes).
    pub fn release_threads(&self, n: usize) {
        self.threads_in_use.fetch_sub(n, Ordering::SeqCst);
    }

    /// Dedupe hit rate over everything that asked for work:
    /// `(store hits + coalesced) / (those + jobs actually submitted)`.
    pub fn dedupe_rate(&self) -> f64 {
        let hits = self.store_hits.get() + self.coalesced.get();
        let total = hits + self.submitted.get();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    pub fn to_json(&self) -> Json {
        let u = |c: &Counter| Json::Int(c.get() as i64);
        Json::obj(vec![
            ("requests", u(&self.requests)),
            ("submitted", u(&self.submitted)),
            ("store_hits", u(&self.store_hits)),
            ("coalesced", u(&self.coalesced)),
            ("completed", u(&self.completed)),
            ("failed", u(&self.failed)),
            ("cancelled", u(&self.cancelled)),
            ("rejected_overload", u(&self.rejected_overload)),
            ("rejected_bad", u(&self.rejected_bad)),
            ("results_served", u(&self.results_served)),
            ("dedupe_rate", Json::Num(self.dedupe_rate())),
            (
                "threads_in_use",
                Json::Int(self.threads_in_use.load(Ordering::SeqCst) as i64),
            ),
            (
                "peak_threads_in_use",
                Json::Int(self.peak_threads_in_use.load(Ordering::SeqCst) as i64),
            ),
            // New fields go at the end: consumers of the legacy
            // document index by name, but its field order is pinned by
            // the service-api tests.
            ("timeout", u(&self.timeout)),
            ("conn_timeouts", u(&self.conn_timeouts)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_leases_track_the_peak() {
        let s = ServiceStats::default();
        s.lease_threads(2);
        s.lease_threads(3);
        s.release_threads(2);
        s.lease_threads(1);
        assert_eq!(s.threads_in_use.load(Ordering::SeqCst), 4);
        assert_eq!(s.peak_threads_in_use.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn dedupe_rate_counts_both_hit_kinds() {
        let s = ServiceStats::default();
        assert_eq!(s.dedupe_rate(), 0.0);
        s.submitted.add(6);
        s.store_hits.add(3);
        s.coalesced.add(1);
        assert!((s.dedupe_rate() - 0.4).abs() < 1e-12);
        let j = s.to_json();
        assert_eq!(j.get("store_hits").unwrap().as_i64(), Some(3));
        assert_eq!(j.get("dedupe_rate").unwrap().as_f64(), Some(0.4));
    }

    #[test]
    fn counters_render_on_the_shared_registry() {
        let s = ServiceStats::default();
        ServiceStats::bump(&s.requests);
        ServiceStats::bump(&s.requests);
        s.store_hits.inc();
        s.latency("/stats").observe(0.001);
        let text = s.registry().render();
        assert!(text.contains("# TYPE em_http_requests_total counter"));
        assert!(text.contains("em_http_requests_total 2"));
        assert!(text.contains("em_dedupe_hits_total{kind=\"store\"} 1"));
        assert!(text.contains("em_dedupe_hits_total{kind=\"coalesced\"} 0"));
        assert!(text.contains("# TYPE em_http_request_seconds histogram"));
        assert!(text.contains("em_http_request_seconds_count{endpoint=\"/stats\"} 1"));
        // Pre-registered endpoints render even before any traffic.
        assert!(text.contains("em_http_request_seconds_count{endpoint=\"/jobs/:id/result\"} 0"));
    }
}
