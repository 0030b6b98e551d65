//! The connection planes and the JSON API.
//!
//! | Route                  | Meaning                                        |
//! |------------------------|------------------------------------------------|
//! | `POST /jobs`           | submit a spec (TOML or compact JSON body)      |
//! | `GET /jobs/:id`        | job status                                     |
//! | `GET /jobs/:id/result` | the job's artifact (404/409/500 until `done`)  |
//! | `POST /jobs/:id/cancel`| cancel a queued or running job                 |
//! | `GET /results/:key`    | artifact by content key                        |
//! | `GET /healthz`         | liveness + capacity + build snapshot           |
//! | `GET /stats`           | the full counter set                           |
//! | `GET /metrics`         | Prometheus text exposition of the same counters|
//! | `POST /shutdown`       | request a drain (same as SIGTERM)              |
//!
//! Submissions answer `200 {"status": "cached"}` when the artifact
//! already exists, `202 {"status": "queued"|"coalesced"}` otherwise;
//! overload is `429`, a draining daemon `503`, malformed input `400`,
//! oversized input `413`. Both back-pressure statuses (429/503) carry
//! `Retry-After` so well-behaved clients pace their retries.
//!
//! Two connection planes share this one router:
//!
//! * [`ConnModel::EventLoop`] (the default on Linux) — the epoll event
//!   loop in [`crate::event_loop`]: one thread routes every request,
//!   over non-blocking sockets, per-connection state machines, HTTP/1.1
//!   keep-alive with pipelining, and a bounded connection count with
//!   accept backpressure.
//! * [`ConnModel::Blocking`] — the original thread-per-connection
//!   plane: one request per connection, every response carries
//!   `Connection: close`.
//!
//! Responses are rendered by the same code on both planes, so a given
//! request produces byte-identical bytes on either (the two-daemon
//! bit-identity oracle in the test suite holds old-loop vs new-loop).
//! Either way the heavyweight work happens on the scheduler's worker
//! pool; the connection plane only parses, routes, and writes. Routing
//! `POST /jobs` admits the job, which is bounded: a full queue answers
//! 429 before any search, and otherwise a cold `engine = "auto"` key
//! costs one model-only tuning search on a grid capped per axis by
//! [`crate::submit::MAX_GRID_EXTENT`] (at most about 0.1 s).
//!
//! Every request gets a total wall-clock budget (`io_timeout_secs`)
//! from its first byte to its last: a client trickling one byte per
//! read-timeout window (slowloris) is answered 408 and counted in
//! `conn_timeouts` on both planes, instead of pinning a handler thread
//! or connection slot forever.

use crate::http::{read_request, HttpError, Limits, Request, Response};
use crate::scheduler::{
    job_name, parse_job_name, solve_runner, CancelError, CancelOutcome, ResultError, RunFn,
    Scheduler, SchedulerConfig, Submission, SubmitError,
};
use crate::stats::ServiceStats;
use crate::store::ResultStore;
use crate::submit::parse_submission;
use autotune::TuneCache;
use em_faults::{ConnFault, FaultInjector, FaultPlan, SolveFault};
use em_json::Json;
use em_obs::Counter;
use mwd_core::SolveError;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which connection plane [`Server::run`] drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnModel {
    /// Non-blocking epoll event loop with keep-alive (Linux only;
    /// falls back to [`ConnModel::Blocking`] elsewhere).
    EventLoop,
    /// Thread-per-connection, one request per connection.
    Blocking,
}

impl Default for ConnModel {
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            ConnModel::EventLoop
        } else {
            ConnModel::Blocking
        }
    }
}

impl std::str::FromStr for ConnModel {
    type Err = String;

    fn from_str(s: &str) -> Result<ConnModel, String> {
        match s {
            "event-loop" | "epoll" => Ok(ConnModel::EventLoop),
            "blocking" | "threaded" => Ok(ConnModel::Blocking),
            other => Err(format!(
                "unknown connection model `{other}` (expected `event-loop` or `blocking`)"
            )),
        }
    }
}

/// Everything `mwd serve` configures.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (printed on startup).
    pub addr: String,
    pub limits: Limits,
    pub scheduler: SchedulerConfig,
    /// Artifact directory (`None` = in-memory store only).
    pub store_dir: Option<PathBuf>,
    /// Tuning-cache file, loaded at bind and never written (`None` =
    /// an empty in-memory cache); only `mwd tune` writes the file.
    pub cache_path: Option<PathBuf>,
    /// Total wall-clock budget per request, seconds — first byte to
    /// last byte, not per socket read (a stalled or trickling client
    /// must not pin a handler thread or connection slot forever).
    pub io_timeout_secs: u64,
    /// Connection plane: epoll event loop or thread-per-connection.
    pub conn_model: ConnModel,
    /// Concurrent-connection bound; accepts pause (backlog queues in
    /// the kernel) while at the cap instead of growing without bound.
    pub max_connections: usize,
    /// Deterministic fault-injection plan (`mwd serve --chaos`); `None`
    /// in production.
    pub chaos: Option<FaultPlan>,
    pub quiet: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7171".to_string(),
            limits: Limits::default(),
            scheduler: SchedulerConfig::default(),
            store_dir: None,
            cache_path: None,
            io_timeout_secs: 10,
            conn_model: ConnModel::default(),
            max_connections: 1024,
            chaos: None,
            quiet: false,
        }
    }
}

/// What a finished daemon reports (printed by `mwd serve`, asserted by
/// tests).
#[derive(Clone, Debug)]
pub struct ServiceSummary {
    pub requests: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub timed_out: u64,
    pub store_entries: usize,
    pub dedupe_rate: f64,
}

pub struct Server {
    pub(crate) listener: TcpListener,
    scheduler: Arc<Scheduler>,
    stats: Arc<ServiceStats>,
    store: Arc<ResultStore>,
    limits: Limits,
    io_timeout: Duration,
    conn_model: ConnModel,
    pub(crate) max_connections: usize,
    stop: Arc<AtomicBool>,
    pub(crate) quiet: bool,
    started: Instant,
    /// Resolved once at bind; `/healthz` reports it on every probe.
    git_rev: Arc<String>,
    /// The chaos injector, when this daemon runs under a fault plan.
    faults: Option<Arc<FaultInjector>>,
    /// Monotonic connection ordinal — the identity the connection-level
    /// fault site draws against, so a plan's drops are reproducible.
    pub(crate) conn_seq: Arc<AtomicU64>,
}

impl Server {
    /// Bind the listener and start the worker pool with the production
    /// solve runner.
    pub fn bind(cfg: &ServerConfig) -> Result<Server, String> {
        Server::bind_with_runner(cfg, Box::new(solve_runner))
    }

    /// [`Server::bind`] with an injected job runner — the seam the
    /// deterministic HTTP tests use to control job timing.
    pub fn bind_with_runner(
        cfg: &ServerConfig,
        run: Box<crate::scheduler::RunFn>,
    ) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set the listener non-blocking: {e}"))?;
        let store = Arc::new(match &cfg.store_dir {
            Some(dir) => ResultStore::open(dir)?,
            None => ResultStore::in_memory(),
        });
        let faults = cfg
            .chaos
            .as_ref()
            .map(|plan| Arc::new(FaultInjector::new(plan.clone())));
        let stats = Arc::new(ServiceStats::default());
        // Innermost → outermost: dist routing first (so a multi-worker
        // spec runs decomposed), then the chaos plan's solve-site
        // faults on top (so injected panics/slowdowns hit dist jobs
        // exactly like single-process ones).
        let run = dist_runner(stats.registry().clone(), faults.clone(), run);
        let run = match &faults {
            Some(inj) => {
                store.set_fault_injector(inj.clone());
                chaos_runner(inj.clone(), run)
            }
            None => run,
        };
        let tune = match &cfg.cache_path {
            Some(path) => TuneCache::load(path)?,
            None => TuneCache::in_memory(),
        };
        let scheduler = Scheduler::start(
            cfg.scheduler.clone(),
            store.clone(),
            tune,
            stats.clone(),
            run,
        )?;
        Ok(Server {
            listener,
            scheduler,
            stats,
            store,
            limits: cfg.limits,
            io_timeout: Duration::from_secs(cfg.io_timeout_secs.max(1)),
            conn_model: cfg.conn_model,
            max_connections: cfg.max_connections.max(1),
            stop: Arc::new(AtomicBool::new(false)),
            quiet: cfg.quiet,
            started: Instant::now(),
            git_rev: Arc::new(em_obs::git_revision()),
            faults,
            conn_seq: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The bound address (relevant with port 0).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("no local address: {e}"))
    }

    /// The flag that ends [`Server::run`]; hook it to signals with
    /// [`crate::shutdown::install`].
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// The connection plane this daemon runs.
    pub fn conn_model(&self) -> ConnModel {
        self.conn_model
    }

    /// The shared routing context both connection planes hand to
    /// [`route`].
    pub(crate) fn serve_ctx(&self) -> ServeCtx {
        ServeCtx {
            scheduler: self.scheduler.clone(),
            stats: self.stats.clone(),
            store: self.store.clone(),
            limits: self.limits,
            io_timeout: self.io_timeout,
            stop: self.stop.clone(),
            started: self.started,
            git_rev: self.git_rev.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Serve until the stop flag is set, then drain.
    pub fn run(&self) -> Result<ServiceSummary, String> {
        match self.conn_model {
            #[cfg(target_os = "linux")]
            ConnModel::EventLoop => crate::event_loop::run(self)?,
            #[cfg(not(target_os = "linux"))]
            ConnModel::EventLoop => self.run_blocking(),
            ConnModel::Blocking => self.run_blocking(),
        }
        self.scheduler.shutdown();
        Ok(ServiceSummary {
            requests: self.stats.requests.get(),
            completed: self.stats.completed.get(),
            failed: self.stats.failed.get(),
            cancelled: self.stats.cancelled.get(),
            timed_out: self.stats.timeout.get(),
            store_entries: self.store.len(),
            dedupe_rate: self.stats.dedupe_rate(),
        })
    }

    /// The thread-per-connection plane: accept until the stop flag is
    /// set, then join the handlers.
    fn run_blocking(&self) {
        let ctx = Arc::new(self.serve_ctx());
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            handles.retain(|h| !h.is_finished());
            if handles.len() >= self.max_connections {
                // At the connection cap: let the kernel backlog hold
                // new arrivals until a handler finishes.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let ctx = ctx.clone();
                    let ordinal = self.conn_seq.fetch_add(1, Ordering::SeqCst);
                    handles.push(std::thread::spawn(move || {
                        handle_connection(stream, &ctx, ordinal)
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    // Transient accept failures (ECONNABORTED, EMFILE
                    // under fd pressure, EINTR) must not tear the
                    // daemon down mid-flight — that would skip the
                    // drain, abandon running jobs, and lose the
                    // session's tuning work. Log, back off, keep
                    // serving; the stop flag remains the only exit.
                    if !self.quiet {
                        eprintln!("accept failed (continuing): {e}");
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        if !self.quiet {
            eprintln!("draining: waiting for handlers and in-flight jobs ...");
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Route multi-process specs (`workers > 1`) through the z-slab dist
/// coordinator with in-process thread workers sharing this daemon's
/// metric registry (per-worker halo series on `GET /metrics`) and its
/// chaos injector (wire faults on the halo links). Single-worker specs
/// fall through to the wrapped runner untouched.
fn dist_runner(
    registry: Arc<em_obs::Registry>,
    faults: Option<Arc<FaultInjector>>,
    inner: Box<RunFn>,
) -> Box<RunFn> {
    Box::new(move |spec, threads, cancel| {
        if spec.workers > 1 {
            let opts = em_dist::DistOptions {
                workers: spec.workers,
                threads,
                launcher: em_dist::Launcher::Thread,
                cancel: cancel.clone(),
                registry: Some(registry.clone()),
                faults: faults.clone(),
                ..Default::default()
            };
            em_dist::run_dist(spec, &opts).map_err(SolveError::Failed)
        } else {
            inner(spec, threads, cancel)
        }
    })
}

/// Wrap the real runner in the chaos plan's solve-site faults: an
/// injected panic exercises the worker's panic isolation, an injected
/// slowdown stretches the solve (checking the job's cancel token every
/// slice, so deadlines and drains stay responsive even while wedged).
fn chaos_runner(inj: Arc<FaultInjector>, inner: Box<RunFn>) -> Box<RunFn> {
    Box::new(move |spec, threads, cancel| {
        match inj.solve_fault(&spec.name) {
            SolveFault::Panic => panic!("injected: chaos panic for `{}`", spec.name),
            SolveFault::SlowMs(ms) => {
                let deadline = Instant::now() + Duration::from_millis(ms);
                while Instant::now() < deadline {
                    if let Some(err) = cancel.halt_error() {
                        return Err(err);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            SolveFault::None => {}
        }
        inner(spec, threads, cancel)
    })
}

/// The shared routing context: everything [`route`] needs, identical
/// for the blocking plane and the event loop.
pub(crate) struct ServeCtx {
    pub(crate) scheduler: Arc<Scheduler>,
    pub(crate) stats: Arc<ServiceStats>,
    pub(crate) store: Arc<ResultStore>,
    pub(crate) limits: Limits,
    pub(crate) io_timeout: Duration,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) started: Instant,
    pub(crate) git_rev: Arc<String>,
    pub(crate) faults: Option<Arc<FaultInjector>>,
}

/// One routed response plus its accounting: which latency-histogram
/// series the exchange lands on, and the counter to bump only once the
/// bytes actually reach the client (so error/disconnect paths don't
/// inflate `results_served`).
pub(crate) struct Routed {
    pub(crate) response: Response,
    pub(crate) endpoint: &'static str,
    pub(crate) on_written: Option<Arc<Counter>>,
}

pub(crate) fn routed(endpoint: &'static str, response: Response) -> Routed {
    Routed {
        response,
        endpoint,
        on_written: None,
    }
}

/// A reader that enforces the total per-request wall-clock budget on
/// the blocking plane: each read's socket timeout is clamped to the
/// time remaining until the request deadline, so a client trickling a
/// byte per read window still runs out of budget (the slowloris fix —
/// `SO_RCVTIMEO` alone restarts the clock on every byte).
struct DeadlineStream {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining < Duration::from_millis(1) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request wall-clock budget exhausted",
            ));
        }
        self.stream.set_read_timeout(Some(remaining))?;
        self.stream.read(buf)
    }
}

fn handle_connection(stream: TcpStream, ctx: &ServeCtx, ordinal: u64) {
    let _ = stream.set_write_timeout(Some(ctx.io_timeout));
    let t0 = Instant::now();
    let mut reader = BufReader::new(DeadlineStream {
        stream: match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        },
        deadline: t0 + ctx.io_timeout,
    });
    let out = match read_request(&mut reader, &ctx.limits) {
        Ok(Some(req)) => {
            ServiceStats::bump(&ctx.stats.requests);
            route(&req, ctx)
        }
        // The peer closed without sending a byte: not a request.
        Ok(None) => return,
        Err(e) => {
            ServiceStats::bump(&ctx.stats.requests);
            ServiceStats::bump(if matches!(e, HttpError::Timeout(_)) {
                &ctx.stats.conn_timeouts
            } else {
                &ctx.stats.rejected_bad
            });
            routed("other", Response::error(e.status(), e.message()))
        }
    };
    let mut stream = stream;
    // Connection-level chaos: render the response but deliver only a
    // prefix, then drop the socket — the client sees a torn response
    // and must treat it as a failed exchange.
    if let Some(inj) = &ctx.faults {
        if inj.conn_fault(&format!("conn-{ordinal}")) == ConnFault::DropMid {
            let bytes = out.response.render(false);
            let _ = stream.write_all(&bytes[..bytes.len() / 2]);
            let _ = stream.flush();
            ctx.stats
                .latency(out.endpoint)
                .observe(t0.elapsed().as_secs_f64());
            return;
        }
    }
    if out.response.write_to(&mut stream).is_ok() {
        if let Some(counter) = &out.on_written {
            counter.inc();
        }
    }
    ctx.stats
        .latency(out.endpoint)
        .observe(t0.elapsed().as_secs_f64());
}

pub(crate) fn route(req: &Request, ctx: &ServeCtx) -> Routed {
    let segments: Vec<&str> = req.path().split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => routed("/healthz", healthz(ctx)),
        ("GET", ["stats"]) => routed("/stats", stats_doc(ctx)),
        ("GET", ["metrics"]) => routed("/metrics", metrics(ctx)),
        ("POST", ["jobs"]) => routed("/jobs", submit(req, ctx)),
        ("GET", ["jobs", id]) => routed("/jobs/:id", job_status(id, ctx)),
        ("POST", ["jobs", id, "cancel"]) => routed("/jobs/:id/cancel", cancel_job(id, ctx)),
        ("GET", ["jobs", id, "result"]) => {
            let (response, served) = job_result(id, ctx);
            Routed {
                response,
                endpoint: "/jobs/:id/result",
                on_written: served.then(|| ctx.stats.results_served.clone()),
            }
        }
        ("GET", ["results", key]) => {
            let (response, served) = result_by_key(key, ctx);
            Routed {
                response,
                endpoint: "/results/:key",
                on_written: served.then(|| ctx.stats.results_served.clone()),
            }
        }
        ("POST", ["shutdown"]) => {
            ctx.stop.store(true, Ordering::SeqCst);
            routed(
                "/shutdown",
                Response::json(
                    200,
                    &Json::obj(vec![("status", Json::str("shutting-down"))]),
                ),
            )
        }
        (
            m,
            ["jobs"] | ["healthz"] | ["stats"] | ["metrics"] | ["shutdown"] | ["jobs", _, "cancel"],
        ) => routed(
            "other",
            Response::error(405, &format!("method `{m}` not allowed here")),
        ),
        _ => routed(
            "other",
            Response::error(404, &format!("no route for {} {}", req.method, req.path())),
        ),
    }
}

fn healthz(ctx: &ServeCtx) -> Response {
    let (queued, running, records) = ctx.scheduler.queue_counts();
    Response::json(
        200,
        &Json::obj(vec![
            ("status", Json::str("ok")),
            (
                "uptime_secs",
                Json::Num(ctx.started.elapsed().as_secs_f64()),
            ),
            ("git_rev", Json::str(ctx.git_rev.as_str())),
            ("isa", Json::str(em_kernels::active_isa().name())),
            ("queued", Json::Int(queued as i64)),
            ("running", Json::Int(running as i64)),
            ("records", Json::Int(records as i64)),
            ("workers", Json::Int(ctx.scheduler.workers as i64)),
            (
                "threads_per_job",
                Json::Int(ctx.scheduler.threads_per_job as i64),
            ),
            ("budget", Json::Int(ctx.scheduler.budget_total as i64)),
            ("queue_depth", Json::Int(ctx.scheduler.queue_depth as i64)),
        ]),
    )
}

fn stats_doc(ctx: &ServeCtx) -> Response {
    let (queued, running, records) = ctx.scheduler.queue_counts();
    let (store_hits, store_misses) = ctx.store.counters();
    let mut doc = ctx.stats.to_json();
    doc.set("queued", Json::Int(queued as i64));
    doc.set("running", Json::Int(running as i64));
    doc.set("records", Json::Int(records as i64));
    doc.set(
        "store",
        Json::obj(vec![
            ("entries", Json::Int(ctx.store.len() as i64)),
            ("lookup_hits", Json::Int(store_hits as i64)),
            ("lookup_misses", Json::Int(store_misses as i64)),
        ]),
    );
    doc.set("budget", Json::Int(ctx.scheduler.budget_total as i64));
    doc.set("fingerprint", Json::str(ctx.scheduler.fingerprint()));
    Response::json(200, &doc)
}

/// The Prometheus exposition. Counters render straight off the shared
/// registry; point-in-time values (queue depth, leases, store size) are
/// read from their owners at scrape time and published as gauges rather
/// than double-booked as counters.
fn metrics(ctx: &ServeCtx) -> Response {
    let reg = ctx.stats.registry();
    let (queued, running, records) = ctx.scheduler.queue_counts();
    reg.gauge("em_queue_depth", "Jobs waiting in the queue.", &[])
        .set(queued as f64);
    reg.gauge("em_jobs_in_flight", "Jobs running right now.", &[])
        .set(running as f64);
    reg.gauge(
        "em_job_records",
        "Job records retained for GET /jobs/:id.",
        &[],
    )
    .set(records as f64);
    reg.gauge("em_store_entries", "Artifacts in the result store.", &[])
        .set(ctx.store.len() as f64);
    let (store_hits, store_misses) = ctx.store.counters();
    reg.gauge(
        "em_store_lookups",
        "Result-store lookups since start, by outcome.",
        &[("result", "hit")],
    )
    .set(store_hits as f64);
    reg.gauge(
        "em_store_lookups",
        "Result-store lookups since start, by outcome.",
        &[("result", "miss")],
    )
    .set(store_misses as f64);
    reg.gauge(
        "em_store_quarantined",
        "Artifacts quarantined for failing integrity verification.",
        &[],
    )
    .set(ctx.store.quarantined() as f64);
    if let Some(inj) = &ctx.faults {
        let c = inj.counts();
        for (site, n) in [
            ("panic", c.panics),
            ("slow", c.slows),
            ("disk_error", c.disk_errors),
            ("truncate", c.truncates),
            ("bit_flip", c.bit_flips),
            ("conn_drop", c.conn_drops),
        ] {
            reg.gauge(
                "em_injected_faults",
                "Faults injected so far by the chaos plan, by site.",
                &[("site", site)],
            )
            .set(n as f64);
        }
    }
    let in_use = ctx.stats.threads_in_use.load(Ordering::SeqCst) as f64;
    let peak = ctx.stats.peak_threads_in_use.load(Ordering::SeqCst) as f64;
    reg.gauge(
        "em_threads_in_use",
        "Engine threads currently leased by running jobs.",
        &[],
    )
    .set(in_use);
    reg.gauge(
        "em_threads_in_use_peak",
        "High-water mark of leased engine threads.",
        &[],
    )
    .set(peak);
    let budget = ctx.scheduler.budget_total as f64;
    reg.gauge(
        "em_worker_utilization",
        "Fraction of the engine-thread budget currently leased.",
        &[],
    )
    .set(if budget > 0.0 { in_use / budget } else { 0.0 });
    reg.gauge(
        "em_uptime_seconds",
        "Seconds since the daemon bound its listener.",
        &[],
    )
    .set(ctx.started.elapsed().as_secs_f64());
    Response::text(200, reg.render())
}

fn submit(req: &Request, ctx: &ServeCtx) -> Response {
    let submission = match parse_submission(&req.body) {
        Ok(s) => s,
        Err(e) => {
            ServiceStats::bump(&ctx.stats.rejected_bad);
            return Response::error(400, &e);
        }
    };
    match ctx
        .scheduler
        .submit_with_deadline(submission.spec, submission.deadline_ms)
    {
        Ok(Submission::Cached { key }) => Response::json(
            200,
            &Json::obj(vec![
                ("status", Json::str("cached")),
                ("key", Json::str(&key)),
                ("result", Json::str(format!("/results/{key}"))),
            ]),
        ),
        Ok(Submission::Coalesced { job, key }) => Response::json(
            202,
            &Json::obj(vec![
                ("status", Json::str("coalesced")),
                ("job", Json::str(job_name(job))),
                ("key", Json::str(&key)),
            ]),
        ),
        Ok(Submission::Queued { job, key }) => Response::json(
            202,
            &Json::obj(vec![
                ("status", Json::str("queued")),
                ("job", Json::str(job_name(job))),
                ("key", Json::str(&key)),
            ]),
        ),
        Err(SubmitError::Invalid(e)) => {
            ServiceStats::bump(&ctx.stats.rejected_bad);
            Response::error(400, &e)
        }
        Err(SubmitError::Overloaded { queue_depth }) => Response::error(
            429,
            &format!("queue is at its {queue_depth}-job capacity; retry later"),
        )
        .with_retry_after(1),
        Err(SubmitError::ShuttingDown) => {
            Response::error(503, "daemon is draining").with_retry_after(5)
        }
        Err(SubmitError::Internal(e)) => Response::error(500, &e),
    }
}

fn cancel_job(name: &str, ctx: &ServeCtx) -> Response {
    let Some(id) = parse_job_name(name) else {
        return Response::error(400, &format!("malformed job id `{name}`"));
    };
    match ctx.scheduler.cancel_job(id) {
        Ok(outcome) => Response::json(
            202,
            &Json::obj(vec![
                ("job", Json::str(job_name(id))),
                (
                    "status",
                    Json::str(match outcome {
                        CancelOutcome::Cancelled => "cancelled",
                        CancelOutcome::Cancelling => "cancelling",
                    }),
                ),
            ]),
        ),
        Err(CancelError::UnknownJob) => Response::error(404, &format!("unknown job `{name}`")),
        Err(CancelError::AlreadyFinished(state)) => Response::error(
            409,
            &format!(
                "job `{name}` already finished as `{}`; nothing to cancel",
                state.as_str()
            ),
        ),
    }
}

fn job_status(name: &str, ctx: &ServeCtx) -> Response {
    let Some(id) = parse_job_name(name) else {
        return Response::error(400, &format!("malformed job id `{name}`"));
    };
    match ctx.scheduler.job_json(id) {
        Some(doc) => Response::json(200, &doc),
        None => Response::error(404, &format!("unknown job `{name}`")),
    }
}

/// The bool marks a result payload whose `results_served` increment is
/// deferred until the bytes are confirmed written (see [`Routed`]).
fn job_result(name: &str, ctx: &ServeCtx) -> (Response, bool) {
    let Some(id) = parse_job_name(name) else {
        return (
            Response::error(400, &format!("malformed job id `{name}`")),
            false,
        );
    };
    let response = match ctx.scheduler.result_bytes(id) {
        // The artifact is shared straight out of the store — no
        // per-response copy of the bytes.
        Ok(bytes) => return (Response::shared_json(200, bytes), true),
        Err(ResultError::UnknownJob) => Response::error(404, &format!("unknown job `{name}`")),
        Err(ResultError::NotReady(state)) => Response::error(
            409,
            &format!("job `{name}` is {}; poll until done", state.as_str()),
        ),
        Err(ResultError::JobFailed(e)) => Response::error(500, &e),
        Err(ResultError::Missing) => {
            Response::error(500, &format!("artifact for `{name}` is missing"))
        }
    };
    (response, false)
}

fn result_by_key(key: &str, ctx: &ServeCtx) -> (Response, bool) {
    if !em_json::hash::is_key(key) {
        return (
            Response::error(400, &format!("malformed result key `{key}`")),
            false,
        );
    }
    match ctx.store.get(key) {
        Some(bytes) => (Response::shared_json(200, bytes), true),
        None => (
            Response::error(404, &format!("no stored result under `{key}`")),
            false,
        ),
    }
}
