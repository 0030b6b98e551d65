//! Chaos suite: the daemon under a deterministic fault-injection plan.
//!
//! Each test boots an in-process daemon with the *real* solve runner
//! and a seeded [`em_faults::FaultPlan`], then drives it with a
//! fault-tolerant client (bounded retries, torn responses treated as
//! retryable). The invariants under every plan:
//!
//! - the daemon survives: it keeps answering `/healthz`, drains
//!   cleanly, and its run loop returns `Ok`;
//! - jobs that complete serve artifacts **bit-identical** to a
//!   fault-free baseline — corruption never leaks into a response;
//! - a store reopened over a chaos-corrupted directory quarantines the
//!   damage instead of serving it;
//! - the engine-thread budget invariant holds (peak leases ≤ budget).

use em_faults::FaultPlan;
use em_json::Json;
use em_service::{Server, ServerConfig};
use mwd_core::ThreadBudget;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One tiny sub-second scenario per variant. The scenario *name* varies
/// too: the solve fault site draws per name, so a plan hits different
/// variants differently instead of all-or-nothing.
fn spec_toml(variant: usize) -> String {
    format!(
        r#"name = "chaos-{variant}"
description = "chaos workload variant"

[grid]
nx = 4
ny = 4
nz = 24

[physics]
lambda_cells = 8.0
lambda_nm = {}.0

[pml]
thickness = 4

[source]
z_plane = 18

[scene]
materials = ["vacuum"]
background = "vacuum"

[engine]
kind = "naive-periodic-xy"

[convergence]
tol = 1e-2
max_periods = 2
"#,
        550 + 7 * variant
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("em_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(chaos: Option<&str>, store_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: em_service::SchedulerConfig {
            workers: 1,
            queue_depth: 16,
            budget: ThreadBudget::new(1),
            ..Default::default()
        },
        store_dir,
        chaos: chaos.map(|p| FaultPlan::parse(p).unwrap()),
        quiet: true,
        ..Default::default()
    }
}

struct Daemon {
    addr: String,
    thread: Option<std::thread::JoinHandle<Result<em_service::server::ServiceSummary, String>>>,
}

impl Daemon {
    fn start(cfg: ServerConfig) -> Daemon {
        let server = Server::bind(&cfg).unwrap();
        let addr = format!("{}", server.local_addr().unwrap());
        let thread = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            thread: Some(thread),
        }
    }

    fn stop(mut self) -> em_service::server::ServiceSummary {
        // Even the shutdown request can hit an injected connection
        // drop; keep asking until the daemon acknowledges or exits.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match http_try(&self.addr, "POST", "/shutdown", None) {
                Ok((200, _)) => break,
                _ if Instant::now() > deadline => break,
                _ => std::thread::sleep(Duration::from_millis(25)),
            }
        }
        self.thread.take().unwrap().join().unwrap().unwrap()
    }
}

/// One raw exchange; a torn or malformed response is an `Err`, so
/// callers can decide to retry. A body shorter than its declared
/// `Content-Length` (the injected mid-response drop) is torn, never
/// silently accepted as a payload.
fn http_try(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = body.unwrap_or(&[]);
    // `Connection: close` because this client reads to EOF; keep-alive
    // exchanges live in the dedicated keepalive test suite.
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut payload = head.into_bytes();
    payload.extend_from_slice(body);
    stream.write_all(&payload).map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response: {text:.60}"))?;
    let Some((header, payload)) = text.split_once("\r\n\r\n") else {
        return Err("truncated response".to_string());
    };
    let declared = header.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse::<usize>().ok())
            .flatten()
    });
    if let Some(n) = declared {
        if payload.len() < n {
            return Err(format!("torn response: {} of {n} bytes", payload.len()));
        }
    }
    Ok((status, payload.to_string()))
}

/// Retry `http_try` against injected connection drops until the
/// exchange lands intact (bounded; panics if the daemon really died).
fn http(addr: &str, method: &str, path: &str, body: Option<&[u8]>) -> (u16, String) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match http_try(addr, method, path, body) {
            Ok(r) => return r,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "{method} {path} never landed: {e}"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// Follow a job to any terminal state; returns `(state, full doc)`.
fn poll_terminal(addr: &str, job: &str) -> (String, Json) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "{job} never reached a terminal");
        let (status, body) = http(addr, "GET", &format!("/jobs/{job}"), None);
        assert_eq!(status, 200, "{body}");
        let doc = em_json::parse(&body).unwrap();
        let state = doc.get("state").unwrap().as_str().unwrap().to_string();
        match state.as_str() {
            "queued" | "running" => std::thread::sleep(Duration::from_millis(20)),
            _ => return (state, doc),
        }
    }
}

/// Submit one variant and drive it to a terminal state, retrying the
/// submission itself against 429/503/torn responses. Returns
/// `(terminal state, content key, artifact bytes if done)`.
fn drive(addr: &str, variant: usize) -> (String, String, Option<String>) {
    let body = spec_toml(variant);
    let deadline = Instant::now() + Duration::from_secs(30);
    let doc = loop {
        match http_try(addr, "POST", "/jobs", Some(body.as_bytes())) {
            Ok((200 | 202, payload)) => break em_json::parse(&payload).unwrap(),
            Ok((429 | 503, _)) | Err(_) => {
                assert!(Instant::now() < deadline, "submission of {variant} starved");
                std::thread::sleep(Duration::from_millis(25));
            }
            Ok((s, payload)) => panic!("variant {variant}: http-{s} {payload}"),
        }
    };
    let key = doc.get("key").unwrap().as_str().unwrap().to_string();
    let state = match doc.get("status").unwrap().as_str().unwrap() {
        "cached" => "done".to_string(),
        _ => {
            let job = doc.get("job").unwrap().as_str().unwrap().to_string();
            poll_terminal(addr, &job).0
        }
    };
    let bytes = (state == "done").then(|| {
        let (s, artifact) = http(addr, "GET", &format!("/results/{key}"), None);
        assert_eq!(s, 200, "done job must serve its artifact: {artifact}");
        artifact
    });
    (state, key, bytes)
}

const VARIANTS: usize = 6;

/// Fault-free reference run: every variant completes, and its artifact
/// bytes are the baseline later plans are compared against.
fn baseline() -> HashMap<usize, (String, String)> {
    let daemon = Daemon::start(config(None, None));
    let mut base = HashMap::new();
    for v in 0..VARIANTS {
        let (state, key, bytes) = drive(&daemon.addr, v);
        assert_eq!(state, "done", "baseline variant {v}");
        base.insert(v, (key, bytes.unwrap()));
    }
    let summary = daemon.stop();
    assert_eq!(summary.completed, VARIANTS as u64);
    base
}

#[test]
fn daemon_survives_every_plan_and_serves_only_bit_identical_artifacts() {
    let base = baseline();
    let plans = [
        ("panics", "seed=11,panic=0.5"),
        ("diskerr", "seed=12,disk-error=0.5"),
        ("corrupt", "seed=13,truncate=0.6,bit-flip=0.6"),
        ("conndrop", "seed=14,conn-drop=0.3"),
        ("slow", "seed=15,slow=0.5:250"),
        (
            "mixed",
            "seed=16,panic=0.15,slow=0.2:200,disk-error=0.15,truncate=0.2,bit-flip=0.2,conn-drop=0.15",
        ),
    ];
    for (tag, plan) in plans {
        let dir = temp_dir(tag);
        let daemon = Daemon::start(config(Some(plan), Some(dir.join("store"))));
        let mut done = 0usize;
        let mut keys: Vec<(usize, String)> = Vec::new();
        for v in 0..VARIANTS {
            let (state, key, bytes) = drive(&daemon.addr, v);
            assert!(
                matches!(state.as_str(), "done" | "failed"),
                "[{tag}] variant {v} ended `{state}` (injected faults may fail a job, \
                 never wedge or corrupt it)"
            );
            if let Some(bytes) = bytes {
                let (bkey, bbytes) = &base[&v];
                assert_eq!(&key, bkey, "[{tag}] content key drifted for variant {v}");
                assert_eq!(
                    &bytes, bbytes,
                    "[{tag}] served artifact for variant {v} is not bit-identical \
                     to the fault-free baseline"
                );
                done += 1;
                keys.push((v, key));
            }
        }
        // The daemon is still alive and the budget invariant held.
        let (s, body) = http(&daemon.addr, "GET", "/healthz", None);
        assert_eq!(s, 200, "[{tag}] {body}");
        let (s, body) = http(&daemon.addr, "GET", "/stats", None);
        assert_eq!(s, 200, "[{tag}] {body}");
        let stats = em_json::parse(&body).unwrap();
        let peak = stats.get("peak_threads_in_use").unwrap().as_i64().unwrap();
        let budget = stats.get("budget").unwrap().as_i64().unwrap();
        assert!(
            peak <= budget,
            "[{tag}] peak thread leases {peak} blew the budget {budget}"
        );
        let summary = daemon.stop();
        assert_eq!(
            summary.completed, done as u64,
            "[{tag}] completion accounting"
        );

        // Crash-safety: reopen the store over whatever the plan did to
        // the directory. Every surviving entry must be bit-identical to
        // the baseline; everything else must be quarantined or absent —
        // corrupt bytes are never served, not even after a restart.
        let reopened = em_service::ResultStore::open(&dir.join("store")).unwrap();
        for (v, key) in &keys {
            // A `None` here is fine: corrupted on disk -> quarantined, a miss.
            if let Some(bytes) = reopened.get(key) {
                assert_eq!(
                    String::from_utf8_lossy(&bytes),
                    base[v].1,
                    "[{tag}] reloaded artifact for variant {v} differs from baseline"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn deadline_bounded_job_times_out_within_one_checkpoint() {
    // A plan that makes every solve sleep 10 s — but the injected
    // slowdown polls the job's cancel token every slice, exactly like
    // the solver does once per period. A 300 ms deadline must therefore
    // stop the job within one checkpoint, not after 10 s.
    let daemon = Daemon::start(config(Some("seed=21,slow=1:10000"), None));
    let body = format!(
        r#"{{"toml": {}, "deadline_ms": 300}}"#,
        Json::str(spec_toml(0)).compact()
    );
    let t0 = Instant::now();
    let (status, payload) = http(&daemon.addr, "POST", "/jobs", Some(body.as_bytes()));
    assert_eq!(status, 202, "{payload}");
    let sub = em_json::parse(&payload).unwrap();
    let job = sub.get("job").unwrap().as_str().unwrap().to_string();
    let (state, doc) = poll_terminal(&daemon.addr, &job);
    let elapsed = t0.elapsed();
    assert_eq!(state, "timeout", "{}", doc.pretty());
    let err = doc.get("error").unwrap().as_str().unwrap();
    assert!(err.starts_with("timeout:"), "{err}");
    assert!(
        elapsed < Duration::from_secs(5),
        "halted in {elapsed:?}, far before the 10 s injected solve"
    );
    // The result endpoint reports the timeout, not a payload.
    let (status, body) = http(&daemon.addr, "GET", &format!("/jobs/{job}/result"), None);
    assert_eq!(status, 500);
    assert!(body.contains("timeout"), "{body}");
    let summary = daemon.stop();
    assert_eq!(summary.timed_out, 1);
    assert_eq!(summary.completed, 0);
}

#[test]
fn cancel_endpoint_cancels_queued_and_running_jobs() {
    // Slow solves pin the single worker so the second job provably
    // waits in the queue.
    let daemon = Daemon::start(config(Some("seed=22,slow=1:10000"), None));
    let submit = |v: usize| {
        let (status, payload) = http(&daemon.addr, "POST", "/jobs", Some(spec_toml(v).as_bytes()));
        assert_eq!(status, 202, "{payload}");
        let doc = em_json::parse(&payload).unwrap();
        doc.get("job").unwrap().as_str().unwrap().to_string()
    };
    let a = submit(1);
    let b = submit(2);

    let (status, body) = http(&daemon.addr, "POST", "/jobs/zzz/cancel", None);
    assert_eq!(status, 400, "{body}");
    let (status, body) = http(&daemon.addr, "POST", "/jobs/j-999/cancel", None);
    assert_eq!(status, 404, "{body}");

    // B is queued: cancel is immediate and terminal.
    let (status, body) = http(&daemon.addr, "POST", &format!("/jobs/{b}/cancel"), None);
    assert_eq!(status, 202, "{body}");
    assert_eq!(
        em_json::parse(&body)
            .unwrap()
            .get("status")
            .unwrap()
            .as_str(),
        Some("cancelled")
    );
    let (state, _) = poll_terminal(&daemon.addr, &b);
    assert_eq!(state, "cancelled");
    // Cancelling a finished job is a conflict, not a second decrement.
    let (status, body) = http(&daemon.addr, "POST", &format!("/jobs/{b}/cancel"), None);
    assert_eq!(status, 409, "{body}");

    // A is running (wedged in the injected slow solve): the cancel
    // trips its token and the job halts at the next checkpoint instead
    // of after the full 10 s.
    let t0 = Instant::now();
    let (status, body) = http(&daemon.addr, "POST", &format!("/jobs/{a}/cancel"), None);
    assert_eq!(status, 202, "{body}");
    let ack = em_json::parse(&body).unwrap();
    let acked = ack.get("status").unwrap().as_str().unwrap().to_string();
    assert!(
        acked == "cancelling" || acked == "cancelled",
        "running-job cancel acks as cancelling (or cancelled if it was still queued): {acked}"
    );
    let (state, doc) = poll_terminal(&daemon.addr, &a);
    assert_eq!(state, "cancelled", "{}", doc.pretty());
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "cancel cut the solve short"
    );
    let summary = daemon.stop();
    assert_eq!(summary.cancelled, 2);
    assert_eq!(summary.completed, 0);
}

/// The chaos seam reaches the dist halo wire directly: a plan that
/// severs every halo link kills the exchange on the first plane, and
/// the decomposed solve must land as a clean per-job failure — bounded
/// by its own protocol, far inside the deadline, never a hang or a
/// drain-shaped outcome.
#[test]
fn dist_worker_link_cut_mid_solve_fails_cleanly_within_the_deadline() {
    use mwd_core::cancel::CancelToken;
    use std::sync::Arc;
    let spec = em_scenarios::ScenarioSpec::from_toml_str(&spec_toml(5)).unwrap();
    let inj = Arc::new(em_faults::FaultInjector::new(
        FaultPlan::parse("seed=31,conn-drop=1").unwrap(),
    ));
    let opts = em_dist::DistOptions {
        workers: 2,
        threads: 2,
        cancel: CancelToken::with_deadline(Duration::from_secs(30)),
        faults: Some(inj),
        ..Default::default()
    };
    let t0 = Instant::now();
    let outcomes = em_dist::run_dist(&spec, &opts).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(outcomes.len(), 1);
    let err = outcomes[0]
        .error
        .as_ref()
        .map(ToString::to_string)
        .expect("the cut link must fail the job");
    assert!(err.contains("dist worker"), "{err}");
    assert!(
        !err.starts_with("cancelled:") && !err.starts_with("timeout:"),
        "a wire fault is a failure, not a drain: {err}"
    );
    assert!(
        elapsed < Duration::from_secs(20),
        "failed in {elapsed:?} — via the protocol, not by burning the deadline"
    );
}

/// A `workers = 2` spec submitted to the daemon runs decomposed (the
/// dist-runner seam in `bind_with_runner`), produces the same physics
/// as the single-process solve of the same scenario, and leaves live
/// per-worker halo series on `GET /metrics`.
#[test]
fn daemon_decomposes_multi_worker_specs_and_exposes_halo_metrics() {
    let mut cfg = config(None, None);
    cfg.scheduler.budget = ThreadBudget::new(2);
    let daemon = Daemon::start(cfg);

    // Fresh daemon: the halo families are pre-registered at zero.
    let (s, body) = http(&daemon.addr, "GET", "/metrics", None);
    assert_eq!(s, 200);
    assert!(
        body.contains("em_halo_exchanges_total{worker=\"0\"} 0"),
        "{body}"
    );
    assert!(
        body.contains("em_halo_wait_seconds_count{worker=\"0\"} 0"),
        "{body}"
    );

    let submit = |toml: String| {
        let (status, payload) = http(&daemon.addr, "POST", "/jobs", Some(toml.as_bytes()));
        assert!(status == 200 || status == 202, "{payload}");
        let doc = em_json::parse(&payload).unwrap();
        let key = doc.get("key").unwrap().as_str().unwrap().to_string();
        if doc.get("status").unwrap().as_str() != Some("cached") {
            let job = doc.get("job").unwrap().as_str().unwrap().to_string();
            let (state, d) = poll_terminal(&daemon.addr, &job);
            assert_eq!(state, "done", "{}", d.pretty());
        }
        let (s, artifact) = http(&daemon.addr, "GET", &format!("/results/{key}"), None);
        assert_eq!(s, 200, "{artifact}");
        em_json::parse(&artifact).unwrap()
    };
    let single = submit(spec_toml(0));
    let dist = submit(format!("workers = 2\n{}", spec_toml(0)));

    // The artifacts legitimately differ in key/spec_hash (`workers` is
    // part of the spec identity); every physics field must not.
    let outcome = |doc: &Json| doc.get("outcomes").unwrap().as_arr().unwrap()[0].clone();
    let (a, b) = (outcome(&single), outcome(&dist));
    for field in [
        "converged",
        "periods",
        "steps",
        "rel_change",
        "energy",
        "back_iteration_cells",
        "absorption",
        "intensity_profile",
    ] {
        assert_eq!(
            a.get(field).map(Json::compact),
            b.get(field).map(Json::compact),
            "field `{field}` drifted under decomposition"
        );
    }

    // Both workers' halo series are live now.
    let (s, body) = http(&daemon.addr, "GET", "/metrics", None);
    assert_eq!(s, 200);
    for w in 0..2 {
        let needle = format!("em_halo_exchanges_total{{worker=\"{w}\"}}");
        let line = body
            .lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("missing series {needle}"));
        let count: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(count > 0.0, "worker {w} exchanged no halos: {line}");
    }
    assert!(
        body.contains("em_halo_wait_seconds_count{worker=\"1\"}"),
        "{body}"
    );
    daemon.stop();
}

#[test]
fn sigterm_during_a_chaos_wedge_drains_within_the_deadline() {
    // SIGTERM lands while the only worker is wedged in an injected slow
    // solve and another job waits in the queue. The drain contract: the
    // running job finishes (the wedge is finite), queued jobs are
    // cancelled, and the daemon exits cleanly well within a supervisor's
    // kill deadline — it must not wait on the queue.
    let cfg = config(Some("seed=23,slow=1:2500"), None);
    let server = Server::bind(&cfg).unwrap();
    let addr = format!("{}", server.local_addr().unwrap());
    let stop = server.stop_flag();
    let thread = std::thread::spawn(move || server.run());

    let submit = |v: usize| {
        let (status, payload) = http(&addr, "POST", "/jobs", Some(spec_toml(v).as_bytes()));
        assert_eq!(status, 202, "{payload}");
    };
    submit(3);
    submit(4);
    // Wait until the first job is provably running (wedged).
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert!(Instant::now() < deadline, "job never started running");
        let (s, b) = http(&addr, "GET", "/healthz", None);
        assert_eq!(s, 200);
        if em_json::parse(&b).unwrap().get("running").unwrap().as_i64() == Some(1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // What `shutdown::install` does on SIGTERM.
    let t0 = Instant::now();
    stop.store(true, Ordering::SeqCst);
    let summary = thread.join().unwrap().unwrap();
    let drained_in = t0.elapsed();
    assert!(
        drained_in < Duration::from_secs(15),
        "drain took {drained_in:?}; the wedge must bound it, not the queue"
    );
    assert_eq!(summary.completed, 1, "the wedged job still finished");
    assert_eq!(summary.cancelled, 1, "the queued job was cancelled");
}
