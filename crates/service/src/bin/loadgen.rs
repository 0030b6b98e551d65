//! `loadgen` — hammer a running `mwd serve` daemon with a concurrent
//! mixed workload and report latency percentiles + dedupe hit rate.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--requests N] [--concurrency C]
//!         [--dup-ratio R] [--scenario BUILTIN | --spec FILE | --gen-mix MIX]
//!         [--engine KIND] [--max-periods M] [--deadline-ms D] [--seed S]
//!         [--retries K] [--allow-failures]
//!         [--report FILE] [--min-dedupe-hits K] [--shutdown] [--quiet]
//! ```
//!
//! The workload is `N` submissions drawn from a pool of
//! `U = max(1, N * (1 - R))` distinct spec variants (the base scenario
//! with per-variant `lambda_nm`, or — with `--gen-mix` — generated
//! scenarios drawn from a weighted family mix), shuffled
//! deterministically by `--seed`. With `R = 0.5`, half the requests repeat an earlier spec —
//! the daemon should answer those from the result store (or coalesce
//! them onto the in-flight job) without solving.
//!
//! Every completed request fetches its artifact and the bytes are
//! compared per variant: a cached result that differs from the first
//! solve of the same variant is counted as a mismatch and fails the
//! run. The summary (and the `--report` file) therefore certifies both
//! the hit rate and bit-identical serving. Sustained cached-GET
//! throughput is the repo benchmark's `serve-mix` workload, not this
//! tool's.

use em_json::Json;
use em_obs::{Histogram, HistogramSnapshot};
use em_scenarios::gen::{generate, splitmix64, Family, GenParams};
use em_service::flags::{Flags, COUNT};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const USAGE: &str = "loadgen — concurrent load generator for `mwd serve`

OPTIONS:
    --addr <host:port>     daemon address (default 127.0.0.1:7171)
    --requests <n>         total submissions (default 20)
    --concurrency <c>      client threads (default 4)
    --dup-ratio <r>        fraction of requests repeating an earlier
                           spec, 0..=1 (default 0.5)
    --scenario <builtin>   base catalog scenario (default vacuum-slab)
    --spec <file>          base scenario TOML file (overrides --scenario)
    --gen-mix <mix>        draw variants from the scenario generators
                           instead: `family:weight,...` over
                           multilayer|rough-interface|nanoparticle|nanowire
                           (weight defaults to 1); overrides --scenario
                           and --spec
    --engine <kind>        engine override sent with every request
    --max-periods <m>      per-request convergence cap (default 1)
    --deadline-ms <d>      per-request job deadline sent with every
                           submission (default: none)
    --seed <s>             workload shuffle seed (default 7)
    --retries <k>          bounded retries per request on 429/503 or a
                           torn connection, paced by Retry-After when
                           present and decorrelated jitter otherwise
                           (default 0)
    --allow-failures       report failures/timeouts without failing the
                           run (result mismatches still fail it)
    --report <file>        write the JSON report to this file
                           (default results/loadgen_report.json)
    --min-dedupe-hits <k>  exit 1 if fewer requests were deduped
    --shutdown             POST /shutdown when done
    --quiet                suppress per-request lines
";

struct Opts {
    addr: String,
    requests: usize,
    concurrency: usize,
    dup_ratio: f64,
    scenario: String,
    spec_file: Option<PathBuf>,
    gen_mix: Vec<(Family, f64)>,
    engine: Option<String>,
    max_periods: usize,
    deadline_ms: Option<u64>,
    seed: u64,
    retries: u32,
    allow_failures: bool,
    report: PathBuf,
    min_dedupe_hits: Option<usize>,
    shutdown: bool,
    quiet: bool,
}

/// The flags `loadgen` takes (`=` marks a flag with a value).
const FLAGS: &[&str] = &[
    "--addr=",
    "--requests=",
    "--concurrency=",
    "--dup-ratio=",
    "--scenario=",
    "--spec=",
    "--gen-mix=",
    "--engine=",
    "--max-periods=",
    "--deadline-ms=",
    "--seed=",
    "--retries=",
    "--allow-failures",
    "--report=",
    "--min-dedupe-hits=",
    "--shutdown",
    "--quiet",
    "--help",
];

/// `loadgen`'s options from its arguments.
fn opts(args: &[String]) -> Result<Opts, String> {
    let f = Flags::parse("loadgen", FLAGS, args).map_err(|e| format!("{e}; try --help"))?;
    if f.switch("--help") || f.operands().iter().any(|a| a == "-h") {
        print!("{USAGE}");
        std::process::exit(0);
    }
    f.no_operands()?;
    const RATIO: &str = "a number in 0..=1";
    let dup_ratio = f.value("--dup-ratio", RATIO)?.unwrap_or(0.5);
    if !(0.0..=1.0).contains(&dup_ratio) {
        return Err(format!("--dup-ratio needs {RATIO}"));
    }
    Ok(Opts {
        addr: f.string("--addr").unwrap_or("127.0.0.1:7171").to_string(),
        requests: f.positive("--requests")?.unwrap_or(20),
        concurrency: f.positive("--concurrency")?.unwrap_or(4),
        dup_ratio,
        scenario: f.string("--scenario").unwrap_or("vacuum-slab").to_string(),
        spec_file: f.path("--spec"),
        gen_mix: f
            .string("--gen-mix")
            .map(parse_gen_mix)
            .transpose()?
            .unwrap_or_default(),
        engine: f.string("--engine").map(str::to_string),
        max_periods: f.value("--max-periods", COUNT)?.unwrap_or(1),
        deadline_ms: f.positive("--deadline-ms")?.map(|d| d as u64),
        seed: f.value("--seed", COUNT)?.unwrap_or(7),
        retries: f.value("--retries", COUNT)?.unwrap_or(0),
        allow_failures: f.switch("--allow-failures"),
        report: f
            .path("--report")
            .unwrap_or_else(|| PathBuf::from("results/loadgen_report.json")),
        min_dedupe_hits: f.value("--min-dedupe-hits", COUNT)?,
        shutdown: f.switch("--shutdown"),
        quiet: f.switch("--quiet"),
    })
}

/// Parse `family[:weight],...` into a weighted family list.
fn parse_gen_mix(s: &str) -> Result<Vec<(Family, f64)>, String> {
    let mut mix = Vec::new();
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (name, weight) = match part.split_once(':') {
            Some((n, w)) => {
                let w: f64 = w
                    .parse()
                    .ok()
                    .filter(|w: &f64| w.is_finite() && *w > 0.0)
                    .ok_or_else(|| format!("--gen-mix weight for `{n}` must be positive"))?;
                (n.trim(), w)
            }
            None => (part, 1.0),
        };
        let family: Family = name.parse().map_err(|e| format!("--gen-mix: {e}"))?;
        if mix.iter().any(|(f, _)| *f == family) {
            return Err(format!("--gen-mix lists `{name}` twice"));
        }
        mix.push((family, weight));
    }
    if mix.is_empty() {
        let known = Family::ALL.map(|f| f.name()).join(", ");
        return Err(format!(
            "--gen-mix needs `family[:weight],...` (known: {known})"
        ));
    }
    Ok(mix)
}

/// Deterministic weighted family pick for one variant index.
fn pick_family(mix: &[(Family, f64)], seed: u64, variant: usize) -> Family {
    let mut state = seed ^ (variant as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let draw = (splitmix64(&mut state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let mut acc = 0.0;
    for (family, w) in mix {
        acc += w / total;
        if draw < acc {
            return *family;
        }
    }
    mix.last().unwrap().0
}

/// One parsed HTTP exchange: status, body, and the `Retry-After` advice
/// (seconds) when the daemon sent one.
struct Exchange {
    status: u16,
    payload: String,
    retry_after: Option<u64>,
}

/// One blocking HTTP exchange (the daemon closes after each response).
/// A response whose declared `Content-Length` does not match the bytes
/// actually received (a torn connection) is an error, never a payload.
fn http(addr: &str, method: &str, path: &str, body: Option<&[u8]>) -> Result<Exchange, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let body = body.unwrap_or(&[]);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response to {method} {path}: {text:.60}"))?;
    let Some((header, payload)) = text.split_once("\r\n\r\n") else {
        return Err(format!("truncated response to {method} {path}"));
    };
    let header_value = |name: &str| {
        header.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
        })
    };
    if let Some(declared) = header_value("content-length").and_then(|v| v.parse::<usize>().ok()) {
        if payload.len() < declared {
            return Err(format!(
                "torn response to {method} {path}: {} of {declared} body bytes",
                payload.len()
            ));
        }
    }
    Ok(Exchange {
        status,
        payload: payload.to_string(),
        retry_after: header_value("retry-after").and_then(|v| v.parse().ok()),
    })
}

struct RequestOutcome {
    variant: usize,
    /// "cached" | "coalesced" | "queued" | "http-<status>" | error text.
    status: String,
    submit_ms: f64,
    total_ms: f64,
    result_bytes: Option<String>,
    failed: bool,
    /// Submit retries this request spent (torn connections, 429/503).
    retries: u32,
    /// The request exhausted its retries against 429/503 back-pressure.
    shed: bool,
    /// The job ended in the `timeout` terminal state.
    timed_out: bool,
}

/// Decorrelated-jitter backoff (AWS-style): each sleep is drawn
/// uniformly from `[base, prev * 3]`, capped — so concurrent clients
/// de-synchronize instead of retrying in lockstep. An explicit
/// `Retry-After` from the daemon overrides the draw.
fn backoff_ms(rng_state: &mut u64, prev_ms: u64, retry_after: Option<u64>) -> u64 {
    const BASE_MS: u64 = 25;
    const CAP_MS: u64 = 2_000;
    if let Some(secs) = retry_after {
        return (secs * 1_000).clamp(BASE_MS, CAP_MS);
    }
    let hi = (prev_ms.max(BASE_MS) * 3).min(CAP_MS);
    let r = (splitmix64(rng_state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    BASE_MS + (r * (hi - BASE_MS) as f64) as u64
}

/// Nearest-rank percentile over *sorted* exact samples. Returns 0 for
/// an empty set.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// A latency distribution as JSON: exact-sample percentiles plus the
/// cumulative log2 buckets (same layout `/metrics` exposes), so the
/// report carries the whole shape, not three points of it. The
/// percentiles are nearest-rank over the recorded samples — the log2
/// buckets are too coarse for quantiles (interpolating within a
/// power-of-two bucket can overstate p50 by up to 2x), so they only
/// describe the shape; `method` labels how the three points were
/// computed. Zero-delta buckets are elided — cumulative counts make
/// them redundant.
fn latency_doc(sorted_samples: &[f64], snap: &HistogramSnapshot) -> Json {
    let mut buckets = Vec::new();
    let mut cum = 0u64;
    for (i, &c) in snap.counts.iter().enumerate() {
        cum += c;
        if c == 0 {
            continue;
        }
        let le = match snap.bounds.get(i) {
            Some(&b) => Json::Num(b),
            None => Json::str("+Inf"),
        };
        buckets.push(Json::obj(vec![
            ("le", le),
            ("cum_count", Json::Int(cum as i64)),
        ]));
    }
    Json::obj(vec![
        ("p50", Json::Num(percentile(sorted_samples, 0.50))),
        ("p90", Json::Num(percentile(sorted_samples, 0.90))),
        ("p99", Json::Num(percentile(sorted_samples, 0.99))),
        ("method", Json::str("exact_samples")),
        ("count", Json::Int(snap.count() as i64)),
        ("sum", Json::Num(snap.sum)),
        ("buckets", Json::Arr(buckets)),
    ])
}

fn drive_one(o: &Opts, body: &str, variant: usize, request_index: usize) -> RequestOutcome {
    let t0 = Instant::now();
    let mut out = RequestOutcome {
        variant,
        status: String::new(),
        submit_ms: 0.0,
        total_ms: 0.0,
        result_bytes: None,
        failed: false,
        retries: 0,
        shed: false,
        timed_out: false,
    };
    let fail = |out: &mut RequestOutcome, msg: String| {
        out.status = msg;
        out.failed = true;
        out.total_ms = t0.elapsed().as_secs_f64() * 1e3;
    };
    // Submit, with bounded retries: 429/503 are explicit back-pressure
    // (honor Retry-After), a torn connection is worth re-asking since
    // submissions are idempotent by content key.
    let mut rng_state = o
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(request_index as u64);
    let mut prev_sleep = 0u64;
    let mut attempt = 0u32;
    let ex = loop {
        let (retryable, retry_after, last_err) =
            match http(&o.addr, "POST", "/jobs", Some(body.as_bytes())) {
                Ok(ex) if ex.status == 429 || ex.status == 503 => {
                    (true, ex.retry_after, format!("http-{}", ex.status))
                }
                Ok(ex) => break ex,
                Err(e) => (true, None, e),
            };
        debug_assert!(retryable);
        if attempt >= o.retries {
            out.shed = last_err.starts_with("http-");
            fail(&mut out, last_err);
            return out;
        }
        attempt += 1;
        out.retries = attempt;
        prev_sleep = backoff_ms(&mut rng_state, prev_sleep, retry_after);
        std::thread::sleep(Duration::from_millis(prev_sleep));
    };
    out.submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let doc = em_json::parse(&ex.payload).unwrap_or(Json::Null);
    if ex.status != 200 && ex.status != 202 {
        fail(&mut out, format!("http-{}", ex.status));
        return out;
    }
    out.status = doc
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();

    // Resolve to artifact bytes: straight from the store for `cached`,
    // else poll the job to completion. Poll exchanges that tear or
    // error are retried within the deadline — transient connection
    // faults must not fail a job that is still running fine.
    let result_path = if out.status == "cached" {
        match doc.get("result").and_then(Json::as_str) {
            Some(p) => p.to_string(),
            None => {
                fail(&mut out, "cached response without result path".into());
                return out;
            }
        }
    } else {
        let Some(job) = doc.get("job").and_then(Json::as_str).map(str::to_string) else {
            fail(&mut out, "queued response without job id".into());
            return out;
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if Instant::now() > deadline {
                fail(&mut out, format!("{job} did not finish in 120s"));
                return out;
            }
            match http(&o.addr, "GET", &format!("/jobs/{job}"), None) {
                Ok(ex) if ex.status == 200 => {
                    let state = em_json::parse(&ex.payload)
                        .ok()
                        .and_then(|d| d.get("state").map(|s| s.as_str().unwrap_or("").to_string()))
                        .unwrap_or_default();
                    match state.as_str() {
                        "done" => break,
                        "failed" | "cancelled" | "timeout" => {
                            out.timed_out = state == "timeout";
                            fail(&mut out, format!("{job} ended {state}"));
                            return out;
                        }
                        _ => std::thread::sleep(Duration::from_millis(25)),
                    }
                }
                Ok(ex) => {
                    fail(&mut out, format!("poll {job}: http-{}", ex.status));
                    return out;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
        format!("/jobs/{job}/result")
    };
    // The artifact fetch also retries torn connections: the result is
    // immutable once stored, so re-reading is always safe.
    let fetch_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match http(&o.addr, "GET", &result_path, None) {
            Ok(ex) if ex.status == 200 => {
                out.result_bytes = Some(ex.payload);
                break;
            }
            Ok(ex) => {
                fail(&mut out, format!("fetch {result_path}: http-{}", ex.status));
                return out;
            }
            Err(e) => {
                if Instant::now() > fetch_deadline {
                    fail(&mut out, e);
                    return out;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    out.total_ms = t0.elapsed().as_secs_f64() * 1e3;
    out
}

/// The submission body for one variant index. With --gen-mix, the
/// variant is a generated scenario: family from the weighted mix,
/// generator seed derived from (--seed, variant), so the pool is
/// deterministic and duplicates dedupe by content.
fn variant_body(
    o: &Opts,
    base_toml: &Option<String>,
    family_counts: &mut HashMap<&'static str, usize>,
    v: usize,
) -> Result<String, String> {
    let mut pairs = vec![];
    if o.gen_mix.is_empty() {
        match base_toml {
            Some(t) => pairs.push(("toml", Json::str(t.clone()))),
            None => pairs.push(("builtin", Json::str(&o.scenario))),
        }
        pairs.push(("lambda_nm", Json::Num(550.0 + 7.0 * v as f64)));
    } else {
        let family = pick_family(&o.gen_mix, o.seed, v);
        let spec = generate(family, o.seed.wrapping_add(v as u64), &GenParams::tiny())
            .map_err(|e| format!("--gen-mix variant {v}: {e}"))?;
        *family_counts.entry(family.name()).or_insert(0) += 1;
        pairs.push(("toml", Json::str(spec.to_toml_string())));
    }
    if let Some(kind) = &o.engine {
        pairs.push(("engine", Json::str(kind)));
    }
    pairs.push(("max_periods", Json::Int(o.max_periods as i64)));
    if let Some(d) = o.deadline_ms {
        pairs.push(("deadline_ms", Json::Int(d as i64)));
    }
    Ok(Json::obj(pairs).compact())
}

/// Health check before loading. The probe itself can hit an injected
/// connection drop under `--chaos`, so it gets the same bounded
/// retries as a submission.
fn probe_health(o: &Opts) -> Result<(), String> {
    let mut probe = 0u32;
    let hs = loop {
        match http(&o.addr, "GET", "/healthz", None) {
            Ok(x) => break x.status,
            Err(e) if probe < o.retries.max(2) => {
                probe += 1;
                std::thread::sleep(Duration::from_millis(50));
                let _ = e;
            }
            Err(e) => return Err(format!("healthz probe: {e}")),
        }
    };
    if hs != 200 {
        return Err(format!("daemon at {} is unhealthy (HTTP {hs})", o.addr));
    }
    Ok(())
}

/// Write `report`, whole, to the JSON file at `path`.
fn write_report(path: &Path, report: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, report.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run(o: &Opts) -> Result<ExitCode, String> {
    // The variant pool: U distinct specs; requests beyond U repeat one.
    let unique = ((o.requests as f64) * (1.0 - o.dup_ratio)).round().max(1.0) as usize;
    let unique = unique.min(o.requests);
    let base_toml = match &o.spec_file {
        Some(p) => Some(
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?,
        ),
        None => None,
    };
    // Deterministic assignment: first U requests cover each variant
    // once, the rest re-draw via an LCG; then shuffle so duplicates
    // interleave with first sights (exercising coalescing, not just
    // store hits).
    let mut lcg = o.seed | 1;
    let mut step = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };
    let mut variants: Vec<usize> = (0..o.requests)
        .map(|i| {
            if i < unique {
                i
            } else {
                step() as usize % unique
            }
        })
        .collect();
    for i in (1..variants.len()).rev() {
        variants.swap(i, step() as usize % (i + 1));
    }

    // Build one body per *variant* and share it across duplicates, so
    // the per-family counts describe the unique pool, not the requests.
    let mut family_counts: HashMap<&'static str, usize> = HashMap::new();
    let variant_bodies: Vec<String> = (0..unique)
        .map(|v| variant_body(o, &base_toml, &mut family_counts, v))
        .collect::<Result<_, _>>()?;
    let bodies: Vec<&String> = variants.iter().map(|&v| &variant_bodies[v]).collect();

    probe_health(o)?;

    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<RequestOutcome>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..o.concurrency.min(o.requests) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= o.requests {
                    break;
                }
                let out = drive_one(o, bodies[i], variants[i], i);
                if !o.quiet {
                    println!(
                        "[{:>3}/{}] variant {:>3} {:<10} submit {:>7.1} ms total {:>8.1} ms",
                        i + 1,
                        o.requests,
                        out.variant,
                        out.status,
                        out.submit_ms,
                        out.total_ms
                    );
                }
                outcomes.lock().unwrap().push(out);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let outcomes = outcomes.into_inner().unwrap();

    // Bit-identical serving: all artifact bytes of one variant agree.
    let mut first_seen: HashMap<usize, &str> = HashMap::new();
    let mut mismatches = 0usize;
    for out in &outcomes {
        if let Some(bytes) = &out.result_bytes {
            match first_seen.get(&out.variant) {
                Some(prev) if *prev != bytes.as_str() => mismatches += 1,
                Some(_) => {}
                None => {
                    first_seen.insert(out.variant, bytes);
                }
            }
        }
    }

    let count = |s: &str| outcomes.iter().filter(|r| r.status == s).count();
    let (cached, coalesced, queued) = (count("cached"), count("coalesced"), count("queued"));
    let dedupe_hits = cached + coalesced;
    let failures = outcomes.iter().filter(|r| r.failed).count();
    let retries: u64 = outcomes.iter().map(|r| r.retries as u64).sum();
    let shed = outcomes.iter().filter(|r| r.shed).count();
    let timeouts = outcomes.iter().filter(|r| r.timed_out).count();
    // Percentiles come from the exact samples; the shared telemetry
    // histogram (same log2 layout the daemon's `/metrics` uses) rides
    // along for the bucket shape.
    let submit_hist = Histogram::latency_millis();
    let total_hist = Histogram::latency_millis();
    let mut submit_samples = Vec::with_capacity(outcomes.len());
    let mut total_samples = Vec::with_capacity(outcomes.len());
    for r in &outcomes {
        submit_hist.observe(r.submit_ms);
        submit_samples.push(r.submit_ms);
        if !r.failed {
            total_hist.observe(r.total_ms);
            total_samples.push(r.total_ms);
        }
    }
    submit_samples.sort_by(f64::total_cmp);
    total_samples.sort_by(f64::total_cmp);
    let submit = submit_hist.snapshot();
    let total = total_hist.snapshot();

    let stats_doc = http(&o.addr, "GET", "/stats", None)
        .ok()
        .and_then(|ex| {
            (ex.status == 200)
                .then(|| em_json::parse(&ex.payload).ok())
                .flatten()
        })
        .unwrap_or(Json::Null);

    let mut report_pairs = vec![
        ("addr", Json::str(&o.addr)),
        ("requests", Json::Int(o.requests as i64)),
        ("concurrency", Json::Int(o.concurrency as i64)),
        ("dup_ratio", Json::Num(o.dup_ratio)),
        ("unique_variants", Json::Int(unique as i64)),
        ("cached", Json::Int(cached as i64)),
        ("coalesced", Json::Int(coalesced as i64)),
        ("queued", Json::Int(queued as i64)),
        ("dedupe_hits", Json::Int(dedupe_hits as i64)),
        (
            "dedupe_hit_rate",
            Json::Num(dedupe_hits as f64 / o.requests as f64),
        ),
        ("failures", Json::Int(failures as i64)),
        ("retries", Json::Int(retries as i64)),
        ("shed", Json::Int(shed as i64)),
        ("timeouts", Json::Int(timeouts as i64)),
        ("result_mismatches", Json::Int(mismatches as i64)),
        ("wall_secs", Json::Num(wall)),
        (
            "requests_per_sec",
            Json::Num(o.requests as f64 / wall.max(1e-9)),
        ),
        ("submit_ms", latency_doc(&submit_samples, &submit)),
        ("total_ms", latency_doc(&total_samples, &total)),
        ("server_stats", stats_doc),
    ];
    if !o.gen_mix.is_empty() {
        let weights = o
            .gen_mix
            .iter()
            .map(|(f, w)| (f.name(), Json::Num(*w)))
            .collect();
        let mut counts: Vec<(&str, Json)> = family_counts
            .iter()
            .map(|(name, n)| (*name, Json::Int(*n as i64)))
            .collect();
        counts.sort_by_key(|(name, _)| *name);
        report_pairs.push((
            "gen_mix",
            Json::obj(vec![
                ("weights", Json::obj(weights)),
                ("variant_counts", Json::obj(counts)),
                ("gen_seed", Json::Int(o.seed as i64)),
            ]),
        ));
    }
    write_report(&o.report, &Json::obj(report_pairs))?;

    println!(
        "\n{} requests in {:.2}s ({:.1}/s) against {}",
        o.requests,
        wall,
        o.requests as f64 / wall.max(1e-9),
        o.addr
    );
    println!(
        "dedupe hits: {dedupe_hits}/{} ({:.0}%) — {cached} cached, {coalesced} coalesced, {queued} solved",
        o.requests,
        100.0 * dedupe_hits as f64 / o.requests as f64
    );
    println!(
        "latency ms: submit p50 {:.1} / p90 {:.1} / p99 {:.1}; end-to-end p50 {:.1} / p90 {:.1} / p99 {:.1}",
        percentile(&submit_samples, 0.50),
        percentile(&submit_samples, 0.90),
        percentile(&submit_samples, 0.99),
        percentile(&total_samples, 0.50),
        percentile(&total_samples, 0.90),
        percentile(&total_samples, 0.99),
    );
    println!("retries: {retries}, shed: {shed}, timeouts: {timeouts}");
    println!("failures: {failures}, result mismatches: {mismatches}");
    println!("report: {}", o.report.display());

    if o.shutdown {
        let s = http(&o.addr, "POST", "/shutdown", None)?.status;
        println!("shutdown requested (HTTP {s})");
    }

    let enough_hits = o.min_dedupe_hits.is_none_or(|k| dedupe_hits >= k);
    if !enough_hits {
        eprintln!(
            "error: {dedupe_hits} dedupe hit(s), fewer than the required {}",
            o.min_dedupe_hits.unwrap_or(0)
        );
    }
    // Mismatches always fail the run — bit-identical serving is the
    // contract. Failures (including timeouts) gate unless the workload
    // expects them (`--allow-failures`, chaos/deadline runs).
    let gating_failures = if o.allow_failures { 0 } else { failures };
    if gating_failures > 0 || mismatches > 0 || !enough_hits {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match opts(&args).and_then(|o| run(&o)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
