//! `serve-mix`: closed-loop rounds against an in-process
//! `em_service::Server` — new jobs, duplicate jobs and cached reads
//! side by side on one daemon.

use crate::harness::{Check, Workload};
use crate::inputs::Inputs;
use crate::stack::{naive_physics, physics_of_json};
use em_json::Json;
use em_obs::Recorder;
use em_scenarios::{EngineDecl, ScenarioSpec};
use em_service::scheduler::SchedulerConfig;
use em_service::{ConnModel, Server, ServerConfig};
use mwd_core::ThreadBudget;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const SERVE_PERIODS: usize = 6;
/// Never-seen variants per round, each POSTed, solved, fetched, then
/// POSTed again.
pub const VARIANTS: usize = 4;
/// Cached `GET /results/:key` exchanges per round.
pub const GETS: usize = 4000;
const CONNECTIONS: usize = 2;
const POLL_EVERY: Duration = Duration::from_micros(500);
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One HTTP/1.1 client connection, kept alive across requests.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// One request, one `Content-Length`-framed response.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        close: bool,
    ) -> Result<(u16, Vec<u8>), String> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n{}\r\n",
            body.len(),
            if close { "Connection: close\r\n" } else { "" }
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(body);
        self.writer
            .write_all(&request)
            .map_err(|e| format!("send {method} {path}: {e}"))?;

        let mut line = String::new();
        let eof = |n: usize| {
            if n == 0 {
                Err("connection closed")
            } else {
                Ok(())
            }
        };
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        eof(n)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| format!("malformed status line `{}`", line.trim()))?;
        let mut length = 0usize;
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            eof(n)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse().map_err(|_| "bad content-length")?;
                }
            }
        }
        let mut payload = vec![0u8; length];
        self.reader
            .read_exact(&mut payload)
            .map_err(|e| format!("read {method} {path}: {e}"))?;
        Ok((status, payload))
    }

    pub fn get(&mut self, path: &str) -> Result<(u16, Vec<u8>), String> {
        self.exchange("GET", path, b"", false)
    }

    /// [`submit_and_fetch`] over this kept-alive connection.
    fn submit_and_fetch(&mut self, body: &[u8]) -> Result<Fetched, String> {
        submit_and_fetch(&mut |m, p, b| self.exchange(m, p, b, false), body)
    }
}

/// One request over a fresh connection that is closed afterwards — the
/// only exchange the blocking plane offers.
pub fn one_shot(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    Conn::open(addr)?.exchange(method, path, body, true)
}

/// An in-process daemon on a free localhost port.
pub struct Daemon {
    pub addr: String,
    thread: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// One scheduler worker x one engine thread; in-memory store unless
    /// `store_dir` is given.
    pub fn start(conn_model: ConnModel, store_dir: Option<PathBuf>) -> Result<Daemon, String> {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: 1,
                threads_per_job: 1,
                budget: ThreadBudget::new(1),
                ..Default::default()
            },
            store_dir,
            conn_model,
            quiet: true,
            ..Default::default()
        };
        let server = Server::bind(&cfg)?;
        let addr = server.local_addr()?.to_string();
        let thread = std::thread::spawn(move || server.run().map(|_| ()));
        Ok(Daemon {
            addr,
            thread: Some(thread),
        })
    }

    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let (status, _) = one_shot(&self.addr, "POST", "/shutdown", b"")?;
        if status != 200 {
            return Err(format!("POST /shutdown answered {status}"));
        }
        thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Every started daemon is stopped and joined, on error paths too.
        let _ = self.shutdown();
    }
}

fn json_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("response without `{key}`: {}", doc.compact()))
}

fn parse_body(body: &[u8]) -> Result<Json, String> {
    em_json::parse(std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?)
}

/// One never-seen variant of the base spec.
struct Variant {
    /// `POST /jobs` body.
    body: Vec<u8>,
    /// Reference physics from the naive engine.
    want: String,
    /// The artifact as first served; every later body must equal it.
    first: Vec<u8>,
    key: String,
}

/// Client-side latencies and counts of one round.
#[derive(Clone, Debug, Default)]
pub struct RoundStats {
    /// `POST /jobs` → 202 for a never-seen variant.
    pub ack: Vec<f64>,
    /// `POST /jobs` → artifact in hand, never-seen variant.
    pub new: Vec<f64>,
    /// Re-`POST` → artifact in hand, answered from the store.
    pub dup: Vec<f64>,
    /// One cached `GET /results/:key`.
    pub get: Vec<f64>,
    pub get_phase_s: f64,
    /// Re-POSTs answered `cached`.
    pub dedupe_hits: u64,
    /// Non-2xx answers, transport errors and body mismatches.
    pub bad: u64,
}

impl RoundStats {
    fn absorb(&mut self, other: &RoundStats) {
        self.ack.extend(&other.ack);
        self.new.extend(&other.new);
        self.dup.extend(&other.dup);
        self.get.extend(&other.get);
        self.get_phase_s += other.get_phase_s;
        self.dedupe_hits += other.dedupe_hits;
        self.bad += other.bad;
    }
}

struct Ready {
    /// Held for its `Drop`, which shuts the daemon down and joins it.
    _daemon: Daemon,
    conns: Vec<Conn>,
    base: ScenarioSpec,
    base_toml: String,
}

pub struct ServeWorkload {
    inputs: Inputs,
    corrupt: bool,
    ready: Option<Ready>,
    variants: Vec<Variant>,
    drawn: u64,
    /// The last round.
    round: RoundStats,
    /// Every round since set-up (or since the caller last took it).
    pub pool: RoundStats,
}

/// What driving one `POST /jobs` body to its artifact yielded.
pub struct Fetched {
    /// Seconds from the POST to its 200/202.
    pub ack: f64,
    /// Whether the daemon answered from its result store.
    pub cached: bool,
    pub key: String,
    pub artifact: Vec<u8>,
}

/// Status and body of one HTTP response.
type Response = Result<(u16, Vec<u8>), String>;

/// POST one body and drive it to its artifact through `send`
/// (`method, path, body` → response): poll the job until done, then
/// fetch the result.
pub fn submit_and_fetch(
    send: &mut dyn FnMut(&str, &str, &[u8]) -> Response,
    body: &[u8],
) -> Result<Fetched, String> {
    let t0 = Instant::now();
    let (status, reply) = send("POST", "/jobs", body)?;
    let ack = t0.elapsed().as_secs_f64();
    if status != 200 && status != 202 {
        return Err(format!(
            "POST /jobs answered {status}: {}",
            String::from_utf8_lossy(&reply)
        ));
    }
    let doc = parse_body(&reply)?;
    let cached = json_str(&doc, "status")? == "cached";
    let key = json_str(&doc, "key")?;
    let path = if cached {
        json_str(&doc, "result")?
    } else {
        let job = json_str(&doc, "job")?;
        loop {
            let (status, reply) = send("GET", &format!("/jobs/{job}"), b"")?;
            if status != 200 {
                return Err(format!("GET /jobs/{job} answered {status}"));
            }
            match json_str(&parse_body(&reply)?, "state")?.as_str() {
                "done" => break,
                "queued" | "running" => std::thread::sleep(POLL_EVERY),
                other => return Err(format!("{job} ended `{other}`")),
            }
        }
        format!("/jobs/{job}/result")
    };
    let (status, artifact) = send("GET", &path, b"")?;
    if status != 200 {
        return Err(format!("GET {path} answered {status}"));
    }
    Ok(Fetched {
        ack,
        cached,
        key,
        artifact,
    })
}

impl ServeWorkload {
    pub fn new(inputs: &Inputs, corrupt: bool) -> Self {
        ServeWorkload {
            inputs: *inputs,
            corrupt,
            ready: None,
            variants: Vec::new(),
            drawn: 0,
            round: RoundStats::default(),
            pool: RoundStats::default(),
        }
    }

    pub fn base_spec(inputs: &Inputs) -> Result<ScenarioSpec, String> {
        // `auto` with no thread count: the job's budget share (1).
        inputs.stack_spec(
            "serve-mix",
            64,
            SERVE_PERIODS,
            EngineDecl::Auto { threads: 0 },
        )
    }

    fn post_body(&self, base_toml: &str, lambda_nm: f64) -> Vec<u8> {
        let mut pairs = vec![
            ("toml", Json::str(base_toml)),
            ("lambda_nm", Json::Num(lambda_nm)),
        ];
        if self.corrupt {
            // The canary: the daemon solves one period too many.
            pairs.push(("max_periods", Json::Int(SERVE_PERIODS as i64 + 1)));
        }
        Json::obj(pairs).compact().into_bytes()
    }

    /// Draw the next never-seen wavelength and build its variant,
    /// reference included.
    fn draw_variant(&mut self) -> Result<Variant, String> {
        let ready = self.ready.as_ref().ok_or("not set up")?;
        let lambda_nm = self.inputs.lambda_nm("serve-lambdas", self.drawn);
        self.drawn += 1;
        let mut spec = ready.base.clone();
        spec.physics.lambda_nm = lambda_nm;
        let want = naive_physics(&spec)?.remove(0);
        Ok(Variant {
            body: self.post_body(&ready.base_toml, lambda_nm),
            want,
            first: Vec::new(),
            key: String::new(),
        })
    }
}

impl Workload for ServeWorkload {
    fn describe(&self) -> Vec<(String, String)> {
        vec![
            ("dims".into(), "16x16x64".into()),
            ("periods_per_job".into(), SERVE_PERIODS.to_string()),
            ("connections".into(), CONNECTIONS.to_string()),
            ("new_jobs_per_round".into(), VARIANTS.to_string()),
            ("dup_jobs_per_round".into(), VARIANTS.to_string()),
            ("gets_per_round".into(), GETS.to_string()),
            ("scheduler".into(), "1 worker x 1 engine thread".into()),
        ]
    }

    fn teardown(&mut self) {
        // Dropping the daemon shuts it down and joins its thread.
        self.ready = None;
    }

    fn setup(&mut self) -> Result<(), String> {
        let base = crate::stack::parse_validate_assemble(&Self::base_spec(&self.inputs)?)?;
        let base_toml = base.to_toml_string();
        let daemon = Daemon::start(ConnModel::EventLoop, None)?;
        let mut conns = Vec::new();
        for _ in 0..CONNECTIONS {
            let mut conn = Conn::open(&daemon.addr)?;
            let (status, _) = conn.get("/healthz")?;
            if status != 200 {
                return Err(format!("GET /healthz answered {status}"));
            }
            conns.push(conn);
        }
        // Warm the daemon: one job end to end fills its tuning cache.
        let warm = self.post_body(&base_toml, self.inputs.lambda_nm("serve-warm", 0));
        conns[0].submit_and_fetch(&warm)?;
        self.ready = Some(Ready {
            _daemon: daemon,
            conns,
            base,
            base_toml,
        });
        Ok(())
    }

    fn reference(&mut self) -> Result<(), String> {
        // Built per round in `prepare`: every round's variants are new.
        Ok(())
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.variants = (0..VARIANTS)
            .map(|_| self.draw_variant())
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn op(&mut self, rec: &Recorder, parent: u64) -> Result<(), String> {
        let ready = self.ready.as_mut().ok_or("not set up")?;
        let conns = &mut ready.conns;
        let mut log = rec.thread("serve-client", parent);
        let mut stats = RoundStats::default();

        // Never-seen variants, one outstanding at a time: POST, poll
        // until the single scheduler worker is done, fetch.
        let span = log.start("service.new_jobs");
        for (i, v) in self.variants.iter_mut().enumerate() {
            let t = Instant::now();
            let fetched = conns[i % CONNECTIONS].submit_and_fetch(&v.body)?;
            stats.new.push(t.elapsed().as_secs_f64());
            stats.ack.push(fetched.ack);
            v.key = fetched.key;
            v.first = fetched.artifact;
        }
        log.end(span);

        // The same bodies again: must be answered from the store.
        let span = log.start("service.dup_jobs");
        for (i, v) in self.variants.iter().enumerate() {
            let t = Instant::now();
            let fetched = conns[i % CONNECTIONS].submit_and_fetch(&v.body)?;
            stats.dup.push(t.elapsed().as_secs_f64());
            stats.dedupe_hits += u64::from(fetched.cached);
            stats.bad += u64::from(fetched.artifact != v.first);
        }
        log.end(span);

        let span = log.start("service.cached_gets");
        let phase = Instant::now();
        let paths: Vec<String> = self
            .variants
            .iter()
            .map(|v| format!("/results/{}", v.key))
            .collect();
        for n in 0..GETS {
            let v = n % VARIANTS;
            let t = Instant::now();
            let (status, body) = conns[n % CONNECTIONS].get(&paths[v])?;
            stats.get.push(t.elapsed().as_secs_f64());
            stats.bad += u64::from(status != 200 || body != self.variants[v].first);
        }
        stats.get_phase_s = phase.elapsed().as_secs_f64();
        log.end(span);
        self.pool.absorb(&stats);
        self.round = stats;
        Ok(())
    }

    fn verify(&mut self) -> Check {
        let cells = self.ready.as_ref().map_or(0, |r| r.base.dims().cells());
        let mut c = Check {
            attempted: (2 * VARIANTS + GETS) as u64,
            failed: self.round.bad + (VARIANTS as u64 - self.round.dedupe_hits),
            ..Check::default()
        };
        for v in &self.variants {
            let outcome = parse_body(&v.first)
                .ok()
                .and_then(|doc| doc.get("outcomes")?.as_arr()?.first().cloned());
            match outcome {
                Some(o) if physics_of_json(&o) == v.want => {
                    let steps = o.get("steps").and_then(Json::as_i64).unwrap_or(0);
                    c.lups += steps as u64 * cells as u64;
                }
                _ => c.failed += 1,
            }
        }
        c
    }
}

/// Requests per second of `n` verified GETs of `path`, each over a
/// fresh connection.
pub fn one_shot_get_rps(addr: &str, path: &str, expect: &[u8], n: usize) -> Result<f64, String> {
    let t0 = Instant::now();
    for _ in 0..n {
        let (status, body) = one_shot(addr, "GET", path, b"")?;
        if status != 200 || body != expect {
            return Err(format!("GET {path} answered {status} or a wrong body"));
        }
    }
    Ok(n as f64 / t0.elapsed().as_secs_f64())
}
