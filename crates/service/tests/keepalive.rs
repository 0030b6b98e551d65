//! The event-loop connection plane's keep-alive semantics: pipelining,
//! `Connection: close`, half-closed and torn requests, slowloris
//! budgets — plus accounting and byte-identity parity against the
//! blocking plane.

use em_service::{ConnModel, Server, ServerConfig};
use mwd_core::ThreadBudget;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

const TINY_SPEC: &str = r#"name = "keepalive-tiny"
description = "keepalive workload"

[grid]
nx = 4
ny = 4
nz = 24

[physics]
lambda_cells = 8.0
lambda_nm = 550.0

[scene]
materials = ["vacuum"]
background = "vacuum"

[engine]
kind = "naive-periodic-xy"

[convergence]
tol = 1e-2
max_periods = 1
"#;

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
        let (status, _, _) = one_shot(&self.addr, "POST", "/shutdown", None);
        assert_eq!(status, 200);
        self.thread.take().unwrap().join().unwrap().unwrap()
    }
}

fn tiny_config(model: ConnModel) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: em_service::SchedulerConfig {
            workers: 1,
            queue_depth: 8,
            budget: ThreadBudget::new(1),
            ..Default::default()
        },
        conn_model: model,
        quiet: true,
        ..Default::default()
    }
}

/// One `Connection: close` exchange, returning the raw header block too
/// (for byte-level comparisons between planes).
fn one_shot(addr: &str, method: &str, path: &str, body: Option<&[u8]>) -> (u16, String, String) {
    let body = body.unwrap_or(&[]);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut payload = head.into_bytes();
    payload.extend_from_slice(body);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&payload).unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf).into_owned();
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let (header, payload) = text.split_once("\r\n\r\n").unwrap_or(("", ""));
    (status, header.to_string(), payload.to_string())
}

fn stat(addr: &str, key: &str) -> i64 {
    let (status, _, body) = one_shot(addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    em_json::parse(&body)
        .unwrap()
        .get(key)
        .unwrap()
        .as_i64()
        .unwrap()
}

/// A persistent client that frames responses by `Content-Length`
/// instead of reading to EOF.
struct KeepAliveClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl KeepAliveClient {
    fn connect(addr: &str) -> KeepAliveClient {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        KeepAliveClient {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, payload: &[u8]) {
        self.writer.write_all(payload).unwrap();
    }

    fn get(path: &str) -> Vec<u8> {
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes()
    }

    /// Read one framed response: (status, connection header, body).
    fn read_response(&mut self) -> Result<(u16, String, String), String> {
        let mut line = String::new();
        if self
            .reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Err("connection closed".to_string());
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| format!("malformed status line `{}`", line.trim()))?;
        let mut content_length = 0usize;
        let mut connection = String::new();
        loop {
            let mut h = String::new();
            if self.reader.read_line(&mut h).map_err(|e| e.to_string())? == 0 {
                return Err("connection closed mid-headers".to_string());
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().unwrap();
                } else if k.eq_ignore_ascii_case("connection") {
                    connection = v.trim().to_string();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| e.to_string())?;
        Ok((
            status,
            connection,
            String::from_utf8_lossy(&body).into_owned(),
        ))
    }

    /// The server closed without sending another byte.
    fn assert_clean_eof(mut self) {
        let mut rest = Vec::new();
        self.reader.read_to_end(&mut rest).unwrap();
        assert!(
            rest.is_empty(),
            "expected EOF, got {} stray bytes",
            rest.len()
        );
    }
}

#[test]
fn pipelined_requests_answer_in_order_on_one_connection() {
    let daemon = Daemon::start(tiny_config(ConnModel::default()));
    let mut client = KeepAliveClient::connect(&daemon.addr);

    // Four different requests in one write — an admission among the
    // GETs, routed on the loop thread like them; responses must come
    // back in request order, each marked keep-alive.
    let mut burst = KeepAliveClient::get("/healthz");
    burst.extend_from_slice(
        format!(
            "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{TINY_SPEC}",
            TINY_SPEC.len()
        )
        .as_bytes(),
    );
    burst.extend_from_slice(&KeepAliveClient::get("/stats"));
    burst.extend_from_slice(&KeepAliveClient::get("/metrics"));
    client.send(&burst);

    let (status, connection, body) = client.read_response().unwrap();
    assert_eq!(status, 200);
    assert_eq!(connection, "keep-alive");
    assert_eq!(
        em_json::parse(&body)
            .unwrap()
            .get("status")
            .unwrap()
            .as_str(),
        Some("ok"),
        "first response is /healthz"
    );
    let (status, connection, body) = client.read_response().unwrap();
    assert_eq!(status, 202, "second response is the admission: {body}");
    assert_eq!(connection, "keep-alive");
    assert!(
        em_json::parse(&body).unwrap().get("key").is_some(),
        "the admission carries a content key: {body}"
    );
    let (status, _, body) = client.read_response().unwrap();
    assert_eq!(status, 200);
    assert!(
        em_json::parse(&body).unwrap().get("requests").is_some(),
        "third response is /stats"
    );
    let (status, _, body) = client.read_response().unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains("# TYPE em_http_requests_total counter"),
        "fourth response is /metrics"
    );

    // All four counted as requests on one connection.
    assert_eq!(stat(&daemon.addr, "requests"), 5);
    daemon.stop();
}

#[test]
fn oversized_auto_grid_is_refused_without_stalling_the_loop() {
    // Admission runs on the loop thread, and a cold `auto` search grows
    // superlinearly with `ny` (seconds at ny = 262144): a grid past the
    // per-axis cap must be a prompt 400, never a search that stalls the
    // GETs behind it.
    let mut cfg = tiny_config(ConnModel::EventLoop);
    cfg.io_timeout_secs = 2;
    let daemon = Daemon::start(cfg);
    let huge = TINY_SPEC
        .replace("ny = 4", "ny = 10000000")
        .replace("naive-periodic-xy", "auto");

    let t0 = Instant::now();
    let mut client = KeepAliveClient::connect(&daemon.addr);
    let mut burst = format!(
        "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{huge}",
        huge.len()
    )
    .into_bytes();
    burst.extend_from_slice(&KeepAliveClient::get("/healthz"));
    client.send(&burst);
    let mut other = KeepAliveClient::connect(&daemon.addr);
    other.send(&KeepAliveClient::get("/healthz"));

    let (status, _, body) = client.read_response().unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("ny = 10000000 exceeds"), "{body}");
    assert_eq!(client.read_response().unwrap().0, 200, "pipelined /healthz");
    assert_eq!(other.read_response().unwrap().0, 200, "concurrent /healthz");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "answered within the io budget, took {:?}",
        t0.elapsed()
    );
    assert_eq!(stat(&daemon.addr, "rejected_bad"), 1);
    assert_eq!(
        stat(&daemon.addr, "submitted"),
        0,
        "nothing reached admission"
    );
    assert_eq!(stat(&daemon.addr, "conn_timeouts"), 0);
    daemon.stop();
}

#[test]
fn deep_pipeline_of_tiny_requests_is_served_in_order() {
    // A hostile-but-legal client: thousands of pipelined requests in
    // one burst. The serve cycle must walk the backlog iteratively —
    // a recursive parse→route→write cycle would grow the stack by one
    // frame set per buffered request and abort the whole loop thread.
    // (The 3-request pipeline test above never exercises depth.)
    const N: usize = 2000;
    let daemon = Daemon::start(tiny_config(ConnModel::default()));
    let mut client = KeepAliveClient::connect(&daemon.addr);

    let mut burst = Vec::with_capacity(N * 32);
    for _ in 0..N {
        burst.extend_from_slice(&KeepAliveClient::get("/healthz"));
    }
    client.send(&burst);
    for i in 0..N {
        let (status, connection, _) = client
            .read_response()
            .unwrap_or_else(|e| panic!("response {i}/{N}: {e}"));
        assert_eq!(status, 200, "response {i}");
        assert_eq!(connection, "keep-alive", "response {i}");
    }

    // The connection is still healthy after the burst.
    client.send(&KeepAliveClient::get("/healthz"));
    assert_eq!(client.read_response().unwrap().0, 200);

    assert_eq!(stat(&daemon.addr, "requests"), N as i64 + 2);
    daemon.stop();
}

#[test]
fn max_size_chunked_request_with_heavy_framing_completes() {
    // A legal chunked request at the body limit whose *wire* form
    // carries maximal framing overhead: thousands of 1-byte chunks
    // (each costing a size line plus a CRLF the header budget never
    // sees) plus a near-16K header block. The event loop's read-buffer
    // cap must admit the whole wire form — a cap sized only
    // `header + body + small slack` pauses the read with no response
    // in flight to resume it, and the request stalls into a 408
    // instead of being answered.
    let mut cfg = tiny_config(ConnModel::EventLoop);
    cfg.io_timeout_secs = 3;
    let daemon = Daemon::start(cfg);

    let limits = em_service::Limits::default();
    let singles = 8000usize;
    let big = limits.max_body_bytes - singles;
    // Pad the header block to just under its limit.
    let head_base =
        "POST /jobs HTTP/1.1\r\nHost: t\r\nConnection: close\r\nTransfer-Encoding: chunked\r\nX-Pad: ";
    let head_target = limits.max_header_bytes - 84;
    let pad = "p".repeat(head_target - head_base.len() - 4);
    let mut wire = format!("{head_base}{pad}\r\n\r\n").into_bytes();
    for _ in 0..singles {
        wire.extend_from_slice(b"1\nx\r\n");
    }
    wire.extend_from_slice(format!("{big:x}\n").as_bytes());
    wire.resize(wire.len() + big, b'y');
    wire.extend_from_slice(b"\r\n0\n\n");
    assert!(
        wire.len() > limits.max_header_bytes + limits.max_body_bytes + 16 * 1024,
        "the wire form ({} bytes) must exceed the old header+body+16K cap",
        wire.len()
    );

    let t0 = Instant::now();
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&wire).unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf);
    let status: u16 = text.split(' ').nth(1).unwrap().parse().unwrap();
    // The body is junk TOML, so submission is rejected — but the
    // request *frames* and is answered 400, well inside the budget,
    // instead of stalling at the buffer cap until the 408 sweep.
    assert_eq!(status, 400, "{}", text.lines().next().unwrap_or(""));
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "the request must be answered promptly, took {:?}",
        t0.elapsed()
    );
    assert_eq!(stat(&daemon.addr, "conn_timeouts"), 0);
    daemon.stop();
}

#[test]
fn connection_close_and_http10_end_the_connection() {
    let daemon = Daemon::start(tiny_config(ConnModel::default()));

    // HTTP/1.1 + `Connection: close`: answered, then EOF.
    let mut client = KeepAliveClient::connect(&daemon.addr);
    client.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let (status, connection, _) = client.read_response().unwrap();
    assert_eq!(status, 200);
    assert_eq!(connection, "close");
    client.assert_clean_eof();

    // HTTP/1.0 without a Connection header defaults to close.
    let mut client = KeepAliveClient::connect(&daemon.addr);
    client.send(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n");
    let (status, connection, _) = client.read_response().unwrap();
    assert_eq!(status, 200);
    assert_eq!(connection, "close");
    client.assert_clean_eof();

    // HTTP/1.1 without a Connection header defaults to keep-alive: a
    // second request on the same socket is served.
    let mut client = KeepAliveClient::connect(&daemon.addr);
    client.send(&KeepAliveClient::get("/healthz"));
    assert_eq!(client.read_response().unwrap().0, 200);
    client.send(&KeepAliveClient::get("/healthz"));
    assert_eq!(client.read_response().unwrap().0, 200);

    daemon.stop();
}

#[test]
fn half_close_mid_request_answers_400_on_both_planes() {
    for model in [ConnModel::EventLoop, ConnModel::Blocking] {
        let daemon = Daemon::start(tiny_config(model));

        let mut client = KeepAliveClient::connect(&daemon.addr);
        // A torn request head: the client gives up mid-line and closes
        // its write side. The request can never frame; both planes owe
        // the (possibly still-listening) read side a 400.
        client.send(b"GET /healthz HTTP/1.1\r\nHost: t");
        client.writer.shutdown(Shutdown::Write).unwrap();
        let (status, connection, body) = client.read_response().unwrap();
        assert_eq!(status, 400, "{model:?}");
        assert_eq!(connection, "close", "{model:?}");
        assert!(body.contains("connection closed mid-request"), "{body}");
        client.assert_clean_eof();

        // Identical accounting on both planes: the torn request counts
        // as a received request and a bad_request rejection, never a
        // timeout.
        assert_eq!(stat(&daemon.addr, "requests"), 2, "{model:?}");
        assert_eq!(stat(&daemon.addr, "rejected_bad"), 1, "{model:?}");
        assert_eq!(stat(&daemon.addr, "conn_timeouts"), 0, "{model:?}");
        daemon.stop();
    }
}

#[test]
fn torn_request_on_a_reused_connection_closes_with_400() {
    let daemon = Daemon::start(tiny_config(ConnModel::default()));
    let mut client = KeepAliveClient::connect(&daemon.addr);

    // A healthy exchange first: the connection is established keep-alive.
    client.send(&KeepAliveClient::get("/healthz"));
    assert_eq!(client.read_response().unwrap().0, 200);

    // The follow-up request tears mid-head. The completed exchange must
    // stay settled; only the torn one is rejected.
    client.send(b"POST /jobs HTTP/1.1\r\nContent-Le");
    client.writer.shutdown(Shutdown::Write).unwrap();
    let (status, _, body) = client.read_response().unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("connection closed mid-request"), "{body}");
    client.assert_clean_eof();

    assert_eq!(stat(&daemon.addr, "requests"), 3);
    assert_eq!(stat(&daemon.addr, "rejected_bad"), 1);
    daemon.stop();
}

#[test]
fn slowloris_trickle_is_408_within_the_budget_on_both_planes() {
    for model in [ConnModel::EventLoop, ConnModel::Blocking] {
        let mut cfg = tiny_config(model);
        cfg.io_timeout_secs = 1;
        let daemon = Daemon::start(cfg);

        // Trickle a byte of a valid-looking request head every 300 ms —
        // each arrival would reset a naive per-read socket timeout, but
        // the wall-clock budget keeps counting.
        let t0 = Instant::now();
        let mut client = KeepAliveClient::connect(&daemon.addr);
        let head = b"GET /healthz HTTP/1.1\r\n";
        let mut answered = None;
        for byte in head.iter().cycle() {
            if client.writer.write_all(&[*byte]).is_err() {
                break; // the server already gave up on us
            }
            std::thread::sleep(Duration::from_millis(300));
            if t0.elapsed() > Duration::from_secs(8) {
                break;
            }
            if let Ok(resp) = client.read_response() {
                answered = Some(resp);
                break;
            }
        }
        let (status, _, body) = answered
            .unwrap_or_else(|| panic!("{model:?}: trickling client was never answered 408"));
        assert_eq!(status, 408, "{model:?}: {body}");
        assert!(
            t0.elapsed() < Duration::from_secs(6),
            "{model:?}: 408 must land near the 1s budget, took {:?}",
            t0.elapsed()
        );

        // Counted as a connection timeout on both planes.
        assert_eq!(stat(&daemon.addr, "conn_timeouts"), 1, "{model:?}");
        assert_eq!(stat(&daemon.addr, "rejected_bad"), 0, "{model:?}");
        daemon.stop();
    }
}

#[test]
fn both_planes_serve_bit_identical_bytes() {
    // The two-daemon oracle extended to old-loop vs new-loop: the same
    // spec solved behind each connection plane must produce artifacts —
    // and whole `Connection: close` responses, headers included — that
    // agree byte for byte.
    let serve = |model: ConnModel| {
        let daemon = Daemon::start(tiny_config(model));
        let addr = daemon.addr.clone();
        let (status, _, body) = one_shot(&addr, "POST", "/jobs", Some(TINY_SPEC.as_bytes()));
        assert_eq!(status, 202, "{body}");
        let sub = em_json::parse(&body).unwrap();
        let job = sub.get("job").unwrap().as_str().unwrap().to_string();
        let key = sub.get("key").unwrap().as_str().unwrap().to_string();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(Instant::now() < deadline, "{job} never finished");
            let (status, _, body) = one_shot(&addr, "GET", &format!("/jobs/{job}"), None);
            assert_eq!(status, 200);
            let state = em_json::parse(&body).unwrap();
            match state.get("state").unwrap().as_str().unwrap() {
                "done" => break,
                "failed" | "cancelled" => panic!("{job} ended badly: {body}"),
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let (status, header, artifact) = one_shot(&addr, "GET", &format!("/results/{key}"), None);
        assert_eq!(status, 200);
        // A deliberately malformed request too: error responses render
        // through the same path on both planes.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut error_bytes = Vec::new();
        stream.read_to_end(&mut error_bytes).unwrap();
        daemon.stop();
        (key, format!("{header}\r\n\r\n{artifact}"), error_bytes)
    };
    let (key_a, response_a, error_a) = serve(ConnModel::EventLoop);
    let (key_b, response_b, error_b) = serve(ConnModel::Blocking);
    assert_eq!(key_a, key_b, "content keys agree across planes");
    assert_eq!(
        response_a, response_b,
        "whole artifact response is byte-identical across planes"
    );
    assert_eq!(
        error_a, error_b,
        "error responses are byte-identical across planes"
    );
}
