//! The epoll connection plane: a non-blocking event loop hand-rolled
//! on `std::os::fd` (this environment has no crates.io, so no `mio`).
//!
//! One thread owns every socket and answers every request. Connections
//! are edge-triggered (`EPOLLIN | EPOLLRDHUP | EPOLLET`) state machines:
//!
//! ```text
//!   Reading ──complete request, routed──▶ Writing
//!      ▲                                    │
//!      └—— keep-alive (pipelined bytes kept) ┘
//! ```
//!
//! * **Reading** — drain the socket into a per-connection buffer and
//!   run the shared incremental parser ([`crate::http::parse_request`])
//!   over it. Pipelined requests queue in the buffer; one request is in
//!   flight per connection at a time, so responses come back in order.
//!   A framed request goes through the same [`route`] as the blocking
//!   plane, right here on the loop thread, and its response is staged
//!   for writing. Every route is bounded: status lookups, stats and
//!   artifact reads are O(lock + lookup), and `POST /jobs` admission
//!   answers a full queue 429 before any search and otherwise pays at
//!   most one model-only tuning search for a cold `engine = "auto"`
//!   key, on a grid capped at [`crate::submit::MAX_GRID_EXTENT`] per
//!   axis (at most about 0.1 s). Solves run on the scheduler's workers.
//! * **Writing** — the rendered bytes flush through non-blocking
//!   writes, registering `EPOLLOUT` interest only while the socket is
//!   full (streaming for large artifacts: no thread blocks on a slow
//!   reader).
//!
//! The cycle is driven by [`Loop::pump`], a flat loop that steps one
//! connection's state machine until it blocks. Each step returns
//! "progressed or not" instead of calling the next step directly, so a
//! pipelined backlog of N buffered requests costs O(1) stack — the
//! alternative (parse → route → write → parse ... as mutual recursion)
//! would let a client that pipelines thousands of tiny requests drive
//! stack depth to N frames and crash the single-threaded plane.
//!
//! The listener is level-triggered and *deregistered* whenever the
//! connection count reaches the configured cap — accept backpressure
//! without a busy loop; the kernel backlog holds new arrivals until a
//! slot frees.
//!
//! Timeouts are a total per-request wall-clock budget, armed at the
//! first byte of each request (or at accept, for a connection that has
//! never spoken): expiry answers 408 and counts `conn_timeouts`,
//! exactly like the blocking plane, so slowloris trickles cannot hold
//! a slot. An *idle* keep-alive connection that has already been
//! served closes silently instead — it owes no response.
//!
//! Connection-level chaos faults inject here too: the drop-site draws
//! against `conn-{ordinal}` for the first response on a connection
//! (identical to the blocking plane) and `conn-{ordinal}.{n}` for
//! keep-alive follow-ups.

use crate::http::{parse_request, HttpError, Response};
use crate::server::{route, routed, Routed, ServeCtx, Server};
use crate::stats::ServiceStats;
use em_faults::ConnFault;
use em_obs::Counter;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Raw epoll syscalls through the C library, same idiom as the signal
// hooks in `crate::shutdown` — no `libc` crate in this environment.
// Values are the Linux ABI constants.
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;

/// `struct epoll_event`; packed on x86-64 (the kernel ABI there), the
/// natural C layout everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// Thin safe wrapper over one epoll instance.
struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    fn new() -> Result<Poller, String> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(format!(
                "epoll_create1 failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(Poller {
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let evp = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        if unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, evp) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    fn modify(&self, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    fn delete(&self, fd: RawFd) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness; `Ok(0)` on timeout or `EINTR`.
    fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

const TOKEN_LISTENER: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 1;

/// How long the loop lingers after the stop flag to flush in-flight
/// responses before closing whatever remains.
const DRAIN_BUDGET: Duration = Duration::from_secs(5);

enum ConnState {
    /// Accumulating bytes until the parser frames a request.
    Reading,
    /// Flushing `write_buf`.
    Writing,
}

struct Conn {
    stream: TcpStream,
    /// The chaos-identity ordinal (`conn-{ordinal}`), shared numbering
    /// with the blocking plane.
    ordinal: u64,
    state: ConnState,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    /// Latency series for the response being written.
    endpoint: &'static str,
    /// Deferred `results_served`-style bump, fired only when the last
    /// byte is out.
    on_written: Option<Arc<Counter>>,
    close_after_write: bool,
    /// Whether a request is currently consuming its wall-clock budget
    /// (true from accept until the first response, and from the first
    /// byte of each follow-up request).
    in_request: bool,
    /// Start of the current request, for the latency histograms.
    t0: Instant,
    /// When the budget (or the idle keep-alive grace) expires.
    deadline: Instant,
    /// Responses fully delivered on this connection.
    served: u64,
    /// `EPOLLRDHUP`/EOF seen: the peer sends nothing further.
    peer_closed: bool,
    /// `EPOLLOUT` interest currently registered.
    want_write: bool,
    /// Reading stopped at the buffer cap with socket data pending;
    /// resume after the in-flight response (edge-triggered epoll will
    /// not re-announce it).
    read_paused: bool,
}

pub(crate) fn run(server: &Server) -> Result<(), String> {
    let poller = Poller::new()?;
    poller
        .add(server.listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)
        .map_err(|e| format!("cannot register the listener: {e}"))?;
    Loop {
        server,
        ctx: server.serve_ctx(),
        poller,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        listener_armed: true,
        accept_backoff_until: None,
        draining: false,
    }
    .serve()
}

struct Loop<'a> {
    server: &'a Server,
    ctx: ServeCtx,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    listener_armed: bool,
    /// Set after a non-transient accept error; the listener stays
    /// disarmed until it passes so an error storm cannot spin the loop.
    accept_backoff_until: Option<Instant>,
    draining: bool,
}

impl Loop<'_> {
    fn serve(&mut self) -> Result<(), String> {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
        let mut drain_deadline = Instant::now();
        loop {
            if !self.draining && self.ctx.stop.load(Ordering::SeqCst) {
                self.begin_drain();
                drain_deadline = Instant::now() + DRAIN_BUDGET;
            }
            if self.draining && (self.conns.is_empty() || Instant::now() >= drain_deadline) {
                break;
            }
            // Bounded wait so the stop flag and the deadline sweep run
            // at least every 100 ms.
            let n = self
                .poller
                .wait(&mut events, 100)
                .map_err(|e| format!("epoll_wait failed: {e}"))?;
            for ev in events.iter().take(n) {
                // Copy out of the (packed) event before touching it.
                let (bits, token) = (ev.events, ev.data);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_event(token, bits),
                }
            }
            self.sweep_deadlines();
            self.maybe_rearm_listener();
        }
        Ok(())
    }

    /// Stop accepting and give in-flight exchanges a bounded window to
    /// finish. Connections that owe no response close immediately —
    /// including half-parsed ones; their clients see a clean close and
    /// retry against whatever replaces this daemon.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.disarm_listener();
        if !self.server.quiet {
            eprintln!("draining: waiting for in-flight responses and jobs ...");
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.state, ConnState::Reading))
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    fn disarm_listener(&mut self) {
        if self.listener_armed {
            let _ = self.poller.delete(self.server.listener.as_raw_fd());
            self.listener_armed = false;
        }
    }

    fn maybe_rearm_listener(&mut self) {
        if self.draining || self.listener_armed || self.conns.len() >= self.server.max_connections {
            return;
        }
        if let Some(until) = self.accept_backoff_until {
            if Instant::now() < until {
                return;
            }
            self.accept_backoff_until = None;
        }
        if self
            .poller
            .add(self.server.listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)
            .is_ok()
        {
            self.listener_armed = true;
        }
    }

    fn accept_ready(&mut self) {
        while !self.draining {
            if self.conns.len() >= self.server.max_connections {
                // At the cap: deregister and let the kernel backlog
                // hold arrivals until a connection closes.
                self.disarm_listener();
                return;
            }
            match self.server.listener.accept() {
                Ok((stream, _peer)) => self.register_conn(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // EINTR is not an accept failure: retry immediately
                // instead of disarming the listener and eating the
                // 100 ms backoff on every stray signal.
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Same stance as the blocking plane: transient
                    // accept failures (ECONNABORTED, EMFILE) must not
                    // tear the daemon down. Back the listener off
                    // briefly so an EMFILE storm cannot spin the loop.
                    if !self.server.quiet {
                        eprintln!("accept failed (continuing): {e}");
                    }
                    self.disarm_listener();
                    self.accept_backoff_until = Some(Instant::now() + Duration::from_millis(100));
                    return;
                }
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, EPOLLIN | EPOLLRDHUP | EPOLLET)
            .is_err()
        {
            return;
        }
        let now = Instant::now();
        self.conns.insert(
            token,
            Conn {
                stream,
                ordinal: self.server.conn_seq.fetch_add(1, Ordering::SeqCst),
                state: ConnState::Reading,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                written: 0,
                endpoint: "other",
                on_written: None,
                close_after_write: false,
                // A fresh connection is inside its first request's
                // budget from the moment it connects — a silent client
                // earns the same 408 the blocking plane gives it.
                in_request: true,
                t0: now,
                deadline: now + self.ctx.io_timeout,
                served: 0,
                peer_closed: false,
                want_write: false,
                read_paused: false,
            },
        );
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
    }

    fn conn_event(&mut self, token: u64, bits: u32) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(token);
            return;
        }
        if bits & EPOLLRDHUP != 0 {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.peer_closed = true;
            }
        }
        if bits & EPOLLIN != 0 && !self.fill_read_buf(token) {
            return;
        }
        self.pump(token);
    }

    /// Step this connection's state machine until it blocks: frame and
    /// route buffered requests, flush the staged response, repeat.
    /// Deliberately a flat loop — each step reports progress instead of
    /// calling the next step, so serving a pipelined backlog of N
    /// requests costs O(1) stack rather than N mutually recursive
    /// frames (which a hostile client could drive to a stack overflow).
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            let progressed = match conn.state {
                ConnState::Reading => self.try_parse(token),
                ConnState::Writing => self.continue_write(token),
            };
            if !progressed {
                return;
            }
        }
    }

    /// Drain the socket into the connection's read buffer (required
    /// under edge-triggered epoll). Returns false if the connection was
    /// torn down.
    fn fill_read_buf(&mut self, token: u64) -> bool {
        // Sized so the worst-case wire form of one maximally-large
        // legal request always fits — a request that cannot finish
        // buffering can never frame, and would stall until its 408.
        // The wire form is the header block (≤ max_header_bytes), the
        // decoded body (≤ max_body_bytes), and for chunked bodies the
        // framing overhead: chunk-size/trailer lines draw on their own
        // `max_header_bytes` budget in the parser, and each chunk's
        // data carries a 2-byte CRLF the budget does not see. A size
        // line costs at least 2 budget bytes, so those CRLFs total at
        // most the line budget again — hence 3× the header limit of
        // slack over the body. Anything past the cap is pipelined
        // backlog that waits in the socket until this backlog drains.
        let cap = 3 * self.ctx.limits.max_header_bytes + self.ctx.limits.max_body_bytes;
        let mut chunk = [0u8; 8192];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if conn.read_buf.len() >= cap {
                conn.read_paused = true;
                return true;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    conn.read_paused = false;
                    return true;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    conn.read_paused = false;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    conn.read_paused = false;
                    return true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return false;
                }
            }
        }
    }

    /// Try to frame one request out of the read buffer and route it.
    /// Runs only in `Reading` state: one request in flight per
    /// connection keeps responses in pipeline order. Returns whether a
    /// response was staged, so [`Loop::pump`] knows to take another
    /// step.
    fn try_parse(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        if conn.read_buf.is_empty() {
            if conn.peer_closed {
                // EOF between requests: a clean close, not a request.
                self.close_conn(token);
            }
            return false;
        }
        if !conn.in_request {
            // First byte of a follow-up request arms its budget.
            conn.in_request = true;
            conn.t0 = Instant::now();
            conn.deadline = conn.t0 + self.ctx.io_timeout;
        }
        match parse_request(&conn.read_buf, &self.ctx.limits) {
            Ok(Some((req, consumed))) => {
                conn.read_buf.drain(..consumed);
                conn.close_after_write = !req.keep_alive;
                ServiceStats::bump(&self.ctx.stats.requests);
                let out = route(&req, &self.ctx);
                self.queue_response(token, out);
                true
            }
            Ok(None) => {
                if conn.peer_closed {
                    // Half-close mid-request: the head (or body) can
                    // never complete. Answer 400 — the client's write
                    // side is gone but its read side may be listening.
                    ServiceStats::bump(&self.ctx.stats.requests);
                    ServiceStats::bump(&self.ctx.stats.rejected_bad);
                    conn.close_after_write = true;
                    let out = routed(
                        "other",
                        Response::error(400, "connection closed mid-request"),
                    );
                    self.queue_response(token, out);
                    return true;
                }
                false
            }
            Err(e) => {
                ServiceStats::bump(&self.ctx.stats.requests);
                ServiceStats::bump(if matches!(e, HttpError::Timeout(_)) {
                    &self.ctx.stats.conn_timeouts
                } else {
                    &self.ctx.stats.rejected_bad
                });
                // The framing is untrustworthy after a parse error;
                // never keep the connection.
                conn.close_after_write = true;
                let out = routed("other", Response::error(e.status(), e.message()));
                self.queue_response(token, out);
                true
            }
        }
    }

    /// Render a response for this connection (applying the chaos
    /// drop-site) and move it to `Writing`. Only stages — the caller
    /// (always [`Loop::pump`], directly or right after) drives the
    /// actual writes, keeping the serve cycle iterative.
    fn queue_response(&mut self, token: u64, out: Routed) {
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if draining {
            conn.close_after_write = true;
        }
        let mut bytes = out.response.render(!conn.close_after_write);
        conn.endpoint = out.endpoint;
        conn.on_written = out.on_written;
        if let Some(inj) = &self.ctx.faults {
            // First response on a connection draws the same identity
            // as the blocking plane; keep-alive follow-ups get their
            // own draw per response ordinal.
            let ident = if conn.served == 0 {
                format!("conn-{}", conn.ordinal)
            } else {
                format!("conn-{}.{}", conn.ordinal, conn.served)
            };
            if inj.conn_fault(&ident) == ConnFault::DropMid {
                bytes.truncate(bytes.len() / 2);
                conn.close_after_write = true;
                // A torn response never reached the client; the
                // deferred counter must not fire.
                conn.on_written = None;
            }
        }
        conn.write_buf = bytes;
        conn.written = 0;
        conn.state = ConnState::Writing;
        // The write gets its own budget (the blocking plane's write
        // timeout); the request budget may be nearly spent by now.
        conn.deadline = Instant::now() + self.ctx.io_timeout;
    }

    /// Flush as much of the write buffer as the socket accepts,
    /// registering `EPOLLOUT` interest only while it is full. Returns
    /// whether the state machine progressed: the response finished and
    /// the connection is back in `Reading` (possibly with pipelined
    /// bytes already buffered), so [`Loop::pump`] should step again.
    fn continue_write(&mut self, token: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if conn.written >= conn.write_buf.len() {
                return self.finish_response(token);
            }
            match conn.stream.write(&conn.write_buf[conn.written..]) {
                Ok(0) => {
                    self.close_conn(token);
                    return false;
                }
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self.poller.modify(
                            conn.stream.as_raw_fd(),
                            token,
                            EPOLLIN | EPOLLRDHUP | EPOLLOUT | EPOLLET,
                        );
                    }
                    return false;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return false;
                }
            }
        }
    }

    /// The last byte of a response is out: settle its accounting and
    /// either close or return to `Reading` for the next (possibly
    /// already-buffered) request. Returns whether the connection
    /// survives in `Reading` — the signal that lets [`Loop::pump`]
    /// parse the next pipelined request without recursing.
    fn finish_response(&mut self, token: u64) -> bool {
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        self.ctx
            .stats
            .latency(conn.endpoint)
            .observe(conn.t0.elapsed().as_secs_f64());
        if let Some(counter) = conn.on_written.take() {
            counter.inc();
        }
        conn.served += 1;
        conn.write_buf = Vec::new();
        conn.written = 0;
        if conn.close_after_write || draining {
            self.close_conn(token);
            return false;
        }
        if conn.want_write {
            conn.want_write = false;
            let _ = self.poller.modify(
                conn.stream.as_raw_fd(),
                token,
                EPOLLIN | EPOLLRDHUP | EPOLLET,
            );
        }
        conn.state = ConnState::Reading;
        conn.in_request = false;
        // Idle keep-alive grace: a connection that owes nothing closes
        // silently when this expires (re-armed as a request budget at
        // the next first byte).
        conn.deadline = Instant::now() + self.ctx.io_timeout;
        // A read paused at the buffer cap has no edge coming (edge-
        // triggered epoll already announced those bytes): resume it now
        // that the backlog shrank. Pipelined bytes may already hold the
        // next request — the pump's next step parses them.
        let resume_read = conn.read_paused;
        if resume_read && !self.fill_read_buf(token) {
            return false;
        }
        true
    }

    /// Enforce per-connection deadlines: 408 for an expired in-flight
    /// request (slowloris, silent connection), silent close for an
    /// idle keep-alive connection, teardown for a stalled writer.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| now >= c.deadline)
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            match conn.state {
                ConnState::Reading if conn.in_request => {
                    // The request's total wall-clock budget ran out
                    // before it framed: same 408 + `conn_timeouts`
                    // accounting as the blocking plane.
                    ServiceStats::bump(&self.ctx.stats.requests);
                    ServiceStats::bump(&self.ctx.stats.conn_timeouts);
                    conn.close_after_write = true;
                    let out = routed(
                        "other",
                        Response::error(408, "request exceeded its wall-clock budget"),
                    );
                    self.queue_response(token, out);
                    self.pump(token);
                }
                ConnState::Reading => {
                    // Idle keep-alive connection: owes no response.
                    self.close_conn(token);
                }
                ConnState::Writing => {
                    // A reader stalled longer than the budget mid-
                    // response: drop it, like a blocking-plane write
                    // timeout.
                    self.close_conn(token);
                }
            }
        }
    }
}
