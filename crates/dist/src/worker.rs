//! The dist worker: solves one z-slab in lockstep with its neighbors.
//!
//! A worker connects to the coordinator, receives its job, slab and
//! halo depth `k`, builds the *full* solver (coefficients depend on
//! global grid position), crops its slab extended by `k` halo planes
//! per cut face, wires a link to each z neighbor and then runs periods
//! on demand: advance the extended slab up to `k` steps with the
//! declared engine, swap `k` boundary planes with each neighbor, repeat
//! until the period is done (see [`crate::slab`] for why that is
//! bit-identical), then reduce the owned planes against the worker's
//! own snapshot of the previous period and answer with two numbers per
//! plane ([`em_field::norms::plane_changes`]). The fields themselves
//! leave the worker once per job, when the coordinator asks for them
//! with `Gather`.
//!
//! All of it happens on the worker's one thread, through two reusable
//! frame buffers. Socket waits are timeout slices that observe the
//! job's token, so a peer that went away never wedges it; the only
//! other thread reads the control stream, so that an `Abort` (or the
//! coordinator's death) trips the token mid-step, and it is joined
//! before [`run_worker`] returns.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use em_faults::{ConnFault, FaultInjector};
use em_field::{norms, FieldSet, State};
use em_scenarios::ScenarioSpec;
use em_solver::{Engine, EngineStepper};
use mwd_core::{CancelToken, SolveError};

use crate::decomp::Slab;
use crate::proto::{self, Msg, Side};
use crate::slab::{crop_state, gather_buffer, paste_planes, put_planes};

/// How long a worker blocks on a peer between token checks.
const WAIT_SLICE: Duration = Duration::from_millis(25);

/// How a worker reaches its coordinator, plus optional wire faults.
pub struct WorkerConfig {
    /// Coordinator control address, `host:port`.
    pub connect: String,
    /// This worker's index in `0..workers`.
    pub index: usize,
    /// Chaos injector for the halo wire (bit flips, connection drops).
    pub faults: Option<Arc<FaultInjector>>,
}

/// A halo link as the frame codec sees it: every read or write that
/// times out after [`WAIT_SLICE`] checks the token and goes on, so
/// blocking I/O stays responsive to aborts and deadlines.
struct Patient<'a> {
    stream: &'a TcpStream,
    cancel: &'a CancelToken,
}

impl Patient<'_> {
    fn retry<T>(&self, mut io: impl FnMut(&TcpStream) -> std::io::Result<T>) -> std::io::Result<T> {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        loop {
            match io(self.stream) {
                Err(e) if matches!(e.kind(), TimedOut | WouldBlock) => {
                    if let Some(halt) = self.cancel.halt_error() {
                        return Err(std::io::Error::other(String::from(halt)));
                    }
                }
                done => return done,
            }
        }
    }
}

impl Read for Patient<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.retry(|mut s| s.read(buf))
    }
}

impl Write for Patient<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.retry(|mut s| s.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One cut face of this worker's slab: the link across it and the
/// planes, in extended-slab coordinates, that cross it.
struct Cut {
    link: TcpStream,
    /// The face of this slab the cut is on.
    side: Side,
    /// The owned planes the neighbor's halo mirrors.
    send: Range<usize>,
    /// The halo planes mirroring the neighbor's owned planes.
    recv: Range<usize>,
}

fn halo_link(stream: TcpStream) -> Result<TcpStream, String> {
    stream
        .set_nodelay(true)
        .and_then(|_| stream.set_read_timeout(Some(WAIT_SLICE)))
        .and_then(|_| stream.set_write_timeout(Some(WAIT_SLICE)))
        .map_err(|e| format!("halo link setup: {e}"))?;
    Ok(stream)
}

/// Where one period's time went; rides in `PeriodDone`.
#[derive(Default)]
struct PeriodStats {
    exchanges: u64,
    wait_secs: Vec<f64>,
    compute_s: f64,
    exchange_s: f64,
}

struct SlabJob<'a> {
    /// The extended slab.
    state: State,
    engine: Engine,
    /// The owned planes within `state`.
    owned: Range<usize>,
    halo: usize,
    spp: usize,
    /// In exchange order: even-numbered cuts of the chain first, so
    /// every worker's first swap has a partner that is not waiting on a
    /// third.
    cuts: &'a [Cut],
    /// Exchanges completed since the solve began (the lockstep ordinal).
    block: u32,
    cancel: CancelToken,
    cfg: &'a WorkerConfig,
    /// Reusable frame buffers: outgoing (halo blocks, period replies,
    /// the job's one gather), incoming.
    out: Vec<u8>,
    inb: Vec<u8>,
    /// The extended slab's fields at the end of the previous period;
    /// only the owned planes are ever compared or refreshed.
    snapshot: Option<FieldSet>,
    /// Reused `(num_z, den_z)` buffer of the owned planes.
    partials: Vec<(f64, f64)>,
}

impl SlabJob<'_> {
    /// A wire failure while the token is tripped *is* the halt.
    fn wire_error(&self, what: &str, e: impl std::fmt::Display) -> SolveError {
        self.cancel
            .halt_error()
            .unwrap_or_else(|| SolveError::Failed(format!("{what}: {e}")))
    }

    fn halo_head(&self, side: Side) -> Msg {
        Msg::Halo {
            block: self.block,
            side,
            planes: self.halo as u32,
        }
    }

    /// Send the owned planes at cut `c`.
    fn send_block(&mut self, c: usize) -> Result<(), SolveError> {
        let head = self.halo_head(self.cuts[c].side);
        proto::begin_frame(&mut self.out, &head);
        put_planes(&mut self.out, &self.state.fields, self.cuts[c].send.clone());
        proto::seal_frame(&mut self.out);
        if let Some(inj) = &self.cfg.faults {
            let ident = format!("dist-w{}-s{}", self.cfg.index, self.block);
            if inj.conn_fault(&ident) == ConnFault::DropMid {
                // Injected worker death: sever the link mid-solve; the
                // peer sees EOF too.
                let _ = self.cuts[c].link.shutdown(Shutdown::Both);
                return Err("injected fault: halo link severed".to_string().into());
            }
            // Flips land on the sealed frame, so the receiver's
            // checksum — not luck — catches them.
            inj.flip_bit(&mut self.out, &ident);
        }
        let mut link = Patient {
            stream: &self.cuts[c].link,
            cancel: &self.cancel,
        };
        link.write_all(&self.out)
            .map_err(|e| self.wire_error("halo send", e))
    }

    /// Receive the neighbor's planes at cut `c` into the halo.
    fn recv_block(&mut self, c: usize, stats: &mut PeriodStats) -> Result<(), SolveError> {
        let t0 = Instant::now();
        let mut link = Patient {
            stream: &self.cuts[c].link,
            cancel: &self.cancel,
        };
        let kind = proto::read_frame_into(&mut link, &mut self.inb)
            .map_err(|e| self.wire_error("halo link", e))?;
        stats.wait_secs.push(t0.elapsed().as_secs_f64());
        let want = self.halo_head(match self.cuts[c].side {
            Side::Top => Side::Bottom,
            Side::Bottom => Side::Top,
        });
        let (got, body) = Msg::decode(kind, &self.inb)?;
        if got != want {
            return Err(format!("halo skew: got {got:?}, expected {want:?}").into());
        }
        paste_planes(&mut self.state.fields, self.cuts[c].recv.clone(), body)?;
        stats.exchanges += 1;
        Ok(())
    }

    /// Swap `halo` boundary planes across every cut: the lower worker
    /// of a cut sends then receives, the upper one receives then sends,
    /// so neither blocks writing into a peer that is itself writing.
    fn exchange(&mut self, stats: &mut PeriodStats) -> Result<(), SolveError> {
        for c in 0..self.cuts.len() {
            if self.cuts[c].side == Side::Top {
                self.send_block(c)?;
                self.recv_block(c, stats)?;
            } else {
                self.recv_block(c, stats)?;
                self.send_block(c)?;
            }
        }
        self.block += 1;
        Ok(())
    }

    /// One period: up to `halo` steps of the declared engine over the
    /// extended slab, then an exchange, until `spp` steps are done.
    fn period(&mut self) -> Result<PeriodStats, SolveError> {
        let mut stats = PeriodStats::default();
        let mut left = self.spp;
        while left > 0 {
            let steps = left.min(self.halo);
            let t0 = Instant::now();
            EngineStepper::untraced(&self.engine).step_n(&mut self.state, steps, &self.cancel)?;
            let t1 = Instant::now();
            self.exchange(&mut stats)?;
            stats.compute_s += (t1 - t0).as_secs_f64();
            stats.exchange_s += t1.elapsed().as_secs_f64();
            left -= steps;
        }
        Ok(stats)
    }

    /// Reduce the owned planes against the previous period's and answer
    /// the coordinator's `Continue`. Period 1 only takes the snapshot:
    /// its reply has no body.
    fn reply_period(
        &mut self,
        mut ctrl_w: &TcpStream,
        period: u32,
        stats: PeriodStats,
        reduce_s: f64,
    ) -> Result<(), SolveError> {
        self.partials.clear();
        match &mut self.snapshot {
            None => self.snapshot = Some(self.state.fields.clone()),
            Some(snapshot) => norms::plane_changes(
                &self.state.fields,
                snapshot,
                self.owned.clone(),
                &mut self.partials,
            ),
        }
        let head = Msg::PeriodDone {
            period,
            exchanges: stats.exchanges,
            wait_secs: stats.wait_secs,
            compute_s: stats.compute_s,
            exchange_s: stats.exchange_s,
            reduce_s,
        };
        proto::begin_frame(&mut self.out, &head);
        for (num, den) in &self.partials {
            proto::put_f64(&mut self.out, *num);
            proto::put_f64(&mut self.out, *den);
        }
        proto::seal_frame(&mut self.out);
        ctrl_w
            .write_all(&self.out)
            .map_err(|e| self.wire_error("period reply", e))
    }

    /// Answer the coordinator's `Gather` with the owned planes.
    fn reply_gather(&mut self, mut ctrl_w: &TcpStream) -> Result<(), SolveError> {
        proto::begin_frame(&mut self.out, &Msg::Gather);
        put_planes(&mut self.out, &self.state.fields, self.owned.clone());
        proto::seal_frame(&mut self.out);
        let mut frame = &self.out[..];
        if let Some(inj) = &self.cfg.faults {
            let ident = format!("dist-w{}-gather", self.cfg.index);
            if inj.conn_fault(&ident) == ConnFault::DropMid {
                // Injected worker death: half the frame, then nothing.
                frame = &frame[..frame.len() / 2];
            }
        }
        ctrl_w
            .write_all(frame)
            .map_err(|e| self.wire_error("gather send", e))?;
        if frame.len() < self.out.len() {
            let _ = ctrl_w.shutdown(Shutdown::Both);
            return Err("injected fault: control stream severed mid-gather"
                .to_string()
                .into());
        }
        Ok(())
    }
}

/// Wait for the next control message; past `deadline` the wait ends in
/// `expired`: `Timeout` for the job's deadline, `Failed` for a ceiling.
fn wait_ctrl(
    rx: &Receiver<Result<Msg, String>>,
    deadline: Option<Instant>,
    expired: fn(String) -> SolveError,
) -> Result<Msg, SolveError> {
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(expired(
                "deadline expired waiting for the coordinator".into(),
            ));
        }
        match rx.recv_timeout(WAIT_SLICE) {
            Ok(msg) => return msg.map_err(SolveError::Failed),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(SolveError::Failed("control stream reader exited".into()))
            }
        }
    }
}

/// The longest a listener poll sleeps between two looks.
const ACCEPT_SLICE: Duration = Duration::from_millis(5);

/// Accept one connection on a non-blocking `listener`, returned
/// blocking. `check` runs before every look (token, deadline); between
/// looks the poll backs off from 100 us, doubling up to
/// [`ACCEPT_SLICE`] — a peer started a moment ago connects within the
/// first few looks, and one that never comes costs no more than the
/// fixed slice did.
pub(crate) fn accept_polling(
    listener: &TcpListener,
    what: &str,
    mut check: impl FnMut() -> Result<(), SolveError>,
) -> Result<TcpStream, SolveError> {
    let mut pause = Duration::from_micros(100);
    loop {
        check()?;
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false)
                    .map_err(|e| format!("{what} stream blocking: {e}"))?;
                return Ok(s);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(pause);
                pause = (pause * 2).min(ACCEPT_SLICE);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(SolveError::Failed(format!("{what} accept failed: {e}"))),
        }
    }
}

/// Accept the upper neighbor's halo connection, observing the token.
fn accept_halo(listener: &TcpListener, cancel: &CancelToken) -> Result<TcpStream, SolveError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("halo listener nonblocking: {e}"))?;
    accept_polling(listener, "halo", || match cancel.halt_error() {
        Some(halt) => Err(halt.map(|d| format!("{d} (waiting for the upper neighbor)"))),
        None => Ok(()),
    })
}

/// The control reader: decouples the compute loop from the socket so
/// `Abort` (and coordinator death) trips the token mid-step. Ends on
/// `Finish`, `Abort` or any stream error — a shut socket included.
fn pump_control(mut r: TcpStream, stop: &AtomicBool, tx: Sender<Result<Msg, String>>) {
    loop {
        match proto::recv(&mut r) {
            Ok(msg) => {
                if matches!(msg, Msg::Abort { .. }) {
                    stop.store(true, Ordering::SeqCst);
                }
                let end = matches!(msg, Msg::Abort { .. } | Msg::Finish);
                if tx.send(Ok(msg)).is_err() || end {
                    return;
                }
            }
            Err(e) => {
                stop.store(true, Ordering::SeqCst);
                let _ = tx.send(Err(format!("control stream: {e}")));
                return;
            }
        }
    }
}

/// Shuts a socket when dropped: what ends a reader blocked on a clone
/// of it, on every way out of the scope that joins that reader.
struct Hangup<'a>(&'a TcpStream);

impl Drop for Hangup<'_> {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// Run one worker to completion. Returns `Ok` on a clean finish or a
/// coordinator-requested abort; `Err` carries the failure the worker
/// also reported upstream as a `WorkerErr`. No thread or socket of it
/// outlives the call.
pub fn run_worker(cfg: &WorkerConfig) -> Result<(), SolveError> {
    let control = TcpStream::connect(&cfg.connect)
        .map_err(|e| format!("cannot reach the coordinator at {}: {e}", cfg.connect))?;
    control
        .set_nodelay(true)
        .map_err(|e| format!("control nodelay: {e}"))?;
    let reader = control
        .try_clone()
        .map_err(|e| format!("control clone: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let (ctrl_tx, ctrl_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let _hangup = Hangup(&control);
        let stop = &stop;
        s.spawn(move || pump_control(reader, stop, ctrl_tx));
        let mut cuts = Vec::new();
        let result = run_inner(cfg, &control, stop, &ctrl_rx, &mut cuts);
        if let Err(e) = &result {
            let _ = proto::send(
                &mut &control,
                &Msg::WorkerErr {
                    index: cfg.index as u32,
                    error: e.clone(),
                },
            );
            // Hold the halo links (`cuts`) until the coordinator has
            // answered with its abort, a second at most: a neighbor that
            // saw a link close first would report that instead of the
            // cause.
            while matches!(ctrl_rx.recv_timeout(Duration::from_secs(1)), Ok(Ok(_))) {}
        }
        result
    })
}

fn run_inner(
    cfg: &WorkerConfig,
    mut ctrl_w: &TcpStream,
    stop: &Arc<AtomicBool>,
    ctrl_rx: &Receiver<Result<Msg, String>>,
    cuts: &mut Vec<Cut>,
) -> Result<(), SolveError> {
    proto::send(
        &mut ctrl_w,
        &Msg::Hello {
            index: cfg.index as u32,
        },
    )?;

    // The assignment must arrive promptly; a coordinator that died
    // before assigning must not leave an immortal worker behind.
    let setup_dl = Some(Instant::now() + Duration::from_secs(60));
    let assign = wait_ctrl(ctrl_rx, setup_dl, SolveError::Failed)?;
    let Msg::Assign {
        index,
        workers,
        z0,
        nz_local,
        halo,
        job_index,
        deadline_ms,
        spec_toml,
    } = assign
    else {
        return match assign {
            Msg::Abort { .. } => Ok(()),
            other => Err(format!("expected Assign, got kind {}", other.kind()).into()),
        };
    };
    if index as usize != cfg.index {
        return Err(format!(
            "assignment for worker {index} delivered to worker {}",
            cfg.index
        )
        .into());
    }
    let (workers, halo, job_index) = (workers as usize, halo as usize, job_index as usize);
    let slab = Slab {
        z0: z0 as usize,
        nz: nz_local as usize,
    };
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
    let cancel = CancelToken::with_flag(stop.clone(), deadline);

    let spec = ScenarioSpec::from_toml_str(&spec_toml)?;
    spec.validate()?;
    let jobs = spec.jobs();
    let sjob = jobs
        .get(job_index)
        .ok_or_else(|| format!("job index {job_index} out of range ({} jobs)", jobs.len()))?;
    // The assignment is wire input: the extended slab must exist and
    // a neighbor across a cut must own the `halo` planes it sends.
    let (nz, top) = (spec.dims().nz, slab.z0 + slab.nz);
    let fits = halo > 0
        && slab.nz > 0
        && top <= nz
        && (workers == 1 || halo <= slab.nz)
        && (slab.z0 == 0 || halo <= slab.z0)
        && (top == nz || halo <= nz - top);
    if !fits {
        return Err(format!(
            "unusable assignment: planes {}..{top} of {nz}, halo depth {halo}",
            slab.z0
        )
        .into());
    }

    // The coefficient build is position-dependent (PML profiles, the
    // source plane, layered scenes), so build the full grid and crop:
    // the slab keeps a slice of each row index and shares the tables.
    let t_build = Instant::now();
    let solver = spec.build_solver(sjob)?;
    let spp = solver.steps_per_period();
    let ext = slab.extended(halo, nz);
    let state = crop_state(&solver.state, ext);
    drop(solver);
    let coeffs = state.coeffs.stats();
    let build_s = t_build.elapsed().as_secs_f64();
    let engine = spec.engine.to_engine(state.dims())?;
    let lo = slab.z0 - ext.z0;
    let owned = lo..lo + slab.nz;

    // Halo wiring: every non-top worker listens for its upper neighbor;
    // the coordinator relays the port to that neighbor, which connects
    // down. Lower link first (ConnectDown arrives on the control
    // stream), then the blocking accept.
    let (has_lower, has_upper) = (cfg.index > 0, cfg.index + 1 < workers);
    let listener = if has_upper {
        let l = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("cannot bind a halo listener: {e}"))?;
        let port = l
            .local_addr()
            .map_err(|e| format!("halo listener addr: {e}"))?
            .port();
        proto::send(&mut ctrl_w, &Msg::ListenPort { port })?;
        Some(l)
    } else {
        None
    };
    if has_lower {
        let port = match wait_ctrl(ctrl_rx, deadline, SolveError::Timeout)? {
            Msg::ConnectDown { port } => port,
            Msg::Abort { .. } => return Ok(()),
            other => return Err(format!("expected ConnectDown, got kind {}", other.kind()).into()),
        };
        let s = TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| format!("cannot reach the lower neighbor on port {port}: {e}"))?;
        cuts.push(Cut {
            link: halo_link(s)?,
            side: Side::Bottom,
            send: owned.start..owned.start + halo,
            recv: 0..owned.start,
        });
    }
    if let Some(l) = &listener {
        cuts.push(Cut {
            link: halo_link(accept_halo(l, &cancel)?)?,
            side: Side::Top,
            send: owned.end - halo..owned.end,
            recv: owned.end..ext.nz,
        });
    }
    // Cut `c` joins workers `c` and `c + 1`; even cuts swap first.
    if cfg.index.is_multiple_of(2) {
        cuts.reverse();
    }

    let mut job = SlabJob {
        // Sized and touched here, before `Ready`, so the job's one big
        // frame does not fault its pages in behind the last period.
        out: gather_buffer(state.dims(), owned.len()),
        state,
        engine,
        owned,
        halo,
        spp,
        cuts,
        block: 0,
        cancel,
        cfg,
        inb: Vec::new(),
        snapshot: None,
        partials: Vec::new(),
    };

    proto::send(
        &mut ctrl_w,
        &Msg::Ready {
            build_s,
            coeff_rows_distinct: coeffs.rows_distinct as u64,
            coeff_rows_total: coeffs.rows_total as u64,
            coeff_bytes: coeffs.bytes as u64,
        },
    )?;

    let mut period: u32 = 0;
    let mut reduce_s = 0.0;
    loop {
        match wait_ctrl(ctrl_rx, deadline, SolveError::Timeout)? {
            Msg::Continue => {
                period += 1;
                let stats = job.period()?;
                let t0 = Instant::now();
                job.reply_period(ctrl_w, period, stats, reduce_s)?;
                reduce_s = t0.elapsed().as_secs_f64();
            }
            Msg::Gather => job.reply_gather(ctrl_w)?,
            Msg::Finish | Msg::Abort { .. } => return Ok(()),
            other => return Err(format!("unexpected control message kind {}", other.kind()).into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_expired_control_wait_is_filed_by_what_its_deadline_was() {
        let (_tx, rx) = std::sync::mpsc::channel();
        let passed = Some(Instant::now());
        let detail = "deadline expired waiting for the coordinator".to_string();
        let setup = wait_ctrl(&rx, passed, SolveError::Failed).unwrap_err();
        assert_eq!(setup, SolveError::Failed(detail.clone()));
        let job = wait_ctrl(&rx, passed, SolveError::Timeout).unwrap_err();
        assert_eq!(job, SolveError::Timeout(detail));
    }
}
