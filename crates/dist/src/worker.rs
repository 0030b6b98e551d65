//! The dist worker: solves one z-slab in lockstep with its neighbors.
//!
//! A worker connects to the coordinator, receives its job + slab
//! assignment, builds the *full* solver (coefficients depend on global
//! grid position), crops its slab, wires halo links to its z neighbors
//! and then runs periods on demand. Per time step it posts its boundary
//! planes, updates the interior rows while the sockets carry the halos,
//! and finishes the one boundary row per phase once the halo lands —
//! communication/computation overlap at step granularity.
//!
//! Every socket has a dedicated reader (and the halo links a dedicated
//! writer) thread, so the compute thread never blocks on a peer that
//! went away: all waits are timeout slices that observe the abort flag
//! and the job deadline.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use em_faults::{ConnFault, FaultInjector};
use em_field::{FieldKind, State};
use em_kernels::boundary::Boundary;
use em_scenarios::ScenarioSpec;

use crate::decomp::Slab;
use crate::proto::{self, FrameError, Msg};
use crate::slab::{
    boundary_for, crop_state, extract_plane, inject_plane, local_exchange, phase_rows, E_HALO,
    H_HALO,
};

/// How long a worker polls between abort/deadline checks while blocked
/// on a peer.
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

/// One direction of a halo link: a writer thread draining `tx` and a
/// reader thread feeding `rx`, so posts never block the compute loop.
struct HaloLink {
    tx: Sender<Msg>,
    rx: Receiver<Result<Msg, String>>,
}

fn spawn_halo_link(
    stream: TcpStream,
    index: usize,
    faults: Option<Arc<FaultInjector>>,
) -> Result<HaloLink, String> {
    stream
        .set_nodelay(true)
        .map_err(|e| format!("halo link nodelay: {e}"))?;
    let (out_tx, out_rx) = std::sync::mpsc::channel::<Msg>();
    let (in_tx, in_rx) = std::sync::mpsc::channel::<Result<Msg, String>>();

    let mut w = stream
        .try_clone()
        .map_err(|e| format!("halo link clone: {e}"))?;
    std::thread::spawn(move || {
        while let Ok(msg) = out_rx.recv() {
            let step = match &msg {
                Msg::HaloE { step, .. } | Msg::HaloH { step, .. } => *step,
                _ => 0,
            };
            let mut bytes = proto::frame_bytes(msg.kind(), &msg.encode());
            if let Some(inj) = &faults {
                let ident = format!("dist-w{index}-s{step}");
                if inj.conn_fault(&ident) == ConnFault::DropMid {
                    // Injected worker death: sever the link mid-solve;
                    // the peer sees EOF and the coordinator aborts.
                    let _ = w.shutdown(std::net::Shutdown::Both);
                    return;
                }
                // Flips land on the framed bytes (after the checksum
                // was computed), so the receiver's integrity check —
                // not luck — catches them.
                inj.flip_bit(&mut bytes, &ident);
            }
            if w.write_all(&bytes).and_then(|_| w.flush()).is_err() {
                return;
            }
        }
    });

    let mut r = stream;
    std::thread::spawn(move || loop {
        match proto::recv(&mut r) {
            Ok(msg) => {
                if in_tx.send(Ok(msg)).is_err() {
                    return;
                }
            }
            Err(FrameError::Eof) => {
                let _ = in_tx.send(Err("halo link closed by peer".to_string()));
                return;
            }
            Err(e) => {
                let _ = in_tx.send(Err(format!("halo link: {e}")));
                return;
            }
        }
    });

    Ok(HaloLink {
        tx: out_tx,
        rx: in_rx,
    })
}

/// Wait for one halo plane of the expected kind and step ordinal.
fn wait_halo(
    link: &HaloLink,
    kind: FieldKind,
    step: u32,
    stop: &AtomicBool,
    deadline: Option<Instant>,
) -> Result<Vec<u8>, String> {
    loop {
        if stop.load(Ordering::SeqCst) {
            return Err(format!(
                "{} abort requested",
                mwd_core::cancel::CANCELLED_PREFIX
            ));
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Err(format!(
                    "{} deadline expired waiting for a halo plane",
                    mwd_core::cancel::TIMEOUT_PREFIX
                ));
            }
        }
        match link.rx.recv_timeout(WAIT_SLICE) {
            Ok(Ok(Msg::HaloE { step: s, data })) if kind == FieldKind::E => {
                if s != step {
                    return Err(format!("halo step skew: got E step {s}, expected {step}"));
                }
                return Ok(data);
            }
            Ok(Ok(Msg::HaloH { step: s, data })) if kind == FieldKind::H => {
                if s != step {
                    return Err(format!("halo step skew: got H step {s}, expected {step}"));
                }
                return Ok(data);
            }
            Ok(Ok(other)) => {
                return Err(format!(
                    "unexpected message on the halo link: kind {}",
                    other.kind()
                ))
            }
            Ok(Err(e)) => return Err(e),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return Err("halo link closed".to_string()),
        }
    }
}

/// Wait for the next control message.
fn wait_ctrl(rx: &Receiver<Result<Msg, String>>, deadline: Option<Instant>) -> Result<Msg, String> {
    loop {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Err(format!(
                    "{} deadline expired waiting for the coordinator",
                    mwd_core::cancel::TIMEOUT_PREFIX
                ));
            }
        }
        match rx.recv_timeout(WAIT_SLICE) {
            Ok(msg) => return msg,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err("control stream reader exited".to_string())
            }
        }
    }
}

struct SlabJob {
    state: State,
    boundary: Boundary,
    spp: usize,
    threads: usize,
    slab: Slab,
    has_lower: bool,
    has_upper: bool,
}

/// One full time step with overlapped halo exchange. Returns the wait
/// seconds spent blocked on halos and bumps `exchanges` per applied
/// plane.
#[allow(clippy::too_many_arguments)]
fn step_once(
    job: &mut SlabJob,
    down: Option<&HaloLink>,
    up: Option<&HaloLink>,
    step: u32,
    stop: &AtomicBool,
    deadline: Option<Instant>,
    exchanges: &mut u64,
    waits: &mut Vec<f64>,
) -> Result<(), String> {
    let nzl = job.slab.nz;

    // ---- H phase (reads E at z-1). Post our top E plane up first: the
    // upper neighbor's bottom row needs it, and our E arrays stay
    // frozen through the whole H phase.
    local_exchange(&mut job.state, job.boundary, FieldKind::E);
    if let Some(link) = up {
        let plane = extract_plane(&job.state.fields, &E_HALO, nzl as isize - 1);
        link.tx
            .send(Msg::HaloE { step, data: plane })
            .map_err(|_| "halo writer exited".to_string())?;
    }
    let h_lo = usize::from(job.has_lower);
    phase_rows(&mut job.state, FieldKind::H, h_lo, nzl, job.threads);
    if let Some(link) = down {
        let t0 = Instant::now();
        let plane = wait_halo(link, FieldKind::E, step, stop, deadline)?;
        waits.push(t0.elapsed().as_secs_f64());
        inject_plane(&mut job.state.fields, &E_HALO, -1, &plane)?;
        *exchanges += 1;
        phase_rows(&mut job.state, FieldKind::H, 0, 1, job.threads);
    }

    // ---- E phase (reads H at z+1, post-H-phase values). Our bottom H
    // row is final now; ship it down before updating any E row.
    local_exchange(&mut job.state, job.boundary, FieldKind::H);
    if let Some(link) = down {
        let plane = extract_plane(&job.state.fields, &H_HALO, 0);
        link.tx
            .send(Msg::HaloH { step, data: plane })
            .map_err(|_| "halo writer exited".to_string())?;
    }
    let e_hi = nzl - usize::from(job.has_upper);
    phase_rows(&mut job.state, FieldKind::E, 0, e_hi, job.threads);
    if let Some(link) = up {
        let t0 = Instant::now();
        let plane = wait_halo(link, FieldKind::H, step, stop, deadline)?;
        waits.push(t0.elapsed().as_secs_f64());
        inject_plane(&mut job.state.fields, &H_HALO, nzl as isize, &plane)?;
        *exchanges += 1;
        phase_rows(&mut job.state, FieldKind::E, nzl - 1, nzl, job.threads);
    }
    Ok(())
}

/// Accept one halo connection with abort/deadline checks.
fn accept_halo(
    listener: &TcpListener,
    stop: &AtomicBool,
    deadline: Option<Instant>,
) -> Result<TcpStream, String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("halo listener nonblocking: {e}"))?;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Err("abort requested while waiting for the upper neighbor".to_string());
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Err("timeout: upper neighbor never connected".to_string());
            }
        }
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false)
                    .map_err(|e| format!("halo stream blocking: {e}"))?;
                return Ok(s);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("halo accept failed: {e}")),
        }
    }
}

/// Run one worker to completion. Returns `Ok` on a clean finish or a
/// coordinator-requested abort; `Err` carries the failure the worker
/// also reported upstream as a `WorkerErr`.
pub fn run_worker(cfg: &WorkerConfig) -> Result<(), String> {
    let control = TcpStream::connect(&cfg.connect)
        .map_err(|e| format!("cannot reach the coordinator at {}: {e}", cfg.connect))?;
    control
        .set_nodelay(true)
        .map_err(|e| format!("control nodelay: {e}"))?;
    let mut ctrl_w = control
        .try_clone()
        .map_err(|e| format!("control clone: {e}"))?;
    let result = run_inner(cfg, &control, &mut ctrl_w);
    if let Err(e) = &result {
        let _ = proto::send(
            &mut ctrl_w,
            &Msg::WorkerErr {
                index: cfg.index as u32,
                message: e.clone(),
            },
        );
    }
    result
}

fn run_inner(
    cfg: &WorkerConfig,
    control: &TcpStream,
    ctrl_w: &mut TcpStream,
) -> Result<(), String> {
    proto::send(
        ctrl_w,
        &Msg::Hello {
            index: cfg.index as u32,
        },
    )?;

    // Control reader thread: decouples the compute loop from the
    // socket so Abort (and coordinator death) interrupts halo waits.
    let stop = Arc::new(AtomicBool::new(false));
    let (ctrl_tx, ctrl_rx) = std::sync::mpsc::channel::<Result<Msg, String>>();
    {
        let mut r = control
            .try_clone()
            .map_err(|e| format!("control clone: {e}"))?;
        let stop = stop.clone();
        std::thread::spawn(move || loop {
            match proto::recv(&mut r) {
                Ok(msg) => {
                    if matches!(msg, Msg::Abort { .. }) {
                        stop.store(true, Ordering::SeqCst);
                    }
                    let end = matches!(msg, Msg::Abort { .. } | Msg::Finish);
                    if ctrl_tx.send(Ok(msg)).is_err() || end {
                        return;
                    }
                }
                Err(e) => {
                    stop.store(true, Ordering::SeqCst);
                    let _ = ctrl_tx.send(Err(format!("control stream: {e}")));
                    return;
                }
            }
        });
    }

    // The assignment must arrive promptly; a coordinator that died
    // before assigning must not leave an immortal worker behind.
    let setup_dl = Some(Instant::now() + Duration::from_secs(60));
    let assign = match wait_ctrl(&ctrl_rx, setup_dl)? {
        Msg::Assign {
            index,
            workers,
            z0,
            nz_local,
            threads,
            job_index,
            deadline_ms,
            spec_toml,
        } => {
            if index as usize != cfg.index {
                return Err(format!(
                    "assignment for worker {index} delivered to worker {}",
                    cfg.index
                ));
            }
            (
                workers as usize,
                Slab {
                    z0: z0 as usize,
                    nz: nz_local as usize,
                },
                threads as usize,
                job_index as usize,
                deadline_ms,
                spec_toml,
            )
        }
        Msg::Abort { .. } => return Ok(()),
        other => return Err(format!("expected Assign, got kind {}", other.kind())),
    };
    let (workers, slab, threads, job_index, deadline_ms, spec_toml) = assign;
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));

    let spec = ScenarioSpec::from_toml_str(&spec_toml)?;
    spec.validate()?;
    let jobs = spec.jobs();
    let sjob = jobs
        .get(job_index)
        .ok_or_else(|| format!("job index {job_index} out of range ({} jobs)", jobs.len()))?;
    let boundary = boundary_for(&spec.engine)?;

    // The coefficient build is position-dependent (PML profiles, the
    // source plane, layered scenes), so build the full grid and crop.
    let solver = spec.build_solver(sjob)?;
    let spp = solver.steps_per_period();
    let state = crop_state(&solver.state, slab);
    drop(solver);

    let has_lower = cfg.index > 0;
    let has_upper = cfg.index + 1 < workers;

    // Halo wiring: every non-top worker listens for its upper neighbor;
    // the coordinator relays the port to that neighbor, which connects
    // down. Lower link first (ConnectDown arrives on the control
    // stream), then the blocking accept.
    let listener = if has_upper {
        let l = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("cannot bind a halo listener: {e}"))?;
        let port = l
            .local_addr()
            .map_err(|e| format!("halo listener addr: {e}"))?
            .port();
        proto::send(ctrl_w, &Msg::ListenPort { port })?;
        Some(l)
    } else {
        None
    };
    let down = if has_lower {
        let port = match wait_ctrl(&ctrl_rx, deadline)? {
            Msg::ConnectDown { port } => port,
            Msg::Abort { .. } => return Ok(()),
            other => return Err(format!("expected ConnectDown, got kind {}", other.kind())),
        };
        let s = TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| format!("cannot reach the lower neighbor on port {port}: {e}"))?;
        Some(spawn_halo_link(s, cfg.index, cfg.faults.clone())?)
    } else {
        None
    };
    let up = match &listener {
        Some(l) => {
            let s = accept_halo(l, &stop, deadline)?;
            Some(spawn_halo_link(s, cfg.index, cfg.faults.clone())?)
        }
        None => None,
    };

    proto::send(ctrl_w, &Msg::Ready)?;

    let mut job = SlabJob {
        state,
        boundary,
        spp,
        threads: threads.max(1),
        slab,
        has_lower,
        has_upper,
    };
    let mut step: u32 = 0;
    let mut period: u32 = 0;
    loop {
        match wait_ctrl(&ctrl_rx, deadline)? {
            Msg::Continue => {
                period += 1;
                let mut exchanges = 0u64;
                let mut waits = Vec::new();
                for _ in 0..job.spp {
                    step_once(
                        &mut job,
                        down.as_ref(),
                        up.as_ref(),
                        step,
                        &stop,
                        deadline,
                        &mut exchanges,
                        &mut waits,
                    )?;
                    step += 1;
                }
                let fields = crate::slab::encode_fields(&job.state.fields);
                proto::send(
                    ctrl_w,
                    &Msg::PeriodDone {
                        period,
                        exchanges,
                        wait_secs: waits,
                        fields,
                    },
                )?;
            }
            Msg::Finish | Msg::Abort { .. } => return Ok(()),
            other => return Err(format!("unexpected control message kind {}", other.kind())),
        }
    }
}
