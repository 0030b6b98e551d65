//! The dist coordinator: launches workers, wires the halo topology and
//! drives the period lockstep — everything that is *distributed* about
//! a dist solve, and nothing else.
//!
//! Bit identity with the single-process solver is the subsystem's
//! oracle, and the order-dependent f64 reductions make it delicate. The
//! convergence functional is decomposition-invariant by definition
//! ([`em_field::norms::relative_change`]: per-plane partials combined
//! in ascending z), so a period ends with `2 * nz` numbers, not the
//! fields: every worker reduces the planes it owns, the slab group — a
//! [`Stepper`] under the one solver loop — concatenates the partials in
//! slab order and combines them, and never touches field data between
//! periods. `energy()` and the analysis outputs still sum over the
//! *global* grid, so the fields cross the control stream once per job:
//! [`Stepper::finish`] gathers every slab into the caller's full-grid
//! state, and the period accounting and the analysis are the batch
//! runner's own ([`em_scenarios::run_job`]) — the same code a local run
//! goes through, not a copy of it.

use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use em_faults::FaultInjector;
use em_field::{norms, State};
use em_obs::{Counter, Histogram, Recorder, Registry, ThreadLog};
use em_scenarios::{run_job, EngineDecl, JobOutcome, ScenarioSpec};
use em_solver::Stepper;
use mwd_core::{CancelToken, SolveError};

use crate::decomp::{halo_depth, split_z, Slab};
use crate::proto::{self, FrameError, Msg};
use crate::slab::{gather_buffer, paste_planes, planes_len};
use crate::worker::{accept_polling, run_worker, WorkerConfig};

/// Counter: halo blocks (one neighbour's `k` planes of all twelve
/// field arrays) received and applied, labelled per worker.
pub const HALO_EXCHANGES_METRIC: &str = "em_halo_exchanges_total";
/// Histogram: seconds each worker spent blocked waiting for a halo
/// block, labelled per worker.
pub const HALO_WAIT_METRIC: &str = "em_halo_wait_seconds";
/// Histogram: where each worker-period went, labelled per worker and
/// `phase` = `compute` (engine steps), `exchange` (halo send + wait +
/// paste) or `reduce` (the owned planes' convergence partials and
/// sending them).
pub const PERIOD_PHASE_METRIC: &str = "em_dist_period_phase_seconds";
/// Counter: slabs of fields gathered into the coordinator's state,
/// labelled per worker — one per worker per job.
pub const GATHERS_METRIC: &str = "em_dist_gathers_total";
/// Histogram: seconds a job's one field gather took, from the
/// coordinator's `Gather` to the last slab pasted.
pub const GATHER_SECONDS_METRIC: &str = "em_dist_gather_seconds";
/// Gauge: the halo depth `k` of the most recent slab group.
pub const HALO_DEPTH_METRIC: &str = "em_dist_halo_depth";
/// The `phase` label values of [`PERIOD_PHASE_METRIC`].
pub const PERIOD_PHASES: [&str; 3] = ["compute", "exchange", "reduce"];

/// Poll slice for coordinator waits (cancellation stays responsive).
const WAIT_SLICE: Duration = Duration::from_millis(25);

/// Ceiling on worker spawn + handshake, independent of job deadline.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);

/// How workers are brought up.
#[derive(Clone, Debug)]
pub enum Launcher {
    /// In-process `std::thread` workers over localhost TCP — the
    /// service path and the test default (no re-exec needed).
    Thread,
    /// `mwd dist worker` child processes (the CLI path), optionally
    /// carrying a chaos plan on their halo wire and gather reply.
    Process { chaos: Option<String> },
}

/// Options for [`run_dist`].
pub struct DistOptions {
    /// Worker count (z slabs). Must satisfy `1 <= workers <= nz`.
    pub workers: usize,
    /// Engine threads across the whole job: each worker's share is
    /// `max(1, threads / workers)`, and the declared engine must fit it.
    pub threads: usize,
    pub launcher: Launcher,
    /// Deadline / stop flag for the whole solve; aborts propagate to
    /// every worker over the control protocol.
    pub cancel: CancelToken,
    /// Span recorder: one trace timeline per worker
    /// (`dist-worker-{i}`) with a span per period.
    pub trace: Recorder,
    pub trace_parent: u64,
    /// Metrics sink for [`HALO_EXCHANGES_METRIC`] / [`HALO_WAIT_METRIC`].
    pub registry: Option<Arc<Registry>>,
    /// Wire-fault injector handed to `Thread` workers.
    pub faults: Option<Arc<FaultInjector>>,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            workers: 2,
            threads: 1,
            launcher: Launcher::Thread,
            cancel: CancelToken::none(),
            trace: Recorder::disabled(),
            trace_parent: 0,
            registry: None,
            faults: None,
        }
    }
}

/// Run every job of `spec` decomposed over `opts.workers` z slabs.
/// Outcomes are bit-identical to `run_batch` over the same spec —
/// including error bookkeeping: per-job failures land in the outcome's
/// `error` field, and only spec-level problems return `Err`.
pub fn run_dist(spec: &ScenarioSpec, opts: &DistOptions) -> Result<Vec<JobOutcome>, String> {
    preflight(spec, opts)?;
    let mut log = opts.trace.thread("dist-coord", opts.trace_parent);
    let mut solve = |(index, job)| {
        run_job(
            spec,
            job,
            spec.engine,
            index,
            false,
            None,
            &opts.cancel,
            &mut log,
            |solver| launch(spec, index, opts, solver.steps_per_period()),
        )
    };
    Ok(spec.jobs().iter().enumerate().map(&mut solve).collect())
}

/// Everything that can be refused before a worker exists: the spec
/// (which validates the declared engine against the whole grid — no
/// engine rule depends on `nz`, so every extended slab shape passes
/// with it), the split, and the per-worker thread budget.
fn preflight(spec: &ScenarioSpec, opts: &DistOptions) -> Result<(), String> {
    spec.validate()?;
    // `auto` has no structure until tuned; tuning per slab shape is a
    // follow-up.
    if matches!(spec.engine, EngineDecl::Auto { .. }) {
        return Err(
            "distributed solves need a concrete engine; resolve `auto` first (mwd tune)"
                .to_string(),
        );
    }
    split_z(spec.dims().nz, opts.workers)?;
    let share = (opts.threads / opts.workers).max(1);
    if spec.engine.threads() > share {
        return Err(format!(
            "scenario `{}`: [engine] `{}` needs {} thread(s) per worker, but {} thread(s) \
             over {} worker(s) leave {share}",
            spec.name,
            spec.engine.label(),
            spec.engine.threads(),
            opts.threads,
            opts.workers
        ));
    }
    Ok(())
}

/// What a worker's error means for the job: a halt passes through as
/// is, so the job lands in the state its cause names; a failure names
/// the worker.
fn worker_failure(index: usize, e: impl Into<SolveError>) -> SolveError {
    match e.into() {
        SolveError::Failed(m) => SolveError::Failed(format!("dist worker {index} failed: {m}")),
        halt => halt,
    }
}

enum Joiner {
    Thread(std::thread::JoinHandle<Result<(), SolveError>>),
    Child(Child),
}

/// Everything live about one coordinated solve; dropping it aborts and
/// reaps whatever is still running, so every early `return Err` leaves
/// no worker behind.
struct Run {
    ctrl: Vec<TcpStream>,
    /// The steady-state control readers, one per worker.
    readers: Vec<std::thread::JoinHandle<()>>,
    joiners: Vec<Joiner>,
    finished: bool,
}

impl Run {
    fn send_all(&mut self, msg: &Msg) -> Result<(), String> {
        for (i, w) in self.ctrl.iter_mut().enumerate() {
            proto::send(w, msg).map_err(|e| format!("dist worker {i} unreachable: {e}"))?;
        }
        Ok(())
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        // The one abort site: every failed or cancelled solve unwinds
        // through here, so no error path sends its own.
        if !self.finished {
            let abort = Msg::Abort {
                reason: "coordinator shutting down".to_string(),
            };
            for w in self.ctrl.iter_mut() {
                let _ = proto::send(w, &abort);
            }
        }
        // Shutting the control sockets ends our readers (blocked on
        // clones of them) and unblocks any worker still reading; thread
        // workers then exit on their own. Child processes get a short
        // grace period, then SIGKILL.
        for s in self.ctrl.drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
        for j in self.joiners.drain(..) {
            match j {
                Joiner::Thread(h) => {
                    let _ = h.join();
                }
                Joiner::Child(mut c) => {
                    let t0 = Instant::now();
                    loop {
                        match c.try_wait() {
                            Ok(Some(_)) => break,
                            Ok(None) if t0.elapsed() > Duration::from_secs(5) => {
                                let _ = c.kill();
                                let _ = c.wait();
                                break;
                            }
                            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                            Err(_) => break,
                        }
                    }
                }
            }
        }
    }
}

/// Why a setup wait for `what` ran out: the job's own halt when the
/// token has one (an expired deadline is a timeout, a cancel a
/// cancellation), else the [`SETUP_TIMEOUT`] ceiling — no job
/// deadline, so a plain failure.
fn setup_expired(cancel: &CancelToken, what: &str) -> SolveError {
    cancel.halt_error().unwrap_or_else(|| {
        SolveError::Failed(format!(
            "dist setup passed its {} s ceiling waiting for {what}",
            SETUP_TIMEOUT.as_secs()
        ))
    })
}

/// Receive one control message during the lockstep handshake, bounded
/// by `deadline` via the socket read timeout.
fn recv_setup(
    stream: &mut TcpStream,
    deadline: Instant,
    cancel: &CancelToken,
    what: &str,
) -> Result<Msg, SolveError> {
    let left = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| setup_expired(cancel, what))?;
    stream
        .set_read_timeout(Some(left))
        .map_err(|e| format!("control read timeout: {e}"))?;
    match proto::recv(stream) {
        Ok(Msg::WorkerErr { index, error }) => Err(worker_failure(index as usize, error)),
        Ok(msg) => Ok(msg),
        Err(FrameError::Eof) => Err(format!("worker hung up before {what}").into()),
        Err(_) if Instant::now() >= deadline => Err(setup_expired(cancel, what)),
        Err(e) => Err(format!("waiting for {what}: {e}").into()),
    }
}

/// The slab group as the solver's [`Stepper`]: one `period` is one
/// lockstep period — send `Continue`, take every worker's `PeriodDone`
/// with its planes' partials, combine them.
struct SlabGroup {
    run: Run,
    /// What every control reader delivers, tagged with its worker.
    rx: Receiver<(usize, Delivery)>,
    /// Per worker: where a consumed frame buffer goes back for reuse.
    spare: Vec<Sender<Vec<u8>>>,
    slabs: Vec<Slab>,
    /// `(num_z, den_z)` of every global plane: the workers' partials of
    /// the current period, concatenated in slab order.
    partials: Vec<(f64, f64)>,
    metrics: Option<GroupMetrics>,
    /// Per worker: the `dist-worker-{i}` trace timeline.
    tlogs: Vec<ThreadLog>,
    /// The coordinator's own timeline, for the `dist_gather` span.
    log: ThreadLog,
    /// The only step count a period can have (see [`Stepper::period`]).
    spp: usize,
    period: usize,
}

struct GroupMetrics {
    workers: Vec<WorkerMetrics>,
    gather_seconds: Arc<Histogram>,
}

struct WorkerMetrics {
    exchanges: Arc<Counter>,
    wait: Arc<Histogram>,
    /// In [`PERIOD_PHASES`] order.
    phases: [Arc<Histogram>; 3],
    gathers: Arc<Counter>,
}

/// A verified frame `(kind, payload)`, or why the stream ended.
type Delivery = Result<(u8, Vec<u8>), String>;

/// Take one frame from every worker, in arrival order, and hand each
/// decoded `(worker, message, body)` to `on_frame`. A worker's error
/// report, a dead control stream and a tripped token all end the wait
/// with the typed failure; consumed buffers go back to their readers.
fn collect(
    rx: &Receiver<(usize, Delivery)>,
    spare: &[Sender<Vec<u8>>],
    cancel: &CancelToken,
    mut on_frame: impl FnMut(usize, Msg, &[u8]) -> Result<(), SolveError>,
) -> Result<(), SolveError> {
    let mut seen = vec![false; spare.len()];
    for _ in 0..spare.len() {
        let (i, kind, frame) = loop {
            if let Some(err) = cancel.halt_error() {
                return Err(err);
            }
            match rx.recv_timeout(WAIT_SLICE) {
                Ok((i, Ok((kind, frame)))) => break (i, kind, frame),
                Ok((i, Err(e))) => return Err(worker_failure(i, e)),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(SolveError::Failed("every control reader exited".into()));
                }
            }
        };
        match Msg::decode(kind, &frame).map_err(|e| worker_failure(i, e))? {
            (Msg::WorkerErr { error, .. }, _) => return Err(worker_failure(i, error)),
            _ if seen[i] => return Err(format!("worker {i} is out of lockstep").into()),
            (msg, body) => on_frame(i, msg, body)?,
        }
        seen[i] = true;
        // A reader that is gone has already said why.
        let _ = spare[i].send(frame);
    }
    Ok(())
}

fn unexpected(i: usize, msg: &Msg) -> SolveError {
    SolveError::Failed(format!(
        "unexpected control message kind {} from worker {i}",
        msg.kind()
    ))
}

/// Spawn the workers, hand each its slab of job `job_index`, relay the
/// halo topology and wait until all are `Ready`.
fn launch(
    spec: &ScenarioSpec,
    job_index: usize,
    opts: &DistOptions,
    spp: usize,
) -> Result<SlabGroup, SolveError> {
    let workers = opts.workers;
    let slabs = split_z(spec.dims().nz, workers)?;
    let halo = halo_depth(spp, &slabs);

    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("cannot bind the coordinator listener: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("coordinator listener addr: {e}"))?;
    let mut setup_dl = Instant::now() + SETUP_TIMEOUT;
    if let Some(d) = opts.cancel.deadline() {
        setup_dl = setup_dl.min(d);
    }

    let mut run = Run {
        ctrl: Vec::new(),
        readers: Vec::new(),
        joiners: Vec::new(),
        finished: false,
    };
    for i in 0..workers {
        match &opts.launcher {
            Launcher::Thread => {
                let cfg = WorkerConfig {
                    connect: addr.to_string(),
                    index: i,
                    faults: opts.faults.clone(),
                };
                let h = std::thread::Builder::new()
                    .name(format!("dist-worker-{i}"))
                    .spawn(move || run_worker(&cfg))
                    .map_err(|e| format!("cannot spawn worker thread {i}: {e}"))?;
                run.joiners.push(Joiner::Thread(h));
            }
            Launcher::Process { chaos } => {
                let exe = std::env::current_exe()
                    .map_err(|e| format!("cannot locate the mwd binary: {e}"))?;
                let mut cmd = Command::new(exe);
                cmd.args(["dist", "worker", "--connect"])
                    .arg(addr.to_string())
                    .arg("--index")
                    .arg(i.to_string())
                    .stdin(Stdio::null());
                if let Some(plan) = chaos {
                    cmd.args(["--chaos", plan]);
                }
                let child = cmd
                    .spawn()
                    .map_err(|e| format!("cannot spawn worker process {i}: {e}"))?;
                run.joiners.push(Joiner::Child(child));
            }
        }
    }

    // Accept and identify all workers (Hello carries the index).
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("coordinator listener nonblocking: {e}"))?;
    let mut ctrl: Vec<Option<TcpStream>> = (0..workers).map(|_| None).collect();
    let mut connected = 0usize;
    while connected < workers {
        let mut s = accept_polling(&listener, "control", || {
            if opts.cancel.halt_error().is_some() || Instant::now() >= setup_dl {
                Err(setup_expired(&opts.cancel, "workers to connect"))
            } else {
                Ok(())
            }
        })?;
        s.set_nodelay(true)
            .map_err(|e| format!("control nodelay: {e}"))?;
        match recv_setup(&mut s, setup_dl, &opts.cancel, "Hello")? {
            Msg::Hello { index } => {
                let i = index as usize;
                if i >= workers || ctrl[i].is_some() {
                    return Err(format!("unexpected Hello from worker index {i}").into());
                }
                ctrl[i] = Some(s);
                connected += 1;
            }
            other => return Err(format!("expected Hello, got kind {}", other.kind()).into()),
        }
    }
    run.ctrl = ctrl
        .into_iter()
        .map(|s| s.expect("all connected"))
        .collect();

    let deadline_ms = opts
        .cancel
        .deadline()
        .and_then(|d| d.checked_duration_since(Instant::now()))
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let spec_toml = spec.to_toml_string();

    // Assignment to `Ready` is the worker's build (full-grid solver,
    // crop, halo wiring) as the coordinator sees it.
    let mut tlogs: Vec<ThreadLog> = (0..workers)
        .map(|i| {
            opts.trace
                .thread(&format!("dist-worker-{i}"), opts.trace_parent)
        })
        .collect();
    let builds: Vec<_> = tlogs.iter_mut().map(|t| t.start("solver_build")).collect();

    for (i, slab) in slabs.iter().enumerate() {
        let msg = Msg::Assign {
            index: i as u32,
            workers: workers as u32,
            z0: slab.z0 as u32,
            nz_local: slab.nz as u32,
            halo: halo as u32,
            job_index: job_index as u32,
            deadline_ms,
            spec_toml: spec_toml.clone(),
        };
        proto::send(&mut run.ctrl[i], &msg)
            .map_err(|e| format!("cannot assign worker {i}: {e}"))?;
    }

    // While the workers build: the buffers their gathers will land in.
    let dims = spec.dims();
    let gather_bufs: Vec<_> = slabs
        .iter()
        .map(|slab| gather_buffer(dims, slab.nz))
        .collect();

    // Halo topology relay: worker i listens for i+1; we learn i's port
    // and tell i+1 where to connect.
    for i in 0..workers.saturating_sub(1) {
        let port = match recv_setup(&mut run.ctrl[i], setup_dl, &opts.cancel, "ListenPort")? {
            Msg::ListenPort { port } => port,
            other => return Err(format!("expected ListenPort, got kind {}", other.kind()).into()),
        };
        proto::send(&mut run.ctrl[i + 1], &Msg::ConnectDown { port })
            .map_err(|e| format!("cannot relay the halo port to worker {}: {e}", i + 1))?;
    }
    for (i, (tlog, span)) in tlogs.iter_mut().zip(builds).enumerate() {
        match recv_setup(&mut run.ctrl[i], setup_dl, &opts.cancel, "Ready")? {
            Msg::Ready {
                build_s,
                coeff_rows_distinct,
                coeff_rows_total,
                coeff_bytes,
            } => tlog.end_kv(
                span,
                vec![
                    ("build_s", format!("{build_s:.6}")),
                    ("coeff_rows_distinct", coeff_rows_distinct.to_string()),
                    ("coeff_rows_total", coeff_rows_total.to_string()),
                    ("coeff_bytes", coeff_bytes.to_string()),
                ],
            ),
            other => return Err(format!("expected Ready, got kind {}", other.kind()).into()),
        }
    }

    // Steady state: per-worker reader threads funnel verified frames
    // into one channel so a dead worker can never wedge the lockstep.
    // Each reader owns one buffer for the whole job, sized and touched
    // above for the slab it will gather: it waits for a frame's first
    // byte before taking the buffer back, and a worker only sends once
    // the coordinator — having returned the last frame — asked it to.
    let (tx, rx) = std::sync::mpsc::channel();
    let mut spare = Vec::new();
    for (i, (s, buf)) in run.ctrl.iter().zip(gather_bufs).enumerate() {
        s.set_read_timeout(None)
            .map_err(|e| format!("control read timeout: {e}"))?;
        let mut r = s.try_clone().map_err(|e| format!("control clone: {e}"))?;
        let tx = tx.clone();
        let (spare_tx, spare_rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let _ = spare_tx.send(buf);
        spare.push(spare_tx);
        let reader = move || loop {
            let _ = r.peek(&mut [0u8; 1]);
            let mut buf = spare_rx.try_recv().unwrap_or_default();
            let frame = match proto::read_frame_into(&mut r, &mut buf) {
                Ok(kind) => Ok((kind, buf)),
                Err(FrameError::Eof) => Err("control stream closed".to_string()),
                Err(e) => Err(format!("control stream: {e}")),
            };
            let end = frame.is_err();
            if tx.send((i, frame)).is_err() || end {
                return;
            }
        };
        let handle = std::thread::Builder::new()
            .name(format!("dist-ctrl-{i}"))
            .spawn(reader)
            .map_err(|e| format!("cannot spawn control reader {i}: {e}"))?;
        run.readers.push(handle);
    }
    drop(tx);

    let metrics = opts.registry.as_ref().map(|reg| GroupMetrics {
        workers: (0..workers)
            .map(|i| {
                let idx = i.to_string();
                let labels = [("worker", idx.as_str())];
                WorkerMetrics {
                    exchanges: reg.counter(
                        HALO_EXCHANGES_METRIC,
                        "Halo blocks received and applied by dist workers",
                        &labels,
                    ),
                    wait: reg.histogram(
                        HALO_WAIT_METRIC,
                        "Seconds dist workers spent blocked waiting for a halo block",
                        &labels,
                    ),
                    phases: PERIOD_PHASES.map(|phase| {
                        reg.histogram(
                            PERIOD_PHASE_METRIC,
                            "Seconds of each dist worker-period by phase",
                            &[labels[0], ("phase", phase)],
                        )
                    }),
                    gathers: reg.counter(
                        GATHERS_METRIC,
                        "Field slabs gathered into the coordinator's state",
                        &labels,
                    ),
                }
            })
            .collect(),
        gather_seconds: reg.histogram(
            GATHER_SECONDS_METRIC,
            "Seconds a dist job's one field gather took",
            &[],
        ),
    });
    if let Some(reg) = &opts.registry {
        reg.gauge(
            HALO_DEPTH_METRIC,
            "Halo depth k (planes per cut, steps per exchange) of the latest slab group",
            &[],
        )
        .set(halo as f64);
    }
    Ok(SlabGroup {
        run,
        rx,
        spare,
        partials: vec![(0.0, 0.0); dims.nz],
        slabs,
        metrics,
        tlogs,
        log: opts.trace.thread("dist-coord", opts.trace_parent),
        spp,
        period: 0,
    })
}

impl Stepper for SlabGroup {
    fn period(
        &mut self,
        _: &mut State,
        spp: usize,
        cancel: &CancelToken,
    ) -> Result<f64, SolveError> {
        // `Msg::Continue` carries no count: a worker always advances
        // one whole period of its own solver's length.
        if spp != self.spp {
            return Err(SolveError::Failed(format!(
                "a dist slab group steps whole periods of {} steps, not {spp}",
                self.spp
            )));
        }
        self.period += 1;
        let SlabGroup {
            run,
            rx,
            spare,
            slabs,
            partials,
            metrics,
            tlogs,
            period,
            ..
        } = self;
        let period = *period;
        let mut spans: Vec<_> = tlogs
            .iter_mut()
            .map(|t| Some(t.start("dist_period")))
            .collect();
        run.send_all(&Msg::Continue)?;
        collect(rx, spare, cancel, |i, msg, body| {
            let Msg::PeriodDone {
                period: p,
                exchanges,
                wait_secs,
                compute_s,
                exchange_s,
                reduce_s,
            } = msg
            else {
                return Err(unexpected(i, &msg));
            };
            if p as usize != period {
                return Err(format!("worker {i} is out of lockstep at period {period}").into());
            }
            // Period 1 has nothing to compare with and sends no partials.
            let slab = slabs[i];
            let planes = if period == 1 { 0 } else { slab.nz };
            if body.len() != 16 * planes {
                let got = body.len();
                return Err(worker_failure(
                    i,
                    format!("period reply holds {got} bytes of partials for {planes} planes"),
                ));
            }
            let mut body = proto::Cursor::new(body);
            for dst in &mut partials[slab.z0..slab.z0 + planes] {
                *dst = (body.f64("partial num")?, body.f64("partial den")?);
            }
            let phases = [compute_s, exchange_s, reduce_s];
            if let Some(m) = metrics.as_ref().map(|m| &m.workers[i]) {
                m.exchanges.add(exchanges);
                for w in &wait_secs {
                    m.wait.observe(*w);
                }
                for (h, v) in m.phases.iter().zip(phases) {
                    h.observe(v);
                }
            }
            if let Some(span) = spans[i].take() {
                let wait: f64 = wait_secs.iter().sum();
                let mut kv = vec![
                    ("period", period.to_string()),
                    ("halo_exchanges", exchanges.to_string()),
                    ("halo_wait_s", format!("{wait:.6}")),
                ];
                kv.extend(
                    ["compute_s", "exchange_s", "reduce_s"]
                        .into_iter()
                        .zip(phases.map(|v| format!("{v:.6}"))),
                );
                tlogs[i].end_kv(span, kv);
            }
            Ok(())
        })?;
        Ok(if period == 1 {
            f64::INFINITY
        } else {
            norms::combine_planes(partials.iter().copied())
        })
    }

    /// The job's one field gather — every slab's owned planes pasted
    /// into the caller's state — then `Finish`, which ends the
    /// lockstep; dropping the group joins the workers, so they are gone
    /// before the analysis is timed.
    fn finish(mut self, state: &mut State, cancel: &CancelToken) -> Result<(), SolveError> {
        let SlabGroup {
            run,
            rx,
            spare,
            slabs,
            metrics,
            log,
            ..
        } = &mut self;
        let t0 = Instant::now();
        let span = log.start("dist_gather");
        run.send_all(&Msg::Gather)?;
        collect(rx, spare, cancel, |i, msg, body| {
            if msg != Msg::Gather {
                return Err(unexpected(i, &msg));
            }
            let slab = slabs[i];
            paste_planes(&mut state.fields, slab.z0..slab.z0 + slab.nz, body)
                .map_err(|e| worker_failure(i, e))?;
            if let Some(m) = metrics {
                m.workers[i].gathers.inc();
            }
            Ok(())
        })?;
        let bytes = planes_len(state.dims(), state.dims().nz);
        log.end_kv(span, vec![("bytes", bytes.to_string())]);
        if let Some(m) = metrics {
            m.gather_seconds.observe(t0.elapsed().as_secs_f64());
        }
        run.send_all(&Msg::Finish)?;
        run.finished = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slab_group_steps_whole_periods_only() {
        // No workers: the lockstep has nothing to wait for, so only the
        // step-count contract is exercised.
        let mut group = SlabGroup {
            run: Run {
                ctrl: Vec::new(),
                readers: Vec::new(),
                joiners: Vec::new(),
                finished: true,
            },
            rx: std::sync::mpsc::channel().1,
            spare: Vec::new(),
            slabs: Vec::new(),
            partials: Vec::new(),
            metrics: None,
            tlogs: Vec::new(),
            log: Recorder::disabled().thread("", 0),
            spp: 11,
            period: 0,
        };
        let mut state = State::zeros(em_field::GridDims::cubic(2));
        let token = CancelToken::none();
        let err = group
            .period(&mut state, 10, &token)
            .unwrap_err()
            .to_string();
        assert!(err.contains("whole periods of 11 steps"), "{err}");
        assert_eq!(group.period, 0, "a refused call is not a period");
        let first = group.period(&mut state, 11, &token).unwrap();
        assert_eq!(first, f64::INFINITY, "period 1 has nothing to compare with");
        assert_eq!(group.period, 1);
    }

    #[test]
    fn an_expired_setup_is_filed_by_its_cause() {
        // The job's deadline passed while the workers were building.
        let expired = CancelToken::with_deadline(Duration::ZERO);
        let err = setup_expired(&expired, "Ready");
        assert!(matches!(err, SolveError::Timeout(_)), "{err}");

        let cancelled = CancelToken::none();
        cancelled.cancel();
        let err = setup_expired(&cancelled, "workers to connect");
        assert!(matches!(err, SolveError::Cancelled(_)), "{err}");

        // An active token: only the setup ceiling can have passed, and
        // the job has no deadline to be filed under.
        let err = setup_expired(&CancelToken::none(), "Ready");
        let want = "dist setup passed its 60 s ceiling waiting for Ready";
        assert_eq!(err, SolveError::Failed(want.to_string()));
    }
}
