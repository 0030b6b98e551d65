//! The measurement discipline shared by every workload: from-scratch
//! set-ups, a reference built outside every timed window, a warm-up,
//! then timed repetitions of one verified op.

use crate::stats;
use em_obs::Recorder;
use std::time::{Duration, Instant};

/// Fewest from-scratch repetitions of the set-up phase; `setup_s` is
/// the minimum over all of them.
pub const MIN_SETUP_REPS: usize = 3;
/// A short set-up is repeated until the repetitions add up to this
/// long (at most `MAX_SETUP_REPS` times): a 20 ms quantity taken as a
/// best-of-3 moves by 10 % between runs of the same code, a
/// best-of-25 does not.
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);
pub const MAX_SETUP_REPS: usize = 25;
/// The warm-up lasts this long *and* at least one full op: first ops
/// after idle run 20-30 % slow on the sandbox hosts.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Fewest timed repetitions behind a best-of-N value.
pub const MIN_REPS: usize = 7;
/// `peak_rss_mib` is the process's high-water mark once this many ops
/// (warm-up included) have completed, not at exit: how many ops fit in
/// `--seconds` depends on the host's speed, and a footprint that grows
/// per op (the dist coordinator's does) would otherwise make a faster
/// host, or a faster program, look heavier. At least this many ops
/// always run: one warm-up op and `MIN_REPS` timed ones.
pub const RSS_AFTER_OPS: usize = 1 + MIN_REPS;

/// What verifying one op found.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Check {
    /// Lattice-site updates the op executed.
    pub lups: u64,
    /// Individually verified units of the op (one grid run, one job per
    /// wavelength, one HTTP exchange).
    pub attempted: u64,
    pub failed: u64,
}

/// One workload: seeded inputs in, a timed op out. The harness calls
/// `teardown`/`setup` in pairs, `reference` once after the last
/// set-up, then `prepare` → `op` → `verify` per repetition; only `op`
/// and `setup` are timed.
pub trait Workload {
    /// Lines describing the configuration (dims, threads, tuned
    /// config), printed with the results.
    fn describe(&self) -> Vec<(String, String)>;
    /// Release everything `setup` built (untimed).
    fn teardown(&mut self);
    /// From nothing to ready-for-first-op.
    fn setup(&mut self) -> Result<(), String>;
    /// Build what `verify` compares against.
    fn reference(&mut self) -> Result<(), String>;
    /// Untimed work before each op: re-seed state, draw fresh variants.
    fn prepare(&mut self) -> Result<(), String>;
    /// The timed unit. Spans go to `rec`, nested under `parent`.
    fn op(&mut self, rec: &Recorder, parent: u64) -> Result<(), String>;
    /// Compare the last op's output with the reference.
    fn verify(&mut self) -> Check;
}

/// The end-to-end pass's measurements for one workload.
#[derive(Clone, Debug)]
pub struct Measured {
    pub setup_times: Vec<f64>,
    pub rep_times: Vec<f64>,
    /// `VmHWM` after `RSS_AFTER_OPS` ops.
    pub peak_rss_mib: f64,
    /// Lattice-site updates of one op.
    pub lups: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    pub fn solve_s(&self) -> f64 {
        stats::min(&self.rep_times)
    }

    pub fn mlups(&self) -> f64 {
        self.lups as f64 / self.solve_s() / 1e6
    }

    pub fn setup_s(&self) -> f64 {
        stats::min(&self.setup_times)
    }
}

fn time(f: impl FnOnce() -> Result<(), String>) -> Result<f64, String> {
    let t0 = Instant::now();
    f()?;
    Ok(t0.elapsed().as_secs_f64())
}

/// From-scratch set-ups, each after a teardown; the workload is left
/// ready.
fn timed_setups(w: &mut dyn Workload) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let mut total = 0.0;
    while times.len() < MIN_SETUP_REPS
        || (total < SETUP_BUDGET.as_secs_f64() && times.len() < MAX_SETUP_REPS)
    {
        w.teardown();
        let secs = time(|| w.setup())?;
        total += secs;
        times.push(secs);
    }
    Ok(times)
}

/// One prepared, timed, verified op; an op that errors counts as one
/// failed unit instead of aborting the run.
fn one_op(w: &mut dyn Workload, rec: &Recorder, parent: u64, tally: &mut Check) -> Option<f64> {
    let timed = w.prepare().and_then(|()| time(|| w.op(rec, parent)));
    match timed {
        Ok(secs) => {
            let c = w.verify();
            tally.lups = c.lups;
            tally.attempted += c.attempted;
            tally.failed += c.failed;
            Some(secs)
        }
        Err(e) => {
            eprintln!("op failed: {e}");
            tally.attempted += 1;
            tally.failed += 1;
            None
        }
    }
}

/// Run `reps` ops (at least one) and return the times of those that
/// completed — the per-layer pass's short form of [`measure`].
pub fn timed_ops(
    w: &mut dyn Workload,
    reps: usize,
    rec: &Recorder,
    parent: u64,
    tally: &mut Check,
) -> Result<Vec<f64>, String> {
    let times: Vec<f64> = (0..reps.max(1))
        .filter_map(|_| one_op(w, rec, parent, tally))
        .collect();
    if times.is_empty() {
        return Err("no op completed".to_string());
    }
    Ok(times)
}

/// The end-to-end pass: set-ups, reference, warm-up, then timed ops
/// until there are `MIN_REPS` of them and they add up to `seconds`.
pub fn measure(w: &mut dyn Workload, seconds: f64) -> Result<Measured, String> {
    let setup_times = timed_setups(w)?;
    w.reference()?;
    let off = Recorder::disabled();
    let mut tally = Check::default();
    let mut ops = 0;
    let mut peak_rss_mib = None;
    let mut run_op = |w: &mut dyn Workload| {
        let secs = one_op(w, &off, 0, &mut tally);
        ops += 1;
        if ops == RSS_AFTER_OPS {
            peak_rss_mib = crate::host::peak_rss_mib();
        }
        secs
    };

    let warm = Instant::now();
    run_op(w);
    while warm.elapsed() < WARMUP {
        run_op(w);
    }

    // `seconds` counts op time only: the untimed work between ops (a
    // 166 MB re-seed, four reference solves) would otherwise leave the
    // workloads that need it with half the repetitions of the others.
    let mut rep_times = Vec::new();
    // Ops that error out produce no time; give up after MIN_REPS of
    // them so a broken workload still terminates.
    let mut errored = 0;
    while (rep_times.len() < MIN_REPS || rep_times.iter().sum::<f64>() < seconds)
        && errored < MIN_REPS
    {
        match run_op(w) {
            Some(secs) => rep_times.push(secs),
            None => errored += 1,
        }
    }
    if rep_times.is_empty() {
        return Err("no timed op completed".to_string());
    }
    Ok(Measured {
        setup_times,
        rep_times,
        peak_rss_mib: peak_rss_mib.ok_or("no VmHWM in /proc/self/status")?,
        lups: tally.lups,
        attempted: tally.attempted,
        failed: tally.failed,
    })
}
