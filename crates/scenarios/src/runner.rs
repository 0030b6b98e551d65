//! The concurrent batch runner.
//!
//! Expands a set of scenario specs (including their wavelength sweeps)
//! into a flat job list and executes it on a bounded pool of worker
//! threads. The pool size and the engine threads available to each job
//! share one [`ThreadBudget`]: auto-sized pools are shrunk until
//! `workers x widest engine` fits the budget, so `batch` never
//! oversubscribes the host no matter how jobs and intra-solve thread
//! groups combine (an explicitly pinned pool size is taken as is).
//! Every job's declared engine goes through the one resolution seam
//! ([`crate::resolve::EngineResolver`]) before the pool starts.
//!
//! Results come back in deterministic job order regardless of which
//! worker finished first, and — when an output directory is given —
//! are written as one JSON artifact per job plus a `batch_summary.json`
//! / `batch_summary.csv` pair, all after the concurrent phase so the
//! files appear in a stable order.

use crate::resolve::EngineResolver;
use crate::spec::{ConvergenceDecl, EngineDecl, ScenarioJob, ScenarioSpec};
use em_json::Json;
use em_obs::ThreadLog;
use em_solver::{analysis, Engine, EngineStepper, Stepper, ThiimSolver};
use mwd_core::{CancelToken, SolveError, ThreadBudget};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Options for [`run_batch`].
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Worker-pool size; 0 derives it from `budget`, the job count and
    /// the widest engine's thread demand (so the batch never
    /// oversubscribes the budget). An explicit value pins the pool size
    /// and is taken at face value.
    pub workers: usize,
    /// Engine-kind override (`--engine`): replaces every job's engine
    /// with [`EngineDecl::auto`] of this kind.
    pub engine_kind: Option<String>,
    /// Engine threads per job; defaults to the budget's share.
    pub threads: Option<usize>,
    /// Validate, expand and plan, but do not step any solver.
    pub dry_run: bool,
    /// Where to write per-job artifacts and the batch summary; `None`
    /// writes nothing.
    pub out_dir: Option<PathBuf>,
    /// Thread budget shared between workers and intra-solve threads.
    pub budget: ThreadBudget,
    /// Suppress per-job status lines.
    pub quiet: bool,
    /// Tuning-cache file (`--cache`), read and never written: declared
    /// MWD-family engines resolve through it too. `engine = "auto"`
    /// jobs always resolve, against an in-memory cache when `None`.
    pub tune_cache: Option<PathBuf>,
    /// Cooperative stop flag (graceful shutdown). Once set, workers
    /// finish the job they are on ("drain") but claim no further jobs;
    /// never-started jobs are recorded as cancelled outcomes, and the
    /// artifacts / batch summary are still written.
    pub stop: Option<Arc<AtomicBool>>,
    /// Cooperative cancellation token threaded into every job's
    /// solver (deadline and/or explicit cancel). A halted token drains
    /// the claim loop like [`stop`](Self::stop) does, and additionally
    /// halts *running* solvers at their next checkpoint; never-started
    /// jobs are recorded with the token's halt.
    pub cancel: Option<CancelToken>,
    /// Span recorder (`--trace`): per-worker job spans, tune-resolution
    /// spans, and — through each job's solver — per-thread-group MWD
    /// phase spans. Disabled by default, which makes every
    /// instrumentation point a no-op and keeps artifacts bit-identical.
    pub trace: em_obs::Recorder,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            workers: 0,
            engine_kind: None,
            threads: None,
            dry_run: false,
            out_dir: None,
            budget: ThreadBudget::host(),
            quiet: true,
            tune_cache: None,
            stop: None,
            cancel: None,
            trace: em_obs::Recorder::disabled(),
        }
    }
}

pub use crate::resolve::TuneRecord;

/// The result of one job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Position in the deterministic batch order.
    pub job: usize,
    pub scenario: String,
    pub sweep_index: usize,
    pub lambda_nm: f64,
    pub lambda_cells: f64,
    pub dims: String,
    /// Content hash of the declaring spec's canonical TOML (32 hex
    /// digits, [`ScenarioSpec::content_hash`]). Part of the artifact
    /// filename so two specs that share a *name* (e.g. the same
    /// generator family under different parameter sets) can never
    /// overwrite each other's JSON.
    pub spec_hash: String,
    pub engine: String,
    pub threads: usize,
    pub dry_run: bool,
    pub converged: bool,
    pub periods: usize,
    pub steps: usize,
    pub rel_change: f64,
    pub energy: f64,
    pub back_iteration_cells: usize,
    /// `(slab name, absorbed power)` per requested output slab.
    pub absorption: Vec<(String, f64)>,
    /// Laterally averaged |E|^2(z), if the spec requested it.
    pub intensity_profile: Option<Vec<f64>>,
    pub wall_secs: f64,
    pub error: Option<SolveError>,
    /// Artifact path, once written.
    pub artifact: Option<PathBuf>,
    /// How the engine configuration was resolved, when tuning applied.
    pub tuned: Option<TuneRecord>,
}

impl JobOutcome {
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("job", Json::Int(self.job as i64)),
            ("scenario", Json::str(&self.scenario)),
            ("sweep_index", Json::Int(self.sweep_index as i64)),
            ("lambda_nm", Json::Num(self.lambda_nm)),
            ("lambda_cells", Json::Num(self.lambda_cells)),
            ("dims", Json::str(&self.dims)),
            ("spec_hash", Json::str(&self.spec_hash)),
            ("engine", Json::str(&self.engine)),
            ("threads", Json::Int(self.threads as i64)),
            ("dry_run", Json::Bool(self.dry_run)),
            ("converged", Json::Bool(self.converged)),
            ("periods", Json::Int(self.periods as i64)),
            ("steps", Json::Int(self.steps as i64)),
            ("rel_change", Json::Num(self.rel_change)),
            ("energy", Json::Num(self.energy)),
            (
                "back_iteration_cells",
                Json::Int(self.back_iteration_cells as i64),
            ),
            ("wall_secs", Json::Num(self.wall_secs)),
        ];
        if !self.absorption.is_empty() {
            pairs.push((
                "absorption",
                Json::Obj(
                    self.absorption
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ));
        }
        if let Some(profile) = &self.intensity_profile {
            pairs.push((
                "intensity_profile",
                Json::Arr(profile.iter().map(|&v| Json::Num(v)).collect()),
            ));
        }
        if let Some(t) = &self.tuned {
            pairs.push(("tuned", t.to_json()));
        }
        let error = self.error.as_ref().map(|e| Json::str(e.to_string()));
        pairs.push(("error", error.unwrap_or(Json::Null)));
        Json::obj(pairs)
    }

    /// The deterministic artifact form: everything [`Self::to_json`]
    /// carries except wall-clock timing, so repeat solves of an
    /// identical job render byte-identical JSON. The job service's
    /// content-addressed result store serves exactly these bytes.
    pub fn to_json_canonical(&self) -> Json {
        match self.to_json() {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .into_iter()
                    .filter(|(k, _)| k != "wall_secs")
                    .collect(),
            ),
            other => other,
        }
    }
}

/// What [`run_batch`] returns: ordered outcomes plus pool telemetry.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One outcome per job, in deterministic job order.
    pub outcomes: Vec<JobOutcome>,
    /// Worker-pool size used.
    pub workers: usize,
    /// Engine threads granted to each job.
    pub threads_per_job: usize,
    /// Peak number of jobs observed running simultaneously.
    pub max_in_flight: usize,
    pub wall_secs: f64,
}

impl BatchReport {
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| o.error.is_some()).count()
    }

    /// Jobs the stop flag cancelled before they started (a subset of
    /// [`Self::failures`]).
    pub fn cancelled(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.error, Some(SolveError::Cancelled(_))))
            .count()
    }

    /// Jobs halted by an expired deadline — before starting or
    /// mid-solve (a subset of [`Self::failures`], disjoint from
    /// [`Self::cancelled`]).
    pub fn timed_out(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.error, Some(SolveError::Timeout(_))))
            .count()
    }

    /// `(cache hits, misses, native probes)` across the tuned jobs.
    pub fn tune_stats(&self) -> (usize, usize, usize) {
        let mut hits = 0;
        let mut misses = 0;
        let mut probes = 0;
        for t in self.outcomes.iter().filter_map(|o| o.tuned.as_ref()) {
            if t.cache_hit {
                hits += 1;
            } else {
                misses += 1;
            }
            probes += t.native_probes;
        }
        (hits, misses, probes)
    }
}

/// Execute every job of every spec on a bounded worker pool.
///
/// Fails fast (before any solver runs) if a spec does not validate or
/// the engine override is unknown; individual job failures during the
/// run are reported per outcome instead of aborting the batch.
pub fn run_batch(specs: &[ScenarioSpec], opts: &BatchOptions) -> Result<BatchReport, String> {
    for spec in specs {
        spec.validate()?;
    }

    // Expand sweeps into the flat, deterministic job list.
    let mut jobs: Vec<(&ScenarioSpec, ScenarioJob)> = Vec::new();
    for spec in specs {
        for job in spec.jobs() {
            jobs.push((spec, job));
        }
    }
    if jobs.is_empty() {
        return Err("batch contains no jobs".to_string());
    }

    let mut workers = if opts.workers > 0 {
        opts.workers.min(jobs.len())
    } else {
        opts.budget.split(jobs.len()).workers
    };
    // Each concurrent job's engine threads come out of the same budget
    // as the workers themselves: an explicit worker count (e.g. `mwd
    // run`'s sequential 1) grants each job a larger share.
    let threads_per_job = opts
        .threads
        .unwrap_or_else(|| opts.budget.total() / workers)
        .max(1);

    // Resolve every job's engine up front so `--engine` typos, tuning
    // failures and engine/grid mismatches fail before work starts.
    let resolver = EngineResolver::for_batch(opts.tune_cache.as_deref())?;
    let mut engines: Vec<(EngineDecl, Engine)> = Vec::with_capacity(jobs.len());
    let mut tune_records: Vec<Option<TuneRecord>> = Vec::with_capacity(jobs.len());
    let mut tlog = opts.trace.thread("batch_tune", 0);
    for (spec, _) in &jobs {
        let declared = match &opts.engine_kind {
            Some(kind) => EngineDecl::auto(kind, threads_per_job)?,
            None => spec.engine,
        };
        let tspan = resolver.tunes(declared).then(|| tlog.start("tune_resolve"));
        let resolved = resolver
            .resolve(declared, spec.dims(), threads_per_job)
            .map_err(|e| format!("scenario `{}`: tuning failed: {e}", spec.name))?;
        if let (Some(tspan), Some(t)) = (tspan, &resolved.tuned) {
            if tspan.id() != 0 {
                tlog.end_kv(
                    tspan,
                    vec![
                        ("scenario", spec.name.clone()),
                        ("cache_hit", t.cache_hit.to_string()),
                        ("stage", t.stage.clone()),
                    ],
                );
            } else {
                tlog.end(tspan);
            }
        }
        let engine = resolved
            .decl
            .to_engine(spec.dims())
            .map_err(|e| format!("scenario `{}`: [engine] {e}", spec.name))?;
        engines.push((resolved.decl, engine));
        tune_records.push(resolved.tuned);
    }
    drop(tlog);

    // Spec-declared engines carry their own thread counts; unless the
    // caller pinned the pool size, shrink it so the worst-case demand
    // `workers * max(engine threads)` stays within the budget.
    if opts.workers == 0 {
        let widest = engines.iter().map(|(d, _)| d.threads()).max().unwrap_or(1);
        workers = workers.min((opts.budget.total() / widest).max(1));
    }

    let t0 = std::time::Instant::now();
    let next = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let max_in_flight = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobOutcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();

    let token = opts.cancel.clone().unwrap_or_else(CancelToken::none);
    // A halted batch reports the cause: the stop flag is an explicit
    // cancel; otherwise the token decides (cancelled beats expired).
    let drain = opts.stop.clone().map(|s| CancelToken::with_flag(s, None));
    let halted = || {
        drain
            .as_ref()
            .and_then(CancelToken::halt_error)
            .or_else(|| token.halt_error())
    };
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (next, in_flight, max_in_flight) = (&next, &in_flight, &max_in_flight);
            let (jobs, engines, tune_records, slots) = (&jobs, &engines, &tune_records, &slots);
            let (halted, token) = (&halted, &token);
            scope.spawn(move || {
                let mut wlog = if opts.trace.is_enabled() {
                    opts.trace.thread(&format!("worker-{w}"), 0)
                } else {
                    opts.trace.thread("", 0)
                };
                loop {
                    // Drain semantics: a set stop flag ends the claim
                    // loop, but the job this worker is already running
                    // completes normally (its outcome is recorded below).
                    if halted().is_some() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let running = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    max_in_flight.fetch_max(running, Ordering::SeqCst);
                    let (spec, job) = &jobs[i];
                    let (decl, engine) = &engines[i];
                    if !opts.quiet {
                        println!(
                            "[{:>2}/{}] {} lambda={} nm on {} ...",
                            i + 1,
                            jobs.len(),
                            job.scenario,
                            job.lambda_nm,
                            decl.label()
                        );
                    }
                    let jspan = wlog.start("job");
                    let jspan_id = jspan.id();
                    let outcome = run_job(
                        spec,
                        job,
                        *decl,
                        i,
                        opts.dry_run,
                        tune_records[i].clone(),
                        token,
                        &mut wlog,
                        |_| Ok(EngineStepper::new(engine, opts.trace.clone(), jspan_id)),
                    );
                    if jspan_id != 0 {
                        wlog.end_kv(
                            jspan,
                            vec![
                                ("scenario", job.scenario.clone()),
                                ("lambda_nm", job.lambda_nm.to_string()),
                                ("engine", decl.label()),
                                ("job", i.to_string()),
                            ],
                        );
                    } else {
                        wlog.end(jspan);
                    }
                    if !opts.quiet {
                        let status = match (&outcome.error, outcome.dry_run, outcome.converged) {
                            (Some(e), _, _) => format!("FAILED: {e}"),
                            (None, true, _) => "dry-run ok".to_string(),
                            (None, false, true) => {
                                format!("converged in {} periods", outcome.periods)
                            }
                            (None, false, false) => {
                                format!("stopped after {} periods", outcome.periods)
                            }
                        };
                        println!(
                            "[{:>2}/{}] {} lambda={} nm: {} ({:.2}s)",
                            i + 1,
                            jobs.len(),
                            job.scenario,
                            job.lambda_nm,
                            status,
                            outcome.wall_secs
                        );
                    }
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    store_outcome(&slots[i], outcome);
                }
            });
        }
    });

    let mut outcomes: Vec<JobOutcome> = slots
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            take_outcome(m, || {
                let (spec, job) = &jobs[i];
                let mut o = blank_outcome(
                    spec,
                    job,
                    engines[i].0,
                    i,
                    opts.dry_run,
                    tune_records[i].clone(),
                );
                o.error = Some(match halted() {
                    Some(halt) => halt.map(|d| format!("{d} before this job started")),
                    None => SolveError::Failed("worker crashed before recording an outcome".into()),
                });
                o
            })
        })
        .collect();

    // Artifacts are written after the concurrent phase, in job order,
    // so output files appear deterministically.
    if let Some(dir) = &opts.out_dir {
        if !opts.dry_run {
            write_artifacts(dir, &mut outcomes)?;
        }
    }

    Ok(BatchReport {
        outcomes,
        workers,
        threads_per_job,
        max_in_flight: max_in_flight.load(Ordering::SeqCst),
        wall_secs: t0.elapsed().as_secs_f64(),
    })
}

/// Write an outcome into its slot even when a previous panic poisoned
/// the lock: the payload is a plain `Option` write, so the poison flag
/// carries no information worth aborting for.
fn store_outcome(slot: &Mutex<Option<JobOutcome>>, outcome: JobOutcome) {
    let mut guard = slot
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *guard = Some(outcome);
}

/// Recover a slot's outcome, shrugging off lock poisoning; a slot a
/// crashed worker never filled becomes `fallback()` (a per-job error)
/// instead of aborting the whole batch.
fn take_outcome(
    slot: Mutex<Option<JobOutcome>>,
    fallback: impl FnOnce() -> JobOutcome,
) -> JobOutcome {
    slot.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .unwrap_or_else(fallback)
}

/// The pre-execution outcome skeleton for one job.
fn blank_outcome(
    spec: &ScenarioSpec,
    job: &ScenarioJob,
    decl: EngineDecl,
    index: usize,
    dry_run: bool,
    tuned: Option<TuneRecord>,
) -> JobOutcome {
    JobOutcome {
        job: index,
        scenario: job.scenario.clone(),
        sweep_index: job.sweep_index,
        lambda_nm: job.lambda_nm,
        lambda_cells: job.lambda_cells,
        dims: format!("{}", spec.dims()),
        spec_hash: spec.content_hash(),
        engine: decl.label(),
        threads: decl.threads(),
        dry_run,
        converged: false,
        periods: 0,
        steps: 0,
        rel_change: f64::INFINITY,
        energy: 0.0,
        back_iteration_cells: 0,
        absorption: Vec::new(),
        intensity_profile: None,
        wall_secs: 0.0,
        error: None,
        artifact: None,
        tuned,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Solve one job and assemble its outcome: the single place a solver is
/// built, driven to convergence and analysed, whatever advances its
/// fields. `stepper` is called once the solver exists (a distributed
/// group needs its period length) and inside the panic guard, so a
/// stepper that fails to come up lands in the outcome like any other
/// job error. `decl` only labels the outcome. The build is a
/// `solver_build` span on `log`, carrying what the coefficient arrays
/// hold (`em_field::CoeffStats`).
#[allow(clippy::too_many_arguments)]
pub fn run_job<S: Stepper>(
    spec: &ScenarioSpec,
    job: &ScenarioJob,
    decl: EngineDecl,
    index: usize,
    dry_run: bool,
    tuned: Option<TuneRecord>,
    cancel: &CancelToken,
    log: &mut ThreadLog,
    stepper: impl FnOnce(&ThiimSolver) -> Result<S, SolveError>,
) -> JobOutcome {
    let t0 = std::time::Instant::now();
    let mut outcome = blank_outcome(spec, job, decl, index, dry_run, tuned);
    // A panicking solver (as opposed to one returning `Err`) must also
    // land in this job's outcome: letting it unwind would poison the
    // job slot and tear down the scoped pool mid-batch.
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<(), SolveError> {
            if dry_run {
                // Prove the scene resolves (materials, preset) without
                // paying for coefficient assembly or stepping.
                spec.build_scene()?;
                return Ok(());
            }
            // A job that is already halted (drain hit between jobs)
            // must not pay for coefficient assembly or worker spawn.
            if let Some(err) = cancel.halt_error() {
                return Err(err);
            }
            let build = log.start("solver_build");
            let mut solver = spec.build_solver(job)?;
            if build.id() != 0 {
                let coeffs = solver.state.coeffs.stats();
                log.end_kv(
                    build,
                    vec![
                        ("coeff_rows_distinct", coeffs.rows_distinct.to_string()),
                        ("coeff_rows_total", coeffs.rows_total.to_string()),
                        ("coeff_bytes", coeffs.bytes.to_string()),
                    ],
                );
            }
            outcome.back_iteration_cells = solver.back_iteration_cells;
            let mut stepper = stepper(&solver)?;
            let ConvergenceDecl { tol, max_periods } = spec.convergence;
            let report = solver.run_to_convergence_with(&mut stepper, tol, max_periods, cancel)?;
            stepper.finish(&mut solver.state, cancel)?;
            outcome.converged = report.converged;
            outcome.periods = report.periods;
            outcome.steps = report.steps;
            outcome.rel_change = report.rel_change;
            outcome.energy = solver.fields().energy();
            for slab in &spec.outputs.absorption {
                let a = analysis::absorption_in_slab(
                    solver.fields(),
                    &solver.config.scene,
                    job.lambda_nm,
                    solver.omega,
                    slab.z_lo,
                    slab.z_hi,
                );
                outcome.absorption.push((slab.name.clone(), a));
            }
            if spec.outputs.intensity_profile {
                outcome.intensity_profile = Some(analysis::intensity_profile_z(solver.fields()));
            }
            Ok(())
        },
    ));
    outcome.error = match caught {
        Ok(result) => result.err(),
        Err(p) => Some(format!("job panicked: {}", panic_message(p.as_ref())).into()),
    };
    outcome.wall_secs = t0.elapsed().as_secs_f64();
    outcome
}

/// Write one JSON artifact per outcome plus the batch summary
/// JSON/CSV pair into `dir`, recording each artifact path back into
/// its outcome. Shared by the batch runner and `mwd dist run` so a
/// distributed solve lays down byte-comparable artifacts.
pub fn write_artifacts(dir: &Path, outcomes: &mut [JobOutcome]) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create output directory {}: {e}", dir.display()))?;
    // Filenames carry the spec content hash (first 12 of 32 hex digits)
    // so same-named scenarios with different contents — e.g. one
    // generator family under two parameter sets — cannot collide; the
    // set guards the remaining identity components (job index, name,
    // wavelength, hash) against ever coinciding.
    let mut seen = std::collections::HashSet::new();
    for o in outcomes.iter_mut() {
        let name = format!(
            "{:02}_{}_{:04.0}nm_{}.json",
            o.job,
            o.scenario,
            o.lambda_nm,
            &o.spec_hash[..12]
        );
        if !seen.insert(name.clone()) {
            return Err(format!(
                "artifact filename collision: `{name}` would be written twice \
                 (job {}, scenario `{}`)",
                o.job, o.scenario
            ));
        }
        let path = dir.join(name);
        std::fs::write(&path, o.to_json().pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        o.artifact = Some(path);
    }

    let summary = Json::Arr(outcomes.iter().map(|o| o.to_json()).collect());
    let spath = dir.join("batch_summary.json");
    std::fs::write(&spath, summary.pretty())
        .map_err(|e| format!("cannot write {}: {e}", spath.display()))?;

    let mut csv = String::from(
        "job,scenario,lambda_nm,engine,converged,periods,steps,rel_change,energy,wall_secs,error\n",
    );
    for o in outcomes.iter() {
        // Engine labels and error messages contain commas; `{:?}` gives
        // them CSV-safe double quoting (scenario names are restricted to
        // [A-Za-z0-9_-] by validation and need none).
        csv.push_str(&format!(
            "{},{},{},{:?},{},{},{},{:e},{:e},{:.3},{:?}\n",
            o.job,
            o.scenario,
            o.lambda_nm,
            o.engine,
            o.converged,
            o.periods,
            o.steps,
            o.rel_change,
            o.energy,
            o.wall_secs,
            o.error.as_ref().map_or(String::new(), ToString::to_string)
        ));
    }
    let cpath = dir.join("batch_summary.csv");
    std::fs::write(&cpath, csv).map_err(|e| format!("cannot write {}: {e}", cpath.display()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{GridDims, PhysicsSpec, PmlSpec, SceneDecl, SourceSpec};

    fn tiny_spec(name: &str) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            description: String::new(),
            grid: GridDims::new(4, 4, 24),
            physics: PhysicsSpec {
                lambda_cells: 8.0,
                lambda_nm: 550.0,
                cfl: 0.95,
            },
            pml: Some(PmlSpec::new(4)),
            source: Some(SourceSpec::x_polarized(18, 1.0)),
            scene: SceneDecl::vacuum(),
            engine: crate::spec::EngineDecl::NaivePeriodicXY,
            convergence: crate::spec::ConvergenceDecl {
                tol: 1e-30, // never converges: deterministic work amount
                max_periods: 2,
            },
            sweep: None,
            workers: 1,
            outputs: Default::default(),
        }
    }

    #[test]
    fn batch_returns_outcomes_in_job_order() {
        let specs = vec![tiny_spec("a"), tiny_spec("b"), tiny_spec("c")];
        let report = run_batch(
            &specs,
            &BatchOptions {
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.workers, 2);
        assert!(report.max_in_flight <= 2, "pool must stay bounded");
        let names: Vec<&str> = report
            .outcomes
            .iter()
            .map(|o| o.scenario.as_str())
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.job, i);
            assert!(o.error.is_none(), "{:?}", o.error);
            assert_eq!(o.periods, 2);
            assert!(o.energy > 0.0);
        }
    }

    #[test]
    fn dry_run_steps_nothing() {
        let specs = vec![tiny_spec("a")];
        let report = run_batch(
            &specs,
            &BatchOptions {
                dry_run: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert!(report.outcomes[0].dry_run);
        assert_eq!(report.outcomes[0].steps, 0);
        assert!(report.outcomes[0].error.is_none());
    }

    #[test]
    fn unknown_engine_override_fails_before_running() {
        let specs = vec![tiny_spec("a")];
        let err = run_batch(
            &specs,
            &BatchOptions {
                engine_kind: Some("warp-drive".to_string()),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("warp-drive"), "{err}");
    }

    #[test]
    fn empty_batch_is_an_error() {
        assert!(run_batch(&[], &BatchOptions::default()).is_err());
    }

    fn poisoned_slot(initial: Option<JobOutcome>) -> Mutex<Option<JobOutcome>> {
        let slot = Mutex::new(initial);
        // Poison by panicking while holding the lock (what an unwinding
        // worker would have done before the catch_unwind fix).
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = slot.lock().unwrap();
            panic!("poison");
        }));
        assert!(r.is_err());
        assert!(slot.is_poisoned());
        slot
    }

    fn fallback_outcome(name: &str) -> JobOutcome {
        let spec = tiny_spec(name);
        let job = spec.jobs().remove(0);
        blank_outcome(&spec, &job, spec.engine, 0, false, None)
    }

    #[test]
    fn store_outcome_survives_a_poisoned_slot() {
        let slot = poisoned_slot(None);
        store_outcome(&slot, fallback_outcome("stored"));
        let got = take_outcome(slot, || unreachable!("slot was filled"));
        assert_eq!(got.scenario, "stored");
    }

    #[test]
    fn take_outcome_recovers_poisoned_and_empty_slots() {
        // Poisoned but filled: the stored outcome wins.
        let slot = poisoned_slot(Some(fallback_outcome("kept")));
        assert_eq!(take_outcome(slot, || unreachable!()).scenario, "kept");
        // Poisoned and empty: the fallback (a per-job error) is used.
        let slot = poisoned_slot(None);
        let got = take_outcome(slot, || {
            let mut o = fallback_outcome("fell-back");
            o.error = Some(SolveError::Failed("worker crashed".to_string()));
            o
        });
        assert_eq!(got.scenario, "fell-back");
        assert!(got.error.is_some());
    }

    #[test]
    fn panicking_job_body_lands_in_its_outcome() {
        let spec = tiny_spec("boom");
        let job = spec.jobs().remove(0);
        // The no-panic side first, then a body that panics inside
        // run_job's guard, then each payload shape catch_unwind yields.
        let engine = Engine::Naive;
        let ok = run_job(
            &spec,
            &job,
            spec.engine,
            0,
            true,
            None,
            &CancelToken::none(),
            &mut em_obs::Recorder::disabled().thread("test", 0),
            |_| Ok(EngineStepper::untraced(&engine)),
        );
        assert!(ok.error.is_none());
        // A stepper factory that panics mid-job, past the solver build.
        let boom = run_job(
            &spec,
            &job,
            spec.engine,
            0,
            false,
            None,
            &CancelToken::none(),
            &mut em_obs::Recorder::disabled().thread("test", 0),
            |_| -> Result<EngineStepper, SolveError> { panic!("stepper exploded") },
        );
        match &boom.error {
            Some(SolveError::Failed(m)) => assert_eq!(m, "job panicked: stepper exploded"),
            other => panic!("expected a failed outcome, got {other:?}"),
        }
        assert_eq!(boom.steps, 0);
        assert!(boom.artifact.is_none());
        let s: Box<dyn std::any::Any + Send> = Box::new("str payload");
        assert_eq!(panic_message(s.as_ref()), "str payload");
        let s: Box<dyn std::any::Any + Send> = Box::new("string payload".to_string());
        assert_eq!(panic_message(s.as_ref()), "string payload");
        let s: Box<dyn std::any::Any + Send> = Box::new(17usize);
        assert_eq!(panic_message(s.as_ref()), "non-string panic payload");
    }

    #[test]
    fn preset_stop_flag_cancels_every_job_but_still_writes_the_summary() {
        let dir = std::env::temp_dir().join(format!("mwd_stop_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stop = Arc::new(AtomicBool::new(true));
        let specs = vec![tiny_spec("a"), tiny_spec("b")];
        let report = run_batch(
            &specs,
            &BatchOptions {
                workers: 2,
                out_dir: Some(dir.clone()),
                stop: Some(stop),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.cancelled(), 2, "nothing starts under a set flag");
        assert_eq!(report.failures(), 2);
        for o in &report.outcomes {
            assert_eq!(o.steps, 0, "no solver stepped");
            let err = &o.error;
            assert!(matches!(err, Some(SolveError::Cancelled(_))), "{err:?}");
        }
        // Graceful shutdown still writes the batch summary + artifacts.
        assert!(dir.join("batch_summary.json").is_file());
        assert!(dir.join("batch_summary.csv").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_deadline_token_times_out_every_job() {
        let token = CancelToken::with_deadline(std::time::Duration::from_millis(0));
        let specs = vec![tiny_spec("a"), tiny_spec("b")];
        let report = run_batch(
            &specs,
            &BatchOptions {
                workers: 2,
                cancel: Some(token),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.timed_out(), 2, "nothing starts past the deadline");
        assert_eq!(report.cancelled(), 0, "timeouts are not cancellations");
        for o in &report.outcomes {
            assert_eq!(o.steps, 0, "no solver stepped");
            let err = &o.error;
            assert!(matches!(err, Some(SolveError::Timeout(_))), "{err:?}");
        }
    }

    #[test]
    fn stop_flag_set_mid_batch_drains_instead_of_aborting() {
        // The flag flips concurrently with the batch; however the race
        // lands, every job must come back either completed or cancelled
        // and the counts must be consistent.
        let stop = Arc::new(AtomicBool::new(false));
        let specs: Vec<ScenarioSpec> = (0..6).map(|i| tiny_spec(&format!("j{i}"))).collect();
        let setter = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                stop.store(true, Ordering::SeqCst);
            })
        };
        let report = run_batch(
            &specs,
            &BatchOptions {
                workers: 1,
                stop: Some(stop),
                ..Default::default()
            },
        )
        .unwrap();
        setter.join().unwrap();
        let completed = report.outcomes.iter().filter(|o| o.error.is_none()).count();
        assert_eq!(completed + report.cancelled(), report.outcomes.len());
        for o in report.outcomes.iter().filter(|o| o.error.is_none()) {
            assert_eq!(o.periods, 2, "drained jobs ran to completion");
        }
    }

    #[test]
    fn canonical_json_strips_wall_clock_but_keeps_results() {
        let specs = vec![tiny_spec("canon")];
        let r1 = run_batch(&specs, &BatchOptions::default()).unwrap();
        let r2 = run_batch(&specs, &BatchOptions::default()).unwrap();
        let (a, b) = (&r1.outcomes[0], &r2.outcomes[0]);
        assert_ne!(
            a.to_json().get("wall_secs"),
            None,
            "full artifact keeps timing"
        );
        let (ca, cb) = (a.to_json_canonical(), b.to_json_canonical());
        assert_eq!(ca.get("wall_secs"), None);
        assert_eq!(ca.get("energy"), cb.get("energy"));
        assert_eq!(
            ca.pretty(),
            cb.pretty(),
            "identical jobs render byte-identical canonical artifacts"
        );
    }

    #[test]
    fn auto_engine_resolves_through_an_in_memory_cache() {
        let mut spec = tiny_spec("auto");
        spec.engine = EngineDecl::Auto { threads: 0 };
        let report = run_batch(
            &[spec],
            &BatchOptions {
                workers: 1,
                threads: Some(1),
                budget: ThreadBudget::new(2),
                ..Default::default()
            },
        )
        .unwrap();
        let o = &report.outcomes[0];
        assert!(o.error.is_none(), "{:?}", o.error);
        let t = o.tuned.as_ref().expect("auto engine records tuning");
        assert!(!t.cache_hit, "in-memory cache starts cold");
        assert_eq!(t.native_probes, 0, "a batch never probes natively");
        assert!(o.engine.starts_with("mwd("), "resolved label: {}", o.engine);
        assert_eq!(o.threads, 1);
        assert!(mwd_core::MwdConfig::from_compact(&t.config).is_ok());
    }
}
