//! `sweep-stack` and `dist-slab`: a generated layer stack solved
//! through the batch runner (engine, autotune, solver, scenarios) or
//! through the z-slab coordinator (slab stepper, wire protocol, halo
//! exchange). Both compare every job's physics with a naive-engine
//! single-process reference.

use crate::harness::{Check, Workload};
use crate::inputs::Inputs;
use em_dist::{run_dist, DistOptions, Launcher};
use em_json::Json;
use em_obs::{Recorder, Registry};
use em_scenarios::{run_batch, BatchOptions, EngineDecl, JobOutcome, ScenarioSpec};
use mwd_core::ThreadBudget;
use std::sync::Arc;

pub const SWEEP_PERIODS: usize = 16;
pub const DIST_NZ: usize = 96;
pub const DIST_PERIODS: usize = 16;
pub const DIST_WORKERS: usize = 2;

/// Keys of a canonical outcome that name *how* it was computed (which
/// engine, how tuned, which job slot) rather than *what* came out.
/// Every engine is bit-identical to the naive sweep, so with these
/// removed an outcome must equal the naive reference byte for byte.
const PROVENANCE_KEYS: [&str; 5] = ["job", "engine", "threads", "tuned", "spec_hash"];

fn strip_provenance(outcome: Json) -> String {
    match outcome {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| !PROVENANCE_KEYS.contains(&k.as_str()))
                .collect(),
        )
        .compact(),
        other => other.compact(),
    }
}

/// The engine-independent bytes of one outcome.
pub fn physics(outcome: &JobOutcome) -> String {
    strip_provenance(outcome.to_json_canonical())
}

/// [`physics`] of an outcome that went through JSON text (a service
/// artifact); numbers round-trip exactly through `em_json`.
pub fn physics_of_json(outcome: &Json) -> String {
    strip_provenance(outcome.clone())
}

pub fn batch_options(threads: usize, trace: Recorder) -> BatchOptions {
    BatchOptions {
        workers: 1,
        threads: Some(threads),
        budget: ThreadBudget::new(threads),
        trace,
        ..Default::default()
    }
}

/// The reference: the same spec on the naive engine, one process, one
/// thread.
pub fn naive_physics(spec: &ScenarioSpec) -> Result<Vec<String>, String> {
    let mut naive = spec.clone();
    naive.engine = EngineDecl::Naive;
    naive.workers = 1;
    let report = run_batch(&[naive], &batch_options(1, Recorder::disabled()))?;
    Ok(report.outcomes.iter().map(physics).collect())
}

/// What a careful user does with a spec before solving: write it,
/// parse it back, validate it, and assemble every job's solver
/// (coefficients, PML, source) once to prove it builds.
pub fn parse_validate_assemble(spec: &ScenarioSpec) -> Result<ScenarioSpec, String> {
    let parsed = ScenarioSpec::from_toml_str(&spec.to_toml_string())?;
    parsed.validate()?;
    for job in parsed.jobs() {
        std::hint::black_box(parsed.build_solver(&job)?);
    }
    Ok(parsed)
}

/// Compare outcomes with the reference, job by job. `corrupt` flips
/// one byte of the first outcome — the canary that proves the
/// comparison is live.
fn check(outcomes: &[JobOutcome], want: &[String], cells: usize, corrupt: bool) -> Check {
    let mut c = Check {
        attempted: want.len().max(1) as u64,
        ..Check::default()
    };
    for (i, want) in want.iter().enumerate() {
        let got = outcomes.get(i).map(|o| {
            let mut bytes = physics(o).into_bytes();
            if corrupt && i == 0 {
                bytes[0] ^= 1;
            }
            (o.error.is_none(), bytes)
        });
        match got {
            Some((true, bytes)) if bytes == want.as_bytes() => {}
            _ => c.failed += 1,
        }
    }
    if want.is_empty() {
        c.failed = 1;
    }
    c.lups = outcomes.iter().map(|o| (o.steps * cells) as u64).sum();
    c
}

pub struct SweepWorkload {
    inputs: Inputs,
    threads: usize,
    corrupt: bool,
    spec: Option<ScenarioSpec>,
    want: Vec<String>,
    last: Vec<JobOutcome>,
}

impl SweepWorkload {
    pub fn new(inputs: &Inputs, threads: usize, corrupt: bool) -> Self {
        SweepWorkload {
            inputs: *inputs,
            threads,
            corrupt,
            spec: None,
            want: Vec::new(),
            last: Vec::new(),
        }
    }

    fn spec(&self) -> Result<&ScenarioSpec, String> {
        self.spec.as_ref().ok_or_else(|| "not set up".to_string())
    }
}

impl Workload for SweepWorkload {
    fn describe(&self) -> Vec<(String, String)> {
        let tuned = self.last.first().and_then(|o| o.tuned.as_ref());
        vec![
            ("dims".into(), "16x16x64".into()),
            ("wavelengths".into(), "3".into()),
            ("periods_per_wavelength".into(), SWEEP_PERIODS.to_string()),
            (
                "tuned_config".into(),
                tuned.map_or("-".into(), |t| t.config.clone()),
            ),
        ]
    }

    fn teardown(&mut self) {
        self.spec = None;
    }

    fn setup(&mut self) -> Result<(), String> {
        let spec = self.inputs.sweep_spec(SWEEP_PERIODS, self.threads)?;
        let spec = parse_validate_assemble(&spec)?;
        // Resolve the tuned configuration the batch will run (the
        // planning half of `mwd batch --dry-run`).
        crate::grid::resolve(
            &mut autotune::TuneCache::in_memory(),
            spec.dims(),
            self.threads,
        )?;
        self.spec = Some(spec);
        Ok(())
    }

    fn reference(&mut self) -> Result<(), String> {
        self.want = naive_physics(self.spec()?)?;
        Ok(())
    }

    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn op(&mut self, rec: &Recorder, _parent: u64) -> Result<(), String> {
        // Artifacts stay in memory (`out_dir: None`); `engine = "auto"`
        // resolves through the batch's own in-memory tuning cache.
        let opts = batch_options(self.threads, rec.clone());
        self.last = run_batch(std::slice::from_ref(self.spec()?), &opts)?.outcomes;
        Ok(())
    }

    fn verify(&mut self) -> Check {
        let cells = self.spec.as_ref().map_or(0, |s| s.dims().cells());
        check(&self.last, &self.want, cells, self.corrupt)
    }
}

pub struct DistWorkload {
    inputs: Inputs,
    corrupt: bool,
    /// Halo metrics sink, read by the per-layer pass.
    pub registry: Arc<Registry>,
    spec: Option<ScenarioSpec>,
    want: Vec<String>,
    last: Vec<JobOutcome>,
}

impl DistWorkload {
    pub fn new(inputs: &Inputs, corrupt: bool) -> Self {
        DistWorkload {
            inputs: *inputs,
            corrupt,
            registry: Arc::new(Registry::new()),
            spec: None,
            want: Vec::new(),
            last: Vec::new(),
        }
    }

    /// The slab stepper ignores the MWD parameters (the declared engine
    /// only selects the Dirichlet boundary), so the smallest valid
    /// configuration is declared.
    pub fn spec_for(inputs: &Inputs) -> Result<ScenarioSpec, String> {
        let engine = EngineDecl::Mwd {
            dw: 4,
            bz: 2,
            tg_x: 1,
            tg_z: 1,
            tg_c: 1,
            groups: 1,
        };
        inputs.stack_spec("dist-slab", DIST_NZ, DIST_PERIODS, engine)
    }

    pub fn options(&self, workers: usize, rec: &Recorder, parent: u64) -> DistOptions {
        DistOptions {
            workers,
            // One engine thread per worker.
            threads: workers,
            launcher: Launcher::Thread,
            trace: rec.clone(),
            trace_parent: parent,
            registry: Some(self.registry.clone()),
            ..Default::default()
        }
    }

    pub fn spec(&self) -> Result<&ScenarioSpec, String> {
        self.spec.as_ref().ok_or_else(|| "not set up".to_string())
    }

    /// One decomposed solve at `workers`, kept for `verify`.
    pub fn solve(&mut self, workers: usize, rec: &Recorder, parent: u64) -> Result<(), String> {
        let opts = self.options(workers, rec, parent);
        self.last = run_dist(self.spec()?, &opts)?;
        Ok(())
    }
}

impl Workload for DistWorkload {
    fn describe(&self) -> Vec<(String, String)> {
        vec![
            ("dims".into(), format!("16x16x{DIST_NZ}")),
            ("workers".into(), DIST_WORKERS.to_string()),
            ("threads_per_worker".into(), "1".into()),
            ("periods".into(), DIST_PERIODS.to_string()),
        ]
    }

    fn teardown(&mut self) {
        self.spec = None;
    }

    fn setup(&mut self) -> Result<(), String> {
        self.spec = Some(parse_validate_assemble(&Self::spec_for(&self.inputs)?)?);
        Ok(())
    }

    fn reference(&mut self) -> Result<(), String> {
        self.want = naive_physics(self.spec()?)?;
        Ok(())
    }

    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn op(&mut self, rec: &Recorder, parent: u64) -> Result<(), String> {
        self.solve(DIST_WORKERS, rec, parent)
    }

    fn verify(&mut self) -> Check {
        let cells = self.spec.as_ref().map_or(0, |s| s.dims().cells());
        check(&self.last, &self.want, cells, self.corrupt)
    }
}
