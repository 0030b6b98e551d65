//! Machine-readable performance reports (`BENCH_results.json`).
//!
//! Wall-clock MLUP/s per engine on this host, tagged with the engine
//! configuration and the git revision, so the performance trajectory is
//! tracked across PRs by CI (which uploads the JSON as an artifact).
//! Two harness entries exist: a raw-kernel measurement on a
//! deterministic synthetic state, and a scenario-driven measurement
//! that times the engines on a workload from the `em_scenarios`
//! catalog (coefficients, PML, sources and all).

use crate::harness::results_dir;
use autotune::{Factors, ModelEvaluator, ResolveOptions, TuneCache, TuneKey};
use em_field::{GridDims, State};
use em_json::Json;
use em_kernels::{run_naive, step_spatial_mt, SpatialConfig};
use em_obs::{PhaseTotal, Recorder};
use em_scenarios::ScenarioSpec;
use em_solver::Engine;
use mwd_core::{run_mwd, run_mwd_bc_rec, MwdBoundary, MwdConfig};
use std::path::{Path, PathBuf};

/// One engine's measurement.
#[derive(Clone, Debug)]
pub struct EnginePerf {
    pub engine: String,
    pub mlups: f64,
    pub wall_secs: f64,
}

/// How a run's MWD configuration came out of the tuning cache
/// (recorded when the report was produced with `--tune`).
#[derive(Clone, Debug)]
pub struct TunedBench {
    /// `MwdConfig::to_compact` form of the tuned configuration.
    pub config: String,
    pub cache_hit: bool,
    /// Tuning-pipeline stage (`model` / `sim` / `native`).
    pub stage: String,
    pub native_probes: usize,
    /// The tuner's own score for the winner (model/sim/native MLUP/s).
    pub score_mlups: f64,
}

impl TunedBench {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("config", Json::str(&self.config)),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("stage", Json::str(&self.stage)),
            ("native_probes", Json::Int(self.native_probes as i64)),
            ("score_mlups", Json::Num(self.score_mlups)),
        ])
    }
}

/// One benchmarked workload (kernel-level or scenario-driven).
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// `None` for the raw-kernel measurement.
    pub scenario: Option<String>,
    pub dims: GridDims,
    pub steps: usize,
    pub threads: usize,
    pub engines: Vec<EnginePerf>,
    /// Tuning provenance, when the run's configuration came from the
    /// tuning cache.
    pub tuned: Option<TunedBench>,
    /// Aggregate MWD phase timings (from a span-recorded run); empty
    /// unless the run was measured with tracing enabled.
    pub phases: Vec<PhaseTotal>,
}

/// The full report written to `results/BENCH_results.json`.
#[derive(Clone, Debug)]
pub struct BenchReport {
    pub git_rev: String,
    /// What `std::thread::available_parallelism` reported on this host.
    /// The threads *actually used* are recorded per run (`BenchRun::threads`);
    /// the two differ whenever a cap or an explicit `--threads` was applied.
    pub host_available_parallelism: usize,
    /// Instruction set the row kernels dispatched to (`scalar`/`avx2`/`avx512`).
    pub simd_isa: String,
    pub runs: Vec<BenchRun>,
}

fn mlups(dims: GridDims, steps: usize, secs: f64) -> f64 {
    (dims.cells() * steps) as f64 / secs.max(1e-12) / 1e6
}

/// What the host reports as available parallelism (1 if unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The current git revision, read from `.git` directly (no subprocess);
/// `unknown` outside a work tree. Delegates to the shared telemetry
/// crate so the bench report and `GET /healthz` agree on the revision.
pub fn git_rev() -> String {
    em_obs::git_revision()
}

/// Time the four engines on a deterministic synthetic state (the
/// quickstart configuration: same seed, same grid for every engine).
pub fn measure_kernels(dims: GridDims, steps: usize, threads: usize) -> BenchRun {
    measure_kernels_filtered(dims, steps, threads, None)
}

/// [`measure_kernels`] restricted to engines whose label contains
/// `filter` (case-insensitive substring); `None` measures all.
pub fn measure_kernels_filtered(
    dims: GridDims,
    steps: usize,
    threads: usize,
    filter: Option<&str>,
) -> BenchRun {
    let mut proto = State::zeros(dims);
    proto.fields.fill_deterministic(42);
    proto.coeffs.fill_deterministic(43);

    let mut engines = Vec::new();
    let mut time = |label: String, f: &mut dyn FnMut(&mut State)| {
        if !engine_matches(&label, filter) {
            return;
        }
        let mut s = proto.clone();
        let t0 = std::time::Instant::now();
        f(&mut s);
        let wall = t0.elapsed().as_secs_f64();
        engines.push(EnginePerf {
            engine: label,
            mlups: mlups(dims, steps, wall),
            wall_secs: wall,
        });
    };

    time("naive".to_string(), &mut |s| run_naive(s, steps));
    let spatial = SpatialConfig::new(8, 16);
    time(format!("spatial(threads={threads})"), &mut |s| {
        for _ in 0..steps {
            step_spatial_mt(s, spatial, threads);
        }
    });
    let one_wd = MwdConfig::one_wd(4, 2, threads);
    time(format!("1wd(dw=4, bz=2, groups={threads})"), &mut |s| {
        run_mwd(s, &one_wd, steps).expect("1WD runs");
    });
    // dw=16/bz=4 keeps the wavefront tile L2-resident at bench grid
    // sizes, where the SIMD row kernels run compute-bound.
    let shared = MwdConfig {
        dw: 16,
        bz: 4,
        tg: mwd_core::TgShape {
            x: 1,
            z: 1,
            c: threads.clamp(1, 3),
        },
        groups: 1,
    };
    time(
        format!(
            "mwd(dw={}, bz={}, tg=1x1x{}, groups=1)",
            shared.dw, shared.bz, shared.tg.c
        ),
        &mut |s| {
            run_mwd(s, &shared, steps).expect("MWD runs");
        },
    );

    BenchRun {
        scenario: None,
        dims,
        steps,
        threads,
        engines,
        tuned: None,
        phases: Vec::new(),
    }
}

/// Resolve the tuned MWD configuration for `dims` at `threads` through
/// the tuning cache (persistent when `cache_path` is given), measure it
/// on the synthetic kernel state, and record the provenance. This is
/// what `bench_report --tune` appends to the report: the performance
/// trajectory then tracks *tuned* MWD, not a hardcoded configuration.
pub fn measure_tuned_kernel(
    dims: GridDims,
    steps: usize,
    threads: usize,
    cache_path: Option<&Path>,
) -> Result<BenchRun, String> {
    let mut cache = match cache_path {
        Some(p) => TuneCache::load(p)?,
        None => TuneCache::in_memory(),
    };
    // Fingerprint under the same machine model `resolve` tunes with.
    let ropts = ResolveOptions::default();
    let key = TuneKey::for_host(&ropts.machine, dims, "mwd", threads);
    let r = autotune::resolve(&mut cache, &key, &ropts)?;
    cache.save()?;

    let mut s = State::zeros(dims);
    s.fields.fill_deterministic(42);
    s.coeffs.fill_deterministic(43);
    let t0 = std::time::Instant::now();
    run_mwd(&mut s, &r.config, steps).map_err(|e| format!("tuned config does not run: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();

    Ok(BenchRun {
        scenario: None,
        dims,
        steps,
        threads,
        engines: vec![EnginePerf {
            engine: format!("tuned-mwd({})", r.config.to_compact()),
            mlups: mlups(dims, steps, wall),
            wall_secs: wall,
        }],
        tuned: Some(TunedBench {
            config: r.config.to_compact(),
            cache_hit: r.cache_hit,
            stage: r.stage.as_str().to_string(),
            native_probes: r.native_probes,
            score_mlups: r.score_mlups,
        }),
        phases: Vec::new(),
    })
}

/// One natively measured candidate of the tune-regret table.
#[derive(Clone, Debug)]
pub struct RegretRow {
    pub config: MwdConfig,
    /// The closed-form model's score and the factors behind it.
    pub score_mlups: f64,
    pub factors: Factors,
    /// Best of three `run_mwd` calls.
    pub measured_mlups: f64,
}

/// Ground truth for the tuner's model: every candidate the miss path
/// ranks, measured, next to what the model made of it.
#[derive(Clone, Debug)]
pub struct TuneRegret {
    pub dims: GridDims,
    pub threads: usize,
    pub steps: usize,
    /// What `resolve` picks under the default options.
    pub chosen: MwdConfig,
    /// In measured order (the search space's enumeration order).
    pub rows: Vec<RegretRow>,
}

impl TuneRegret {
    pub fn best(&self) -> &RegretRow {
        self.rows
            .iter()
            .max_by(|a, b| a.measured_mlups.total_cmp(&b.measured_mlups))
            .expect("a regret table has at least one row")
    }

    /// The chosen configuration's row.
    pub fn chosen_row(&self) -> &RegretRow {
        self.rows
            .iter()
            .find(|r| r.config == self.chosen)
            .expect("the resolved config is one of the ranked candidates")
    }

    /// `chosen / best measured`: 1.0 means the model picked the fastest.
    pub fn chosen_over_best(&self) -> f64 {
        self.chosen_row().measured_mlups / self.best().measured_mlups
    }

    /// The table, fastest measured first.
    pub fn table(&self) -> String {
        let mut rows: Vec<&RegretRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.measured_mlups.total_cmp(&a.measured_mlups));
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.config.to_compact(),
                    format!("{:.1}", r.measured_mlups),
                    format!("{:.1}", r.score_mlups),
                    format!("{:.0}", r.factors.code_balance),
                    format!("{:.2}", r.factors.concurrency),
                    format!("{:.3}", r.factors.group_eff),
                    if r.config == self.chosen {
                        "<- chosen"
                    } else {
                        ""
                    }
                    .to_string(),
                ]
            })
            .collect();
        crate::harness::table(
            &[
                "config",
                "measured",
                "model",
                "B/LUP",
                "concurrency",
                "group_eff",
                "",
            ],
            &cells,
        )
    }

    pub fn to_json(&self) -> Json {
        let row = |r: &RegretRow| {
            Json::obj(vec![
                ("config", Json::str(r.config.to_compact())),
                ("measured_mlups", Json::Num(r.measured_mlups)),
                ("model_mlups", Json::Num(r.score_mlups)),
                ("code_balance", Json::Num(r.factors.code_balance)),
                ("concurrency", Json::Num(r.factors.concurrency)),
                ("group_eff", Json::Num(r.factors.group_eff)),
            ])
        };
        Json::obj(vec![
            ("dims", Json::str(format!("{}", self.dims))),
            ("threads", Json::Int(self.threads as i64)),
            ("steps", Json::Int(self.steps as i64)),
            ("chosen", Json::str(self.chosen.to_compact())),
            ("best_measured", Json::str(self.best().config.to_compact())),
            ("chosen_over_best", Json::Num(self.chosen_over_best())),
            ("rows", Json::Arr(self.rows.iter().map(row).collect())),
        ])
    }

    /// Merge into `results/BENCH_results.json` under `tune_regret`,
    /// keeping whatever else the file holds; returns the path.
    pub fn write(&self) -> Result<PathBuf, String> {
        let path = results_dir().join("BENCH_results.json");
        let mut doc = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| em_json::parse(&t).ok())
            .filter(|d| d.as_obj().is_some())
            .unwrap_or(Json::Obj(vec![]));
        doc.set("tune_regret", self.to_json());
        std::fs::write(&path, doc.pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Natively measure every candidate the tuner's miss path ranks for
/// `dims` at `threads`: the same `run_mwd` call as the benchmark's grid
/// workloads on one long-lived state (fields refilled before each run),
/// best of three.
pub fn measure_tune_regret(
    dims: GridDims,
    threads: usize,
    steps: usize,
) -> Result<TuneRegret, String> {
    let ropts = ResolveOptions::default();
    let key = TuneKey::for_host(&ropts.machine, dims, "mwd", threads);
    let chosen = autotune::resolve(&mut TuneCache::in_memory(), &key, &ropts)?.config;
    let mut model = ModelEvaluator::new(ropts.machine, dims, threads);
    let mut s = State::zeros(dims);
    s.coeffs.fill_deterministic(43);
    let mut rows = Vec::new();
    for config in autotune::search_candidates(&key, &ropts)? {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            s.fields.fill_deterministic(42);
            let t0 = std::time::Instant::now();
            run_mwd(&mut s, &config, steps)?;
            best = best.min(t0.elapsed().as_secs_f64());
        }
        let factors = model.factors(&config);
        rows.push(RegretRow {
            config,
            score_mlups: autotune::score(&ropts.machine, &config, threads, &factors),
            factors,
            measured_mlups: mlups(dims, steps, best),
        });
    }
    Ok(TuneRegret {
        dims,
        threads,
        steps,
        chosen,
        rows,
    })
}

/// Measure the 1WD MWD engine with span recording enabled and fold the
/// aggregate phase timings (`frontier_setup`, `queue_wait`,
/// `diamond_update`) into the run. The traced run *is* the measured
/// run, so the phase breakdown describes exactly the reported MLUP/s —
/// tracing overhead included, which is why this is a separate report
/// entry rather than the default kernel measurement.
pub fn measure_mwd_phases(
    dims: GridDims,
    steps: usize,
    threads: usize,
) -> Result<BenchRun, String> {
    let mut s = State::zeros(dims);
    s.fields.fill_deterministic(42);
    s.coeffs.fill_deterministic(43);
    let cfg = MwdConfig::one_wd(4, 2, threads);
    let rec = Recorder::enabled();
    let t0 = std::time::Instant::now();
    run_mwd_bc_rec(&mut s, &cfg, steps, MwdBoundary::Dirichlet, &rec, 0)?;
    let wall = t0.elapsed().as_secs_f64();
    let trace = rec.drain();
    Ok(BenchRun {
        scenario: None,
        dims,
        steps,
        threads,
        engines: vec![EnginePerf {
            engine: format!("1wd+trace(dw=4, bz=2, groups={threads})"),
            mlups: mlups(dims, steps, wall),
            wall_secs: wall,
        }],
        tuned: None,
        phases: trace.phase_totals(),
    })
}

/// Case-insensitive substring match used by `--engine` filtering.
pub fn engine_matches(label: &str, filter: Option<&str>) -> bool {
    match filter {
        None => true,
        Some(f) => label.to_ascii_lowercase().contains(&f.to_ascii_lowercase()),
    }
}

/// Time engines on a real scenario workload: the solver is rebuilt per
/// engine (fresh fields) and stepped `steps` times.
pub fn measure_scenario(
    spec: &ScenarioSpec,
    steps: usize,
    threads: usize,
) -> Result<BenchRun, String> {
    measure_scenario_filtered(spec, steps, threads, None)
}

/// [`measure_scenario`] restricted to engines whose label contains
/// `filter` (case-insensitive substring); `None` measures all.
pub fn measure_scenario_filtered(
    spec: &ScenarioSpec,
    steps: usize,
    threads: usize,
    filter: Option<&str>,
) -> Result<BenchRun, String> {
    spec.validate()?;
    let dims = spec.dims();
    let job = spec
        .jobs()
        .into_iter()
        .next()
        .ok_or("scenario expands to no jobs")?;

    let mut engines = Vec::new();
    let candidates: Vec<(String, Engine)> = vec![
        ("naive-periodic-xy".to_string(), Engine::NaivePeriodicXY),
        (
            format!("spatial(threads={threads})"),
            Engine::Spatial {
                cfg: SpatialConfig::new(8, 16),
                threads,
            },
        ),
        (
            format!("mwd(dw=4, bz=2, groups={threads})"),
            Engine::Mwd(MwdConfig::one_wd(4, 2, threads)),
        ),
    ];
    for (label, engine) in candidates {
        if !engine_matches(&label, filter) {
            continue;
        }
        let mut solver = spec.build_solver(&job)?;
        let t0 = std::time::Instant::now();
        solver.step_n(&engine, steps)?;
        let wall = t0.elapsed().as_secs_f64();
        engines.push(EnginePerf {
            engine: label,
            mlups: mlups(dims, steps, wall),
            wall_secs: wall,
        });
    }
    Ok(BenchRun {
        scenario: Some(spec.name.clone()),
        dims,
        steps,
        threads,
        engines,
        tuned: None,
        phases: Vec::new(),
    })
}

impl BenchRun {
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            (
                "scenario",
                match &self.scenario {
                    Some(s) => Json::str(s),
                    None => Json::Null,
                },
            ),
            ("dims", Json::str(format!("{}", self.dims))),
            ("steps", Json::Int(self.steps as i64)),
            ("threads", Json::Int(self.threads as i64)),
            (
                "engines",
                Json::Arr(
                    self.engines
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("engine", Json::str(&e.engine)),
                                ("mlups", Json::Num(e.mlups)),
                                ("wall_secs", Json::Num(e.wall_secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(t) = &self.tuned {
            pairs.push(("tuned", t.to_json()));
        }
        if !self.phases.is_empty() {
            pairs.push((
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("phase", Json::str(p.name)),
                                ("spans", Json::Int(p.count as i64)),
                                ("total_ms", Json::Num(p.total_us / 1e3)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::obj(pairs)
    }
}

impl BenchReport {
    pub fn new(runs: Vec<BenchRun>) -> Self {
        BenchReport {
            git_rev: git_rev(),
            host_available_parallelism: available_parallelism(),
            simd_isa: em_kernels::active_isa().name().to_string(),
            runs,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("git_rev", Json::str(&self.git_rev)),
            (
                "host_available_parallelism",
                Json::Int(self.host_available_parallelism as i64),
            ),
            ("simd_isa", Json::str(&self.simd_isa)),
            (
                "runs",
                Json::Arr(self.runs.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }

    /// Write `results/BENCH_results.json`; returns the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = results_dir().join("BENCH_results.json");
        std::fs::write(&path, self.to_json().pretty())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_measurement_covers_four_engines() {
        let run = measure_kernels(GridDims::cubic(12), 2, 2);
        assert_eq!(run.engines.len(), 4);
        for e in &run.engines {
            assert!(e.mlups > 0.0, "{}: {}", e.engine, e.mlups);
            assert!(e.wall_secs > 0.0);
        }
    }

    #[test]
    fn scenario_measurement_uses_the_catalog() {
        let spec = em_scenarios::library::vacuum_slab();
        let run = measure_scenario(&spec, 2, 2).unwrap();
        assert_eq!(run.scenario.as_deref(), Some("vacuum-slab"));
        assert_eq!(run.engines.len(), 3);
        for e in &run.engines {
            assert!(e.mlups > 0.0);
        }
    }

    #[test]
    fn report_json_has_the_tracked_fields() {
        let report = BenchReport::new(vec![measure_kernels(GridDims::cubic(8), 1, 1)]);
        let text = report.to_json().pretty();
        for key in [
            "git_rev",
            "host_available_parallelism",
            "simd_isa",
            "runs",
            "engines",
            "mlups",
        ] {
            assert!(text.contains(key), "missing `{key}`:\n{text}");
        }
        assert!(!report.git_rev.is_empty());
        assert!(["scalar", "avx2", "avx512"].contains(&report.simd_isa.as_str()));
    }

    #[test]
    fn tuned_measurement_records_provenance_and_hits_on_reuse() {
        let dir = std::env::temp_dir().join(format!("bench_tuned_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("tune_cache.json");
        let dims = GridDims::cubic(12);

        let first = measure_tuned_kernel(dims, 2, 2, Some(&path)).unwrap();
        let t = first.tuned.as_ref().expect("provenance recorded");
        assert!(!t.cache_hit, "first resolution is a miss");
        assert_eq!(first.engines.len(), 1);
        assert!(first.engines[0].engine.starts_with("tuned-mwd("));
        assert!(first.engines[0].mlups > 0.0);

        let second = measure_tuned_kernel(dims, 2, 2, Some(&path)).unwrap();
        let t2 = second.tuned.as_ref().unwrap();
        assert!(t2.cache_hit, "second resolution hits the cache");
        assert_eq!(t2.native_probes, 0);
        assert_eq!(t2.config, t.config);

        let text = BenchReport::new(vec![second]).to_json().pretty();
        for key in ["tuned", "cache_hit", "stage", "config"] {
            assert!(text.contains(key), "missing `{key}`:\n{text}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn phase_measurement_folds_span_totals_into_the_report() {
        let run = measure_mwd_phases(GridDims::cubic(12), 2, 2).unwrap();
        assert_eq!(run.engines.len(), 1);
        assert!(run.engines[0].engine.starts_with("1wd+trace("));
        let names: Vec<&str> = run.phases.iter().map(|p| p.name).collect();
        for phase in ["frontier_setup", "queue_wait", "diamond_update"] {
            assert!(names.contains(&phase), "missing `{phase}` in {names:?}");
        }
        for p in &run.phases {
            assert!(p.count > 0);
            assert!(p.total_us >= 0.0);
        }
        let text = BenchReport::new(vec![run]).to_json().pretty();
        for key in ["phases", "diamond_update", "total_ms"] {
            assert!(text.contains(key), "missing `{key}`:\n{text}");
        }
    }

    #[test]
    fn engine_filter_selects_a_subset() {
        let run = measure_kernels_filtered(GridDims::cubic(8), 1, 1, Some("1wd"));
        assert_eq!(run.engines.len(), 1);
        assert!(run.engines[0].engine.contains("1wd"));
        let none = measure_kernels_filtered(GridDims::cubic(8), 1, 1, Some("nope"));
        assert!(none.engines.is_empty());
    }

    #[test]
    fn engine_matches_is_case_insensitive_substring() {
        assert!(engine_matches("mwd(dw=8)", None));
        assert!(engine_matches("MWD(dw=8)", Some("mwd")));
        assert!(!engine_matches("naive", Some("mwd")));
    }

    #[test]
    fn git_rev_resolves_in_this_repo() {
        let rev = git_rev();
        // In the repo this is a 40-hex hash; in exported tarballs it
        // degrades to "unknown" — both are acceptable artifacts.
        assert!(rev == "unknown" || rev.len() >= 7, "{rev}");
    }

    #[test]
    fn engine_decl_is_reachable_for_scenario_benches() {
        // The harness and the CLI agree on engine naming.
        use em_scenarios::spec::EngineDecl;
        assert_eq!(EngineDecl::auto("mwd", 2).unwrap().threads(), 2);
    }
}
