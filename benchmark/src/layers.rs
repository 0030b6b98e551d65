//! The per-layer pass: one short measurement per layer metric, bottom
//! of the stack to top, at the sizes the workloads use. Each number is
//! a best-of-few or a median of few — indicative, unbounded, there to
//! localise a change that an end-to-end metric caught.
//!
//! Every workload's op also runs here a few times untraced and once
//! traced, which gives the rep spread behind `solve_s`, the tracing
//! overhead, and the spans for the self-time table.

use crate::grid::{self, GridWorkload};
use crate::harness::{timed_ops, Check, Workload};
use crate::host;
use crate::inputs::Inputs;
use crate::serve::{self, ServeWorkload};
use crate::spans;
use crate::stack::{self, DistWorkload, SweepWorkload};
use crate::stats;
use autotune::{CacheWindow, ResolveOptions, SearchSpace, TuneCache};
use em_field::{norms, Component, GridDims};
use em_kernels::{Isa, RawGrid, SpatialConfig};
use em_obs::{Recorder, SpanRecord};
use em_scenarios::{run_batch, EngineDecl, ScenarioSpec};
use em_service::{ConnModel, ResultStore};
use em_solver::{analysis, Engine};
use mwd_core::{DiamondWidth, MwdConfig, TgShape, TilePlan};
use perf_models::MachineSpec;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Untraced ops per workload in this pass.
const REPS: usize = 3;

pub struct Ledger {
    pub values: Vec<(String, f64)>,
    /// Config and caveat lines for the text report.
    pub notes: Vec<String>,
    pub tally: Check,
    /// Spans of each workload's traced op, roots adopted by the op span.
    pub traces: Vec<(&'static str, Vec<SpanRecord>)>,
    threads: usize,
    inputs: Inputs,
    scratch: PathBuf,
}

fn secs<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Best of `n` timings of `f`.
fn best_of(n: usize, mut f: impl FnMut()) -> f64 {
    stats::min(&(0..n).map(|_| secs(&mut f).0).collect::<Vec<_>>())
}

/// Median of `n` timings of `f`.
fn median_of(n: usize, mut f: impl FnMut()) -> f64 {
    stats::median(&(0..n).map(|_| secs(&mut f).0).collect::<Vec<_>>())
}

fn mlups(cells: usize, steps: usize, secs: f64) -> f64 {
    (cells * steps) as f64 / secs / 1e6
}

/// Share of the summed executor phase time spent in `phase`.
fn phase_share(spans: &[SpanRecord], phase: &str) -> f64 {
    const PHASES: [&str; 3] = ["frontier_setup", "queue_wait", "diamond_update"];
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.t_end_us - s.t_start_us)
            .sum()
    };
    total(phase)
        / PHASES
            .iter()
            .map(|p| total(p))
            .sum::<f64>()
            .max(f64::MIN_POSITIVE)
}

impl Ledger {
    pub fn new(inputs: &Inputs, scratch: &Path) -> Ledger {
        Ledger {
            values: Vec::new(),
            notes: Vec::new(),
            tally: Check::default(),
            traces: Vec::new(),
            threads: host::engine_threads(),
            inputs: *inputs,
            scratch: scratch.to_path_buf(),
        }
    }

    fn put(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    /// `REPS` untraced ops and one traced op of a set-up workload:
    /// rep spread, tracing overhead, spans. Returns the best untraced
    /// time.
    fn reps_and_trace(&mut self, name: &'static str, w: &mut dyn Workload) -> Result<f64, String> {
        let times = timed_ops(w, REPS, &Recorder::disabled(), 0, &mut self.tally)?;
        self.put(&format!("{name}.rep_median_s"), stats::median(&times));
        self.put(&format!("{name}.rep_iqr_s"), stats::iqr(&times));

        let rec = Recorder::enabled();
        let mut log = rec.thread("bench", 0);
        let op = log.start("op");
        let op_id = op.id();
        let traced = timed_ops(w, 1, &rec, op_id, &mut self.tally);
        log.end(op);
        drop(log);
        let mut trace = rec.drain().spans;
        spans::adopt_roots(&mut trace, op_id);
        self.traces.push((name, trace));
        let best = stats::min(&times);
        self.put(&format!("obs.trace_overhead.{name}"), traced?[0] / best);
        Ok(best)
    }

    fn last_trace(&self) -> &[SpanRecord] {
        self.traces.last().map_or(&[], |(_, t)| t.as_slice())
    }

    /// `em_kernels` in cache: one thread, a 16x16x24 grid (3.9 MB of
    /// state, L2-resident), dispatched ISA against forced scalar.
    fn kernels_in_cache(&mut self) {
        let dims = GridDims::new(16, 16, 24);
        const STEPS: usize = 400;
        let mut state = grid::alloc_fill(dims, self.inputs.field_seed(), self.inputs.coeff_seed());
        let simd = best_of(3, || em_kernels::run_naive(&mut state, STEPS));
        let scalar = best_of(3, || {
            let g = RawGrid::new(&state).with_isa(Isa::Scalar);
            for _ in 0..STEPS {
                for comp in Component::H_ALL.into_iter().chain(Component::E_ALL) {
                    // SAFETY: single-threaded, the same nest order as
                    // `step_naive`: each component nest writes only its
                    // own array and reads the opposite field (frozen
                    // during the phase) plus itself at the written cell.
                    unsafe {
                        em_kernels::update_component_rows(
                            &g,
                            comp,
                            0..dims.nz,
                            0..dims.ny,
                            0..dims.nx,
                        );
                    }
                }
            }
        });
        self.put(
            "kernels.row_incache_mlups",
            mlups(dims.cells(), STEPS, simd),
        );
        self.put(
            "kernels.row_scalar_mlups",
            mlups(dims.cells(), STEPS, scalar),
        );
        self.put("kernels.simd_speedup", scalar / simd);
        self.put(
            "kernels.flops_per_lup",
            em_kernels::flops::FLOPS_PER_LUP as f64,
        );
        self.put("kernels.bytes_per_cell", GridDims::BYTES_PER_CELL as f64);
    }

    /// Copy bandwidth of this host at the engine thread count: two
    /// buffers of twice the last-level cache each, counted as one read
    /// plus one write per byte.
    fn host_copy_bandwidth(&mut self, llc: u64) -> f64 {
        let words = (2 * llc as usize / 8).max(1 << 24);
        let src = vec![1.0f64; words];
        let mut dst = vec![0.0f64; words];
        let chunk = words.div_ceil(self.threads);
        let secs = best_of(3, || {
            std::thread::scope(|s| {
                for (d, c) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                    s.spawn(move || d.copy_from_slice(c));
                }
            });
            std::hint::black_box(&mut dst);
        });
        let gbs = 2.0 * (words * 8) as f64 / secs / 1e9;
        self.put("models.host_copy_gb_per_s", gbs);
        gbs
    }

    /// The memory-bound grid: `em_field`, `em_kernels` baselines,
    /// `mwd_core`, and the model / simulator / tuner columns.
    fn grid_mem(&mut self) -> Result<(), String> {
        let (dims, steps, t) = (grid::MEM_DIMS, grid::MEM_STEPS, self.threads);
        let mut w = GridWorkload::new(dims, steps, t, &self.inputs, false);
        let llc = host::llc_bytes().unwrap_or(0);
        self.put("field.state_bytes", dims.state_bytes() as f64);
        self.put(
            "field.grid_over_llc",
            dims.state_bytes() as f64 / (llc as f64).max(1.0),
        );
        self.notes.push(format!(
            "grid-mem: {dims} = {} B of state over a {llc} B last-level cache",
            dims.state_bytes()
        ));

        let (alloc_s, ()) = secs(|| w.alloc());
        self.put("field.alloc_fill_s", alloc_s);
        let mut cache = TuneCache::in_memory();
        let (miss_s, tuned) = secs(|| grid::resolve(&mut cache, dims, t));
        let tuned = tuned?;
        let (hit_s, _) = secs(|| grid::resolve(&mut cache, dims, t));
        self.put("autotune.resolve_miss_s", miss_s);
        self.put("autotune.resolve_hit_s", hit_s);
        w.tune()?;
        self.notes.push(format!(
            "grid-mem: tuned {} at T={t} (stage {}, 0 native probes)",
            tuned.config.to_compact(),
            tuned.stage.as_str()
        ));

        let ropts = ResolveOptions::default();
        let cands = SearchSpace::default_for(t).candidates(dims, t);
        let total = cands.len();
        let (_, pruned) =
            autotune::prune::prune(cands, dims, &ropts.machine, CacheWindow::default());
        self.put("autotune.candidates", total as f64);
        self.put("autotune.pruned_ratio", pruned as f64 / total.max(1) as f64);

        // The plain single-thread sweep is both the baseline row and
        // the reference every later op is verified against.
        w.reference()?;
        self.put(
            "kernels.naive_t1_mem_mlups",
            mlups(dims.cells(), steps, w.naive_secs),
        );
        w.prepare()?;
        // Best single step of two seconds' worth: `step_spatial_mt`
        // starts its threads anew every step, and for a second or more
        // after a single-threaded phase the kernel keeps stacking them
        // on one core (0.134 s a step instead of 0.068 s on this host).
        let state = w.state()?;
        let stepping = Instant::now();
        let mut step_s = f64::INFINITY;
        while stepping.elapsed().as_secs_f64() < 2.0 {
            let step = || em_kernels::step_spatial_mt(state, SpatialConfig::new(8, 16), t);
            step_s = step_s.min(secs(step).0);
        }
        let spatial = mlups(dims.cells(), 1, step_s);
        self.put("kernels.spatial_mem_mlups", spatial);

        let tn_s = self.reps_and_trace("grid-mem", &mut w)?;
        let tn = mlups(dims.cells(), steps, tn_s);
        self.put("core.mwd_tn_mem_mlups", tn);
        self.put("core.tiles", w.stats.tiles as f64);
        self.put("core.half_updates", w.stats.half_updates as f64);
        let trace = self.last_trace();
        let (wait, update) = (
            phase_share(trace, "queue_wait"),
            phase_share(trace, "diamond_update"),
        );
        self.put("core.queue_wait_share_mem", wait);
        self.put("core.diamond_update_share_mem", update);
        self.put("core.mwd_over_spatial_mem", tn / spatial);

        let t1_cfg = grid::resolve(&mut cache, dims, 1)?.config;
        let t1_s = self.run_checked(&mut w, &t1_cfg)?;
        let t1 = mlups(dims.cells(), steps, t1_s);
        self.put("core.mwd_t1_mem_mlups", t1);
        self.put("core.par_eff_mem", tn / (t as f64 * t1));

        // What the tuner buys over the hard-coded bench_report config.
        let default = MwdConfig {
            dw: 16,
            bz: 4,
            tg: TgShape {
                x: 1,
                z: 1,
                c: t.clamp(1, 3),
            },
            groups: 1,
        };
        let default_s = self.run_checked(&mut w, &default)?;
        self.put("autotune.tuned_over_default", default_s / tn_s);

        // Model column: Eq. 12 code balance of the tuned diamond over
        // the copy bandwidth measured in this run, capped by the
        // in-cache kernel rate.
        let gbs = self.host_copy_bandwidth(llc);
        let balance = perf_models::code_balance_diamond(tuned.config.dw);
        let core_bound = t as f64 * self.get("kernels.row_incache_mlups");
        let pred = core_bound.min(gbs * 1e9 / balance / 1e6);
        self.put("models.code_balance_b_per_lup", balance);
        self.put("models.pred_mem_mlups", pred);
        self.put("models.measured_over_pred", tn / pred);

        // Simulated traffic of the same configuration against a cache
        // of this host's size (nz capped like the tuner's own proxy).
        let machine = MachineSpec {
            l3_bytes: llc.max(1 << 20) as usize,
            ..ropts.machine
        };
        let proxy = GridDims::new(dims.nx, dims.ny, dims.nz.min(32));
        let cfg = tuned.config;
        let (sim_s, sim) = secs(|| {
            mem_sim::simulate_mwd_engine(&machine, proxy, steps, cfg.dw, cfg.bz, cfg.groups, t)
        });
        self.put("memsim.bytes_per_lup", sim.code_balance);
        self.put("memsim.sim_s", sim_s);
        Ok(())
    }

    /// One verified run of a grid workload on `cfg`; seconds.
    fn run_checked(&mut self, w: &mut GridWorkload, cfg: &MwdConfig) -> Result<f64, String> {
        w.prepare()?;
        let (s, r) = secs(|| w.run(cfg, &Recorder::disabled(), 0));
        r?;
        let c = w.verify();
        self.tally.attempted += c.attempted;
        self.tally.failed += c.failed;
        Ok(s)
    }

    /// The cache-resident grid: the same layers with no DRAM traffic.
    fn grid_cache(&mut self) -> Result<(), String> {
        let (dims, steps, t) = (grid::CACHE_DIMS, grid::CACHE_STEPS, self.threads);
        let mut w = GridWorkload::new(dims, steps, t, &self.inputs, false);
        w.setup()?;
        w.reference()?;
        self.notes.push(format!(
            "grid-cache: tuned {} at T={t}",
            w.config()?.to_compact()
        ));
        let tn_s = self.reps_and_trace("grid-cache", &mut w)?;
        let tn = mlups(dims.cells(), steps, tn_s);
        self.put("core.mwd_tn_cache_mlups", tn);
        let trace = self.last_trace();
        let shares =
            ["queue_wait", "diamond_update", "frontier_setup"].map(|p| phase_share(trace, p));
        self.put("core.queue_wait_share_cache", shares[0]);
        self.put("core.diamond_update_share_cache", shares[1]);
        self.put("core.frontier_setup_share_cache", shares[2]);

        let t1_cfg = grid::resolve(&mut TuneCache::in_memory(), dims, 1)?.config;
        let t1_s = self.run_checked(&mut w, &t1_cfg)?;
        let t1 = mlups(dims.cells(), steps, t1_s);
        self.put("core.mwd_t1_cache_mlups", t1);
        self.put("core.par_eff_cache", tn / (t as f64 * t1));
        Ok(())
    }

    /// `mwd_core` per call and `em_solver`, at the sweep's dims: what
    /// one period costs beyond the engine's steps.
    fn solver(&mut self, spec: &ScenarioSpec) -> Result<(), String> {
        let (dims, t) = (spec.dims(), self.threads);
        let cfg = grid::resolve(&mut TuneCache::in_memory(), dims, t)?.config;
        let engine = Engine::Mwd(cfg);
        let job = spec.jobs().remove(0);

        let build_s = median_of(3, || {
            std::hint::black_box(spec.build_solver(&job).expect("validated spec builds"));
        });
        self.put("solver.build_s", build_s);
        let mut solver = spec.build_solver(&job)?;
        let spp = solver.steps_per_period();

        let plan_s = median_of(21, || {
            let dw = DiamondWidth::new(cfg.dw).expect("tuned dw is valid");
            std::hint::black_box(TilePlan::build(dw, dims.ny, spp));
        });
        self.put("core.plan_build_s", plan_s);

        // The bare engine on a synthetic state of the same dims: one
        // period per call against twenty periods per call.
        let mut state = grid::alloc_fill(dims, self.inputs.field_seed(), self.inputs.coeff_seed());
        let short = best_of(5, || {
            mwd_core::run_mwd(&mut state, &cfg, spp).expect("tuned config runs");
        });
        let long = best_of(3, || {
            mwd_core::run_mwd(&mut state, &cfg, 20 * spp).expect("tuned config runs");
        });
        self.put("core.call_overhead_s", short - long / 20.0);

        let mut periods = Vec::new();
        for _ in 0..8 {
            let (s, r) = secs(|| solver.step_n(&engine, spp));
            r?;
            periods.push(s);
        }
        let period_s = stats::median(&periods);
        self.put("solver.period_s", period_s);
        self.put("solver.period_over_engine", period_s / short);

        let prev = solver.fields().clone();
        solver.step_n(&engine, spp)?;
        let change_s = median_of(5, || {
            std::hint::black_box(norms::relative_change(solver.fields(), &prev));
        });
        self.put("field.relative_change_s", change_s);

        let slab = &spec.outputs.absorption[0];
        let analysis_s = median_of(5, || {
            std::hint::black_box(analysis::absorption_in_slab(
                solver.fields(),
                &solver.config.scene,
                job.lambda_nm,
                solver.omega,
                slab.z_lo,
                slab.z_hi,
            ));
            std::hint::black_box(analysis::intensity_profile_z(solver.fields()));
        });
        self.put("solver.analysis_s", analysis_s);

        // Periods until the relative change per period falls below 0.1
        // (the workloads themselves run a fixed period count).
        let report = spec
            .build_solver(&job)?
            .run_to_convergence(&engine, 0.1, 60)?;
        self.put("solver.periods_to_converge", report.periods as f64);
        self.put("solver.steps_total", report.steps as f64);
        if !report.converged {
            self.notes
                .push("solver: no convergence to 0.1 within 60 periods".to_string());
        }
        Ok(())
    }

    /// `sweep-stack`'s op and the `em_scenarios` / `em_json` rows.
    fn sweep(&mut self) -> Result<(), String> {
        let t = self.threads;
        let (inputs, reps) = (self.inputs, 5);
        self.put(
            "scenarios.gen_s",
            median_of(reps, || {
                std::hint::black_box(
                    inputs
                        .sweep_spec(stack::SWEEP_PERIODS, t)
                        .expect("generates"),
                );
            }),
        );
        let spec = inputs.sweep_spec(stack::SWEEP_PERIODS, t)?;
        let toml = spec.to_toml_string();
        self.put(
            "scenarios.parse_validate_s",
            median_of(reps, || {
                let parsed = ScenarioSpec::from_toml_str(&toml).expect("own TOML parses");
                parsed.validate().expect("generated spec validates");
            }),
        );

        let mut w = SweepWorkload::new(&inputs, t, false);
        w.setup()?;
        w.reference()?;
        let failed_before = self.tally.failed;
        let batch_s = self.reps_and_trace("sweep-stack", &mut w)?;
        self.put(
            "scenarios.jobs_failed",
            (self.tally.failed - failed_before) as f64,
        );

        self.solver(&spec)?;

        // The same three solves without the batch runner: build, run
        // the fixed period count, nothing else.
        let cfg = grid::resolve(&mut TuneCache::in_memory(), spec.dims(), t)?.config;
        let bare_s = best_of(2, || {
            for job in spec.jobs() {
                let mut solver = spec.build_solver(&job).expect("validated spec builds");
                let c = spec.convergence;
                solver
                    .run_to_convergence(&Engine::Mwd(cfg), c.tol, c.max_periods)
                    .expect("tuned config runs");
            }
        });
        self.put("scenarios.batch_over_solver", batch_s / bare_s);

        let report = run_batch(
            std::slice::from_ref(&spec),
            &stack::batch_options(t, Recorder::disabled()),
        )?;
        let dir = self.scratch.join("artifacts");
        let mut outcomes = report.outcomes.clone();
        let (write_s, r) = secs(|| em_scenarios::write_artifacts(&dir, &mut outcomes));
        r?;
        let bytes: u64 = std::fs::read_dir(&dir)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum();
        self.put("scenarios.artifact_write_s", write_s);
        self.put("scenarios.artifact_bytes", bytes as f64);

        let doc = report.outcomes[0].to_json();
        let text = doc.pretty();
        let mb = text.len() as f64 / 1e6;
        let write = best_of(20, || {
            std::hint::black_box(doc.pretty());
        });
        let parse = best_of(20, || {
            std::hint::black_box(em_json::parse(&text).expect("own JSON parses"));
        });
        self.put("json.write_mb_per_s", mb / write);
        self.put("json.parse_mb_per_s", mb / parse);
        Ok(())
    }

    /// `dist-slab`'s op at two workers against one worker and against
    /// the single-process batch; halo counts and waits; frame codec.
    fn dist(&mut self) -> Result<(), String> {
        let mut w = DistWorkload::new(&self.inputs, false);
        w.setup()?;
        w.reference()?;
        let spec = w.spec()?.clone();
        let dims = spec.dims();
        let workers = stack::DIST_WORKERS;

        let halo = |w: &DistWorkload| -> (u64, f64) {
            (0..workers)
                .map(|i| {
                    let idx = i.to_string();
                    let labels = [("worker", idx.as_str())];
                    (
                        w.registry
                            .counter(em_dist::HALO_EXCHANGES_METRIC, "", &labels)
                            .get(),
                        w.registry
                            .histogram(em_dist::HALO_WAIT_METRIC, "", &labels)
                            .snapshot()
                            .sum,
                    )
                })
                .fold((0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1))
        };
        let w2_s = self.reps_and_trace("dist-slab", &mut w)?;
        let ops = (REPS + 1) as f64;
        let (exchanges, wait_s) = halo(&w);
        let (exchanges, wait_s) = (exchanges as f64 / ops, wait_s / ops);
        self.put("dist.w2_solve_s", w2_s);
        self.put("dist.halo_exchanges", exchanges);
        self.put(
            "dist.halo_bytes",
            exchanges * em_dist::slab::plane_len(dims.nx, dims.ny) as f64,
        );
        self.put("dist.halo_wait_s", wait_s);
        self.put("dist.halo_wait_share", wait_s / (workers as f64 * w2_s));

        let mut w1 = Vec::new();
        for _ in 0..2 {
            let (s, r) = secs(|| w.solve(1, &Recorder::disabled(), 0));
            r?;
            let c = w.verify();
            self.tally.attempted += c.attempted;
            self.tally.failed += c.failed;
            w1.push(s);
        }
        let w1_s = stats::min(&w1);
        self.put("dist.w1_solve_s", w1_s);
        self.put("dist.scaling_eff", w1_s / (workers as f64 * w2_s));
        if host::nproc() < workers {
            self.notes.push(format!(
                "dist.scaling_eff: {workers} workers on {} core(s) — no scaling claim",
                host::nproc()
            ));
        }

        let single_s = best_of(2, || {
            run_batch(
                std::slice::from_ref(&spec),
                &stack::batch_options(1, Recorder::disabled()),
            )
            .expect("single-process batch runs");
        });
        self.put("dist.single_solve_s", single_s);
        self.put("dist.w2_over_single", w2_s / single_s);

        let payload = vec![0x5au8; em_dist::slab::plane_len(dims.nx, dims.ny)];
        let frame = em_dist::proto::frame_bytes(7, &payload);
        let mb = frame.len() as f64 / 1e6;
        let encode = best_of(50, || {
            std::hint::black_box(em_dist::proto::frame_bytes(7, &payload));
        });
        let decode = best_of(50, || {
            std::hint::black_box(
                em_dist::proto::read_frame(&mut frame.as_slice()).expect("own frame reads"),
            );
        });
        self.put("dist.frame_encode_mb_per_s", mb / encode);
        self.put("dist.frame_decode_mb_per_s", mb / decode);
        Ok(())
    }

    /// `serve-mix`'s round and the `em_service` rows.
    fn service(&mut self) -> Result<(), String> {
        let (bind_s, daemon) = secs(|| serve::Daemon::start(ConnModel::EventLoop, None));
        daemon?.stop()?;
        self.put("service.bind_s", bind_s);

        let mut w = ServeWorkload::new(&self.inputs, false);
        w.setup()?;
        self.reps_and_trace("serve-mix", &mut w)?;
        // Client-side latencies pooled over every round just run.
        let pool = std::mem::take(&mut w.pool);
        w.teardown();
        self.notes.push(format!(
            "service: percentiles are exact nearest-rank over {} new, {} dup, {} get samples",
            pool.new.len(),
            pool.dup.len(),
            pool.get.len()
        ));
        self.put("service.submit_ack_p50_s", stats::median(&pool.ack));
        self.put("service.new_p50_s", stats::median(&pool.new));
        self.put("service.new_p90_s", stats::nearest_rank(&pool.new, 0.90));
        self.put("service.dup_p50_s", stats::median(&pool.dup));
        self.put("service.get_p50_s", stats::median(&pool.get));
        self.put("service.get_p99_s", stats::nearest_rank(&pool.get, 0.99));
        self.put("service.get_rps", pool.get.len() as f64 / pool.get_phase_s);
        self.put(
            "service.dedupe_hit_ratio",
            pool.dedupe_hits as f64 / pool.dup.len().max(1) as f64,
        );
        self.put("service.http_errors", pool.bad as f64);

        // One job through the daemon against the same job through the
        // batch runner directly.
        let mut spec = ServeWorkload::base_spec(&self.inputs)?;
        spec.engine = EngineDecl::Auto { threads: 1 };
        let batch_s = best_of(3, || {
            run_batch(
                std::slice::from_ref(&spec),
                &stack::batch_options(1, Recorder::disabled()),
            )
            .expect("bare batch runs");
        });
        self.put(
            "service.new_over_batch",
            self.get("service.new_p50_s") / batch_s,
        );

        // The disk-backed store (fsync included), artifact-sized values.
        let (daemon, path, artifact) = self.one_result(ConnModel::Blocking)?;
        let store = ResultStore::open(&self.scratch.join("store"))?;
        let keys: Vec<String> = (0..8)
            .map(|i| em_json::hash::content_hash_bytes(&[i as u8]))
            .collect();
        let mut puts = Vec::new();
        let mut gets = Vec::new();
        for key in &keys {
            let (s, r) = secs(|| store.put(key, artifact.clone()));
            r?;
            puts.push(s);
        }
        for key in &keys {
            let (s, got) = secs(|| store.get(key));
            if got.as_deref() != Some(&artifact) {
                return Err("store returned different bytes".to_string());
            }
            gets.push(s);
        }
        self.put("service.store_put_s", stats::median(&puts));
        self.put("service.store_get_s", stats::median(&gets));

        // The same cached GET on the thread-per-connection plane.
        let blocking = serve::one_shot_get_rps(&daemon.addr, &path, &artifact, 100)?;
        daemon.stop()?;
        self.put("service.blocking_get_rps", blocking);
        Ok(())
    }

    /// A daemon on `conn_model` holding one solved result:
    /// `(daemon, result path, artifact)`.
    fn one_result(
        &self,
        conn_model: ConnModel,
    ) -> Result<(serve::Daemon, String, Vec<u8>), String> {
        let daemon = serve::Daemon::start(conn_model, None)?;
        let toml = ServeWorkload::base_spec(&self.inputs)?.to_toml_string();
        let body = em_json::Json::obj(vec![("toml", em_json::Json::str(toml))]).compact();
        let addr = daemon.addr.clone();
        let fetched = serve::submit_and_fetch(
            &mut |m, p, b| serve::one_shot(&addr, m, p, b),
            body.as_bytes(),
        )?;
        Ok((
            daemon,
            format!("/results/{}", fetched.key),
            fetched.artifact,
        ))
    }

    /// The whole pass, bottom of the stack to top.
    pub fn run(&mut self) -> Result<(), String> {
        type Section = fn(&mut Ledger) -> Result<(), String>;
        let sections: [(&str, Section); 6] = [
            ("kernels", |l| {
                l.kernels_in_cache();
                Ok(())
            }),
            ("grid-mem", Ledger::grid_mem),
            ("grid-cache", Ledger::grid_cache),
            ("sweep-stack", Ledger::sweep),
            ("dist-slab", Ledger::dist),
            ("serve-mix", Ledger::service),
        ];
        for (name, section) in sections {
            let (took, r) = secs(|| section(self));
            r?;
            self.notes
                .push(format!("pass: {name} section took {took:.1} s"));
        }
        Ok(())
    }
}
