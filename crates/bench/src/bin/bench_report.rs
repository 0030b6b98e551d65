//! `bench_report` — emit `results/BENCH_results.json`.
//!
//! ```text
//! cargo run --release -p em_bench --bin bench_report -- \
//!     [--dims N|X,Y,Z] [--steps N] [--threads N] [--max-threads N] \
//!     [--engine FILTER] [--with-scenarios] [--tune-regret]
//! ```
//!
//! Measures wall-clock MLUP/s per engine (naive / spatial / 1WD / MWD)
//! on a synthetic state, optionally times every built-in scenario, and
//! writes the machine-readable report CI uploads as an artifact.
//!
//! Threading: by default every core `available_parallelism` reports is
//! used. `--max-threads N` caps that default (an explicit cap — there is
//! no silent one), and `--threads N` pins the count exactly, ignoring
//! the cap. Both the host's available parallelism and the threads
//! actually used are recorded in the report.
//!
//! `--engine FILTER` times only engines whose label contains FILTER
//! (case-insensitive), so CI and local runs can measure a single engine
//! without paying for the full matrix.
//!
//! `--tune` appends a measurement of the *tuned* MWD configuration for
//! the benchmark grid, resolved through the persistent tuning cache
//! (`--cache FILE`, default `results/tune_cache.json`); the report then
//! records the tuned config and whether it was a cache hit.
//!
//! `--tune-regret` is a mode of its own: it natively measures every
//! candidate the tuner ranks for `--dims` at `--threads` (best of three
//! `run_mwd` calls each), prints them next to the model's score and its
//! three factors, reports `chosen / best measured`, and merges the table
//! into the report under `tune_regret`. `--steps` defaults to about five
//! million LUPs per call there.
//!
//! `--phases` appends a span-recorded MWD run whose per-phase wall time
//! (frontier setup, queue wait, diamond update) is folded into the
//! report under `phases`.

use em_bench::report::{
    available_parallelism, measure_kernels_filtered, measure_mwd_phases, measure_scenario_filtered,
    measure_tune_regret, measure_tuned_kernel, BenchReport,
};
use em_field::GridDims;
use std::path::PathBuf;

fn main() {
    let mut dims = GridDims::cubic(48);
    let mut steps: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut max_threads: Option<usize> = None;
    let mut engine_filter: Option<String> = None;
    let mut with_scenarios = false;
    let mut tune = false;
    let mut phases = false;
    let mut tune_regret = false;
    let mut cache: Option<PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |flag: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die(&format!("{flag} needs a positive integer")))
        };
        match a.as_str() {
            "--dims" => {
                dims = it
                    .next()
                    .and_then(|v| parse_dims(v))
                    .unwrap_or_else(|| die("--dims needs N or X,Y,Z (positive integers)"))
            }
            "--steps" => steps = Some(num("--steps")),
            "--threads" => threads = Some(num("--threads")),
            "--max-threads" => max_threads = Some(num("--max-threads")),
            "--engine" => {
                engine_filter = Some(
                    it.next()
                        .unwrap_or_else(|| die("--engine needs a filter string"))
                        .clone(),
                )
            }
            "--with-scenarios" => with_scenarios = true,
            "--tune" => tune = true,
            "--phases" => phases = true,
            "--tune-regret" => tune_regret = true,
            "--cache" => {
                cache = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| die("--cache needs a path")),
                ));
                tune = true;
            }
            other => die(&format!(
                "unknown option `{other}` \
                 (usage: bench_report [--dims N|X,Y,Z] [--steps N] [--threads N] \
                 [--max-threads N] [--engine FILTER] [--with-scenarios] \
                 [--tune] [--cache FILE] [--phases] [--tune-regret])"
            )),
        }
    }

    let host = available_parallelism();
    let threads = match (threads, max_threads) {
        (Some(t), _) => t,
        (None, Some(cap)) => host.min(cap.max(1)),
        (None, None) => host,
    };
    if threads == 0 {
        die("--threads must be at least 1");
    }
    let filter = engine_filter.as_deref();

    if tune_regret {
        let steps = steps.unwrap_or_else(|| (5_000_000 / dims.cells()).clamp(16, 4096));
        println!("tune regret: {dims} grid, {steps} steps per call, {threads} threads");
        let regret = measure_tune_regret(dims, threads, steps).unwrap_or_else(|e| die(&e));
        print!("{}", regret.table());
        let chosen = regret.chosen_row();
        println!(
            "chosen {} (concurrency {:.2}, tg size {}): {:.1} MLUP/s; best measured {}: {:.1} \
             MLUP/s; chosen / best measured = {:.3}",
            regret.chosen.to_compact(),
            chosen.factors.concurrency,
            regret.chosen.tg.size(),
            chosen.measured_mlups,
            regret.best().config.to_compact(),
            regret.best().measured_mlups,
            regret.chosen_over_best()
        );
        match regret.write() {
            Ok(path) => println!("merged tune_regret into {}", path.display()),
            Err(e) => die(&e),
        }
        return;
    }
    let steps = steps.unwrap_or(4);
    println!(
        "kernel benchmark: {dims} grid, {steps} steps, {threads} threads \
         (host reports {host}), isa {}",
        em_kernels::active_isa()
    );
    let kernels = measure_kernels_filtered(dims, steps, threads, filter);
    if kernels.engines.is_empty() {
        die(&format!(
            "--engine `{}` matches no kernel engine (try: naive, spatial, 1wd, mwd)",
            filter.unwrap_or_default()
        ));
    }
    let mut runs = vec![kernels];

    if tune {
        let path = cache.unwrap_or_else(autotune::default_cache_path);
        match measure_tuned_kernel(dims, steps, threads, Some(&path)) {
            Ok(run) => {
                let t = run.tuned.as_ref().expect("tuned run records provenance");
                println!(
                    "tuned mwd: {} ({}, cache {})",
                    t.config,
                    t.stage,
                    if t.cache_hit { "hit" } else { "miss" }
                );
                runs.push(run);
            }
            Err(e) => die(&format!("--tune: {e}")),
        }
    }

    if phases {
        match measure_mwd_phases(dims, steps, threads) {
            Ok(run) => {
                for p in &run.phases {
                    println!(
                        "phase {:<16} {:>8} span(s) {:>10.3} ms total",
                        p.name,
                        p.count,
                        p.total_us / 1e3
                    );
                }
                runs.push(run);
            }
            Err(e) => die(&format!("--phases: {e}")),
        }
    }

    if with_scenarios {
        for spec in em_scenarios::builtins() {
            println!("scenario benchmark: {} ({})", spec.name, spec.dims());
            match measure_scenario_filtered(&spec, steps.min(2), threads, filter) {
                // A filter can match kernel engines but no scenario
                // engine (e.g. `--engine 1wd`): skip instead of writing
                // an empty measurement into the artifact.
                Ok(run) if run.engines.is_empty() => println!(
                    "scenario {}: no engine matches `{}`, skipped",
                    spec.name,
                    filter.unwrap_or_default()
                ),
                Ok(run) => runs.push(run),
                Err(e) => die(&format!("scenario {}: {e}", spec.name)),
            }
        }
    }

    let report = BenchReport::new(runs);
    for run in &report.runs {
        let tag = run.scenario.as_deref().unwrap_or("kernels");
        for e in &run.engines {
            println!("{tag:<18} {:<36} {:>9.1} MLUP/s", e.engine, e.mlups);
        }
    }
    match report.write() {
        Ok(path) => println!("\nwrote {} (rev {})", path.display(), report.git_rev),
        Err(e) => die(&format!("cannot write BENCH_results.json: {e}")),
    }
}

/// `N` (cubic) or `X,Y,Z`.
fn parse_dims(v: &str) -> Option<GridDims> {
    let n: Vec<usize> = v
        .split(',')
        .map(|p| p.parse().ok().filter(|&n| n > 0))
        .collect::<Option<_>>()?;
    match n[..] {
        [n] => Some(GridDims::cubic(n)),
        [x, y, z] => Some(GridDims::new(x, y, z)),
        _ => None,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}
