//! `bench_report` — the tuner's ground truth (`results/tune_regret.json`).
//!
//! ```text
//! cargo run --release -p em_bench --bin bench_report -- \
//!     --tune-regret [--dims N|X,Y,Z] [--threads N] [--steps N]
//! ```
//!
//! Natively measures every candidate the tuner ranks for `--dims` at
//! `--threads` (best of three `run_mwd` calls each), prints them next to
//! the model's score and its three factors, reports `chosen / best
//! measured`, and writes the table to `results/tune_regret.json`.
//! `--threads` defaults to every core `available_parallelism` reports,
//! `--steps` to about five million LUPs per call. Throughput itself is
//! measured by the repo benchmark (`benchmark/`), not here.

use em_bench::harness::results_dir;
use em_bench::regret::measure_tune_regret;
use em_field::GridDims;

const USAGE: &str = "bench_report --tune-regret [--dims N|X,Y,Z] [--threads N] [--steps N]";

fn main() {
    let mut dims = GridDims::cubic(48);
    let mut steps: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut tune_regret = false;

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
            "--tune-regret" => tune_regret = true,
            other => die(&format!("unknown option `{other}` (usage: {USAGE})")),
        }
    }
    if !tune_regret {
        die(&format!("nothing to do (usage: {USAGE})"));
    }

    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    if threads == 0 {
        die("--threads must be at least 1");
    }
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
    match regret.write(&results_dir()) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => die(&e),
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
