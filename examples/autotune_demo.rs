//! The auto-tuner end to end (paper Sec. II-A): enumerate the
//! (Dw, BZ, thread-group-shape) space, prune with the Eq. 11 cache-block
//! model, and score the survivors — first with the closed-form model on
//! the simulated 18-core Haswell, then with wall-clock probes on this
//! host.
//!
//!     cargo run --release --example autotune_demo

use thiim_mwd::field::GridDims;
use thiim_mwd::models::{cache_block_bytes, MachineSpec};
use thiim_mwd::tuner::{autotune, CacheWindow, ModelEvaluator, NativeEvaluator, SearchSpace};

fn main() {
    let hsw = MachineSpec::HASWELL_E5_2699_V3;

    // --- paper-scale tuning on the simulated Haswell ------------------
    let dims = GridDims::cubic(480);
    let threads = 18;
    let space = SearchSpace::default_for(threads);
    let n_total = space.candidates(dims, threads).len();
    let mut ev = ModelEvaluator::new(hsw, dims, threads);
    let result = autotune(&space, dims, &hsw, threads, CacheWindow::default(), &mut ev)
        .expect("tuning succeeds");

    println!("=== simulated Haswell (18 threads, 480^3) ===");
    println!(
        "candidates: {n_total} total, {} pruned by the Eq. 11 cache model",
        result.pruned
    );
    let b = result.best;
    println!(
        "best: Dw={} BZ={} TG={}x{}x{} ({} groups) -> {:.1} MLUP/s (model)",
        b.dw, b.bz, b.tg.x, b.tg.z, b.tg.c, b.groups, result.best_score
    );
    println!(
        "block footprint: {:.1} MiB of {:.1} MiB usable L3",
        b.groups as f64 * cache_block_bytes(dims.nx, b.dw, b.bz) / (1024.0 * 1024.0),
        hsw.usable_l3() / (1024.0 * 1024.0)
    );
    println!("\ntop five:");
    let mut scored = result.scores.clone();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (cand, score) in scored.iter().take(5) {
        println!(
            "  Dw={:<3} BZ={:<2} TG={}x{}x{} groups={:<2} -> {score:.1} MLUP/s",
            cand.dw, cand.bz, cand.tg.x, cand.tg.z, cand.tg.c, cand.groups
        );
    }

    // --- native wall-clock tuning on this machine ---------------------
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let dims = GridDims::cubic(32);
    println!("\n=== native probes ({host_threads} threads, {dims}) ===");
    let mut space = SearchSpace::default_for(host_threads);
    space.dw = vec![4, 8];
    space.bz = vec![1, 2, 4];
    let mut ev = NativeEvaluator::new(dims, 2);
    let result = autotune(
        &space,
        dims,
        &hsw,
        host_threads,
        CacheWindow {
            lo_frac: 0.0,
            hi_frac: 1e9,
        },
        &mut ev,
    )
    .expect("native tuning succeeds");
    let b = result.best;
    println!(
        "best: Dw={} BZ={} TG={}x{}x{} ({} groups) -> {:.1} MLUP/s measured",
        b.dw, b.bz, b.tg.x, b.tg.z, b.tg.c, b.groups, result.best_score
    );
}
