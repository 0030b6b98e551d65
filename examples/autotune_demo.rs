//! The auto-tuner end to end (paper Sec. II-A): enumerate the
//! (Dw, BZ, thread-group-shape) space, prune with the Eq. 11 cache-block
//! model and rank the survivors with the closed-form model on the
//! modelled 18-core Haswell — then resolve a grid for this host the way
//! `mwd tune --refine 2` does: the same ranking, then wall-clock probes
//! of its first two finalists (kept in memory; nothing is written).
//!
//!     cargo run --release --example autotune_demo

use thiim_mwd::field::GridDims;
use thiim_mwd::models::{cache_block_bytes, MachineSpec};
use thiim_mwd::scenarios::{EngineDecl, EngineResolver};
use thiim_mwd::tuner::{rank, survivors, ModelEvaluator, SearchSpace, TuneCache};

fn main() -> Result<(), String> {
    let hsw = MachineSpec::HASWELL_E5_2699_V3;

    // --- paper-scale tuning on the modelled Haswell -------------------
    let dims = GridDims::cubic(480);
    let threads = 18;
    let all = SearchSpace::default_for(threads).candidates(dims, threads);
    let n_total = all.len();
    let kept = survivors(all, dims, &hsw);
    let n_kept = kept.len();
    let ranked = rank(&mut ModelEvaluator::new(hsw, dims, threads), kept);

    println!("=== modelled Haswell (18 threads, 480^3) ===");
    println!(
        "candidates: {n_total} total, {} pruned by the Eq. 11 cache model",
        n_total - n_kept
    );
    let (b, best_score) = (ranked[0].config, ranked[0].score_mlups);
    println!(
        "best: Dw={} BZ={} TG={} ({} groups) -> {best_score:.1} MLUP/s (model)",
        b.dw, b.bz, b.tg, b.groups
    );
    println!(
        "block footprint: {:.1} MiB of {:.1} MiB usable L3",
        b.groups as f64 * cache_block_bytes(dims.nx, b.dw, b.bz) / (1024.0 * 1024.0),
        hsw.usable_l3() / (1024.0 * 1024.0)
    );
    println!("\ntop five:");
    for r in ranked.iter().take(5) {
        let cand = &r.config;
        println!(
            "  Dw={:<3} BZ={:<2} TG={} groups={:<2} -> {:.1} MLUP/s",
            cand.dw, cand.bz, cand.tg, cand.groups, r.score_mlups
        );
    }

    // --- native wall-clock tuning on this machine ---------------------
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let dims = GridDims::cubic(32);
    println!("\n=== native probes ({host_threads} threads, {dims}) ===");
    let resolver = EngineResolver::for_tune_command(TuneCache::in_memory(), false, Some(2));
    let resolved = resolver.resolve(EngineDecl::Auto { threads: 0 }, dims, host_threads)?;
    let t = resolved.tuned.expect("`auto` always tunes");
    println!(
        "best: {} -> {:.1} MLUP/s ({} stage, {} native probe(s))",
        resolved.decl.label(),
        t.score_mlups,
        t.stage,
        t.native_probes
    );
    Ok(())
}
