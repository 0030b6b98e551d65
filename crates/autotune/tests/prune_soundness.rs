//! Property tests for the tuner's pruning stage, its parallelism-aware
//! choices and determinism.
//!
//! The pruning soundness property re-derives candidate feasibility from
//! Eq. 11 first principles (`groups x cache_block_bytes` against the
//! window over the usable L3) rather than through `cache_fit`, so a
//! regression in either `prune` or `total_block_bytes` breaks the test
//! instead of cancelling out.

use autotune::{
    cache_fit, rank, ranked, resolve, survivors, CacheWindow, Candidate, ModelEvaluator,
    ResolveOptions, SearchSpace, TuneCache, TuneKey,
};
use em_field::GridDims;
use mwd_core::{DiamondWidth, TilePlan};
use perf_models::{cache_block_bytes, MachineSpec};
use proptest::prelude::*;

const HSW: MachineSpec = MachineSpec::HASWELL_E5_2699_V3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `prune` is a partition, and it never discards a candidate whose
    /// cache-block footprint fits the window (nor keeps one that does
    /// not) — over random grids, thread counts, window bounds and L3
    /// capacities.
    #[test]
    fn prune_keeps_exactly_the_window_fitting_candidates(
        nx in 8usize..256,
        ny in 8usize..64,
        nz in 8usize..64,
        threads in 1usize..9,
        lo in 0.0f64..0.5,
        span in 0.05f64..1.5,
        l3_mib in 2usize..64,
    ) {
        let dims = GridDims::new(nx, ny, nz);
        let machine = MachineSpec {
            l3_bytes: l3_mib * 1024 * 1024,
            ..HSW
        };
        let window = CacheWindow { lo_frac: lo, hi_frac: lo + span };
        let cands = SearchSpace::default_for(threads).candidates(dims, threads);
        prop_assert!(!cands.is_empty());
        let (kept, pruned) = autotune::prune::prune(cands.clone(), dims, &machine, window);
        prop_assert_eq!(kept.len() + pruned, cands.len());

        // Ground truth straight from Eq. 11.
        let usable = machine.usable_l3();
        let fits = |c: &Candidate| {
            let total = c.groups as f64 * cache_block_bytes(dims.nx, c.dw, c.bz);
            total >= window.lo_frac * usable && total <= window.hi_frac * usable
        };
        for c in &cands {
            let in_kept = kept.contains(c);
            prop_assert_eq!(
                in_kept,
                fits(c),
                "candidate {:?} (fits={}) mishandled by prune",
                c,
                fits(c)
            );
            prop_assert_eq!(cache_fit(c, dims, &machine, window), fits(c));
        }
        // Pruning preserves order among the kept candidates (the tuner's
        // deterministic tie-breaking depends on it).
        let expected: Vec<Candidate> = cands.iter().copied().filter(fits).collect();
        prop_assert_eq!(kept, expected);
    }

    /// For a fixed `MachineSpec`, the tuner's candidate policy and model
    /// ranking are a pure function of their inputs: same survivors,
    /// same order, same scores, bit for bit.
    #[test]
    fn autotune_is_deterministic_for_a_fixed_machine(
        nx in 8usize..128,
        nyz in 8usize..48,
        threads in 1usize..7,
    ) {
        let dims = GridDims::new(nx, nyz, nyz);
        let space = SearchSpace::default_for(threads);
        let run = || {
            let kept = survivors(space.candidates(dims, threads), dims, &HSW);
            let mut model = ModelEvaluator::new(HSW, dims, threads);
            (kept.len(), rank(&mut model, kept))
        };
        let (kept_a, a) = run();
        let (kept_b, b) = run();
        prop_assert_eq!(kept_a, kept_b);
        prop_assert!(kept_a > 0, "non-empty spaces always rank something");
        prop_assert_eq!(a.len(), kept_a, "every survivor is ranked once");
        prop_assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            prop_assert_eq!(ra.config, rb.config);
            prop_assert_eq!(
                ra.score_mlups.to_bits(),
                rb.score_mlups.to_bits(),
                "score must be bit-identical"
            );
        }
        // The winner is the argmax of its own ranking and runs on the grid.
        let (best, best_score) = (a[0].config, a[0].score_mlups);
        let max = a.iter().map(|r| r.score_mlups).fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(max.to_bits(), best_score.to_bits());
        prop_assert!(best.validate(dims).is_ok());
        prop_assert_eq!(best.threads(), threads);
    }
}

proptest! {
    // Each case pays two full miss paths.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `resolve` (the model stage) is a pure function of the
    /// key for a fixed `MachineSpec`, and what it picks keeps its thread
    /// groups busy: the list-scheduled speed-up per group is within 0.9
    /// of the best any ranked candidate reaches, and it never asks for
    /// more groups than its plan ever has runnable tiles.
    #[test]
    fn resolve_is_deterministic_and_picks_schedulable_plans(
        nx in 8usize..96,
        ny in 4usize..160,
        nz in 8usize..48,
        threads in 1usize..8,
    ) {
        let dims = GridDims::new(nx, ny, nz);
        let opts = ResolveOptions::default();
        let key = TuneKey::for_host(&opts.machine, dims, "mwd", threads);
        let run = || resolve(&mut TuneCache::in_memory(), &key, &opts).expect("resolves");
        let (a, b) = (run(), run());
        prop_assert_eq!(a.config, b.config);
        prop_assert_eq!(a.score_mlups.to_bits(), b.score_mlups.to_bits());
        prop_assert!(a.config.validate(dims).is_ok());
        prop_assert_eq!(a.config.threads(), threads);

        let mut model = ModelEvaluator::new(opts.machine, dims, threads);
        let mut per_group = |c: &Candidate| model.concurrency(c) / c.groups as f64;
        let best = ranked(&key, &opts)
            .unwrap()
            .iter()
            .map(|r| per_group(&r.config))
            .fold(0.0, f64::max);
        let got = per_group(&a.config);
        prop_assert!(got >= 0.9 * best, "{:?}: {} of {}", a.config, got, best);

        // Tiles of one row are mutually independent: the widest row is
        // the most the plan ever offers at once.
        let plan = TilePlan::build(DiamondWidth::new(a.config.dw).unwrap(), ny, 8 * a.config.dw);
        let widest = (plan.tiles.first().unwrap().k..=plan.tiles.last().unwrap().k)
            .map(|k| plan.tiles.iter().filter(|t| t.k == k).count())
            .max()
            .unwrap();
        prop_assert!(a.config.groups <= widest, "{:?} on {} tiles a row", a.config, widest);
    }

}

/// The calibration grids of the README's tuning table, under the default
/// options at two threads: what the tuner resolves must be able to use
/// the second core.
#[test]
fn in_cache_grids_resolve_to_two_concurrent_private_tiles() {
    let opts = ResolveOptions::default();
    for dims in [GridDims::new(16, 16, 24), GridDims::new(16, 16, 64)] {
        let key = TuneKey::for_host(&opts.machine, dims, "mwd", 2);
        let cfg = resolve(&mut TuneCache::in_memory(), &key, &opts)
            .unwrap()
            .config;
        assert_eq!(cfg.tg.size(), 1, "{dims}: {cfg:?}");
        let speedup = ModelEvaluator::new(opts.machine, dims, 2).concurrency(&cfg);
        assert!(speedup >= 1.8, "{dims}: {cfg:?} schedules at {speedup}");
    }
}

#[test]
fn the_memory_grid_resolves_to_two_groups() {
    let opts = ResolveOptions::default();
    let key = TuneKey::for_host(&opts.machine, GridDims::cubic(120), "mwd", 2);
    let cfg = resolve(&mut TuneCache::in_memory(), &key, &opts)
        .unwrap()
        .config;
    assert_eq!((cfg.groups, cfg.tg.size()), (2, 1), "{cfg:?}");
}

#[test]
fn one_thread_never_resolves_a_unit_wavefront_on_short_rows() {
    let opts = ResolveOptions::default();
    for (ny, nz) in [(16, 24), (16, 64), (16, 96), (24, 72), (48, 48)] {
        let dims = GridDims::new(16, ny, nz);
        let key = TuneKey::for_host(&opts.machine, dims, "mwd", 1);
        let cfg = resolve(&mut TuneCache::in_memory(), &key, &opts)
            .unwrap()
            .config;
        assert!(cfg.bz > 1, "{dims}: {cfg:?}");
    }
}
