//! The cache simulator as the model's cross-check, outside the solve
//! path: `resolve` answers with the closed-form model's rank 1, and
//! this is the one place that choice is held against `mem_sim`'s
//! replayed traffic. If the two drift apart (a change to Eq. 12's
//! feasibility penalty, to the simulator, or to `score`), this fails
//! before any tuned run gets slower.

use autotune::{finalists, ranked, score, Factors, ResolveOptions, TuneKey};
use em_field::GridDims;
use mem_sim::simulate_mwd_engine;

/// The six catalog scenarios' grids (two share 24x24x48) and the
/// benchmark's four: `grid-mem`, `grid-cache` and the generated layer
/// stacks (16x16x64; 16x16x96 is also `bragg-mirror`'s).
const GRIDS: [GridDims; 8] = [
    GridDims::new(24, 24, 72),
    GridDims::new(24, 24, 48),
    GridDims::new(16, 16, 96),
    GridDims::new(8, 8, 64),
    GridDims::new(16, 16, 48),
    GridDims::cubic(120),
    GridDims::new(16, 16, 24),
    GridDims::new(16, 16, 64),
];

#[test]
fn the_models_first_choice_holds_under_the_simulated_code_balance() {
    let opts = ResolveOptions::default();
    let threads = 2;
    for dims in GRIDS {
        let key = TuneKey::for_host(&opts.machine, dims, "mwd", threads);
        // True Nx (it sets the per-row cache footprint, Eq. 11), reduced
        // ny/nz/nt: the tile working set is Nx-dominated.
        let proxy = GridDims::new(dims.nx, dims.ny.min(32), dims.nz.min(32));
        let rescored: Vec<f64> = finalists(&ranked(&key, &opts).unwrap(), 4)
            .iter()
            .map(|r| {
                let c = &r.config;
                let nt = (2 * c.dw).clamp(4, 32);
                let sim =
                    simulate_mwd_engine(&opts.machine, proxy, nt, c.dw, c.bz, c.groups, threads);
                let factors = Factors {
                    code_balance: sim.code_balance,
                    ..r.factors
                };
                score(&opts.machine, c, threads, &factors)
            })
            .collect();
        let best = rescored.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            rescored[0] >= 0.95 * best,
            "{dims}: the model's rank 1 re-scores {:.2} MLUP/s, the best of its finalists {best:.2}",
            rescored[0]
        );
    }
}
