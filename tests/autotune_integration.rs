//! Integration: the auto-tuner's choices actually run, and its
//! paper-scale choices reproduce the cache-block-sharing story.

use em_bench::figures::tune_point;
use thiim_mwd::field::{GridDims, State};
use thiim_mwd::kernels::run_naive;
use thiim_mwd::mwd::run_mwd;
use thiim_mwd::tuner::{resolve, ResolveOptions, Stage, TuneCache, TuneKey};

#[test]
fn natively_tuned_configuration_runs_and_matches_naive() {
    let dims = GridDims::new(8, 12, 10);
    let opts = ResolveOptions {
        refine_top: 2,
        ..Default::default()
    };
    let key = TuneKey::for_host(&opts.machine, dims, "mwd", 2);
    let result = resolve(&mut TuneCache::in_memory(), &key, &opts).expect("tuning succeeds");
    assert_eq!((result.stage, result.native_probes), (Stage::Native, 2));
    assert!(result.score_mlups > 0.0);

    // The winner must execute correctly.
    let mut reference = State::zeros(dims);
    reference.fields.fill_deterministic(5);
    reference.coeffs.fill_deterministic(6);
    let mut tuned = reference.clone();
    run_naive(&mut reference, 4);
    run_mwd(&mut tuned, &result.config, 4).expect("tuned config runs");
    assert!(tuned.fields.bit_eq(&reference.fields));
}

#[test]
fn paper_scale_tuning_prefers_shared_blocks_at_high_thread_counts() {
    // The central Sec. III-C claim reproduced through the tuner: on the
    // 18-core Haswell at paper grids, the best configuration shares
    // cache blocks (TG > 1) and affords Dw >= 8, while the best 1WD
    // configuration is stuck at small diamonds.
    let dims = GridDims::cubic(480);
    let mwd = tune_point(dims, 18, None);
    let one_wd = tune_point(dims, 18, Some(&[1]));
    assert!(mwd.tg.size() >= 3, "tuned MWD must share blocks: {mwd:?}");
    assert!(mwd.dw >= 8, "shared blocks afford large diamonds: {mwd:?}");
    assert!(one_wd.dw <= 4, "18 private blocks cannot: {one_wd:?}");

    // At one thread both collapse to the same choice (groups = 1).
    let single = tune_point(dims, 1, None);
    assert_eq!(single.groups, 1);
}

#[test]
fn tuned_diamond_grows_with_available_cache_share() {
    // Fig. 6d's mechanism: fewer concurrent blocks => larger diamonds.
    let dims = GridDims::cubic(384);
    let dw_at = |tg: usize| tune_point(dims, 18, Some(&[tg])).dw;
    assert!(dw_at(18) >= dw_at(6));
    assert!(dw_at(6) >= dw_at(1));
}
