//! Smoke-level regeneration of every figure plus shape assertions against
//! the paper's headline claims. The full regeneration is
//! `cargo run -p em_bench --release --bin figures` (see README.md,
//! "Build, test, measure").

use em_bench::{fig5, fig6, fig7, fig8, paper, sect3, validate, Scale};

#[test]
fn sect3_numbers_are_the_papers() {
    let s = sect3();
    assert_eq!(s.bc_naive, 1344.0);
    assert_eq!(s.bc_spatial, 1216.0);
    assert!((s.pmem_spatial - 41.0).abs() < 0.5);
    assert_eq!(s.cs_example_per_nx, 14912.0);
}

#[test]
fn fig5_measured_tracks_model_until_cache_overflows() {
    let pts = fig5(Scale::Tiny);
    let usable_mib = 22.5;
    // Within-cache points: measured within a factor ~2 of Eq. 12 (cold
    // start inflates small runs); far-over-cache points diverge upward.
    for p in &pts {
        assert!(p.bc_measured.is_finite() && p.bc_measured > 0.0);
        if p.cs_mib < 0.4 * usable_mib {
            assert!(p.bc_measured < 2.2 * p.bc_model + 60.0, "{p:?}");
        }
    }
    let over: Vec<_> = pts.iter().filter(|p| p.cs_mib > 2.0 * usable_mib).collect();
    assert!(!over.is_empty());
    for p in over {
        assert!(p.bc_measured > 1.5 * p.bc_model, "no divergence: {p:?}");
    }
}

#[test]
fn fig6_reproduces_the_thread_scaling_shapes() {
    let pts = fig6(Scale::Tiny);
    let at = |t: usize| pts.iter().find(|p| p.threads == t).expect("point");
    let (p1, p6, p18) = (at(1), at(6), at(18));

    // Spatial blocking saturates the memory interface by ~6 threads.
    assert!(
        p6.spatial.memory_bound,
        "spatial must be memory-bound at 6 threads"
    );
    assert!((p18.spatial.mlups - p6.spatial.mlups).abs() < 0.15 * p6.spatial.mlups);

    // MWD keeps scaling to the full chip and wins clearly.
    assert!(
        p18.mwd.mlups > 2.2 * p18.spatial.mlups,
        "MWD speedup too small"
    );
    assert!(
        p18.mwd.mlups > p18.one_wd.mlups,
        "sharing must beat private blocks"
    );
    assert!(
        p18.mwd.mlups > 2.0 * p6.mwd.mlups * 0.9,
        "MWD must keep scaling"
    );

    // MWD stays decoupled: bandwidth use below the saturation line.
    assert!(
        p18.mwd.mem_gbs < (1.0 - paper::CLAIMS.bandwidth_saving_lo) * 50.0 * 1.05,
        "MWD bandwidth saving < 38%: {} GB/s",
        p18.mwd.mem_gbs
    );

    // Tuned diamonds: 1WD shrinks under cache pressure, MWD stays large.
    assert!(
        p18.dw_1wd < p1.dw_1wd,
        "1WD diamond must shrink with threads"
    );
    assert!(
        p18.dw_mwd >= p18.dw_1wd,
        "MWD affords at least 1WD's diamond"
    );
}

#[test]
fn fig7_reproduces_grid_scaling_shapes() {
    let pts = fig7(Scale::Tiny);
    for p in &pts {
        assert!(
            p.mwd.mlups >= p.one_wd.mlups * 0.95,
            "MWD >= 1WD at N={}",
            p.n
        );
        assert!(p.mwd.mlups > p.spatial.mlups, "MWD > spatial at N={}", p.n);
    }
    // At the largest grid the speedup lands in (or above) the 3x-4x band
    // scaled for the simulated substrate.
    let last = pts.last().unwrap();
    let speedup = last.mwd.mlups / last.spatial.mlups;
    assert!(speedup > 2.2, "speedup {speedup} at N={}", last.n);
    // MWD stays decoupled across the sweep.
    assert!(pts.iter().all(|p| !p.mwd.memory_bound));
}

#[test]
fn fig8_larger_thread_groups_cut_traffic() {
    let pts = fig8(Scale::Tiny);
    let ns: std::collections::BTreeSet<usize> = pts.iter().map(|p| p.n).collect();
    for n in ns {
        let at = |tg: usize| {
            pts.iter()
                .find(|p| p.n == n && p.tg_size == tg)
                .expect("point")
        };
        let (wd1, wd18) = (at(1), at(18));
        assert!(
            wd18.result.code_balance <= wd1.result.code_balance,
            "N={n}: 18WD B/LUP {} vs 1WD {}",
            wd18.result.code_balance,
            wd1.result.code_balance
        );
        assert!(
            wd18.dw >= wd1.dw,
            "N={n}: sharing must afford at least as large diamonds"
        );
        // 18WD draws less than the saturation bandwidth (the >=38% claim).
        assert!(wd18.result.mem_gbs < 0.62 * 50.0 * 1.05, "N={n}");
    }
}

#[test]
fn eq12_validation_stays_in_band() {
    for p in validate(Scale::Tiny) {
        assert!(p.ratio > 0.6 && p.ratio < 1.8, "{p:?}");
    }
}
