//! Cross-crate integration: the bitwise-equivalence oracle over a matrix
//! of engines, grids and thread-group shapes, plus randomized
//! property-based configurations.

use proptest::prelude::*;
use thiim_mwd::field::{norms, CoeffRowBuilder, Component, GridDims, SourceArray, State};
use thiim_mwd::kernels::{run_naive, step_spatial_mt, SpatialConfig};
use thiim_mwd::mwd::{run_mwd, MwdConfig, TgShape};

fn filled(dims: GridDims, seed: u64) -> State {
    let mut s = State::zeros(dims);
    s.fields.fill_deterministic(seed);
    s.coeffs.fill_deterministic(seed ^ 0xdead);
    s
}

/// `filled`'s fields under row-built coefficients that repeat the way
/// a solver's do: one x-uniform row per z plane, shared across y.
fn packed(dims: GridDims, seed: u64) -> State {
    let mut s = filled(dims, seed);
    let layered = |tag: usize, scale: f64| {
        let mut rows = CoeffRowBuilder::new(dims);
        for z in 0..dims.nz {
            let v = scale * ((seed as usize + 7 * tag + 3 * z) % 19) as f64 / 19.0;
            for _ in 0..dims.ny {
                rows.push_row(&vec![v; dims.nx], &vec![-0.5 * v; dims.nx])
                    .unwrap();
            }
        }
        rows.finish()
    };
    for comp in Component::ALL {
        *s.coeffs.t_mut(comp) = layered(comp.index(), 0.45);
        *s.coeffs.c_mut(comp) = layered(12 + comp.index(), 0.2);
    }
    for arr in SourceArray::ALL {
        *s.coeffs.src_mut(arr) = layered(24 + arr.index(), 0.01);
    }
    assert!(s.coeffs.stats().rows_distinct <= 28 * (dims.nz + 1));
    s
}

#[test]
fn all_engines_agree_bitwise_on_a_nontrivial_problem() {
    let dims = GridDims::new(10, 14, 11);
    all_engines_agree_from(filled(dims, 101));
}

/// The same matrix on a packed state: coefficient rows come through the
/// row index from a table of `nz + 1` rows, not from dense arrays.
#[test]
fn all_engines_agree_bitwise_on_row_built_coefficients() {
    let dims = GridDims::new(10, 14, 11);
    all_engines_agree_from(packed(dims, 101));
}

fn all_engines_agree_from(mut reference: State) {
    let steps = 7;
    let mut spatial = reference.clone();
    let mut configs: Vec<(String, State)> = Vec::new();

    for cfg in [
        MwdConfig::one_wd(4, 1, 1),
        MwdConfig::one_wd(4, 3, 3),
        MwdConfig {
            dw: 4,
            bz: 2,
            tg: TgShape { x: 2, z: 1, c: 3 },
            groups: 1,
        },
        MwdConfig {
            dw: 8,
            bz: 4,
            tg: TgShape { x: 1, z: 2, c: 2 },
            groups: 2,
        },
        MwdConfig {
            dw: 6,
            bz: 5,
            tg: TgShape { x: 2, z: 5, c: 6 },
            groups: 1,
        },
    ] {
        configs.push((format!("{cfg:?}"), reference.clone()));
        let (_, state) = configs.last_mut().unwrap();
        run_mwd(state, &cfg, steps).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
    }

    run_naive(&mut reference, steps);
    for _ in 0..steps {
        step_spatial_mt(&mut spatial, SpatialConfig::new(4, 3), 3);
    }
    assert!(reference.fields.bit_eq(&spatial.fields), "spatial diverged");
    for (name, state) in &configs {
        if let Some(m) = norms::first_mismatch(&state.fields, &reference.fields) {
            panic!("{name}: first mismatch {m:?}");
        }
    }
}

/// Regression matrix pinning the paper's bit-identical guarantee on the
/// `MwdConfig` corner cases most likely to be disturbed by an executor
/// refactor: the minimum diamond width, a diamond wider than the whole
/// domain (fully clipped tiles), a degenerate BZ=1 wavefront, a single
/// one-thread group, a lone multi-threaded group, every component-parallel
/// width (1/2/3/6-way), and a many-group kitchen-sink shape. Each entry
/// must reproduce `run_naive` exactly, bit for bit.
#[test]
fn mwd_corner_case_matrix_is_bit_identical_to_naive() {
    let dims = GridDims::new(6, 10, 7);
    let steps = 5;
    let seed = 2024;
    let mut reference = filled(dims, seed);
    run_naive(&mut reference, steps);

    // Diamonds wider than 2*ny are clipped down to the domain everywhere.
    let dw_max = 2 * dims.ny.next_power_of_two();
    let one = TgShape::SINGLE;
    let matrix: Vec<(&str, MwdConfig)> = vec![
        (
            "dw_min",
            MwdConfig {
                dw: 2,
                bz: 2,
                tg: one,
                groups: 2,
            },
        ),
        (
            "dw_max_clipped",
            MwdConfig {
                dw: dw_max,
                bz: 2,
                tg: one,
                groups: 2,
            },
        ),
        (
            "bz_1",
            MwdConfig {
                dw: 4,
                bz: 1,
                tg: TgShape { x: 2, z: 1, c: 1 },
                groups: 2,
            },
        ),
        ("single_thread_single_group", MwdConfig::one_wd(4, 2, 1)),
        (
            "single_group_multithread",
            MwdConfig {
                dw: 4,
                bz: 3,
                tg: TgShape { x: 2, z: 3, c: 2 },
                groups: 1,
            },
        ),
        (
            "comp_parallel_1",
            MwdConfig {
                dw: 4,
                bz: 2,
                tg: TgShape { x: 1, z: 1, c: 1 },
                groups: 2,
            },
        ),
        (
            "comp_parallel_2",
            MwdConfig {
                dw: 4,
                bz: 2,
                tg: TgShape { x: 1, z: 1, c: 2 },
                groups: 2,
            },
        ),
        (
            "comp_parallel_3",
            MwdConfig {
                dw: 4,
                bz: 2,
                tg: TgShape { x: 1, z: 1, c: 3 },
                groups: 2,
            },
        ),
        (
            "comp_parallel_6",
            MwdConfig {
                dw: 4,
                bz: 2,
                tg: TgShape { x: 1, z: 1, c: 6 },
                groups: 2,
            },
        ),
        (
            "kitchen_sink",
            MwdConfig {
                dw: 8,
                bz: 4,
                tg: TgShape { x: 2, z: 2, c: 3 },
                groups: 2,
            },
        ),
    ];

    for (name, cfg) in &matrix {
        cfg.validate(dims)
            .unwrap_or_else(|e| panic!("{name}: config invalid: {e}"));
        let mut tiled = filled(dims, seed);
        run_mwd(&mut tiled, cfg, steps).unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
        if let Some(m) = norms::first_mismatch(&tiled.fields, &reference.fields) {
            panic!("{name} ({cfg:?}): first mismatch vs naive at {m:?}");
        }
    }
}

/// Split re/im layout + SIMD dispatch oracle at the engine level: every
/// engine — which runs on whatever ISA `active_isa` selected for this
/// host — must reproduce, bit for bit, a hand-rolled sweep forced onto
/// the *scalar* kernel. This chains the engine schedules, the new plane
/// layout and the ISA dispatch into one end-to-end equivalence.
#[test]
fn engines_on_dispatched_isa_match_forced_scalar_kernels() {
    use thiim_mwd::field::Component;
    use thiim_mwd::kernels::simd::Isa;
    use thiim_mwd::kernels::{update::update_component_rows, RawGrid};

    let dims = GridDims::new(11, 9, 7);
    let steps = 4;
    let scalar = filled(dims, 424);
    for _ in 0..steps {
        let g = RawGrid::new(&scalar).with_isa(Isa::Scalar);
        for comp in Component::H_ALL.into_iter().chain(Component::E_ALL) {
            // SAFETY: single-threaded full-grid sweep (the `step_naive`
            // schedule).
            unsafe { update_component_rows(&g, comp, 0..dims.nz, 0..dims.ny, 0..dims.nx) };
        }
    }

    let mut naive = filled(dims, 424);
    run_naive(&mut naive, steps);
    assert!(
        naive.fields.bit_eq(&scalar.fields),
        "naive (isa {}) deviates from forced-scalar kernels",
        thiim_mwd::kernels::active_isa()
    );

    let mut spatial = filled(dims, 424);
    for _ in 0..steps {
        step_spatial_mt(&mut spatial, SpatialConfig::new(3, 2), 2);
    }
    assert!(spatial.fields.bit_eq(&scalar.fields), "spatial deviates");

    for cfg in [
        MwdConfig::one_wd(4, 2, 2),
        MwdConfig {
            dw: 4,
            bz: 2,
            tg: TgShape { x: 2, z: 2, c: 3 },
            groups: 1,
        },
    ] {
        let mut tiled = filled(dims, 424);
        run_mwd(&mut tiled, &cfg, steps).unwrap();
        if let Some(m) = norms::first_mismatch(&tiled.fields, &scalar.fields) {
            panic!("{cfg:?}: first mismatch vs forced-scalar {m:?}");
        }
    }
}

#[test]
fn mwd_intermediate_time_blocks_compose() {
    // Temporal blocking over nt must equal blocking over nt1 + nt2.
    let dims = GridDims::new(6, 9, 8);
    let mut once = filled(dims, 55);
    let mut split = once.clone();
    let cfg = MwdConfig {
        dw: 4,
        bz: 2,
        tg: TgShape { x: 1, z: 1, c: 2 },
        groups: 2,
    };
    run_mwd(&mut once, &cfg, 9).unwrap();
    run_mwd(&mut split, &cfg, 4).unwrap();
    run_mwd(&mut split, &cfg, 5).unwrap();
    assert!(once.fields.bit_eq(&split.fields));
}

#[test]
fn repeated_runs_are_deterministic_across_schedules() {
    // Dynamic scheduling must never change the bits, run after run.
    let dims = GridDims::new(8, 12, 8);
    let cfg = MwdConfig {
        dw: 4,
        bz: 2,
        tg: TgShape { x: 2, z: 2, c: 1 },
        groups: 2,
    };
    let proto = filled(dims, 77);
    let mut first = proto.clone();
    run_mwd(&mut first, &cfg, 6).unwrap();
    for _ in 0..4 {
        let mut again = proto.clone();
        run_mwd(&mut again, &cfg, 6).unwrap();
        assert!(first.fields.bit_eq(&again.fields));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random grids, diamond widths, wavefronts, TG shapes and thread
    /// counts: MWD must always reproduce the naive bits.
    #[test]
    fn mwd_equals_naive_for_random_configurations(
        nx in 2usize..8,
        ny in 2usize..16,
        nz in 2usize..12,
        dw_half in 1usize..5,
        bz in 1usize..6,
        steps in 1usize..8,
        groups in 1usize..4,
        tgx in 1usize..3,
        tgz in 1usize..3,
        tgc_idx in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let dims = GridDims::new(nx, ny, nz);
        let tgc = [1usize, 2, 3, 6][tgc_idx];
        let cfg = MwdConfig {
            dw: 2 * dw_half,
            bz,
            tg: TgShape { x: tgx.min(nx), z: tgz.min(bz), c: tgc },
            groups,
        };
        prop_assume!(cfg.validate(dims).is_ok());

        let mut reference = filled(dims, seed);
        let mut tiled = reference.clone();
        run_naive(&mut reference, steps);
        run_mwd(&mut tiled, &cfg, steps).expect("validated config runs");
        prop_assert!(
            tiled.fields.bit_eq(&reference.fields),
            "cfg {:?} dims {} steps {}: {:?}",
            cfg, dims, steps,
            norms::first_mismatch(&tiled.fields, &reference.fields)
        );
    }

    /// Spatial blocking with any block size and thread count is also
    /// bit-exact.
    #[test]
    fn spatial_equals_naive_for_random_blocks(
        n in 3usize..10,
        by in 1usize..12,
        bz in 1usize..12,
        threads in 1usize..5,
        steps in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let dims = GridDims::cubic(n);
        let mut reference = filled(dims, seed);
        let mut blocked = reference.clone();
        run_naive(&mut reference, steps);
        for _ in 0..steps {
            step_spatial_mt(&mut blocked, SpatialConfig::new(by, bz), threads);
        }
        prop_assert!(blocked.fields.bit_eq(&reference.fields));
    }
}
