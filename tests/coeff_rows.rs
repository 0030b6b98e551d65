//! The one coefficient addressing mode, from both doors: a coefficient
//! field authored dense (an `Array3C` under the identity row index) and
//! the same field pushed row by row through `CoeffRowBuilder` (rows the
//! field repeats stored once) must drive every engine to the same bits
//! — on every ISA the host has, on rows with ragged vector tails, and
//! across the periodic-x wrap (halo refresh + Dirichlet kernel).
//!
//! The engines dispatch to `active_isa()`; CI runs this file once more
//! under `MWD_SIMD=scalar` and `MWD_SIMD=avx2` so their scalar-tail and
//! narrow-vector paths see packed rows too.

use proptest::prelude::*;
use thiim_mwd::field::{
    Array3C, CoeffArray, CoeffRowBuilder, Component, Cplx, GridDims, SourceArray, State,
};
use thiim_mwd::kernels::boundary::{step_naive_with_boundary, wrap_x_halo, Boundary};
use thiim_mwd::kernels::simd::{detected_isa, Isa};
use thiim_mwd::kernels::update::update_component_rows;
use thiim_mwd::kernels::{run_naive, step_spatial_mt, RawGrid, SpatialConfig};
use thiim_mwd::mwd::{run_mwd, MwdBoundary, MwdConfig, MwdRun, TgShape};

/// How a coefficient field repeats itself.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Pattern {
    /// One value per z plane: a layer stack.
    Layered,
    /// Bands of two y rows, alike across z: a grating.
    BandedY,
    /// One x profile shared by every row.
    XProfile,
    /// No two rows alike.
    Random,
}

const PATTERNS: [Pattern; 4] = [
    Pattern::Layered,
    Pattern::BandedY,
    Pattern::XProfile,
    Pattern::Random,
];

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Map to (-1, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Coefficient array `array` (0..28) of the field at a cell.
fn value(
    p: Pattern,
    seed: u64,
    array: usize,
    scale: f64,
    (x, y, z): (usize, usize, usize),
) -> Cplx {
    let key = match p {
        Pattern::Layered => z,
        Pattern::BandedY => y / 2,
        Pattern::XProfile => x,
        Pattern::Random => (z * 1024 + y) * 1024 + x,
    };
    let h = splitmix64(seed ^ (array as u64) << 40 ^ key as u64);
    Cplx::new(unit(h) * scale, unit(splitmix64(h)) * scale)
}

/// The 28 arrays in a fixed order (12 `t`, 12 `c`, 4 `src`) with the
/// scale that keeps the iteration bounded (|t| < 1, small |c|, smaller
/// sources).
fn arrays() -> impl Iterator<Item = (usize, f64)> {
    (0..28).map(|a| match a {
        0..12 => (a, 0.45),
        12..24 => (a, 0.2),
        _ => (a, 0.01),
    })
}

fn install(state: &mut State, array: usize, coeff: CoeffArray) {
    match array {
        0..12 => *state.coeffs.t_mut(Component::ALL[array]) = coeff,
        12..24 => *state.coeffs.c_mut(Component::ALL[array - 12]) = coeff,
        _ => *state.coeffs.src_mut(SourceArray::ALL[array - 24]) = coeff,
    }
}

/// The same fields under the same coefficient field, authored dense
/// and built row by row.
fn twin_states(dims: GridDims, p: Pattern, seed: u64) -> (State, State) {
    let mut dense = State::zeros(dims);
    dense.fields.fill_deterministic(seed);
    let mut rows = dense.clone();
    for (a, scale) in arrays() {
        let mut arr = Array3C::zeros(dims);
        arr.fill_with(|x, y, z| value(p, seed, a, scale, (x, y, z)));
        install(&mut dense, a, arr.try_into().unwrap());

        let mut b = CoeffRowBuilder::new(dims);
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                let row: Vec<Cplx> = (0..dims.nx)
                    .map(|x| value(p, seed, a, scale, (x, y, z)))
                    .collect();
                let re: Vec<f64> = row.iter().map(|v| v.re).collect();
                let im: Vec<f64> = row.iter().map(|v| v.im).collect();
                b.push_row(&re, &im).unwrap();
            }
        }
        install(&mut rows, a, b.finish());
    }
    (dense, rows)
}

/// One H-then-E sweep straight through the span kernels on a forced ISA.
fn sweep_with_isa(state: &State, isa: Isa, periodic_x: bool) {
    let d = state.dims();
    let g = RawGrid::new(state).with_isa(isa);
    for comp in Component::H_ALL.into_iter().chain(Component::E_ALL) {
        // SAFETY: single-threaded full-grid sweep, the `step_naive`
        // schedule.
        unsafe {
            if periodic_x {
                wrap_x_halo(&g, comp, 0..d.nz, 0..d.ny, 0..d.nx);
            }
            update_component_rows(&g, comp, 0..d.nz, 0..d.ny, 0..d.nx);
        }
    }
}

fn available_isas() -> Vec<Isa> {
    [Isa::Scalar, Isa::Avx2, Isa::Avx512]
        .into_iter()
        .filter(|&i| i <= detected_isa())
        .collect()
}

fn mwd_configs() -> Vec<MwdConfig> {
    let tg = |x, z, c| TgShape { x, z, c };
    vec![
        MwdConfig::one_wd(4, 1, 1),
        MwdConfig::one_wd(4, 2, 2),
        MwdConfig {
            dw: 4,
            bz: 1,
            tg: tg(2, 1, 1),
            groups: 1,
        },
        MwdConfig {
            dw: 4,
            bz: 2,
            tg: tg(1, 2, 1),
            groups: 1,
        },
        MwdConfig {
            dw: 8,
            bz: 1,
            tg: tg(1, 1, 3),
            groups: 1,
        },
        MwdConfig {
            dw: 4,
            bz: 2,
            tg: tg(2, 1, 2),
            groups: 2,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Dense-authored and row-built coefficients are the same problem to
    /// every engine, and every engine still equals the naive sweep.
    #[test]
    fn dense_and_row_built_coefficients_step_to_the_same_bits(
        pattern in 0usize..4,
        nx_i in 0usize..3,
        ny in 4usize..9,
        nz in 3usize..7,
        seed in 0u64..u64::MAX,
    ) {
        let p = PATTERNS[pattern];
        let dims = GridDims::new([13, 17, 120][nx_i], ny, nz);
        let steps = 3;
        let (dense, rows) = twin_states(dims, p, seed);

        // What the builder kept: at most one row per plane / band / in
        // all for the repeating fields, every row for the random one.
        let kept = rows.coeffs.t(Component::Hyx).rows_distinct();
        let bound = match p {
            Pattern::Layered => nz + 1,
            Pattern::BandedY => ny.div_ceil(2) + 1,
            Pattern::XProfile => 2,
            Pattern::Random => ny * nz + 1,
        };
        prop_assert!(kept <= bound, "{p:?} on {dims}: {kept} rows kept, bound {bound}");
        if p == Pattern::Random {
            prop_assert_eq!(kept, bound);
        }
        let dense_rows = dense.coeffs.t(Component::Hyx);
        prop_assert_eq!(dense_rows.rows_distinct(), dense_rows.rows_total());

        let mut reference = dense.clone();
        run_naive(&mut reference, steps);
        let mut reference_px = dense.clone();
        for _ in 0..steps {
            step_naive_with_boundary(&mut reference_px, Boundary::PeriodicX);
        }

        for start in [&dense, &rows] {
            // Naive and spatial, on the dispatched ISA.
            let mut s = start.clone();
            run_naive(&mut s, steps);
            prop_assert!(s.fields.bit_eq(&reference.fields), "naive, {p:?} on {dims}");
            let mut s = start.clone();
            for _ in 0..steps {
                step_spatial_mt(&mut s, SpatialConfig::new(4, 3), 2);
            }
            prop_assert!(s.fields.bit_eq(&reference.fields), "spatial, {p:?} on {dims}");

            // The span kernels on every ISA, Dirichlet and periodic x.
            // The periodic reference is the halo-exchange sweep, whose
            // x halo holds both wrap columns of every array: compare
            // interiors.
            for isa in available_isas() {
                let s = start.clone();
                for _ in 0..steps {
                    sweep_with_isa(&s, isa, false);
                }
                prop_assert!(
                    s.fields.bit_eq(&reference.fields),
                    "{} sweep, {p:?} on {dims}", isa.name()
                );
                let s = start.clone();
                for _ in 0..steps {
                    sweep_with_isa(&s, isa, true);
                }
                prop_assert!(
                    interiors_bit_eq(&s, &reference_px),
                    "{} periodic-x sweep, {p:?} on {dims}", isa.name()
                );
            }

            // MWD: 1WD, x / z / component splits, two groups; each also
            // as the periodic-x engine. `tg.x = 2` puts x = 0 and
            // x = nx - 1 on different members, so the two halo refreshes
            // of a row have different writers.
            let periodic_x = MwdRun { boundary: MwdBoundary::PeriodicX, ..MwdRun::default() };
            for cfg in mwd_configs() {
                let mut s = start.clone();
                run_mwd(&mut s, &cfg, steps).map_err(TestCaseError::fail)?;
                prop_assert!(s.fields.bit_eq(&reference.fields), "{cfg:?}, {p:?} on {dims}");
                let mut s = start.clone();
                periodic_x.run(&mut s, &cfg, steps).map_err(TestCaseError::fail)?;
                prop_assert!(
                    interiors_bit_eq(&s, &reference_px),
                    "{cfg:?} periodic-x, {p:?} on {dims}"
                );
            }
        }
    }
}

fn interiors_bit_eq(a: &State, b: &State) -> bool {
    Component::ALL.into_iter().all(|c| {
        a.fields
            .comp(c)
            .iter_interior()
            .zip(b.fields.comp(c).iter_interior())
            .all(|((_, v), (_, w))| {
                v.re.to_bits() == w.re.to_bits() && v.im.to_bits() == w.im.to_bits()
            })
    })
}

/// The row-wise builder on whole coefficient sets: a z-layered scene
/// keeps at most `nz + 1` rows per array, random fill exactly
/// `ny * nz + 1` (every interior row plus the one shared zero halo row).
#[test]
fn builder_row_counts_for_layered_and_random_fields() {
    let dims = GridDims::new(13, 5, 6);
    let (_, layered) = twin_states(dims, Pattern::Layered, 5);
    let (_, random) = twin_states(dims, Pattern::Random, 5);
    for comp in Component::ALL {
        for arr in [layered.coeffs.t(comp), layered.coeffs.c(comp)] {
            assert!(arr.rows_distinct() <= dims.nz + 1, "{comp}");
        }
        for arr in [random.coeffs.t(comp), random.coeffs.c(comp)] {
            assert_eq!(arr.rows_distinct(), dims.ny * dims.nz + 1, "{comp}");
        }
    }
    let stats = random.coeffs.stats();
    assert_eq!(stats.rows_distinct, 28 * (dims.ny * dims.nz + 1));
    assert_eq!(stats.rows_total, 28 * (dims.ny + 2) * (dims.nz + 2));
    assert!(layered.coeffs.stats().bytes < stats.bytes / 3);
}
