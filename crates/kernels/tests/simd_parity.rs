//! Property tests pinning the SIMD dispatch: every instruction set the
//! host supports must produce *bit-identical* results to the scalar
//! reference kernel — on random dims (including `nx` not a multiple of
//! the lane width, so the ragged-tail path runs), both curl signs,
//! source and source-free components, halo-adjacent rows, partial
//! x-chunks, and periodic-x rows (wrap halo refresh + Dirichlet kernel).

use em_field::{CoeffRowBuilder, Component, GridDims, SourceArray, State};
use em_kernels::boundary::wrap_x_halo;
use em_kernels::simd::{detected_isa, Isa};
use em_kernels::update::update_component_rows;
use em_kernels::RawGrid;
use proptest::prelude::*;

fn filled(dims: GridDims, seed: u64) -> State {
    let mut s = State::zeros(dims);
    s.fields.fill_deterministic(seed);
    s.coeffs.fill_deterministic(seed ^ 0x51d);
    s
}

/// `filled`'s fields under row-built coefficients with two alternating
/// x-profiles per array, so most rows of a span share a table row.
fn packed(dims: GridDims, seed: u64) -> State {
    let mut s = filled(dims, seed);
    let banded = |tag: u64, scale: f64| {
        let mut rows = CoeffRowBuilder::new(dims);
        let profile = |band: u64, part: u64| -> Vec<f64> {
            (0..dims.nx as u64)
                .map(|x| {
                    scale * ((seed + tag * 31 + band * 7 + part * 3 + x * 13) % 23) as f64 / 23.0
                })
                .collect()
        };
        for row in 0..(dims.ny * dims.nz) as u64 {
            rows.push_row(&profile(row % 2, 0), &profile(row % 2, 1))
                .unwrap();
        }
        rows.finish()
    };
    for comp in Component::ALL {
        *s.coeffs.t_mut(comp) = banded(comp.index() as u64, 0.45);
        *s.coeffs.c_mut(comp) = banded(12 + comp.index() as u64, 0.2);
    }
    for arr in SourceArray::ALL {
        *s.coeffs.src_mut(arr) = banded(24 + arr.index() as u64, 0.01);
    }
    s
}

/// The ISAs this host can actually run, scalar first.
fn available_isas() -> Vec<Isa> {
    [Isa::Scalar, Isa::Avx2, Isa::Avx512]
        .into_iter()
        .filter(|&i| i <= detected_isa())
        .collect()
}

/// One full H-then-E sweep (the `step_naive` schedule) with a forced ISA.
fn step_with_isa(state: &State, isa: Isa) {
    let dims = state.dims();
    let g = RawGrid::new(state).with_isa(isa);
    for comp in Component::H_ALL.into_iter().chain(Component::E_ALL) {
        // SAFETY: single-threaded full-grid sweep, same argument as
        // `step_naive`.
        unsafe { update_component_rows(&g, comp, 0..dims.nz, 0..dims.ny, 0..dims.nx) };
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full sweeps over random grids: every supported ISA reproduces the
    /// scalar bits exactly. `nx` ranges over values straddling the AVX2
    /// (4) and AVX-512 (8) lane widths, including non-multiples.
    #[test]
    fn full_step_bitwise_parity_across_isas(
        nx in 1usize..21,
        ny in 1usize..6,
        nz in 1usize..6,
        steps in 1usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let dims = GridDims::new(nx, ny, nz);
        let reference = filled(dims, seed);
        for _ in 0..steps {
            step_with_isa(&reference, Isa::Scalar);
        }
        for isa in available_isas() {
            let state = filled(dims, seed);
            for _ in 0..steps {
                step_with_isa(&state, isa);
            }
            prop_assert!(
                state.fields.bit_eq(&reference.fields),
                "{} deviates from scalar on {dims}",
                isa.name()
            );
            // Halo rows read zeros and must stay zero on every path.
            for comp in Component::ALL {
                prop_assert!(state.fields.comp(comp).halo_is_zero(), "{comp} halo");
            }
        }
    }

    /// Partial x-chunks with arbitrary (unaligned) boundaries: chunked
    /// updates on the dispatched path equal one scalar full-row update.
    #[test]
    fn chunked_rows_bitwise_parity(
        nx in 2usize..19,
        split_num in 1usize..8,
        comp_i in 0usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let dims = GridDims::new(nx, 3, 3);
        let comp = Component::ALL[comp_i];
        let split = 1 + split_num % (nx - 1);
        let reference = filled(dims, seed);
        {
            let g = RawGrid::new(&reference).with_isa(Isa::Scalar);
            unsafe { update_component_rows(&g, comp, 1..2, 1..2, 0..nx) };
        }
        for isa in available_isas() {
            let state = filled(dims, seed);
            {
                let g = RawGrid::new(&state).with_isa(isa);
                unsafe {
                    update_component_rows(&g, comp, 1..2, 1..2, 0..split);
                    update_component_rows(&g, comp, 1..2, 1..2, split..nx);
                }
            }
            prop_assert!(
                state.fields.bit_eq(&reference.fields),
                "{} chunked at {split}/{nx} for {comp}",
                isa.name()
            );
        }
    }
}

/// All twelve components on row `(y, z) = (2, 1)` with periodic x: the
/// wrap halo refresh, then the Dirichlet kernel.
fn periodic_row(state: &State, isa: Isa) {
    let g = RawGrid::new(state).with_isa(isa);
    let nx = state.dims().nx;
    for comp in Component::ALL {
        // SAFETY: single-threaded; each refresh precedes the one update
        // that reads it.
        unsafe {
            wrap_x_halo(&g, comp, 1..2, 2..3, 0..nx);
            update_component_rows(&g, comp, 1..2, 2..3, 0..nx);
        }
    }
}

/// A packed state (coefficient rows resolved through the row index into
/// a three-row table) keeps bit-parity across ISAs on ragged `nx`, full
/// sweeps and periodic-x rows (wrap halo refresh + Dirichlet kernel)
/// alike.
#[test]
fn packed_coefficients_bitwise_parity_across_isas() {
    for nx in [5, 13, 17] {
        let dims = GridDims::new(nx, 4, 3);
        let reference = packed(dims, 29 + nx as u64);
        assert!(reference.coeffs.t(Component::Exy).rows_distinct() <= 3);
        let periodic = packed(dims, 29 + nx as u64);
        for _ in 0..2 {
            step_with_isa(&reference, Isa::Scalar);
        }
        periodic_row(&periodic, Isa::Scalar);
        for isa in available_isas() {
            let state = packed(dims, 29 + nx as u64);
            for _ in 0..2 {
                step_with_isa(&state, isa);
            }
            assert!(
                state.fields.bit_eq(&reference.fields),
                "{} deviates from scalar on packed {dims}",
                isa.name()
            );
            let state = packed(dims, 29 + nx as u64);
            periodic_row(&state, isa);
            assert!(
                state.fields.bit_eq(&periodic.fields),
                "{} periodic-x row on packed {dims}",
                isa.name()
            );
        }
    }
}

/// Both curl signs and both source arities actually occur in the
/// component set the proptests sweep (guards against a refactor making
/// the sweep vacuous).
#[test]
fn component_sweep_covers_all_kernel_variants() {
    let mut variants = std::collections::HashSet::new();
    for c in Component::ALL {
        variants.insert((c.curl_sign() < 0.0, c.source_array().is_some()));
    }
    assert_eq!(variants.len(), 4);
}

/// The dispatched default (whatever `active_isa` picked for this host)
/// agrees with scalar on a full multi-step run — the exact configuration
/// every engine uses in production.
#[test]
fn default_dispatch_matches_scalar_reference() {
    let dims = GridDims::new(13, 5, 4);
    let reference = filled(dims, 7);
    let state = filled(dims, 7);
    for _ in 0..3 {
        step_with_isa(&reference, Isa::Scalar);
        // `RawGrid::new` applies the dispatched ISA.
        let g = RawGrid::new(&state);
        let d = state.dims();
        for comp in Component::H_ALL.into_iter().chain(Component::E_ALL) {
            unsafe { update_component_rows(&g, comp, 0..d.nz, 0..d.ny, 0..d.nx) };
        }
    }
    assert!(state.fields.bit_eq(&reference.fields));
}
