//! The component-row update kernels (paper Listings 1 and 2).
//!
//! The arithmetic lives in [`crate::simd`]: a portable chunked-lane
//! scalar kernel plus AVX2/AVX-512 vector kernels with identical
//! per-cell operation order, dispatched through the ISA selected on the
//! [`RawGrid`]. This module assembles the per-row pointer set (split
//! re/im planes, stencil-shifted neighbor rows) and monomorphizes over
//! the curl sign and source presence so the generated code performs
//! exactly the paper's flop counts (22 flops/cell for the four Listing-1
//! updates, 20 for the eight Listing-2 updates).

use crate::raw::{CoeffRows, RawGrid};
use crate::simd::{self, Span};
use em_field::Component;
use std::ops::Range;

/// Build the `Span` operand set for `nz * ny` rows of `n` cells
/// starting at interior cell `(x, y, z)` and run the dispatched kernel.
/// `shift` is the signed f64 offset (within one plane) from a cell to
/// its stencil neighbor.
///
/// # Safety
/// Caller guarantees the [`RawGrid`] aliasing contract for the written
/// cells of `comp` and the cells read (same rows of `t`, `c`, `src`, and
/// the `shift`ed rows of the two source-split arrays, which are
/// in-bounds thanks to the one-cell halo).
#[inline]
unsafe fn dispatch_span(
    g: &RawGrid<'_>,
    comp: Component,
    (x, y, z): (usize, usize, usize),
    shift: isize,
    n: usize,
    ny: usize,
    nz: usize,
) {
    let base = g.idx(x, y, z);
    let row = g.row(y, z);
    let [sp1, sp2] = comp.source_splits();
    let s1 = g.field_ptr(sp1) as *const f64;
    let s2 = g.field_ptr(sp2) as *const f64;
    let src = comp.source_array();
    let span = Span {
        dst: g.field_ptr(comp).add(base),
        t: g.t_rows(comp).at(x, row),
        c: g.c_rows(comp).at(x, row),
        src: match src {
            Some(s) => g.src_rows(s).at(x, row),
            None => CoeffRows::NONE,
        },
        s1c: s1.add(base),
        s1n: s1.offset(base as isize + shift),
        s2c: s2.add(base),
        s2n: s2.offset(base as isize + shift),
        im: g.im_off,
        n,
        ny,
        nz,
        y_stride: g.y_stride,
        z_stride: g.z_stride,
        rows_per_plane: g.rows_per_plane(),
    };
    match (comp.curl_sign() < 0.0, src.is_some()) {
        (false, true) => simd::span_update::<false, true>(g.isa, &span),
        (true, true) => simd::span_update::<true, true>(g.isa, &span),
        (false, false) => simd::span_update::<false, false>(g.isa, &span),
        (true, false) => simd::span_update::<true, false>(g.isa, &span),
    }
}

/// Update component `comp` on the row `(x_range, y, z)`.
///
/// # Safety
/// See [`RawGrid`]: the caller's schedule must make the written cells
/// exclusive and the read cells quiescent for the duration of the call.
#[inline]
pub unsafe fn update_component_row(
    g: &RawGrid<'_>,
    comp: Component,
    y: usize,
    z: usize,
    x_range: Range<usize>,
) {
    if x_range.is_empty() {
        return;
    }
    debug_assert!(x_range.end <= g.dims().nx);
    debug_assert!(y < g.dims().ny && z < g.dims().nz);

    let n = x_range.end - x_range.start;
    let shift = comp.offset_dir() * g.axis_stride(comp.deriv_axis()) as isize;
    dispatch_span(g, comp, (x_range.start, y, z), shift, n, 1, 1);
}

/// Update component `comp` over a rectangular region
/// `(x_range, y_range, z_range)` in row-major order. The whole region is
/// handed to the kernel as one `Span` so ISA dispatch and pointer
/// setup cost once per region, not once per row.
///
/// # Safety
/// Same contract as [`update_component_row`].
pub unsafe fn update_component_rows(
    g: &RawGrid<'_>,
    comp: Component,
    z_range: Range<usize>,
    y_range: Range<usize>,
    x_range: Range<usize>,
) {
    if x_range.is_empty() || y_range.is_empty() || z_range.is_empty() {
        return;
    }
    debug_assert!(x_range.end <= g.dims().nx);
    debug_assert!(y_range.end <= g.dims().ny && z_range.end <= g.dims().nz);

    let n = x_range.end - x_range.start;
    let origin = (x_range.start, y_range.start, z_range.start);
    let shift = comp.offset_dir() * g.axis_stride(comp.deriv_axis()) as isize;
    dispatch_span(g, comp, origin, shift, n, y_range.len(), z_range.len());
}

/// [`update_component_row`] with *periodic* x boundaries, implemented by
/// peeling the wrap-around iteration off the x loop exactly as the
/// paper's outlook describes ("peeling the first and last iteration off
/// the x loop to explicitly specify the contributing grid points at the
/// other end of the domain"). Only the four x-derivative components
/// (`Hzy`, `Hyz`, `Ezy`, `Eyz`) differ from the Dirichlet kernel: their
/// boundary cell reads the source component from the opposite end of the
/// same row. Because that read targets arrays written by *earlier* rows,
/// the peeled kernel composes with every engine — including MWD — with
/// no halo exchange and no extra synchronization.
///
/// # Safety
/// Same contract as [`update_component_row`].
#[inline]
pub unsafe fn update_component_row_periodic_x(
    g: &RawGrid<'_>,
    comp: Component,
    y: usize,
    z: usize,
    x_range: Range<usize>,
) {
    if comp.deriv_axis() != em_field::Axis::X {
        return update_component_row(g, comp, y, z, x_range);
    }
    if x_range.is_empty() {
        return;
    }
    let nx = g.dims().nx;
    debug_assert!(x_range.end <= nx);

    // The wrapped cell: x = 0 for H (reads x-1 -> nx-1), x = nx-1 for E
    // (reads x+1 -> 0).
    let (wrap_x, wrap_shift) = if comp.offset_dir() < 0 {
        (0usize, (nx - 1) as isize)
    } else {
        (nx - 1, -((nx - 1) as isize))
    };

    let interior = if x_range.contains(&wrap_x) {
        // Peel the wrapped element: same inner-loop body, but the
        // neighbor offset points across the row.
        run_peeled(g, comp, y, z, wrap_x, wrap_shift);
        if wrap_x == x_range.start {
            x_range.start + 1..x_range.end
        } else {
            x_range.start..x_range.end - 1
        }
    } else {
        x_range
    };
    update_component_row(g, comp, y, z, interior);
}

/// One peeled cell with an explicit neighbor shift.
#[inline]
unsafe fn run_peeled(g: &RawGrid<'_>, comp: Component, y: usize, z: usize, x: usize, shift: isize) {
    dispatch_span(g, comp, (x, y, z), shift, 1, 1, 1);
}

/// Periodic-x variant of [`update_component_rows`].
///
/// # Safety
/// Same contract as [`update_component_row`].
pub unsafe fn update_component_rows_periodic_x(
    g: &RawGrid<'_>,
    comp: Component,
    z_range: Range<usize>,
    y_range: Range<usize>,
    x_range: Range<usize>,
) {
    if comp.deriv_axis() != em_field::Axis::X {
        // No wrap cell to peel: take the one-span fast path.
        return update_component_rows(g, comp, z_range, y_range, x_range);
    }
    for z in z_range {
        for y in y_range.clone() {
            update_component_row_periodic_x(g, comp, y, z, x_range.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{exchange_x_halo, Boundary};
    use em_field::{Axis, Component, Cplx, GridDims, State};

    /// Scalar reference implementation of one component update at one
    /// cell, written with `Cplx` arithmetic straight from the equations.
    fn reference_update(state: &State, comp: Component, x: usize, y: usize, z: usize) -> Cplx {
        let (xi, yi, zi) = (x as isize, y as isize, z as isize);
        let dir = comp.offset_dir();
        let (nx, ny, nz) = match comp.deriv_axis() {
            Axis::X => (xi + dir, yi, zi),
            Axis::Y => (xi, yi + dir, zi),
            Axis::Z => (xi, yi, zi + dir),
        };
        let [sp1, sp2] = comp.source_splits();
        let center =
            state.fields.comp(sp1).get(xi, yi, zi) + state.fields.comp(sp2).get(xi, yi, zi);
        let neigh = state.fields.comp(sp1).get(nx, ny, nz) + state.fields.comp(sp2).get(nx, ny, nz);
        let d = center - neigh;
        let old = state.fields.comp(comp).get(xi, yi, zi);
        let t = state.coeffs.t(comp).get(xi, yi, zi);
        let c = state.coeffs.c(comp).get(xi, yi, zi);
        let src = comp
            .source_array()
            .map(|s| state.coeffs.src(s).get(xi, yi, zi))
            .unwrap_or(Cplx::ZERO);
        old * t + src - (c * d) * comp.curl_sign()
    }

    fn filled_state(dims: GridDims, seed: u64) -> State {
        let mut s = State::zeros(dims);
        s.fields.fill_deterministic(seed);
        s.coeffs.fill_deterministic(seed.wrapping_add(1));
        s
    }

    #[test]
    fn kernel_matches_scalar_reference_for_every_component() {
        let dims = GridDims::new(4, 3, 3);
        for comp in Component::ALL {
            let state = filled_state(dims, 42 + comp.index() as u64);
            // Expected values computed BEFORE the kernel mutates anything.
            let mut expect = vec![];
            let (y, z) = (1, 1);
            for x in 0..dims.nx {
                expect.push(reference_update(&state, comp, x, y, z));
            }
            {
                let g = RawGrid::new(&state);
                unsafe { update_component_row(&g, comp, y, z, 0..dims.nx) };
            }
            for (x, &want) in expect.iter().enumerate() {
                let got = state.fields.comp(comp).get(x as isize, 1, 1);
                assert!(
                    (got - want).abs() < 1e-13,
                    "{comp} at x={x}: got {got:?}, want {want:?}"
                );
            }
        }
    }

    #[test]
    fn kernel_only_writes_requested_cells() {
        let dims = GridDims::new(5, 4, 4);
        let state = filled_state(dims, 3);
        let before = state.fields.clone();
        {
            let g = RawGrid::new(&state);
            unsafe { update_component_row(&g, Component::Hzx, 2, 1, 1..3) };
        }
        for comp in Component::ALL {
            for ((x, y, z), v) in state.fields.comp(comp).iter_interior() {
                let old = before.comp(comp).get(x as isize, y as isize, z as isize);
                let touched = comp == Component::Hzx && y == 2 && z == 1 && (1..3).contains(&x);
                if touched {
                    // value may or may not change numerically, no assertion
                } else {
                    assert_eq!(v, old, "{comp} ({x},{y},{z}) must be untouched");
                }
            }
        }
    }

    #[test]
    fn boundary_reads_hit_zero_halo() {
        // An H component with a z- shift reading at z=0 must see zeros
        // (Dirichlet): result = old*t + src only.
        let dims = GridDims::new(3, 3, 3);
        let mut state = filled_state(dims, 9);
        // Zero the source-split arrays so the whole curl term comes from
        // the halo read direction.
        let [sp1, sp2] = Component::Hyx.source_splits();
        state.fields.comp_mut(sp1).zero();
        state.fields.comp_mut(sp2).zero();
        let old = state.fields.comp(Component::Hyx).get(1, 1, 0);
        let t = state.coeffs.t(Component::Hyx).get(1, 1, 0);
        let src = state.coeffs.src(em_field::SourceArray::SrcHy).get(1, 1, 0);
        {
            let g = RawGrid::new(&state);
            unsafe { update_component_row(&g, Component::Hyx, 1, 0, 0..dims.nx) };
        }
        let got = state.fields.comp(Component::Hyx).get(1, 1, 0);
        assert!((got - (old * t + src)).abs() < 1e-15);
        assert!(state.fields.comp(Component::Hyx).halo_is_zero());
    }

    #[test]
    fn empty_range_is_a_noop() {
        let dims = GridDims::cubic(3);
        let state = filled_state(dims, 4);
        let before = state.fields.clone();
        {
            let g = RawGrid::new(&state);
            unsafe { update_component_row(&g, Component::Exz, 0, 0, 2..2) };
        }
        assert!(state.fields.bit_eq(&before));
    }

    #[test]
    fn peeled_periodic_kernel_matches_halo_exchange() {
        // The loop-peeled wrap must produce exactly the bits of the
        // halo-exchange implementation for every x-derivative component.
        let dims = GridDims::new(6, 4, 4);
        for comp in Component::ALL
            .into_iter()
            .filter(|c| c.deriv_axis() == Axis::X)
        {
            let mut a = filled_state(dims, 31 + comp.index() as u64);
            let b = a.clone();
            // Reference: refresh the halo of the source field, then run
            // the Dirichlet kernel (which now reads wrap values).
            exchange_x_halo(&mut a, comp.field_kind().other());
            {
                let g = RawGrid::new(&a);
                unsafe { update_component_rows(&g, comp, 0..4, 0..4, 0..6) };
            }
            // Peeled: no halo work at all.
            {
                let g = RawGrid::new(&b);
                unsafe { update_component_rows_periodic_x(&g, comp, 0..4, 0..4, 0..6) };
            }
            assert!(
                a.fields.comp(comp).bit_eq(b.fields.comp(comp)),
                "{comp}: peeled kernel deviates from halo exchange"
            );
        }
        let _ = Boundary::Dirichlet;
    }

    #[test]
    fn peeled_kernel_handles_partial_chunks() {
        // TG x-chunks: a chunk containing the wrap cell peels it; chunks
        // without it are plain. Union of chunks == full periodic row.
        let dims = GridDims::new(8, 3, 3);
        let comp = Component::Hzy; // x- shift
        let full = filled_state(dims, 77);
        let chunked = full.clone();
        {
            let g = RawGrid::new(&full);
            unsafe { update_component_row_periodic_x(&g, comp, 1, 1, 0..8) };
        }
        {
            let g = RawGrid::new(&chunked);
            unsafe {
                update_component_row_periodic_x(&g, comp, 1, 1, 0..3);
                update_component_row_periodic_x(&g, comp, 1, 1, 3..8);
            }
        }
        assert!(full.fields.comp(comp).bit_eq(chunked.fields.comp(comp)));
    }

    #[test]
    fn non_x_components_ignore_periodic_flag() {
        let dims = GridDims::new(5, 4, 4);
        let a = filled_state(dims, 13);
        let b = a.clone();
        {
            let g = RawGrid::new(&a);
            unsafe { update_component_rows(&g, Component::Hyx, 0..4, 0..4, 0..5) };
        }
        {
            let g = RawGrid::new(&b);
            unsafe { update_component_rows_periodic_x(&g, Component::Hyx, 0..4, 0..4, 0..5) };
        }
        assert!(a.fields.bit_eq(&b.fields));
    }

    #[test]
    fn rows_region_covers_exactly_the_box() {
        let dims = GridDims::new(4, 5, 6);
        let state = filled_state(dims, 11);
        let before = state.fields.clone();
        {
            let g = RawGrid::new(&state);
            unsafe { update_component_rows(&g, Component::Eyz, 2..5, 1..4, 0..4) };
        }
        let mut changed = 0;
        for ((x, y, z), v) in state.fields.comp(Component::Eyz).iter_interior() {
            let inside = (2..5).contains(&z) && (1..4).contains(&y) && x < 4;
            let old = before
                .comp(Component::Eyz)
                .get(x as isize, y as isize, z as isize);
            if !inside {
                assert_eq!(v, old);
            } else if v != old {
                changed += 1;
            }
        }
        assert!(changed > 0, "updates with random data must change values");
    }
}
