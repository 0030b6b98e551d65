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
///
/// # Safety
/// Caller guarantees the [`RawGrid`] aliasing contract for the written
/// cells of `comp` and the cells read (same rows of `t`, `c`, `src`, and
/// the stencil-shifted rows of the two source-split arrays, which are
/// in-bounds thanks to the one-cell halo).
#[inline]
unsafe fn dispatch_span(
    g: &RawGrid<'_>,
    comp: Component,
    (x, y, z): (usize, usize, usize),
    n: usize,
    ny: usize,
    nz: usize,
) {
    // Signed f64 offset (within one plane) from a cell to its stencil
    // neighbor.
    let shift = comp.offset_dir() * g.axis_stride(comp.deriv_axis()) as isize;
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

/// Update component `comp` over a rectangular region
/// `(x_range, y_range, z_range)` in row-major order. The whole region is
/// handed to the kernel as one `Span` so ISA dispatch and pointer
/// setup cost once per region, not once per row.
///
/// # Safety
/// See [`RawGrid`]: the caller's schedule must make the written cells
/// exclusive and the read cells quiescent for the duration of the call.
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
    dispatch_span(g, comp, origin, n, y_range.len(), z_range.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{exchange_x_halo, wrap_x_halo};
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
                unsafe { update_component_rows(&g, comp, z..z + 1, y..y + 1, 0..dims.nx) };
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
            unsafe { update_component_rows(&g, Component::Hzx, 1..2, 2..3, 1..3) };
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
            unsafe { update_component_rows(&g, Component::Hyx, 0..1, 1..2, 0..dims.nx) };
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
            unsafe { update_component_rows(&g, Component::Exz, 0..1, 0..1, 2..2) };
        }
        assert!(state.fields.bit_eq(&before));
    }

    /// Periodic-x update as the MWD executor runs it: refresh the wrap
    /// halo cells the rows read, then the Dirichlet kernel.
    unsafe fn periodic_x_rows(
        g: &RawGrid<'_>,
        comp: Component,
        z_range: Range<usize>,
        y_range: Range<usize>,
        x_range: Range<usize>,
    ) {
        wrap_x_halo(g, comp, z_range.clone(), y_range.clone(), x_range.clone());
        update_component_rows(g, comp, z_range, y_range, x_range);
    }

    #[test]
    fn peeled_periodic_kernel_matches_halo_exchange() {
        // The per-box wrap refresh must produce exactly the bits of the
        // whole-halo exchange for every x-derivative component.
        let dims = GridDims::new(6, 4, 4);
        for comp in Component::ALL
            .into_iter()
            .filter(|c| c.deriv_axis() == Axis::X)
        {
            let mut a = filled_state(dims, 31 + comp.index() as u64);
            let b = a.clone();
            exchange_x_halo(&mut a, comp.field_kind().other());
            {
                let g = RawGrid::new(&a);
                unsafe { update_component_rows(&g, comp, 0..4, 0..4, 0..6) };
            }
            {
                let g = RawGrid::new(&b);
                unsafe { periodic_x_rows(&g, comp, 0..4, 0..4, 0..6) };
            }
            assert!(
                a.fields.comp(comp).bit_eq(b.fields.comp(comp)),
                "{comp}: wrap refresh deviates from halo exchange"
            );
        }
    }

    #[test]
    fn peeled_kernel_handles_partial_chunks() {
        // TG x-chunks: the chunk holding the wrap cell refreshes its halo;
        // the others are plain. Union of chunks == full periodic row.
        let dims = GridDims::new(8, 3, 3);
        for comp in [Component::Hzy, Component::Ezy] {
            let full = filled_state(dims, 77);
            let chunked = full.clone();
            {
                let g = RawGrid::new(&full);
                unsafe { periodic_x_rows(&g, comp, 1..2, 1..2, 0..8) };
            }
            {
                let g = RawGrid::new(&chunked);
                unsafe {
                    periodic_x_rows(&g, comp, 1..2, 1..2, 0..3);
                    periodic_x_rows(&g, comp, 1..2, 1..2, 3..8);
                }
            }
            assert!(
                full.fields.comp(comp).bit_eq(chunked.fields.comp(comp)),
                "{comp}"
            );
        }
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
            unsafe { periodic_x_rows(&g, Component::Hyx, 0..4, 0..4, 0..5) };
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
