//! Boundary conditions.
//!
//! The benchmark configuration of the paper uses homogeneous Dirichlet
//! boundaries in all dimensions, realized here by the permanent zero halo
//! of `Array3C` — nothing to do at runtime.
//!
//! The production solar-cell setup additionally uses *periodic* horizontal
//! boundaries, which the paper lists as work-in-progress for MWD
//! ("Conclusion and Outlook"). Both forms here fill the x halo with the
//! wrap-around values and then run the Dirichlet kernel unchanged: the
//! reference engines refresh whole halos before each field phase
//! ([`exchange_x_halo`], [`exchange_y_halo`]), and the MWD engine
//! refreshes, per work item, just the halo cells the item's x-derivative
//! rows read ([`wrap_x_halo`]).

use crate::raw::RawGrid;
use em_field::{Axis, Component, FieldKind, State};
use std::ops::Range;

/// Boundary treatment selector for the reference engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Boundary {
    /// Homogeneous Dirichlet everywhere (zero halo). Paper benchmark mode.
    #[default]
    Dirichlet,
    /// Periodic along x, Dirichlet along y and z. Production-like mode for
    /// the solar-cell examples.
    PeriodicX,
    /// Periodic along both horizontal dimensions (x and y), Dirichlet/PML
    /// along z — the production configuration for plane-wave illumination.
    /// No stencil reads cross both halos diagonally, so the two exchanges
    /// compose.
    PeriodicXY,
}

/// Copy the wrap-around columns of every component of `kind` into the x
/// halo: `halo(-1) = interior(nx-1)`, `halo(nx) = interior(0)`.
///
/// Must run before the phase that *reads* `kind` (i.e. before the E phase
/// for `kind = H` and vice versa).
pub fn exchange_x_halo(state: &mut State, kind: FieldKind) {
    let dims = state.dims();
    let (nx, ny, nz) = (dims.nx as isize, dims.ny as isize, dims.nz as isize);
    for comp in Component::of(kind) {
        let arr = state.fields.comp_mut(comp);
        for z in 0..nz {
            for y in 0..ny {
                let lo = arr.get(0, y, z);
                let hi = arr.get(nx - 1, y, z);
                arr.set(-1, y, z, hi);
                arr.set(nx, y, z, lo);
            }
        }
    }
}

/// Write the x halo cells that `comp`'s rows `(z_range, y_range)` read
/// across the periodic wrap: `x = -1 <- nx-1` in the two source-split
/// arrays before an H update, `x = nx <- 0` before an E update. A no-op
/// unless `comp` differentiates along x and `x_range` holds the wrap
/// cell (x = 0 for H, nx-1 for E), so the one caller whose x chunk
/// reads a halo cell is the one that writes it; the Dirichlet kernel
/// then runs over the whole box.
///
/// # Safety
/// [`RawGrid`] contract: no other thread touches these halo cells
/// during the call, and the copied cells (the other kind's, at the
/// opposite x end of the same rows) are not being written.
pub unsafe fn wrap_x_halo(
    g: &RawGrid<'_>,
    comp: Component,
    z_range: Range<usize>,
    y_range: Range<usize>,
    x_range: Range<usize>,
) {
    let nx = g.dims().nx;
    let (wrap_x, from_x) = match comp.field_kind() {
        FieldKind::H => (0, nx - 1),
        FieldKind::E => (nx - 1, 0),
    };
    if comp.deriv_axis() != Axis::X || !x_range.contains(&wrap_x) {
        return;
    }
    for split in comp.source_splits() {
        let f = g.field_ptr(split);
        for z in z_range.clone() {
            for y in y_range.clone() {
                let halo = g.idx(wrap_x, y, z).wrapping_add_signed(comp.offset_dir());
                let from = g.idx(from_x, y, z);
                for part in [0, g.im_off] {
                    *f.add(halo + part) = *f.add(from + part);
                }
            }
        }
    }
}

/// Copy the wrap-around rows of every component of `kind` into the y
/// halo: `halo(-1) = interior(ny-1)`, `halo(ny) = interior(0)`.
pub fn exchange_y_halo(state: &mut State, kind: FieldKind) {
    let dims = state.dims();
    let (nx, ny, nz) = (dims.nx as isize, dims.ny as isize, dims.nz as isize);
    for comp in Component::of(kind) {
        let arr = state.fields.comp_mut(comp);
        for z in 0..nz {
            for x in 0..nx {
                let lo = arr.get(x, 0, z);
                let hi = arr.get(x, ny - 1, z);
                arr.set(x, -1, z, hi);
                arr.set(x, ny, z, lo);
            }
        }
    }
}

/// One naive time step honoring the selected boundary.
pub fn step_naive_with_boundary(state: &mut State, boundary: Boundary) {
    match boundary {
        Boundary::Dirichlet => crate::sweep::step_naive(state),
        Boundary::PeriodicX => {
            // H phase reads E: refresh E halo, then update H.
            exchange_x_halo(state, FieldKind::E);
            phase_only(state, FieldKind::H);
            // E phase reads H.
            exchange_x_halo(state, FieldKind::H);
            phase_only(state, FieldKind::E);
            // The x-halo holds wrap values until the next exchange;
            // engines that assume a zero halo must not be mixed with
            // periodic modes on the same state.
        }
        Boundary::PeriodicXY => {
            exchange_x_halo(state, FieldKind::E);
            exchange_y_halo(state, FieldKind::E);
            phase_only(state, FieldKind::H);
            exchange_x_halo(state, FieldKind::H);
            exchange_y_halo(state, FieldKind::H);
            phase_only(state, FieldKind::E);
        }
    }
}

fn phase_only(state: &mut State, kind: FieldKind) {
    let dims = state.dims();
    let g = crate::raw::RawGrid::new(state);
    for comp in Component::of(kind) {
        // SAFETY: single-threaded; same argument as `step_naive`.
        unsafe {
            crate::update::update_component_rows(&g, comp, 0..dims.nz, 0..dims.ny, 0..dims.nx)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_field::{Array3C, Cplx, GridDims};

    #[test]
    fn exchange_copies_wrap_columns() {
        let dims = GridDims::new(4, 2, 2);
        let mut s = State::zeros(dims);
        s.fields
            .comp_mut(Component::Hyx)
            .set(0, 1, 1, Cplx::new(1.0, 2.0));
        s.fields
            .comp_mut(Component::Hyx)
            .set(3, 1, 1, Cplx::new(-3.0, 0.5));
        exchange_x_halo(&mut s, FieldKind::H);
        let arr = s.fields.comp(Component::Hyx);
        assert_eq!(arr.get(-1, 1, 1), Cplx::new(-3.0, 0.5));
        assert_eq!(arr.get(4, 1, 1), Cplx::new(1.0, 2.0));
    }

    #[test]
    fn wrap_x_halo_then_dirichlet_matches_exchange_x_halo() {
        // Every x-derivative component, with x cut so the wrap cell lands
        // in the first chunk (H), the last (E) or, for a middle chunk,
        // neither: per-chunk refresh + Dirichlet rows give the interior
        // bits of a whole-halo exchange + Dirichlet sweep.
        use crate::update::update_component_rows as rows;
        let dims = GridDims::new(11, 4, 3);
        let (zs, ys) = (0..dims.nz, 0..dims.ny);
        for comp in Component::ALL {
            let mut start = State::zeros(dims);
            start.fields.fill_deterministic(31 + comp.index() as u64);
            start.coeffs.fill_deterministic(57 + comp.index() as u64);
            let mut reference = start.clone();
            exchange_x_halo(&mut reference, comp.field_kind().other());
            let g = RawGrid::new(&reference);
            unsafe { rows(&g, comp, zs.clone(), ys.clone(), 0..dims.nx) };
            for cuts in [&[0, 11][..], &[0, 3, 11], &[0, 8, 11], &[0, 2, 6, 11]] {
                let s = start.clone();
                let g = RawGrid::new(&s);
                for w in cuts.windows(2) {
                    unsafe {
                        wrap_x_halo(&g, comp, zs.clone(), ys.clone(), w[0]..w[1]);
                        rows(&g, comp, zs.clone(), ys.clone(), w[0]..w[1]);
                    }
                }
                let (a, b) = (reference.fields.comp(comp), s.fields.comp(comp));
                let bits = |(_, v): (_, Cplx)| (v.re.to_bits(), v.im.to_bits());
                assert!(
                    a.iter_interior().map(bits).eq(b.iter_interior().map(bits)),
                    "{comp} {cuts:?}"
                );
            }
            // A chunk without the wrap cell, or a component that
            // differentiates along y or z, refreshes nothing.
            let s = start.clone();
            let along_x = comp.deriv_axis() == Axis::X;
            let x = if along_x { 2..6 } else { 0..11 };
            unsafe { wrap_x_halo(&RawGrid::new(&s), comp, zs.clone(), ys.clone(), x) };
            assert!(s.fields.bit_eq(&start.fields), "{comp}");
        }
    }

    #[test]
    fn periodic_x_conserves_translation_symmetry() {
        // With x-uniform fields and coefficients, the periodic step must
        // keep fields x-uniform (no artificial boundary effects), whereas
        // Dirichlet breaks uniformity at the x edges.
        let dims = GridDims::new(6, 3, 3);
        let mut su = State::zeros(dims);
        // x-uniform coefficients and fields built from scratch:
        for comp in Component::ALL {
            let mut t = Array3C::zeros(dims);
            t.fill_with(|_, y, z| Cplx::new(0.3 + 0.01 * y as f64, 0.02 * z as f64));
            *su.coeffs.t_mut(comp) = t.try_into().unwrap();
            let mut c = Array3C::zeros(dims);
            c.fill_with(|_, y, z| Cplx::new(0.1 * z as f64, 0.05 + 0.01 * y as f64));
            *su.coeffs.c_mut(comp) = c.try_into().unwrap();
            su.fields
                .comp_mut(comp)
                .fill_with(|_, y, z| Cplx::new(1.0 + y as f64, z as f64));
        }
        for _ in 0..3 {
            step_naive_with_boundary(&mut su, Boundary::PeriodicX);
        }
        for comp in Component::ALL {
            let arr = su.fields.comp(comp);
            for z in 0..dims.nz as isize {
                for y in 0..dims.ny as isize {
                    let v0 = arr.get(0, y, z);
                    for x in 1..dims.nx as isize {
                        let v = arr.get(x, y, z);
                        assert!(
                            (v - v0).abs() < 1e-12 * (1.0 + v0.abs()),
                            "{comp} not x-uniform at ({x},{y},{z})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dirichlet_matches_plain_naive() {
        let dims = GridDims::cubic(4);
        let mut a = State::zeros(dims);
        a.fields.fill_deterministic(23);
        a.coeffs.fill_deterministic(24);
        let mut b = a.clone();
        step_naive_with_boundary(&mut a, Boundary::Dirichlet);
        crate::sweep::step_naive(&mut b);
        assert!(a.fields.bit_eq(&b.fields));
    }
}
