//! Norms and comparisons over field sets — the measurement helpers used by
//! convergence monitors, validation tests and the MWD-vs-naive oracle.

use crate::array3::Array3C;
use crate::complex::Cplx;
use crate::component::Component;
use crate::fields::FieldSet;

/// Flat `(re, im)` start index of every interior x-row of `a`, in
/// storage order (z, then y). The split-plane layout makes each row
/// unit-stride, so reductions stream instead of gathering cell by cell;
/// arrays of equal dims share one layout, hence one set of indices.
fn interior_rows(a: &Array3C) -> impl Iterator<Item = (usize, usize)> + '_ {
    let d = a.dims();
    (0..d.nz).flat_map(move |z| {
        (0..d.ny).map(move |y| {
            let base = a.idx(0, y as isize, z as isize);
            (base, a.im_offset() + base)
        })
    })
}

/// Visit every interior x-row of `a` as two contiguous slices
/// `(re_row, im_row)`.
fn for_each_interior_row(a: &Array3C, mut f: impl FnMut(&[f64], &[f64])) {
    let (buf, nx) = (a.as_slice(), a.dims().nx);
    for (re, im) in interior_rows(a) {
        f(&buf[re..re + nx], &buf[im..im + nx]);
    }
}

/// L2 norm over the interior of a single array.
pub fn l2(a: &Array3C) -> f64 {
    let mut sum = 0.0;
    for_each_interior_row(a, |re, im| {
        sum += re.iter().map(|v| v * v).sum::<f64>() + im.iter().map(|v| v * v).sum::<f64>();
    });
    sum.sqrt()
}

/// L-infinity norm over the interior of a single array.
pub fn linf(a: &Array3C) -> f64 {
    let mut m = 0.0f64;
    for_each_interior_row(a, |re, im| {
        for (r, i) in re.iter().zip(im) {
            m = m.max(Cplx::new(*r, *i).abs());
        }
    });
    m
}

/// L2 norm of the difference of two arrays.
pub fn l2_diff(a: &Array3C, b: &Array3C) -> f64 {
    assert_eq!(a.dims(), b.dims());
    a.iter_interior()
        .zip(b.iter_interior())
        .map(|((_, va), (_, vb))| (va - vb).norm_sqr())
        .sum::<f64>()
        .sqrt()
}

/// Relative L2 change between two field sets:
/// `||a - b||_2 / max(||b||_2, eps)` summed over all 12 components.
/// This is the THIIM convergence functional.
///
/// The value is order-sensitive and lands in every artifact, so the
/// summation order is fixed: one `num` and one `den` chain, component-
/// major, then z, y, x. Walking rows as slices only takes the index
/// arithmetic out of the loop; the two chains stay sequential.
pub fn relative_change(a: &FieldSet, b: &FieldSet) -> f64 {
    assert_eq!(a.dims(), b.dims());
    let nx = a.dims().nx;
    let mut num = 0.0;
    let mut den = 0.0;
    for &c in &Component::ALL {
        let (fa, fb) = (a.comp(c).as_slice(), b.comp(c).as_slice());
        for (re, im) in interior_rows(a.comp(c)) {
            let (a_re, a_im) = (&fa[re..re + nx], &fa[im..im + nx]);
            let (b_re, b_im) = (&fb[re..re + nx], &fb[im..im + nx]);
            for x in 0..nx {
                let (dr, di) = (a_re[x] - b_re[x], a_im[x] - b_im[x]);
                num += dr * dr + di * di;
                den += b_re[x] * b_re[x] + b_im[x] * b_im[x];
            }
        }
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

/// Report of the first bitwise mismatch between two field sets, for
/// diagnosing scheduling bugs. `None` means bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    pub component: Component,
    pub cell: (usize, usize, usize),
    pub a: Cplx,
    pub b: Cplx,
}

pub fn first_mismatch(a: &FieldSet, b: &FieldSet) -> Option<Mismatch> {
    for &c in &Component::ALL {
        let (aa, bb) = (a.comp(c), b.comp(c));
        for ((cell, va), (_, vb)) in aa.iter_interior().zip(bb.iter_interior()) {
            if va.re.to_bits() != vb.re.to_bits() || va.im.to_bits() != vb.im.to_bits() {
                return Some(Mismatch {
                    component: c,
                    cell,
                    a: va,
                    b: vb,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridDims;

    #[test]
    fn l2_of_unit_impulse() {
        let mut a = Array3C::zeros(GridDims::cubic(3));
        a.set(1, 1, 1, Cplx::new(3.0, 4.0));
        assert_eq!(l2(&a), 5.0);
        assert_eq!(linf(&a), 5.0);
    }

    #[test]
    fn l2_diff_is_symmetric_and_zero_on_equal() {
        let d = GridDims::new(2, 3, 2);
        let mut a = Array3C::zeros(d);
        let mut b = Array3C::zeros(d);
        a.set(0, 1, 0, Cplx::ONE);
        b.set(0, 1, 0, Cplx::ONE);
        assert_eq!(l2_diff(&a, &b), 0.0);
        b.set(1, 2, 1, Cplx::new(0.0, 2.0));
        assert_eq!(l2_diff(&a, &b), 2.0);
        assert_eq!(l2_diff(&b, &a), 2.0);
    }

    #[test]
    fn relative_change_detects_convergence() {
        let d = GridDims::cubic(2);
        let mut a = FieldSet::zeros(d);
        let mut b = FieldSet::zeros(d);
        a.fill_deterministic(5);
        b.fill_deterministic(5);
        assert_eq!(relative_change(&a, &b), 0.0);
    }

    /// The cell-by-cell formulation `relative_change` replaced, kept as
    /// its reference: same expression, same two chains, same order.
    fn relative_change_by_cell(a: &FieldSet, b: &FieldSet) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for &c in &Component::ALL {
            for ((_, va), (_, vb)) in a.comp(c).iter_interior().zip(b.comp(c).iter_interior()) {
                num += (va - vb).norm_sqr();
                den += vb.norm_sqr();
            }
        }
        (num / den.max(f64::MIN_POSITIVE)).sqrt()
    }

    #[test]
    fn relative_change_by_rows_is_bit_identical_to_by_cell() {
        // nx = 5, 7, 13: rows that are no multiple of any SIMD lane.
        for (i, d) in [(5, 3, 4), (8, 2, 3), (7, 5, 2), (13, 1, 1), (16, 4, 6)]
            .into_iter()
            .enumerate()
        {
            let dims = GridDims::new(d.0, d.1, d.2);
            let mut a = FieldSet::zeros(dims);
            let mut b = FieldSet::zeros(dims);
            a.fill_deterministic(100 + i as u64);
            b.fill_deterministic(200 + i as u64);
            let (rows, cells) = (relative_change(&a, &b), relative_change_by_cell(&a, &b));
            assert!(rows.is_finite() && rows > 0.0);
            assert_eq!(rows.to_bits(), cells.to_bits(), "dims {dims}");
            // Halo contents must not enter the sum.
            a.comp_mut(Component::Exy)
                .set(-1, 0, 0, Cplx::new(9.0, 9.0));
            b.comp_mut(Component::Hzy)
                .set(0, d.1 as isize, 0, Cplx::new(-4.0, 2.0));
            assert_eq!(relative_change(&a, &b).to_bits(), cells.to_bits());
        }
        let zero = FieldSet::zeros(GridDims::cubic(2));
        assert_eq!(
            relative_change(&zero, &zero).to_bits(),
            relative_change_by_cell(&zero, &zero).to_bits()
        );
    }

    #[test]
    fn first_mismatch_locates_the_cell() {
        let d = GridDims::cubic(3);
        let mut a = FieldSet::zeros(d);
        let b = FieldSet::zeros(d);
        a.comp_mut(Component::Eyz).set(2, 0, 1, Cplx::new(1.0, 0.0));
        let m = first_mismatch(&a, &b).expect("must find the planted mismatch");
        assert_eq!(m.component, Component::Eyz);
        assert_eq!(m.cell, (2, 0, 1));
        assert_eq!(first_mismatch(&b, &b), None);
    }
}
