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

/// Components whose chains [`plane_partial`] advances side by side.
/// Chains of different components are independent, so interleaving a
/// few hides the floating-point add latency; four (eight accumulators)
/// still live in registers, where all twelve spill and run at half the
/// speed.
const SIDE_BY_SIDE: usize = 4;

/// One z plane's share `(num_z, den_z)` of the THIIM convergence
/// functional: `|a - b|^2` and `|b|^2` summed over the plane. Each of
/// the twelve components is one sequential chain over the plane's
/// `(y, x)` cells; the twelve chains are then added in
/// [`Component::ALL`] order.
fn plane_partial(a: &FieldSet, b: &FieldSet, z: usize) -> (f64, f64) {
    const N: usize = Component::ALL.len();
    let d = a.dims();
    // Arrays of equal dims share one layout.
    let layout = a.comp(Component::ALL[0]);
    let (im, y_stride) = (layout.im_offset(), layout.y_stride());
    let first = layout.idx(0, 0, z as isize);
    let (mut num, mut den) = ([0.0f64; N], [0.0f64; N]);
    for group in (0..N).step_by(SIDE_BY_SIDE) {
        let comps = &Component::ALL[group..group + SIDE_BY_SIDE];
        let fa: [&[f64]; SIDE_BY_SIDE] = std::array::from_fn(|c| a.comp(comps[c]).as_slice());
        let fb: [&[f64]; SIDE_BY_SIDE] = std::array::from_fn(|c| b.comp(comps[c]).as_slice());
        let (mut n, mut dn) = ([0.0f64; SIDE_BY_SIDE], [0.0f64; SIDE_BY_SIDE]);
        let mut base = first;
        for _ in 0..d.ny {
            let a_re = fa.map(|f| &f[base..base + d.nx]);
            let a_im = fa.map(|f| &f[im + base..im + base + d.nx]);
            let b_re = fb.map(|f| &f[base..base + d.nx]);
            let b_im = fb.map(|f| &f[im + base..im + base + d.nx]);
            for x in 0..d.nx {
                for c in 0..SIDE_BY_SIDE {
                    let (dr, di) = (a_re[c][x] - b_re[c][x], a_im[c][x] - b_im[c][x]);
                    n[c] += dr * dr + di * di;
                    dn[c] += b_re[c][x] * b_re[c][x] + b_im[c][x] * b_im[c][x];
                }
            }
            base += y_stride;
        }
        num[group..group + SIDE_BY_SIDE].copy_from_slice(&n);
        den[group..group + SIDE_BY_SIDE].copy_from_slice(&dn);
    }
    let total = |chains: [f64; N]| chains.iter().fold(0.0, |sum, c| sum + c);
    (total(num), total(den))
}

/// The fixed-order combine of per-plane partials `(num_z, den_z)`,
/// handed over in ascending global z:
/// `sqrt(sum num_z / max(sum den_z, MIN_POSITIVE))`.
pub fn combine_planes(partials: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (num, den) = partials
        .into_iter()
        .fold((0.0, 0.0), |(num, den), (n, d)| (num + n, den + d));
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

/// Relative L2 change between two field sets,
/// `||a - b||_2 / max(||b||_2, eps)` over all 12 components: the THIIM
/// convergence functional.
///
/// The value is order-sensitive and lands in every artifact, so the
/// summation order is part of the definition, and it is chosen to be
/// *decomposition-invariant*: a partial `(num_z, den_z)` per global z
/// plane (see [`plane_changes`] for who computes them where), combined
/// in ascending z by [`combine_planes`]. A plane's partial depends on
/// that plane alone, so neither a thread count, a slab split nor a
/// worker count can change a bit of the result — whoever holds a plane
/// reduces it, and only `2 * nz` numbers ever have to meet.
pub fn relative_change(a: &FieldSet, b: &FieldSet) -> f64 {
    assert_eq!(a.dims(), b.dims());
    combine_planes((0..a.dims().nz).map(|z| plane_partial(a, b, z)))
}

/// The plane-range form of [`relative_change`], fused with the
/// snapshot update: append the partial `(num_z, den_z)` of `fields`
/// against `snapshot` for every plane of `planes` to `out`, and
/// overwrite those planes of `snapshot` with `fields`' while they are
/// still in cache. Planes outside the range are neither read nor
/// written.
pub fn plane_changes(
    fields: &FieldSet,
    snapshot: &mut FieldSet,
    planes: std::ops::Range<usize>,
    out: &mut Vec<(f64, f64)>,
) {
    assert_eq!(fields.dims(), snapshot.dims());
    assert!(planes.end <= fields.dims().nz);
    let d = fields.dims();
    for z in planes {
        out.push(plane_partial(fields, snapshot, z));
        for c in Component::ALL {
            let (src, dst) = (fields.comp(c), snapshot.comp_mut(c));
            // A plane's interior rows are one contiguous span (the x
            // halo cells between them ride along).
            let first = src.idx(0, 0, z as isize);
            let len = (d.ny - 1) * src.y_stride() + d.nx;
            let im = src.im_offset();
            let (src, dst) = (src.as_slice(), dst.as_mut_slice());
            dst[first..first + len].copy_from_slice(&src[first..first + len]);
            dst[im + first..im + first + len].copy_from_slice(&src[im + first..im + first + len]);
        }
    }
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
    use proptest::prelude::*;

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

    /// The definition, cell by cell: per plane one chain per
    /// component over `(y, x)`, the twelve added in `ALL` order, the
    /// planes in ascending z.
    fn relative_change_by_cell(a: &FieldSet, b: &FieldSet) -> f64 {
        let d = a.dims();
        let (mut num, mut den) = (0.0, 0.0);
        for z in 0..d.nz as isize {
            let (mut num_z, mut den_z) = (0.0, 0.0);
            for &c in &Component::ALL {
                let (mut num_c, mut den_c) = (0.0, 0.0);
                for y in 0..d.ny as isize {
                    for x in 0..d.nx as isize {
                        let (va, vb) = (a.comp(c).get(x, y, z), b.comp(c).get(x, y, z));
                        num_c += (va - vb).norm_sqr();
                        den_c += vb.norm_sqr();
                    }
                }
                num_z += num_c;
                den_z += den_c;
            }
            num += num_z;
            den += den_z;
        }
        (num / den.max(f64::MIN_POSITIVE)).sqrt()
    }

    fn filled_pair(dims: GridDims, seed: u64) -> (FieldSet, FieldSet) {
        let (mut a, mut b) = (FieldSet::zeros(dims), FieldSet::zeros(dims));
        a.fill_deterministic(100 + seed);
        b.fill_deterministic(200 + seed);
        (a, b)
    }

    #[test]
    fn relative_change_by_rows_is_bit_identical_to_by_cell() {
        // nx = 5, 7, 13: rows that are no multiple of any SIMD lane.
        for (i, d) in [(5, 3, 4), (8, 2, 3), (7, 5, 2), (13, 1, 1), (16, 4, 6)]
            .into_iter()
            .enumerate()
        {
            let dims = GridDims::new(d.0, d.1, d.2);
            let (mut a, mut b) = filled_pair(dims, i as u64);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any partition of `0..nz` into plane ranges, reduced in any
        /// order and combined by plane index, is the whole-grid value —
        /// and the fused pass leaves the snapshot equal to the fields.
        #[test]
        fn any_plane_partition_in_any_order_combines_to_the_whole_grid_value(
            nx in 1usize..9,
            ny in 1usize..5,
            nz in 1usize..12,
            seed in 0u64..1000,
            cuts in 0u64..u64::MAX,
            order in 0u64..u64::MAX,
        ) {
            let (a, b) = filled_pair(GridDims::new(nx, ny, nz), seed);
            // Bit z of `cuts` set: a range boundary in front of plane z.
            let mut ranges = Vec::new();
            let mut lo = 0;
            for z in 1..=nz {
                if z == nz || cuts >> z & 1 == 1 {
                    ranges.push(lo..z);
                    lo = z;
                }
            }
            // A seeded shuffle of the ranges.
            let mut state = order;
            for i in (1..ranges.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ranges.swap(i, (state >> 33) as usize % (i + 1));
            }
            let mut snapshot = b.clone();
            let mut by_plane = vec![(0.0, 0.0); nz];
            let mut out = Vec::new();
            for r in ranges {
                out.clear();
                plane_changes(&a, &mut snapshot, r.clone(), &mut out);
                prop_assert_eq!(out.len(), r.len());
                for (z, p) in r.zip(&out) {
                    by_plane[z] = *p;
                }
            }
            prop_assert_eq!(
                combine_planes(by_plane).to_bits(),
                relative_change(&a, &b).to_bits()
            );
            prop_assert!(snapshot.bit_eq(&a), "the snapshot is the fields after the pass");
        }
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
