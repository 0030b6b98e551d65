//! The full 40-array problem state: 12 split-field components plus 28
//! coefficient arrays (t/c per component and the four source arrays).

use std::ops::Range;

use crate::array3::Array3C;
use crate::coeff::{CoeffArray, CoeffRowBuilder};
use crate::complex::Cplx;
use crate::component::{Component, SourceArray};
use crate::grid::GridDims;

/// The twelve split-field component arrays.
#[derive(Clone, Debug)]
pub struct FieldSet {
    arrays: Vec<Array3C>,
    dims: GridDims,
}

impl FieldSet {
    pub fn zeros(dims: GridDims) -> Self {
        FieldSet {
            arrays: (0..12).map(|_| Array3C::zeros(dims)).collect(),
            dims,
        }
    }

    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    #[inline]
    pub fn comp(&self, c: Component) -> &Array3C {
        &self.arrays[c.index()]
    }

    #[inline]
    pub fn comp_mut(&mut self, c: Component) -> &mut Array3C {
        &mut self.arrays[c.index()]
    }

    /// Total (unsplit) value of component `c.axis()`'s field at a cell,
    /// e.g. `E_x = Exy + Exz`.
    pub fn total(
        &self,
        kind: crate::component::FieldKind,
        axis: crate::component::Axis,
        x: isize,
        y: isize,
        z: isize,
    ) -> Cplx {
        let [a, b] = crate::component::TotalComponent { kind, axis }.splits();
        self.comp(a).get(x, y, z) + self.comp(b).get(x, y, z)
    }

    pub fn iter(&self) -> impl Iterator<Item = (Component, &Array3C)> {
        Component::ALL.iter().map(move |&c| (c, self.comp(c)))
    }

    /// Bitwise equality across all 12 components.
    pub fn bit_eq(&self, other: &FieldSet) -> bool {
        Component::ALL
            .iter()
            .all(|&c| self.comp(c).bit_eq(other.comp(c)))
    }

    /// Largest absolute elementwise difference across all components.
    pub fn max_abs_diff(&self, other: &FieldSet) -> f64 {
        let mut m: f64 = 0.0;
        for &c in &Component::ALL {
            for (a, b) in self.comp(c).as_slice().iter().zip(other.comp(c).as_slice()) {
                m = m.max((a - b).abs());
            }
        }
        m
    }

    /// Sum of |v|^2 over all components and interior cells — a simple
    /// energy-like norm used by convergence monitors and stability tests.
    pub fn energy(&self) -> f64 {
        Component::ALL
            .iter()
            .map(|&c| {
                self.comp(c)
                    .iter_interior()
                    .map(|(_, v)| v.norm_sqr())
                    .sum::<f64>()
            })
            .sum()
    }

    /// Deterministic pseudo-random fill (splitmix64 on the cell index),
    /// used by correctness tests to exercise all code paths with nontrivial
    /// data while staying reproducible across engines and thread counts.
    pub fn fill_deterministic(&mut self, seed: u64) {
        for (ci, &c) in Component::ALL.iter().enumerate() {
            let arr = self.comp_mut(c);
            let mut k = 0u64;
            arr.fill_with(|_, _, _| {
                k += 1;
                let h = splitmix64(seed ^ (ci as u64) << 32 ^ k);
                let re = unit(h);
                let im = unit(splitmix64(h));
                Cplx::new(re, im)
            });
        }
    }
}

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

/// The 28 coefficient arrays: for every component a transfer factor `t*`
/// and a curl factor `c*`; for the four z-derivative components also a
/// source array. Each is a [`CoeffArray`]: a table of distinct x-rows
/// under a row index, so 28 arrays x 16 B/cell is their *dense* upper
/// bound, reached when no two rows are alike.
#[derive(Clone, Debug)]
pub struct CoeffSet {
    t: Vec<CoeffArray>,
    c: Vec<CoeffArray>,
    src: Vec<CoeffArray>,
    dims: GridDims,
}

/// What a [`CoeffSet`] holds, summed over its 28 arrays.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoeffStats {
    /// Table rows the row indices refer to.
    pub rows_distinct: usize,
    /// Rows the indices have (28 x padded `(y, z)` rows).
    pub rows_total: usize,
    /// Bytes of tables plus indices.
    pub bytes: usize,
}

impl CoeffSet {
    /// All-zero coefficients (fields stay frozen; useful in tests).
    pub fn zeros(dims: GridDims) -> Self {
        let zero = CoeffArray::zeros(dims);
        CoeffSet {
            t: vec![zero.clone(); 12],
            c: vec![zero.clone(); 12],
            src: vec![zero; 4],
            dims,
        }
    }

    /// Uniform coefficients: every `t` = `t0`, every `c` = `c0`, sources 0.
    /// A cheap stand-in for vacuum when the physics layer is not needed.
    pub fn uniform(dims: GridDims, t0: Cplx, c0: Cplx) -> Self {
        let uniform = |v: Cplx| {
            let mut rows = CoeffRowBuilder::new(dims);
            let (re, im) = (vec![v.re; dims.nx], vec![v.im; dims.nx]);
            for _ in 0..dims.ny * dims.nz {
                rows.push_row(&re, &im)
                    .expect("two rows fit any offset range");
            }
            rows.finish()
        };
        let mut s = Self::zeros(dims);
        s.t = vec![uniform(t0); 12];
        s.c = vec![uniform(c0); 12];
        s
    }

    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    #[inline]
    pub fn t(&self, comp: Component) -> &CoeffArray {
        &self.t[comp.index()]
    }

    /// Replace an array whole (`*coeffs.t_mut(c) = array`): coefficient
    /// arrays are authored dense or row by row, then immutable.
    #[inline]
    pub fn t_mut(&mut self, comp: Component) -> &mut CoeffArray {
        &mut self.t[comp.index()]
    }

    #[inline]
    pub fn c(&self, comp: Component) -> &CoeffArray {
        &self.c[comp.index()]
    }

    #[inline]
    pub fn c_mut(&mut self, comp: Component) -> &mut CoeffArray {
        &mut self.c[comp.index()]
    }

    #[inline]
    pub fn src(&self, s: SourceArray) -> &CoeffArray {
        &self.src[s.index()]
    }

    #[inline]
    pub fn src_mut(&mut self, s: SourceArray) -> &mut CoeffArray {
        &mut self.src[s.index()]
    }

    fn arrays(&self) -> impl Iterator<Item = &CoeffArray> {
        self.t.iter().chain(&self.c).chain(&self.src)
    }

    /// Number of domain-sized arrays held (the paper's 28).
    pub fn array_count(&self) -> usize {
        self.arrays().count()
    }

    /// Distinct rows, indexed rows and bytes over all 28 arrays.
    pub fn stats(&self) -> CoeffStats {
        self.arrays()
            .fold(CoeffStats::default(), |s, a| CoeffStats {
                rows_distinct: s.rows_distinct + a.rows_distinct(),
                rows_total: s.rows_total + a.rows_total(),
                bytes: s.bytes + a.bytes(),
            })
    }

    /// The z planes `z` of every array; see [`CoeffArray::crop_z`].
    pub fn crop_z(&self, z: Range<usize>) -> CoeffSet {
        let crop = |arrays: &[CoeffArray]| arrays.iter().map(|a| a.crop_z(z.clone())).collect();
        CoeffSet {
            t: crop(&self.t),
            c: crop(&self.c),
            src: crop(&self.src),
            dims: GridDims::new(self.dims.nx, self.dims.ny, z.len()),
        }
    }

    /// Deterministic pseudo-random coefficients with |t| < 1 (contractive,
    /// so iteration stays bounded) and small |c|. No two rows are alike:
    /// each array is dense under the identity row index.
    pub fn fill_deterministic(&mut self, seed: u64) {
        let dims = self.dims;
        let dense = |tag: u64, scale: f64| {
            let mut arr = Array3C::zeros(dims);
            let mut k = 0u64;
            arr.fill_with(|_, _, _| {
                k += 1;
                let h = splitmix64(seed ^ tag << 16 ^ k);
                Cplx::new(unit(h) * scale, unit(splitmix64(h)) * scale)
            });
            CoeffArray::try_from(arr).expect("a grid this host can hold fits u32 row offsets")
        };
        for i in 0..12 {
            self.t[i] = dense(0x7000 + i as u64, 0.45);
            self.c[i] = dense(0xc000 + i as u64, 0.2);
        }
        for j in 0..4 {
            self.src[j] = dense(0x5c00 + j as u64, 0.01);
        }
    }
}

/// The complete problem state passed to the execution engines.
#[derive(Clone, Debug)]
pub struct State {
    pub fields: FieldSet,
    pub coeffs: CoeffSet,
}

impl State {
    pub fn zeros(dims: GridDims) -> Self {
        State {
            fields: FieldSet::zeros(dims),
            coeffs: CoeffSet::zeros(dims),
        }
    }

    pub fn dims(&self) -> GridDims {
        self.fields.dims()
    }

    /// Total domain-sized arrays: 12 + 28 = 40 (Sec. III).
    pub fn array_count(&self) -> usize {
        12 + self.coeffs.array_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Axis, FieldKind};

    #[test]
    fn forty_domain_sized_arrays() {
        let s = State::zeros(GridDims::cubic(2));
        assert_eq!(s.array_count(), 40);
        assert_eq!(s.coeffs.array_count(), 28);
    }

    #[test]
    fn component_arrays_are_independent() {
        let mut f = FieldSet::zeros(GridDims::cubic(2));
        f.comp_mut(Component::Hyx).set(0, 0, 0, Cplx::ONE);
        assert_eq!(f.comp(Component::Hyx).get(0, 0, 0), Cplx::ONE);
        assert_eq!(f.comp(Component::Hyz).get(0, 0, 0), Cplx::ZERO);
    }

    #[test]
    fn total_sums_split_parts() {
        let mut f = FieldSet::zeros(GridDims::cubic(2));
        f.comp_mut(Component::Exy).set(1, 1, 1, Cplx::new(2.0, 0.5));
        f.comp_mut(Component::Exz)
            .set(1, 1, 1, Cplx::new(-0.5, 1.0));
        assert_eq!(f.total(FieldKind::E, Axis::X, 1, 1, 1), Cplx::new(1.5, 1.5));
    }

    #[test]
    fn deterministic_fill_is_reproducible_and_seed_sensitive() {
        let d = GridDims::new(3, 4, 2);
        let mut a = FieldSet::zeros(d);
        let mut b = FieldSet::zeros(d);
        a.fill_deterministic(7);
        b.fill_deterministic(7);
        assert!(a.bit_eq(&b));
        let mut c = FieldSet::zeros(d);
        c.fill_deterministic(8);
        assert!(!a.bit_eq(&c));
    }

    #[test]
    fn deterministic_coeffs_are_contractive() {
        let d = GridDims::new(3, 3, 3);
        let mut cs = CoeffSet::zeros(d);
        cs.fill_deterministic(3);
        for &comp in &Component::ALL {
            for (_, v) in cs.t(comp).iter_interior() {
                assert!(v.abs() < 1.0, "|t| must stay below 1 for boundedness");
            }
        }
    }

    #[test]
    fn energy_of_zero_state_is_zero_and_grows_with_fields() {
        let d = GridDims::cubic(3);
        let mut f = FieldSet::zeros(d);
        assert_eq!(f.energy(), 0.0);
        f.comp_mut(Component::Ezy).set(0, 0, 0, Cplx::new(3.0, 4.0));
        assert_eq!(f.energy(), 25.0);
    }

    #[test]
    fn max_abs_diff_reports_largest_gap() {
        let d = GridDims::cubic(2);
        let mut a = FieldSet::zeros(d);
        let b = FieldSet::zeros(d);
        a.comp_mut(Component::Hzy)
            .set(1, 0, 1, Cplx::new(0.0, -2.5));
        assert_eq!(a.max_abs_diff(&b), 2.5);
    }

    #[test]
    fn uniform_coeffs_set_t_and_c_only() {
        let d = GridDims::cubic(2);
        let cs = CoeffSet::uniform(d, Cplx::real(0.5), Cplx::new(0.0, 0.1));
        assert_eq!(cs.t(Component::Exy).get(1, 1, 1), Cplx::real(0.5));
        assert_eq!(cs.c(Component::Hzx).get(0, 0, 0), Cplx::new(0.0, 0.1));
        assert_eq!(cs.src(SourceArray::SrcHx).get(0, 0, 0), Cplx::ZERO);
    }
}
