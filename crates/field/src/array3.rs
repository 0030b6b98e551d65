//! Split re/im 3-D arrays with a one-cell zero halo.
//!
//! Unlike the paper's C code (which interleaves `re, im` pairs), each
//! array stores two contiguous `f64` planes: all real parts first, then
//! all imaginary parts, each with x contiguous, then y, then z:
//! `idx(x, y, z) = ((z+1) * py + (y+1)) * px + (x+1)` where `px = nx + 2`
//! etc. include the halo, and the imaginary part of a value lives at
//! `idx + im_offset()`. The split layout makes every kernel access
//! unit-stride, which is what lets the SIMD row kernels in `em_kernels`
//! fill whole vector registers with one load.
//!
//! The plane stride is rounded up to a whole number of cache lines
//! ([`crate::aligned::round_up_lane`]) so both planes start 64-byte
//! aligned; the padding gap between the planes is never written and
//! stays zero. Interior coordinates are `0..nx`; the halo at `-1` and
//! `n` stays zero, which realizes the homogeneous Dirichlet boundaries
//! the paper benchmarks with.

use crate::aligned::{round_up_lane, AlignedBuf};
use crate::complex::Cplx;
use crate::grid::GridDims;

/// One double-complex field or coefficient array, stored as split
/// re/im planes.
#[derive(Clone, Debug)]
pub struct Array3C {
    buf: AlignedBuf,
    dims: GridDims,
    /// Padded extents (interior + 2 halo cells).
    px: usize,
    py: usize,
    pz: usize,
    /// f64 distance from a value's real part to its imaginary part:
    /// the lane-rounded plane size `round_up_lane(px * py * pz)`.
    plane: usize,
}

impl Array3C {
    pub fn zeros(dims: GridDims) -> Self {
        let (px, py, pz) = (dims.nx + 2, dims.ny + 2, dims.nz + 2);
        let plane = round_up_lane(px * py * pz);
        Array3C {
            buf: AlignedBuf::zeroed(2 * plane),
            dims,
            px,
            py,
            pz,
            plane,
        }
    }

    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Padded extents including the halo, `(nx+2, ny+2, nz+2)`.
    #[inline]
    pub fn padded_extents(&self) -> (usize, usize, usize) {
        (self.px, self.py, self.pz)
    }

    /// f64 distance between consecutive y rows (within one plane).
    #[inline]
    pub fn y_stride(&self) -> usize {
        self.px
    }

    /// f64 distance between consecutive z planes (within one plane).
    #[inline]
    pub fn z_stride(&self) -> usize {
        self.px * self.py
    }

    /// f64 distance from a value's real part to its imaginary part.
    #[inline]
    pub fn im_offset(&self) -> usize {
        self.plane
    }

    /// Flat index of the real part of interior cell `(x, y, z)`; the
    /// imaginary part lives at `idx + im_offset()`.
    /// Halo cells are addressable with coordinates `-1` and `n`.
    #[inline]
    pub fn idx(&self, x: isize, y: isize, z: isize) -> usize {
        debug_assert!(
            x >= -1 && x <= self.dims.nx as isize,
            "x={x} out of halo range"
        );
        debug_assert!(
            y >= -1 && y <= self.dims.ny as isize,
            "y={y} out of halo range"
        );
        debug_assert!(
            z >= -1 && z <= self.dims.nz as isize,
            "z={z} out of halo range"
        );
        let xi = (x + 1) as usize;
        let yi = (y + 1) as usize;
        let zi = (z + 1) as usize;
        (zi * self.py + yi) * self.px + xi
    }

    #[inline]
    pub fn get(&self, x: isize, y: isize, z: isize) -> Cplx {
        let i = self.idx(x, y, z);
        Cplx::new(self.buf[i], self.buf[i + self.plane])
    }

    #[inline]
    pub fn set(&mut self, x: isize, y: isize, z: isize, v: Cplx) {
        let i = self.idx(x, y, z);
        self.buf[i] = v.re;
        self.buf[i + self.plane] = v.im;
    }

    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.buf.as_slice()
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.buf.as_mut_slice()
    }

    /// Base pointer for the raw kernels. See `AlignedBuf::as_ptr_shared`
    /// for the aliasing discipline.
    #[inline]
    pub fn as_ptr_shared(&self) -> *mut f64 {
        self.buf.as_ptr_shared()
    }

    /// Total `f64` length including halo and inter-plane padding.
    #[inline]
    pub fn flat_len(&self) -> usize {
        self.buf.len()
    }

    /// The buffer itself, for a `CoeffArray` to index in place.
    pub(crate) fn into_buf(self) -> AlignedBuf {
        self.buf
    }

    /// Set every interior value; halo stays zero.
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, usize, usize) -> Cplx) {
        for z in 0..self.dims.nz {
            for y in 0..self.dims.ny {
                for x in 0..self.dims.nx {
                    self.set(x as isize, y as isize, z as isize, f(x, y, z));
                }
            }
        }
    }

    /// Zero all values including halo.
    pub fn zero(&mut self) {
        self.buf.fill(0.0);
    }

    /// Iterate interior values in storage order.
    pub fn iter_interior(&self) -> impl Iterator<Item = ((usize, usize, usize), Cplx)> + '_ {
        let d = self.dims;
        (0..d.nz).flat_map(move |z| {
            (0..d.ny).flat_map(move |y| {
                (0..d.nx).map(move |x| ((x, y, z), self.get(x as isize, y as isize, z as isize)))
            })
        })
    }

    /// True when every halo element (any coordinate at -1 or n) is zero.
    /// The Dirichlet invariant every engine must preserve.
    pub fn halo_is_zero(&self) -> bool {
        let d = self.dims;
        let on_halo = |x: isize, n: usize| x == -1 || x == n as isize;
        for z in -1..=(d.nz as isize) {
            for y in -1..=(d.ny as isize) {
                for x in -1..=(d.nx as isize) {
                    if (on_halo(x, d.nx) || on_halo(y, d.ny) || on_halo(z, d.nz))
                        && self.get(x, y, z) != Cplx::ZERO
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Bitwise equality of the full buffers (the MWD-vs-naive oracle).
    pub fn bit_eq(&self, other: &Array3C) -> bool {
        self.dims == other.dims
            && self
                .as_slice()
                .iter()
                .zip(other.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aligned::{ALIGN, LANE_F64};

    #[test]
    fn zeros_has_zero_halo_and_interior() {
        let a = Array3C::zeros(GridDims::new(3, 4, 5));
        assert!(a.halo_is_zero());
        assert_eq!(a.get(2, 3, 4), Cplx::ZERO);
        assert_eq!(a.flat_len(), 2 * round_up_lane(5 * 6 * 7));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut a = Array3C::zeros(GridDims::new(4, 3, 2));
        a.set(1, 2, 0, Cplx::new(3.5, -1.25));
        assert_eq!(a.get(1, 2, 0), Cplx::new(3.5, -1.25));
        assert_eq!(a.get(1, 2, 1), Cplx::ZERO);
    }

    #[test]
    fn strides_relate_neighbors() {
        let a = Array3C::zeros(GridDims::new(4, 3, 2));
        assert_eq!(a.idx(1, 0, 0) - a.idx(0, 0, 0), 1);
        assert_eq!(a.idx(0, 1, 0) - a.idx(0, 0, 0), a.y_stride());
        assert_eq!(a.idx(0, 0, 1) - a.idx(0, 0, 0), a.z_stride());
    }

    #[test]
    fn planes_are_split_and_lane_aligned() {
        let a = Array3C::zeros(GridDims::new(3, 4, 5));
        let (px, py, pz) = a.padded_extents();
        assert_eq!(a.im_offset(), round_up_lane(px * py * pz));
        assert_eq!(a.im_offset() % LANE_F64, 0);
        // Both plane base addresses are cache-line aligned.
        let base = a.as_slice().as_ptr() as usize;
        assert_eq!(base % ALIGN, 0);
        assert_eq!(
            (base + a.im_offset() * std::mem::size_of::<f64>()) % ALIGN,
            0
        );
    }

    #[test]
    fn re_and_im_land_in_their_planes() {
        let mut a = Array3C::zeros(GridDims::new(2, 2, 2));
        a.set(1, 0, 1, Cplx::new(2.0, -7.0));
        let i = a.idx(1, 0, 1);
        assert_eq!(a.as_slice()[i], 2.0);
        assert_eq!(a.as_slice()[i + a.im_offset()], -7.0);
        // Nothing leaked into the inter-plane padding.
        let (px, py, pz) = a.padded_extents();
        for p in (px * py * pz)..a.im_offset() {
            assert_eq!(a.as_slice()[p], 0.0, "padding at {p} must stay zero");
        }
    }

    #[test]
    fn halo_is_addressable_and_zero() {
        let a = Array3C::zeros(GridDims::new(2, 2, 2));
        assert_eq!(a.get(-1, 0, 0), Cplx::ZERO);
        assert_eq!(a.get(2, 1, 1), Cplx::ZERO);
        assert_eq!(a.get(0, -1, 2), Cplx::ZERO);
    }

    #[test]
    fn fill_with_addresses_every_interior_cell_once() {
        let mut a = Array3C::zeros(GridDims::new(3, 2, 4));
        a.fill_with(|x, y, z| Cplx::new((x + 10 * y + 100 * z) as f64, 1.0));
        assert_eq!(a.get(2, 1, 3), Cplx::new(312.0, 1.0));
        assert!(a.halo_is_zero());
        let count = a.iter_interior().count();
        assert_eq!(count, 24);
        // Sum of re = sum over x,y,z of x + 10y + 100z.
        let sum: f64 = a.iter_interior().map(|(_, v)| v.re).sum();
        let expect: usize = (0..4usize)
            .flat_map(|z| {
                (0..2usize).flat_map(move |y| (0..3usize).map(move |x| x + 10 * y + 100 * z))
            })
            .sum();
        assert_eq!(sum, expect as f64);
    }

    #[test]
    fn bit_eq_detects_single_ulp() {
        let d = GridDims::new(2, 2, 2);
        let mut a = Array3C::zeros(d);
        let mut b = Array3C::zeros(d);
        a.set(0, 0, 0, Cplx::new(1.0, 0.0));
        b.set(0, 0, 0, Cplx::new(1.0, 0.0));
        assert!(a.bit_eq(&b));
        b.set(0, 0, 0, Cplx::new(1.0 + f64::EPSILON, 0.0));
        assert!(!a.bit_eq(&b));
    }

    #[test]
    fn bit_eq_distinguishes_signed_zero() {
        let d = GridDims::new(1, 1, 1);
        let mut a = Array3C::zeros(d);
        let b = Array3C::zeros(d);
        a.set(0, 0, 0, Cplx::new(-0.0, 0.0));
        assert!(!a.bit_eq(&b), "-0.0 must differ bitwise from +0.0");
    }

    #[test]
    fn zero_resets_after_writes() {
        let mut a = Array3C::zeros(GridDims::new(2, 2, 2));
        a.set(1, 1, 1, Cplx::ONE);
        a.zero();
        assert!(a.iter_interior().all(|(_, v)| v == Cplx::ZERO));
    }
}
