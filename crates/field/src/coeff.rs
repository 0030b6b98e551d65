//! Coefficient arrays as tables of bitwise-distinct x-rows.
//!
//! A coefficient array is read exactly once per half-step and never
//! written, and on every solver-built scene it is almost pure
//! repetition (a layer stack has one distinct row per z plane at most).
//! So a [`CoeffArray`] stores each *bitwise-distinct* interior x-row
//! once, in a table, plus one `u32` offset per padded `(y, z)` row
//! saying where that row's values start. The kernels take a row's
//! values from `table + offset[row]`: the same f64 values in the same
//! order as a dense array, from far fewer cache lines.
//!
//! A dense array is the same structure with every row distinct: an
//! [`Array3C`] converts into a `CoeffArray` whose table is the array's
//! own buffer and whose offsets are the identity (`row * px + 1`), with
//! no copy. Hand-authored and `fill_deterministic` states take that
//! door; the solver takes [`CoeffRowBuilder`], which deduplicates rows
//! as they are pushed and never materialises the dense array.
//!
//! Halo rows (any of `y`, `z` at `-1` or `n`) point at an all-zero row;
//! the x halo is not stored at all — kernels read coefficients at
//! written cells only, and [`CoeffArray::get`] answers zero there.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::aligned::{round_up_lane, AlignedBuf};
use crate::array3::Array3C;
use crate::complex::Cplx;
use crate::grid::GridDims;

/// A coefficient table outgrew its `u32` row offsets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoeffError {
    /// The table would hold `doubles` f64 values; row offsets address
    /// at most `u32::MAX`.
    TableTooLarge { doubles: usize },
}

impl std::fmt::Display for CoeffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoeffError::TableTooLarge { doubles } => write!(
                f,
                "coefficient table of {doubles} doubles exceeds the u32 row-offset range"
            ),
        }
    }
}

impl std::error::Error for CoeffError {}

/// One of the 28 coefficient arrays; see the module docs.
#[derive(Clone, Debug)]
pub struct CoeffArray {
    dims: GridDims,
    /// Row storage, shared by clones and by every z crop.
    table: Arc<AlignedBuf>,
    /// For padded row `(z + 1) * (ny + 2) + (y + 1)`: the f64 index in
    /// `table` of the real part at `x = 0`.
    offsets: Arc<[u32]>,
    /// f64 distance from a value's real part to its imaginary part.
    im: usize,
}

impl CoeffArray {
    /// The one constructor: every offset must leave `nx` real and `nx`
    /// imaginary values inside the table, which is what lets the
    /// kernels read rows unchecked.
    fn new(dims: GridDims, table: Arc<AlignedBuf>, offsets: Arc<[u32]>, im: usize) -> Self {
        assert_eq!(offsets.len(), (dims.ny + 2) * (dims.nz + 2));
        let reach = im + dims.nx;
        assert!(
            offsets.iter().all(|&o| o as usize + reach <= table.len()),
            "coefficient row offset outside its table"
        );
        CoeffArray {
            dims,
            table,
            offsets,
            im,
        }
    }

    /// All-zero coefficients: one shared zero row.
    pub fn zeros(dims: GridDims) -> Self {
        let w = round_up_lane(dims.nx);
        let rows = (dims.ny + 2) * (dims.nz + 2);
        CoeffArray::new(
            dims,
            Arc::new(AlignedBuf::zeroed(2 * w)),
            std::iter::repeat_n(0, rows).collect(),
            w,
        )
    }

    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    #[inline]
    fn row(&self, y: isize, z: isize) -> usize {
        debug_assert!(
            y >= -1 && y <= self.dims.ny as isize,
            "y={y} out of halo range"
        );
        debug_assert!(
            z >= -1 && z <= self.dims.nz as isize,
            "z={z} out of halo range"
        );
        (z + 1) as usize * (self.dims.ny + 2) + (y + 1) as usize
    }

    /// Value at a cell; halo coordinates (`-1`, `n`) answer zero.
    #[inline]
    pub fn get(&self, x: isize, y: isize, z: isize) -> Cplx {
        debug_assert!(
            x >= -1 && x <= self.dims.nx as isize,
            "x={x} out of halo range"
        );
        let o = self.offsets[self.row(y, z)] as usize;
        if x < 0 || x as usize >= self.dims.nx {
            return Cplx::ZERO;
        }
        let i = o + x as usize;
        Cplx::new(self.table[i], self.table[i + self.im])
    }

    /// Iterate interior values in storage order (x fastest, then y, z).
    pub fn iter_interior(&self) -> impl Iterator<Item = ((usize, usize, usize), Cplx)> + '_ {
        let d = self.dims;
        (0..d.nz).flat_map(move |z| {
            (0..d.ny).flat_map(move |y| {
                (0..d.nx).map(move |x| ((x, y, z), self.get(x as isize, y as isize, z as isize)))
            })
        })
    }

    /// The z planes `z` as an array of their own: the offset index is
    /// sliced (with fresh zero halo planes around it), the table shared.
    pub fn crop_z(&self, z: Range<usize>) -> CoeffArray {
        assert!(
            z.start <= z.end && z.end <= self.dims.nz,
            "planes {z:?} of {}",
            self.dims
        );
        let py = self.dims.ny + 2;
        // Padded row 0 is a halo row of every array: a zero row.
        let halo = std::iter::repeat_n(self.offsets[0], py);
        let offsets = halo
            .clone()
            .chain(
                self.offsets[(z.start + 1) * py..(z.end + 1) * py]
                    .iter()
                    .copied(),
            )
            .chain(halo)
            .collect();
        CoeffArray::new(
            GridDims::new(self.dims.nx, self.dims.ny, z.len()),
            self.table.clone(),
            offsets,
            self.im,
        )
    }

    /// Rows the index has: one per padded `(y, z)` row.
    pub fn rows_total(&self) -> usize {
        self.offsets.len()
    }

    /// Distinct table rows the index refers to.
    pub fn rows_distinct(&self) -> usize {
        let mut seen = self.offsets.to_vec();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Bytes held: the table plus the offset index.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.table.as_slice()) + std::mem::size_of_val(&*self.offsets)
    }

    /// Table base for the raw kernels (read-only for the array's life).
    #[inline]
    pub fn table_ptr(&self) -> *const f64 {
        self.table.as_ptr()
    }

    /// The row-offset index, one entry per padded `(y, z)` row. Every
    /// entry `o` satisfies `o + im_distance() + nx <= table length`.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// f64 distance from a value's real part to its imaginary part.
    #[inline]
    pub fn im_distance(&self) -> usize {
        self.im
    }
}

/// A dense array is a table with every row distinct: its own buffer
/// under identity offsets, no copy. The array's halo must be zero
/// (it is unless written through `set`), since halo rows double as the
/// shared zero row of later crops.
impl TryFrom<Array3C> for CoeffArray {
    type Error = CoeffError;

    fn try_from(a: Array3C) -> Result<Self, CoeffError> {
        debug_assert!(a.halo_is_zero(), "coefficient arrays keep a zero halo");
        let (dims, px, im) = (a.dims(), a.y_stride(), a.im_offset());
        checked_offset(0, a.flat_len())?;
        let rows = (dims.ny + 2) * (dims.nz + 2);
        let offsets = (0..rows).map(|r| (r * px + 1) as u32).collect();
        Ok(CoeffArray::new(dims, Arc::new(a.into_buf()), offsets, im))
    }
}

/// Builds a [`CoeffArray`] from its interior x-rows, pushed in storage
/// order (y fastest, then z), storing each bitwise-distinct row once.
pub struct CoeffRowBuilder {
    dims: GridDims,
    /// Lane-rounded row width: a table row is `w` real then `w`
    /// imaginary values, so both parts start cache-line aligned.
    w: usize,
    table: Vec<f64>,
    offsets: Vec<u32>,
    /// Row-content hash -> offset of the first row stored under it.
    seen: HashMap<u64, u32>,
    /// Offset of the row pushed last (the zero row before any).
    last: u32,
    pushed: usize,
}

impl CoeffRowBuilder {
    pub fn new(dims: GridDims) -> Self {
        let w = round_up_lane(dims.nx);
        let zero = vec![0.0; dims.nx];
        CoeffRowBuilder {
            dims,
            w,
            // Row 0 is the zero row every halo row points at.
            table: vec![0.0; 2 * w],
            offsets: vec![0; (dims.ny + 2) * (dims.nz + 2)],
            seen: HashMap::from([(row_hash(&zero, &zero), 0)]),
            last: 0,
            pushed: 0,
        }
    }

    /// Append the next interior row: its real parts and its imaginary
    /// parts, `nx` of each.
    pub fn push_row(&mut self, re: &[f64], im: &[f64]) -> Result<(), CoeffError> {
        let GridDims { nx, ny, nz } = self.dims;
        assert!(re.len() == nx && im.len() == nx, "a row has {nx} cells");
        assert!(self.pushed < ny * nz, "more rows than the grid has");
        let w = self.w;
        let stored_at = |table: &[f64], o: u32| {
            let o = o as usize;
            bits_eq(&table[o..o + nx], re) && bits_eq(&table[o + w..o + w + nx], im)
        };
        // A scene repeats the row it pushed last far more often than
        // any other: compare with that one before hashing.
        let offset = if stored_at(&self.table, self.last) {
            self.last
        } else {
            let h = row_hash(re, im);
            let known = self.seen.get(&h).copied();
            match known.filter(|&o| stored_at(&self.table, o)) {
                Some(o) => o,
                None => {
                    let o = checked_offset(self.table.len(), 2 * w)?;
                    for part in [re, im] {
                        self.table.extend_from_slice(part);
                        self.table.resize(self.table.len() + w - nx, 0.0);
                    }
                    // A colliding hash keeps its first row; the newcomer
                    // is stored unindexed, which costs sharing, never
                    // bits.
                    self.seen.entry(h).or_insert(o);
                    o
                }
            }
        };
        self.last = offset;
        let (y, z) = (self.pushed % ny, self.pushed / ny);
        self.offsets[(z + 1) * (ny + 2) + y + 1] = offset;
        self.pushed += 1;
        Ok(())
    }

    /// The finished array; every interior row must have been pushed.
    pub fn finish(self) -> CoeffArray {
        assert_eq!(
            self.pushed,
            self.dims.ny * self.dims.nz,
            "every interior row is pushed before finish"
        );
        let mut table = AlignedBuf::zeroed(self.table.len());
        table.copy_from_slice(&self.table);
        CoeffArray::new(self.dims, Arc::new(table), self.offsets.into(), self.w)
    }
}

/// The offset of `len` doubles stored at f64 index `at`, if a `u32`
/// addresses all of them.
fn checked_offset(at: usize, len: usize) -> Result<u32, CoeffError> {
    let doubles = at.saturating_add(len);
    match u32::try_from(doubles) {
        Ok(_) => Ok(at as u32),
        Err(_) => Err(CoeffError::TableTooLarge { doubles }),
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Multiply-xorshift fold over the raw words of a row. The shift is
/// what carries a word's top bit (the sign: `-0.0` rows are common)
/// into the rest of the state; a bare multiply fold lets two sign bits
/// cancel.
fn row_hash(re: &[f64], im: &[f64]) -> u64 {
    re.iter().chain(im).fold(0xcbf2_9ce4_8422_2325, |h, v| {
        let h = (h ^ v.to_bits()).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 29)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn layered_rows_share_and_random_rows_do_not() {
        let dims = GridDims::new(5, 4, 6);
        // z-layered: one value per plane, two planes alike.
        let mut b = CoeffRowBuilder::new(dims);
        for z in 0..dims.nz {
            let v = [(z % 5) as f64 + 1.0; 5];
            for _ in 0..dims.ny {
                b.push_row(&v, &[0.5; 5]).unwrap();
            }
        }
        let layered = b.finish();
        assert!(layered.rows_distinct() <= dims.nz + 1);
        assert_eq!(layered.rows_distinct(), 5 + 1);
        assert_eq!(layered.rows_total(), 6 * 8);
        assert_eq!(layered.get(3, 2, 5), Cplx::new(1.0, 0.5));
        assert_eq!(layered.get(3, 2, 0), layered.get(0, 0, 5));

        // Random: every interior row plus the one shared zero halo row.
        let mut b = CoeffRowBuilder::new(dims);
        let mut s = 9u64;
        let mut rows = Vec::new();
        for _ in 0..dims.ny * dims.nz {
            let re: Vec<f64> = (0..5).map(|_| lcg(&mut s)).collect();
            let im: Vec<f64> = (0..5).map(|_| lcg(&mut s)).collect();
            b.push_row(&re, &im).unwrap();
            rows.push((re, im));
        }
        let random = b.finish();
        assert_eq!(random.rows_distinct(), dims.ny * dims.nz + 1);
        for ((x, y, z), v) in random.iter_interior() {
            let (re, im) = &rows[z * dims.ny + y];
            assert_eq!(v, Cplx::new(re[x], im[x]));
        }
        // Halo cells answer zero in every direction.
        for (x, y, z) in [
            (-1, 0, 0),
            (5, 3, 5),
            (0, -1, 0),
            (0, 4, 2),
            (2, 2, -1),
            (2, 2, 6),
        ] {
            assert_eq!(random.get(x, y, z), Cplx::ZERO);
        }
    }

    #[test]
    fn rows_are_distinct_by_bits_not_by_value() {
        let dims = GridDims::new(2, 2, 2);
        let mut b = CoeffRowBuilder::new(dims);
        b.push_row(&[0.0, 0.0], &[0.0, 0.0]).unwrap();
        b.push_row(&[-0.0, 0.0], &[0.0, 0.0]).unwrap();
        // An even number of sign bits: distinct from the zero row, and
        // found again the second time.
        b.push_row(&[0.0, 0.0], &[-0.0, -0.0]).unwrap();
        b.push_row(&[0.0, 0.0], &[-0.0, -0.0]).unwrap();
        let a = b.finish();
        // +0 folds into the zero row, -0 does not.
        assert_eq!(a.rows_distinct(), 3);
        assert!(a.get(0, 1, 0).re.is_sign_negative());
        assert!(a.get(0, 0, 0).re.is_sign_positive());
        assert!(a.get(1, 1, 1).im.is_sign_negative());
    }

    #[test]
    fn dense_conversion_is_the_identity_index_over_the_same_buffer() {
        let dims = GridDims::new(3, 2, 4);
        let mut dense = Array3C::zeros(dims);
        dense.fill_with(|x, y, z| Cplx::new((x + 10 * y + 100 * z) as f64, -1.0));
        let base = dense.as_slice().as_ptr();
        let want = dense.clone();
        let a = CoeffArray::try_from(dense).unwrap();
        assert_eq!(a.table_ptr(), base, "no copy");
        assert_eq!(a.rows_distinct(), a.rows_total());
        assert_eq!(a.rows_total(), 4 * 6);
        assert_eq!(a.im_distance(), want.im_offset());
        for ((x, y, z), v) in want.iter_interior() {
            assert_eq!(a.get(x as isize, y as isize, z as isize), v);
            let row = (z + 1) * 4 + y + 1;
            assert_eq!(
                a.offsets()[row] as usize,
                want.idx(0, y as isize, z as isize)
            );
        }
    }

    #[test]
    fn crop_slices_the_index_and_shares_the_table() {
        let dims = GridDims::new(3, 2, 6);
        let mut b = CoeffRowBuilder::new(dims);
        for k in 0..dims.ny * dims.nz {
            b.push_row(&[k as f64; 3], &[1.0; 3]).unwrap();
        }
        let full = b.finish();
        let crop = full.crop_z(2..5);
        assert_eq!(crop.dims(), GridDims::new(3, 2, 3));
        assert_eq!(crop.table_ptr(), full.table_ptr());
        for ((x, y, z), v) in crop.iter_interior() {
            assert_eq!(v, full.get(x as isize, y as isize, z as isize + 2));
        }
        // The cut faces are Dirichlet walls: zero rows, not neighbours.
        assert_eq!(crop.get(1, 1, -1), Cplx::ZERO);
        assert_eq!(crop.get(1, 1, 3), Cplx::ZERO);
        assert_eq!(crop.rows_distinct(), 3 * 2 + 1);
        // A dense array crops the same way.
        let mut dense = Array3C::zeros(dims);
        dense.fill_with(|x, y, z| Cplx::new(x as f64, (y + 2 * z) as f64));
        let want = dense.clone();
        let crop = CoeffArray::try_from(dense).unwrap().crop_z(4..6);
        for ((x, y, z), v) in crop.iter_interior() {
            assert_eq!(v, want.get(x as isize, y as isize, z as isize + 4));
        }
        assert_eq!(crop.get(0, 0, 2), Cplx::ZERO);
    }

    #[test]
    fn zeros_is_one_row() {
        let z = CoeffArray::zeros(GridDims::new(7, 3, 3));
        assert_eq!(z.rows_distinct(), 1);
        assert_eq!(z.bytes(), 2 * 8 * 8 + 25 * 4);
        assert!(z.iter_interior().all(|(_, v)| v == Cplx::ZERO));
    }

    #[test]
    fn a_table_past_the_offset_range_is_a_typed_error() {
        // Such a table cannot be allocated in a test; the check every
        // constructor applies is refused here, not wrapped.
        let last = u32::MAX as usize - 16;
        assert_eq!(checked_offset(last, 16), Ok(last as u32));
        let err = checked_offset(last + 1, 16).unwrap_err();
        assert_eq!(
            err,
            CoeffError::TableTooLarge {
                doubles: u32::MAX as usize + 1
            }
        );
        assert!(err.to_string().contains("u32"));
        assert!(checked_offset(usize::MAX, 16).is_err());
    }
}
