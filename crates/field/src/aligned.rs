//! Cache-line aligned `f64` buffers.
//!
//! The stencil arrays are the unit of all memory-traffic accounting in the
//! paper, so their base addresses are aligned to 64-byte cache lines.
//! What that guarantees: a buffer never shares its first or last line
//! with another allocation, both planes of an `Array3C` start on a line
//! boundary (its plane stride is lane-rounded, see below), and the cache
//! simulator's per-array line counts do not depend on where the
//! allocator put the array. What it does **not** guarantee is aligned
//! row access: an x-row starts at `x + 1` (after the halo cell) with
//! stride `nx + 2`, so row starts fall anywhere in a line, every 64-byte
//! vector access to a field row straddles two lines (the kernels use
//! unaligned loads throughout), and adjacent rows — hence adjacent
//! diamonds — share lines at their ends. Line-aligned rows were
//! prototyped and not taken (ROADMAP, "Fewer bytes per cell").
//!
//! The same 64-byte unit doubles as the SIMD *lane-width guarantee*: any
//! offset that is a multiple of [`LANE_F64`] doubles from the buffer base
//! is aligned for the widest vector registers in use (AVX-512, 8 x f64).
//! `Array3C` rounds its re/im plane stride up with [`round_up_lane`] so
//! both planes of every array inherit this guarantee, and the packed
//! coefficient tables (`crate::coeff`) round their row width with it, so
//! there every row *does* start on a line.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::slice;

/// Alignment for all field storage, one x86 cache line.
pub const ALIGN: usize = 64;

/// Doubles per cache line — also the widest SIMD lane count (AVX-512)
/// the row kernels dispatch to. Offsets that are multiples of this from
/// an [`AlignedBuf`] base are 64-byte aligned.
pub const LANE_F64: usize = ALIGN / std::mem::size_of::<f64>();

/// Round an element count up to the next multiple of [`LANE_F64`].
pub const fn round_up_lane(len: usize) -> usize {
    len.div_ceil(LANE_F64) * LANE_F64
}

/// A heap buffer of `f64` zero-initialized and aligned to [`ALIGN`] bytes.
///
/// Functionally a fixed-size `Box<[f64]>`; exists because the global
/// allocator only guarantees 16-byte alignment for `f64` slices.
pub struct AlignedBuf {
    ptr: NonNull<f64>,
    len: usize,
}

// SAFETY: AlignedBuf owns its allocation exclusively, like Box<[f64]>.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// Allocate `len` zeroed doubles. `len == 0` is allowed and does not
    /// allocate.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedBuf {
                ptr: NonNull::dangling(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<f64>()) else {
            handle_alloc_error(layout);
        };
        AlignedBuf { ptr, len }
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len * std::mem::size_of::<f64>(), ALIGN)
            .expect("buffer size overflows Layout")
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn as_ptr(&self) -> *const f64 {
        self.ptr.as_ptr()
    }

    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut f64 {
        self.ptr.as_ptr()
    }

    /// Raw mutable pointer without requiring `&mut self`.
    ///
    /// Used by the parallel executor, which partitions index ranges between
    /// threads and guarantees disjoint writes; see
    /// `mwd_core::executor::SharedState` for the safety argument.
    #[inline]
    pub fn as_ptr_shared(&self) -> *mut f64 {
        self.ptr.as_ptr()
    }

    pub fn fill(&mut self, v: f64) {
        self.as_mut_slice().fill(v);
    }

    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: ptr is valid for len elements for the lifetime of self.
        unsafe { slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: ptr is valid for len elements, and &mut self gives
        // exclusive access.
        unsafe { slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: allocated in zeroed() with the identical layout.
            unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) };
        }
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        let mut new = AlignedBuf::zeroed(self.len);
        new.as_mut_slice().copy_from_slice(self.as_slice());
        new
    }
}

impl Deref for AlignedBuf {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl DerefMut for AlignedBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedBuf(len={})", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_and_aligned() {
        let b = AlignedBuf::zeroed(1003);
        assert_eq!(b.len(), 1003);
        assert!(b.iter().all(|&x| x == 0.0));
        assert_eq!(b.as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn empty_buffer() {
        let b = AlignedBuf::zeroed(0);
        assert!(b.is_empty());
        assert_eq!(b.as_slice(), &[] as &[f64]);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut b = AlignedBuf::zeroed(16);
        for (i, x) in b.iter_mut().enumerate() {
            *x = i as f64;
        }
        assert_eq!(b[7], 7.0);
        assert_eq!(b.iter().sum::<f64>(), 120.0);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AlignedBuf::zeroed(8);
        a[3] = 42.0;
        let c = a.clone();
        a[3] = 0.0;
        assert_eq!(c[3], 42.0);
        assert_eq!(c.as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn fill_sets_all() {
        let mut b = AlignedBuf::zeroed(33);
        b.fill(2.5);
        assert!(b.iter().all(|&x| x == 2.5));
    }

    #[test]
    fn many_allocations_stay_aligned() {
        for len in [1usize, 7, 8, 9, 63, 64, 65, 4096] {
            let b = AlignedBuf::zeroed(len);
            assert_eq!(b.as_ptr() as usize % ALIGN, 0, "len={len}");
        }
    }

    #[test]
    fn lane_constants_are_consistent() {
        assert_eq!(LANE_F64, 8);
        assert_eq!(round_up_lane(0), 0);
        assert_eq!(round_up_lane(1), 8);
        assert_eq!(round_up_lane(8), 8);
        assert_eq!(round_up_lane(9), 16);
        // A lane-rounded offset from an aligned base stays aligned.
        let b = AlignedBuf::zeroed(round_up_lane(13) * 2);
        let second = unsafe { b.as_ptr().add(round_up_lane(13)) };
        assert_eq!(second as usize % ALIGN, 0);
    }
}
