//! Raw-pointer view of a problem [`State`] for the hot kernels.

use em_field::{CoeffArray, Component, GridDims, SourceArray, State};

/// Raw view of one coefficient array (`em_field::CoeffArray`): the
/// values of padded row `r` start at `table + rows[r]`, real parts
/// first, imaginary parts `im` doubles further on.
#[derive(Clone, Copy)]
pub struct CoeffRows {
    /// Row table; a span view has it advanced by the span's first `x`.
    pub table: *const f64,
    /// Row offsets; a span view has them advanced to the span's first
    /// padded row.
    pub rows: *const u32,
    /// f64 distance from a value's real part to its imaginary part.
    pub im: usize,
}

impl CoeffRows {
    fn of(a: &CoeffArray) -> Self {
        CoeffRows {
            table: a.table_ptr(),
            rows: a.offsets().as_ptr(),
            im: a.im_distance(),
        }
    }

    /// The view every `HAS_SRC = false` kernel is handed and never reads.
    pub(crate) const NONE: CoeffRows = CoeffRows {
        table: std::ptr::null(),
        rows: std::ptr::null(),
        im: 0,
    };

    /// The same array seen from cell `x0` of padded row `row0`.
    ///
    /// # Safety
    /// `x0 <= nx` and `row0` at most the array's padded row count.
    #[inline]
    pub(crate) unsafe fn at(self, x0: usize, row0: usize) -> Self {
        CoeffRows {
            table: self.table.add(x0),
            rows: self.rows.add(row0),
            im: self.im,
        }
    }

    /// Pointer to the real parts of row `r` of this view.
    ///
    /// # Safety
    /// `r` within the rows this view was advanced over.
    #[inline(always)]
    pub(crate) unsafe fn row(&self, r: usize) -> *const f64 {
        self.table.add(*self.rows.add(r) as usize)
    }
}

/// Raw-pointer snapshot of all 40 arrays of a [`State`]: the twelve
/// field arrays with shared strides (identical padded layout) and one
/// [`CoeffRows`] triple per coefficient array.
///
/// # Safety contract for users
///
/// A `RawGrid` borrows the `State` it was created from; the pointers stay
/// valid for the lifetime `'a`. Any *use* of the pointers must uphold:
///
/// 1. no two threads write to the same (array, cell) concurrently, and
/// 2. no thread reads an (array, cell) while another writes it.
///
/// The THIIM update structure makes this tractable: an update of component
/// `C` writes only array `C` and reads only arrays of the opposite field
/// (plus `C` itself at the written cell). Engines guarantee (1)/(2) by
/// partitioning cells (spatial baseline: disjoint blocks per phase) or by
/// the diamond/wavefront dependency structure (MWD; see `mwd-core`).
#[derive(Clone, Copy)]
pub struct RawGrid<'a> {
    fields: [*mut f64; 12],
    t: [CoeffRows; 12],
    c: [CoeffRows; 12],
    src: [CoeffRows; 4],
    dims: GridDims,
    /// f64 distance between y rows (within one re/im plane).
    pub y_stride: usize,
    /// f64 distance between z planes (within one re/im plane).
    pub z_stride: usize,
    /// f64 distance from a value's real part to its imaginary part
    /// (identical for every array: same dims, same plane padding).
    pub im_off: usize,
    /// Instruction set the row kernels dispatch to, selected once at
    /// construction via [`crate::simd::active_isa`].
    pub isa: crate::simd::Isa,
    _marker: std::marker::PhantomData<&'a State>,
}

// SAFETY: the pointers target heap buffers that outlive 'a; sending the
// view across threads is exactly its purpose. Races are excluded by the
// schedule contracts documented above.
unsafe impl Send for RawGrid<'_> {}
unsafe impl Sync for RawGrid<'_> {}

impl<'a> RawGrid<'a> {
    /// Capture a raw view. Takes `&State` (not `&mut`) so several worker
    /// threads can hold copies; mutation discipline is the caller's
    /// responsibility per the struct-level contract.
    pub fn new(state: &'a State) -> Self {
        let dims = state.dims();
        let probe = state.fields.comp(Component::Exy);
        let mut fields = [std::ptr::null_mut(); 12];
        let mut t = [CoeffRows::NONE; 12];
        let mut c = [CoeffRows::NONE; 12];
        for comp in Component::ALL {
            fields[comp.index()] = state.fields.comp(comp).as_ptr_shared();
            t[comp.index()] = CoeffRows::of(state.coeffs.t(comp));
            c[comp.index()] = CoeffRows::of(state.coeffs.c(comp));
        }
        let mut src = [CoeffRows::NONE; 4];
        for s in SourceArray::ALL {
            src[s.index()] = CoeffRows::of(state.coeffs.src(s));
        }
        RawGrid {
            fields,
            t,
            c,
            src,
            dims,
            y_stride: probe.y_stride(),
            z_stride: probe.z_stride(),
            im_off: probe.im_offset(),
            isa: crate::simd::active_isa(),
            _marker: std::marker::PhantomData,
        }
    }

    /// The same view with a forced instruction set — used by the parity
    /// tests and the scalar-vs-SIMD microbenchmarks.
    pub fn with_isa(mut self, isa: crate::simd::Isa) -> Self {
        self.isa = isa;
        self
    }

    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    #[inline]
    pub fn field_ptr(&self, comp: Component) -> *mut f64 {
        self.fields[comp.index()]
    }

    #[inline]
    pub fn t_rows(&self, comp: Component) -> CoeffRows {
        self.t[comp.index()]
    }

    #[inline]
    pub fn c_rows(&self, comp: Component) -> CoeffRows {
        self.c[comp.index()]
    }

    #[inline]
    pub fn src_rows(&self, s: SourceArray) -> CoeffRows {
        self.src[s.index()]
    }

    /// Padded `(y, z)` rows per z plane: the distance, in coefficient
    /// row-index entries, between rows one plane apart.
    #[inline]
    pub fn rows_per_plane(&self) -> usize {
        self.dims.ny + 2
    }

    /// Coefficient row-index entry of interior row `(y, z)`.
    #[inline]
    pub fn row(&self, y: usize, z: usize) -> usize {
        debug_assert!(y < self.dims.ny && z < self.dims.nz);
        (z + 1) * self.rows_per_plane() + (y + 1)
    }

    /// Flat f64 index of the real part of interior cell `(x, y, z)`
    /// (identical for every array); the imaginary part lives at
    /// `idx + self.im_off`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dims.nx && y < self.dims.ny && z < self.dims.nz);
        (z + 1) * self.z_stride + (y + 1) * self.y_stride + (x + 1)
    }

    /// Signed f64 offset of a unit step along `axis` (within one plane).
    #[inline]
    pub fn axis_stride(&self, axis: em_field::Axis) -> usize {
        match axis {
            em_field::Axis::X => 1,
            em_field::Axis::Y => self.y_stride,
            em_field::Axis::Z => self.z_stride,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_field::Axis;

    #[test]
    fn idx_matches_array3_layout() {
        let state = State::zeros(GridDims::new(5, 4, 3));
        let g = RawGrid::new(&state);
        let arr = state.fields.comp(Component::Hzy);
        for (x, y, z) in [(0, 0, 0), (4, 3, 2), (2, 1, 1)] {
            assert_eq!(g.idx(x, y, z), arr.idx(x as isize, y as isize, z as isize));
        }
    }

    #[test]
    fn strides_match_axes() {
        let state = State::zeros(GridDims::new(5, 4, 3));
        let g = RawGrid::new(&state);
        assert_eq!(g.axis_stride(Axis::X), 1);
        assert_eq!(g.axis_stride(Axis::Y), g.idx(0, 1, 0) - g.idx(0, 0, 0));
        assert_eq!(g.axis_stride(Axis::Z), g.idx(0, 0, 1) - g.idx(0, 0, 0));
    }

    #[test]
    fn im_offset_is_shared_by_all_arrays() {
        // By the twelve field arrays, that is; each coefficient array
        // carries its own re -> im distance in its `CoeffRows`.
        let state = State::zeros(GridDims::new(5, 4, 3));
        let g = RawGrid::new(&state);
        for comp in Component::ALL {
            assert_eq!(g.im_off, state.fields.comp(comp).im_offset());
            assert_eq!(g.t_rows(comp).im, state.coeffs.t(comp).im_distance());
        }
    }

    #[test]
    fn coefficient_rows_resolve_to_the_arrays_values() {
        let mut state = State::zeros(GridDims::new(5, 4, 3));
        state.coeffs.fill_deterministic(3);
        let g = RawGrid::new(&state);
        let arr = state.coeffs.c(Component::Hzy);
        let view = g.c_rows(Component::Hzy);
        for (x, y, z) in [(0, 0, 0), (4, 3, 2), (2, 1, 1)] {
            // SAFETY: in-grid coordinates of the borrowed state.
            let (re, im) = unsafe {
                let p = view.row(g.row(y, z)).add(x);
                (*p, *p.add(view.im))
            };
            let want = arr.get(x as isize, y as isize, z as isize);
            assert_eq!((re, im), (want.re, want.im));
        }
    }

    #[test]
    fn pointers_are_distinct_per_array() {
        let mut state = State::zeros(GridDims::cubic(2));
        state.coeffs.fill_deterministic(1);
        let g = RawGrid::new(&state);
        let mut seen = std::collections::HashSet::new();
        for comp in Component::ALL {
            assert!(
                seen.insert(g.field_ptr(comp) as usize),
                "duplicate field ptr"
            );
            assert!(seen.insert(g.t_rows(comp).table as usize), "duplicate t");
            assert!(seen.insert(g.c_rows(comp).table as usize), "duplicate c");
        }
        for s in SourceArray::ALL {
            assert!(seen.insert(g.src_rows(s).table as usize), "duplicate src");
        }
        assert_eq!(seen.len(), 40);
    }
}
