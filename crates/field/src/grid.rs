//! Grid dimensions and derived sizes.

/// Interior dimensions of the structured grid (without halo).
///
/// Axis convention matches the paper: `x` is the fast-moving (inner,
/// contiguous) dimension, `y` the middle dimension used for diamond tiling,
/// `z` the outer dimension used for the wavefront traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridDims {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl GridDims {
    pub const fn new(nx: usize, ny: usize, nz: usize) -> Self {
        GridDims { nx, ny, nz }
    }

    /// Cubic grid of side `n` — all paper experiments use cubic domains.
    pub const fn cubic(n: usize) -> Self {
        GridDims {
            nx: n,
            ny: n,
            nz: n,
        }
    }

    /// Number of interior grid cells.
    pub const fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Bytes of state per grid cell with every array dense: 40
    /// double-complex arrays (12 field components + 28 coefficients),
    /// Sec. III of the paper. The 28 are stored row-deduplicated
    /// (`crate::coeff`), so this is an upper bound, reached when no two
    /// coefficient rows are alike.
    pub const BYTES_PER_CELL: usize = 40 * 16;

    /// Resident bytes of a fully dense problem state (excluding halo).
    pub const fn state_bytes(&self) -> usize {
        self.cells() * Self::BYTES_PER_CELL
    }

    /// Bytes in one *logical* x-row of one array, halo excluded: the block
    /// unit used by the row-granularity cache simulator. With the split
    /// re/im layout a logical row is two plane rows of
    /// [`Self::plane_row_bytes`] each — the total moved per row is
    /// unchanged from the interleaved layout, so all code-balance numbers
    /// of the paper carry over.
    pub const fn row_bytes(&self) -> usize {
        2 * self.plane_row_bytes()
    }

    /// Bytes in one x-row of one re or im *plane* of one array: `nx`
    /// doubles. Two of these (at `im_offset()` distance) make up a logical
    /// row of [`Self::row_bytes`].
    pub const fn plane_row_bytes(&self) -> usize {
        self.nx * 8
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.nx == 0 || self.ny == 0 || self.nz == 0 {
            return Err(format!("grid dimensions must be positive, got {self:?}"));
        }
        Ok(())
    }
}

impl std::fmt::Display for GridDims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.nx, self.ny, self.nz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_storage_requirement() {
        // Sec. III: "16 * 40 bytes = 640 bytes per grid cell".
        assert_eq!(GridDims::BYTES_PER_CELL, 640);
    }

    #[test]
    fn cubic_and_cells() {
        let g = GridDims::cubic(64);
        assert_eq!(g.cells(), 64 * 64 * 64);
        assert_eq!(g, GridDims::new(64, 64, 64));
    }

    #[test]
    fn state_bytes_for_paper_grid() {
        // At 384^3 the state is ~36 GB, which is why paper-scale grids run
        // through the simulator substrate rather than natively.
        let g = GridDims::cubic(384);
        assert_eq!(g.state_bytes(), 384usize.pow(3) * 640);
    }

    #[test]
    fn row_bytes_is_two_plane_rows() {
        let g = GridDims::new(48, 4, 4);
        assert_eq!(g.plane_row_bytes(), 48 * 8);
        assert_eq!(g.row_bytes(), 48 * 16);
    }

    #[test]
    fn validate_rejects_zero() {
        assert!(GridDims::new(0, 4, 4).validate().is_err());
        assert!(GridDims::new(4, 4, 4).validate().is_ok());
    }

    #[test]
    fn display_formats() {
        assert_eq!(GridDims::new(1, 2, 3).to_string(), "1x2x3");
    }
}
