//! Slab-local state: cropping an (extended) slab out of the full grid
//! and the one row codec halo blocks and the job's final gather share.
//!
//! ## Why `k` steps per exchange are bit-identical
//!
//! One THIIM step updates a cell from its own previous value and from
//! neighbours at most one plane away in z (`H` reads `E` at `z - 1`,
//! `E` reads `H` at `z + 1`), so the value of a cell after `s` steps
//! depends only on initial values within `s` planes of it — its
//! dependence cone. A worker therefore keeps its slab *extended* by
//! `k` halo planes across each cut face ([`Slab::extended`]), fills
//! them with the neighbour's owned planes, and runs the declared engine
//! over the whole extended block for up to `k` steps. The engine treats
//! the extended edge as a Dirichlet wall, which is wrong, and the error
//! creeps inward one plane per step: after `s <= k` steps only planes
//! within `s` of an extended edge are stale. Owned planes start `k`
//! planes in, so the error never reaches one; every owned cell has seen
//! exactly the IEEE operations on exactly the inputs the global sweep
//! gives it (the engines are bit-identical to the naive sweep on any
//! grid, the extended block included). The halo planes — the shrinking
//! trapezoid at the cut — were computed twice, once by each side
//! (Wittmann/Hager/Wellein, arXiv 0912.4506); then both sides swap
//! their `k` owned boundary planes of all twelve field arrays and the
//! halo is exact again. A face on the global boundary is physical, is
//! not extended, and the array halo realizes it as in a local solve.
//!
//! Periodic x/y wraps are taken by the engine itself, inside halo
//! planes like anywhere else: a wrap never leaves its z plane, so a
//! stale plane stays confined to its own cone.

use std::ops::Range;

use em_field::{Array3C, Component, FieldSet, GridDims, State};

use crate::decomp::Slab;

/// Flat index of the first `re` value of every interior x-row of
/// `arr` in the planes `z`, in z-then-y order.
fn row_starts(arr: &Array3C, z: Range<usize>) -> impl Iterator<Item = usize> {
    let (first, ys, zs) = (arr.idx(0, 0, 0), arr.y_stride(), arr.z_stride());
    let ny = arr.dims().ny;
    z.flat_map(move |z| (0..ny).map(move |y| first + z * zs + y * ys))
}

/// The z planes of `range` of a full-grid state as a state of that many
/// planes: field rows are copied, coefficient arrays are cropped in
/// place — their row index sliced, their tables shared with `full`
/// ([`em_field::CoeffSet::crop_z`]). An extended slab crops its halo
/// planes with it, so they start exact. The array halos stay zero,
/// which preserves the global Dirichlet faces.
pub fn crop_state(full: &State, range: Slab) -> State {
    let d = full.dims();
    let planes = range.z0..range.z0 + range.nz;
    let mut fields = FieldSet::zeros(GridDims::new(d.nx, d.ny, range.nz));
    for comp in Component::ALL {
        let (src, dst) = (full.fields.comp(comp), fields.comp_mut(comp));
        let (from, to) = (
            row_starts(src, planes.clone()),
            row_starts(dst, 0..range.nz),
        );
        let (src_im, dst_im) = (src.im_offset(), dst.im_offset());
        let (src, dst) = (src.as_slice(), dst.as_mut_slice());
        for (s, t) in from.zip(to) {
            dst[t..t + d.nx].copy_from_slice(&src[s..s + d.nx]);
            dst[dst_im + t..dst_im + t + d.nx].copy_from_slice(&src[src_im + s..src_im + s + d.nx]);
        }
    }
    State {
        fields,
        coeffs: full.coeffs.crop_z(planes),
    }
}

// -------------------------------------------------------------- codec

/// Wire size of the four z-derivative components of one plane — a
/// third of a plane of all twelve ([`planes_len`]). Halo blocks no
/// longer come in this unit; it remains the size the benchmark probes
/// the frame codec with.
pub fn plane_len(nx: usize, ny: usize) -> usize {
    4 * nx * ny * 16
}

/// Wire size of `planes` z planes of all twelve field arrays.
pub fn planes_len(dims: GridDims, planes: usize) -> usize {
    3 * plane_len(dims.nx, dims.ny) * planes
}

/// An empty frame buffer that holds `planes` z planes of all twelve
/// field arrays without growing, every page of it already written once:
/// a job's one gather then neither allocates nor faults memory in.
pub fn gather_buffer(dims: GridDims, planes: usize) -> Vec<u8> {
    let mut buf = vec![1u8; planes_len(dims, planes) + crate::proto::FRAME_OVERHEAD];
    buf.clear();
    buf
}

/// Append the planes `z` of all twelve field arrays to `buf`:
/// component-major, then z, then y, each interior x-row as its `re`
/// values then its `im` values (f64 little-endian) — the arrays' own
/// split layout, so both directions move whole rows.
pub fn put_planes(buf: &mut Vec<u8>, fields: &FieldSet, z: Range<usize>) {
    let nx = fields.dims().nx;
    let mut at = buf.len();
    buf.resize(at + planes_len(fields.dims(), z.len()), 0);
    for comp in Component::ALL {
        let arr = fields.comp(comp);
        let (flat, im) = (arr.as_slice(), arr.im_offset());
        for base in row_starts(arr, z.clone()) {
            for part in [&flat[base..base + nx], &flat[im + base..im + base + nx]] {
                for (dst, v) in buf[at..at + 8 * nx].chunks_exact_mut(8).zip(part) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
                at += 8 * nx;
            }
        }
    }
}

/// Paste a [`put_planes`] body into the planes `z` of `fields`.
/// Length-checked; errors never panic.
pub fn paste_planes(fields: &mut FieldSet, z: Range<usize>, data: &[u8]) -> Result<(), String> {
    let d = fields.dims();
    if z.end > d.nz || data.len() != planes_len(d, z.len()) {
        return Err(format!(
            "field block has {} bytes, expected {} for planes {z:?} of {d}",
            data.len(),
            planes_len(d, z.len())
        ));
    }
    let mut words = data.chunks_exact(8);
    for comp in Component::ALL {
        let arr = fields.comp_mut(comp);
        let (starts, im) = (row_starts(arr, z.clone()), arr.im_offset());
        let flat = arr.as_mut_slice();
        for base in starts {
            for start in [base, im + base] {
                for (v, w) in flat[start..start + d.nx].iter_mut().zip(&mut words) {
                    *v = f64::from_le_bytes(w.try_into().expect("8 bytes"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(dims: GridDims, seed: u64) -> State {
        let mut s = State::zeros(dims);
        s.fields.fill_deterministic(seed);
        s.coeffs.fill_deterministic(seed ^ 0x5a5a);
        s
    }

    #[test]
    fn plane_blocks_roundtrip_between_z_ranges() {
        // nx = 3: rows are neither a lane multiple nor aligned.
        let dims = GridDims::new(3, 4, 5);
        let s = filled(dims, 7);
        let mut bytes = vec![0xab; 5];
        put_planes(&mut bytes, &s.fields, 2..4);
        assert_eq!(bytes.len(), 5 + planes_len(dims, 2));
        assert_eq!(planes_len(dims, 2), 2 * 12 * 3 * 4 * 16);
        let mut t = State::zeros(dims);
        paste_planes(&mut t.fields, 0..2, &bytes[5..]).unwrap();
        for comp in Component::ALL {
            let (got, want) = (t.fields.comp(comp), s.fields.comp(comp));
            for (x, y) in (0..3).flat_map(|x| (0..4).map(move |y| (x, y))) {
                assert_eq!(got.get(x, y, 0), want.get(x, y, 2));
                assert_eq!(got.get(x, y, 1), want.get(x, y, 3));
            }
            assert!(got.halo_is_zero(), "rows only: the array halo is untouched");
        }
        assert!(paste_planes(&mut t.fields, 0..2, &bytes[6..]).is_err());
        assert!(paste_planes(&mut t.fields, 4..6, &bytes[5..]).is_err());
    }

    #[test]
    fn slab_gather_reassembles_the_full_grid() {
        let dims = GridDims::new(3, 3, 10);
        let s = filled(dims, 19);
        let mut whole = FieldSet::zeros(dims);
        for slab in crate::decomp::split_z(10, 3).unwrap() {
            // A worker gathers the owned planes of its extended slab.
            let ext = slab.extended(2, 10);
            let cropped = crop_state(&s, ext);
            let lo = slab.z0 - ext.z0;
            let mut bytes = Vec::new();
            put_planes(&mut bytes, &cropped.fields, lo..lo + slab.nz);
            paste_planes(&mut whole, slab.z0..slab.z0 + slab.nz, &bytes).unwrap();
        }
        assert!(whole.bit_eq(&s.fields));
    }

    #[test]
    fn crop_preserves_coefficients_and_fields() {
        let dims = GridDims::new(3, 3, 6);
        let s = filled(dims, 23);
        let c = crop_state(&s, Slab { z0: 2, nz: 3 });
        assert_eq!(c.dims(), GridDims::new(3, 3, 3));
        assert_eq!(
            c.fields.comp(Component::Hyx).get(1, 2, 0),
            s.fields.comp(Component::Hyx).get(1, 2, 2)
        );
        assert_eq!(
            c.coeffs.t(Component::Exy).get(2, 0, 2),
            s.coeffs.t(Component::Exy).get(2, 0, 4)
        );
        assert_eq!(
            c.coeffs.src(em_field::SourceArray::SrcEx).get(0, 1, 1),
            s.coeffs.src(em_field::SourceArray::SrcEx).get(0, 1, 3)
        );
        // Halos are zero after a crop: the cut faces are walls, also
        // for the coefficients, whose tables the crop shares.
        assert!(c.fields.comp(Component::Hyx).halo_is_zero());
        let (ct, st) = (c.coeffs.t(Component::Exy), s.coeffs.t(Component::Exy));
        assert_eq!(ct.get(1, 1, -1), em_field::Cplx::ZERO);
        assert_eq!(ct.get(1, 1, 3), em_field::Cplx::ZERO);
        assert_eq!(ct.table_ptr(), st.table_ptr());
    }
}
