//! Slab-local state: cropping, halo-plane and field-slab codecs, and
//! the phase-split stepper each worker runs.
//!
//! ## Why phase-split stepping is bit-identical
//!
//! Within one THIIM phase every component update reads only arrays of
//! the *opposite* field kind (frozen for the whole phase) plus its own
//! cell, so any partition of a phase's cell updates — across threads or
//! across processes — produces the same f64 bits as the sequential
//! sweep, provided each cell sees the correct neighbor values. A slab
//! therefore only needs the single boundary plane of the neighboring
//! slab (stencil radius 1 along z) at the right moment:
//!
//! * the **H phase** reads E at `z-1` — worker `i > 0` needs the top E
//!   plane of worker `i-1` *before* updating its own `z = 0` row;
//! * the **E phase** reads H at `z+1` — worker `i < N-1` needs the
//!   bottom H plane of worker `i+1` (as updated *this* step) before
//!   updating its own top row.
//!
//! Overlap falls out of the same split: post the boundary-plane send,
//! update the interior rows, then wait for the halo and finish the one
//! boundary row (arXiv 0912.4506's comm/compute scheme at period — here
//! step — granularity).
//!
//! Only four E and four H arrays cross a z cut: the z-derivative
//! components `Hxy`/`Hyx` read the Ey/Ex split pairs, `Exy`/`Eyx` read
//! the Hy/Hx split pairs. The z-components (`Ezx`…`Hzy`) differentiate
//! along x or y only and never look across the cut, and no kernel reads
//! the x/y halo *of* a z halo plane — which is why the slab-local
//! periodic x/y exchanges compose with the remote z exchange.

use em_field::{Component, FieldKind, FieldSet, State};
use em_kernels::boundary::{exchange_x_halo, exchange_y_halo, Boundary};
use em_kernels::update::update_component_rows;
use em_kernels::RawGrid;
use em_scenarios::EngineDecl;

use crate::decomp::Slab;

/// The E split arrays a z+ neighbor's H phase reads across the cut.
pub const E_HALO: [Component; 4] = [
    Component::Exy,
    Component::Exz,
    Component::Eyx,
    Component::Eyz,
];

/// The H split arrays a z- neighbor's E phase reads across the cut.
pub const H_HALO: [Component; 4] = [
    Component::Hxy,
    Component::Hxz,
    Component::Hyx,
    Component::Hyz,
];

/// The horizontal boundary the declared engine implies for the slab
/// stepper (z is always Dirichlet globally and halo-exchange at slab
/// cuts). `auto` has no structure until tuned, so dist solves require a
/// concrete engine.
pub fn boundary_for(decl: &EngineDecl) -> Result<Boundary, String> {
    match decl {
        EngineDecl::Naive | EngineDecl::Spatial { .. } | EngineDecl::Mwd { .. } => {
            Ok(Boundary::Dirichlet)
        }
        EngineDecl::NaivePeriodicXY => Ok(Boundary::PeriodicXY),
        EngineDecl::MwdPeriodicX { .. } => Ok(Boundary::PeriodicX),
        EngineDecl::Auto { .. } => Err(
            "distributed solves need a concrete engine; resolve `auto` first (mwd tune)"
                .to_string(),
        ),
    }
}

/// Copy this slab's share of a full-grid state (fields, coefficient
/// and source arrays) into a slab-sized state. Halos stay zero, which
/// preserves the global Dirichlet faces; cut faces are filled by the
/// per-step halo exchange.
pub fn crop_state(full: &State, slab: Slab) -> State {
    let d = full.dims();
    let mut out = State::zeros(em_field::GridDims::new(d.nx, d.ny, slab.nz));
    let copy = |dst: &mut em_field::Array3C, src: &em_field::Array3C| {
        for z in 0..slab.nz {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    dst.set(
                        x as isize,
                        y as isize,
                        z as isize,
                        src.get(x as isize, y as isize, (slab.z0 + z) as isize),
                    );
                }
            }
        }
    };
    for comp in Component::ALL {
        copy(out.fields.comp_mut(comp), full.fields.comp(comp));
        copy(out.coeffs.t_mut(comp), full.coeffs.t(comp));
        copy(out.coeffs.c_mut(comp), full.coeffs.c(comp));
    }
    for arr in em_field::SourceArray::ALL {
        copy(out.coeffs.src_mut(arr), full.coeffs.src(arr));
    }
    out
}

// ------------------------------------------------------------- codecs

/// Wire size of one halo plane (4 components, interior cells, re+im).
pub fn plane_len(nx: usize, ny: usize) -> usize {
    4 * nx * ny * 16
}

/// Serialize the interior `(x, y)` cells of plane `z` of each listed
/// component, row-major, `re` then `im` per cell, f64 little-endian.
pub fn extract_plane(fields: &FieldSet, comps: &[Component], z: isize) -> Vec<u8> {
    let d = fields.dims();
    let mut out = Vec::with_capacity(comps.len() * d.nx * d.ny * 16);
    for &comp in comps {
        let arr = fields.comp(comp);
        for y in 0..d.ny as isize {
            for x in 0..d.nx as isize {
                let v = arr.get(x, y, z);
                out.extend_from_slice(&v.re.to_le_bytes());
                out.extend_from_slice(&v.im.to_le_bytes());
            }
        }
    }
    out
}

/// Paste a received halo plane into plane `z` (typically `-1` or
/// `nz`). Length-checked; errors never panic.
pub fn inject_plane(
    fields: &mut FieldSet,
    comps: &[Component],
    z: isize,
    data: &[u8],
) -> Result<(), String> {
    let d = fields.dims();
    if data.len() != comps.len() * d.nx * d.ny * 16 {
        return Err(format!(
            "halo plane has {} bytes, expected {} for {}x{}",
            data.len(),
            comps.len() * d.nx * d.ny * 16,
            d.nx,
            d.ny
        ));
    }
    let mut at = 0;
    for &comp in comps {
        let arr = fields.comp_mut(comp);
        for y in 0..d.ny as isize {
            for x in 0..d.nx as isize {
                let re = f64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
                let im = f64::from_le_bytes(data[at + 8..at + 16].try_into().expect("8 bytes"));
                at += 16;
                arr.set(x, y, z, em_field::Cplx::new(re, im));
            }
        }
    }
    Ok(())
}

/// Serialize every interior cell of all twelve field arrays (the
/// per-period gather payload).
pub fn encode_fields(fields: &FieldSet) -> Vec<u8> {
    let d = fields.dims();
    let mut out = Vec::with_capacity(12 * d.nx * d.ny * d.nz * 16);
    for comp in Component::ALL {
        let arr = fields.comp(comp);
        for z in 0..d.nz as isize {
            for y in 0..d.ny as isize {
                for x in 0..d.nx as isize {
                    let v = arr.get(x, y, z);
                    out.extend_from_slice(&v.re.to_le_bytes());
                    out.extend_from_slice(&v.im.to_le_bytes());
                }
            }
        }
    }
    out
}

/// Paste a worker's gathered slab fields into the coordinator's
/// full-grid field set at `slab`.
pub fn paste_fields(global: &mut FieldSet, slab: Slab, data: &[u8]) -> Result<(), String> {
    let d = global.dims();
    if data.len() != 12 * d.nx * d.ny * slab.nz * 16 {
        return Err(format!(
            "slab payload has {} bytes, expected {} for {}x{}x{}",
            data.len(),
            12 * d.nx * d.ny * slab.nz * 16,
            d.nx,
            d.ny,
            slab.nz
        ));
    }
    let mut at = 0;
    for comp in Component::ALL {
        let arr = global.comp_mut(comp);
        for z in 0..slab.nz as isize {
            for y in 0..d.ny as isize {
                for x in 0..d.nx as isize {
                    let re = f64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
                    let im = f64::from_le_bytes(data[at + 8..at + 16].try_into().expect("8 bytes"));
                    at += 16;
                    arr.set(x, y, z + slab.z0 as isize, em_field::Cplx::new(re, im));
                }
            }
        }
    }
    Ok(())
}

// ----------------------------------------------------------- stepping

/// Refresh the slab-local periodic halos for the phase about to read
/// `kind`. Purely local: no kernel reads the x/y halo of a z halo
/// plane, so the wrap copies never need remote data.
pub fn local_exchange(state: &mut State, boundary: Boundary, kind: FieldKind) {
    match boundary {
        Boundary::Dirichlet => {}
        Boundary::PeriodicX => exchange_x_halo(state, kind),
        Boundary::PeriodicXY => {
            exchange_x_halo(state, kind);
            exchange_y_halo(state, kind);
        }
    }
}

/// Update all six components of `kind` over the z rows `z_lo..z_hi`,
/// splitting rows round-robin over `threads` OS threads. Any partition
/// of a phase is bit-identical (see module docs), so the thread count
/// affects wall time only.
pub fn phase_rows(state: &mut State, kind: FieldKind, z_lo: usize, z_hi: usize, threads: usize) {
    if z_hi <= z_lo {
        return;
    }
    let dims = state.dims();
    let comps = Component::of(kind);
    let g = RawGrid::new(state);
    let t = threads.clamp(1, z_hi - z_lo);
    if t == 1 {
        for comp in comps {
            // SAFETY: single-threaded; each component nest writes only
            // its own array and reads frozen opposite-kind arrays (same
            // argument as `step_naive`).
            unsafe { update_component_rows(&g, comp, z_lo..z_hi, 0..dims.ny, 0..dims.nx) };
        }
        return;
    }
    std::thread::scope(|s| {
        for w in 0..t {
            s.spawn(move || {
                for comp in comps {
                    let mut z = z_lo + w;
                    while z < z_hi {
                        // SAFETY: threads own disjoint z rows of each
                        // component array; stencil reads target frozen
                        // opposite-kind arrays and the written cell
                        // itself, so no data race (RawGrid contract).
                        unsafe {
                            update_component_rows(&g, comp, z..z + 1, 0..dims.ny, 0..dims.nx)
                        };
                        z += t;
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_field::{Cplx, GridDims};
    use em_kernels::boundary::step_naive_with_boundary;

    fn filled(dims: GridDims, seed: u64) -> State {
        let mut s = State::zeros(dims);
        s.fields.fill_deterministic(seed);
        s.coeffs.fill_deterministic(seed ^ 0x5a5a);
        s
    }

    #[test]
    fn phase_rows_threading_is_bit_identical() {
        let dims = GridDims::new(5, 4, 9);
        let mut a = filled(dims, 3);
        let mut b = a.clone();
        phase_rows(&mut a, FieldKind::H, 0, 9, 1);
        phase_rows(&mut a, FieldKind::E, 0, 9, 1);
        phase_rows(&mut b, FieldKind::H, 0, 9, 3);
        phase_rows(&mut b, FieldKind::E, 0, 9, 3);
        assert!(a.fields.bit_eq(&b.fields));
    }

    #[test]
    fn split_phases_match_step_naive() {
        let dims = GridDims::new(4, 4, 8);
        let mut a = filled(dims, 11);
        let mut b = a.clone();
        step_naive_with_boundary(&mut a, Boundary::Dirichlet);
        // Same step, phases split at an arbitrary interior row.
        phase_rows(&mut b, FieldKind::H, 3, 8, 2);
        phase_rows(&mut b, FieldKind::H, 0, 3, 2);
        phase_rows(&mut b, FieldKind::E, 0, 5, 2);
        phase_rows(&mut b, FieldKind::E, 5, 8, 2);
        assert!(a.fields.bit_eq(&b.fields));
    }

    #[test]
    fn plane_codec_roundtrips() {
        let dims = GridDims::new(3, 4, 5);
        let s = filled(dims, 7);
        let bytes = extract_plane(&s.fields, &E_HALO, 2);
        assert_eq!(bytes.len(), plane_len(3, 4));
        let mut t = State::zeros(dims);
        inject_plane(&mut t.fields, &E_HALO, -1, &bytes).unwrap();
        for comp in E_HALO {
            for y in 0..4 {
                for x in 0..3 {
                    assert_eq!(
                        t.fields.comp(comp).get(x, y, -1),
                        s.fields.comp(comp).get(x, y, 2)
                    );
                }
            }
        }
        assert!(inject_plane(&mut t.fields, &E_HALO, -1, &bytes[1..]).is_err());
    }

    #[test]
    fn slab_gather_reassembles_the_full_grid() {
        let dims = GridDims::new(3, 3, 10);
        let s = filled(dims, 19);
        let slabs = crate::decomp::split_z(10, 3).unwrap();
        let mut whole = FieldSet::zeros(dims);
        for slab in slabs {
            let cropped = crop_state(&s, slab);
            let bytes = encode_fields(&cropped.fields);
            paste_fields(&mut whole, slab, &bytes).unwrap();
        }
        assert!(whole.bit_eq(&s.fields));
    }

    #[test]
    fn crop_preserves_coefficients_and_fields() {
        let dims = GridDims::new(3, 3, 6);
        let s = filled(dims, 23);
        let slab = Slab { z0: 2, nz: 3 };
        let c = crop_state(&s, slab);
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
        // Halos are zero after a crop.
        assert!(c.fields.comp(Component::Hyx).halo_is_zero());
        let _ = Cplx::ZERO;
    }
}
