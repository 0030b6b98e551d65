//! Naive reference engine: per time step, twelve full-grid loop nests
//! (one per component), H field first, then E. This is the code structure
//! the paper's Sec. III-A traffic analysis assumes, and it is the bitwise
//! oracle every optimized engine must reproduce.

use crate::raw::RawGrid;
use crate::update::update_component_rows;
use em_field::{Component, State};

/// Advance the state by one full time step (H phase then E phase).
pub fn step_naive(state: &mut State) {
    let dims = state.dims();
    let g = RawGrid::new(state);
    // SAFETY: single-threaded; each component nest writes only its own
    // array and reads arrays of the opposite field (frozen during the
    // phase) plus itself at the written cell.
    unsafe {
        for comp in Component::H_ALL {
            update_component_rows(&g, comp, 0..dims.nz, 0..dims.ny, 0..dims.nx);
        }
        for comp in Component::E_ALL {
            update_component_rows(&g, comp, 0..dims.nz, 0..dims.ny, 0..dims.nx);
        }
    }
}

/// Advance the state by `steps` full time steps.
pub fn run_naive(state: &mut State, steps: usize) {
    for _ in 0..steps {
        step_naive(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_field::{Component, Cplx, GridDims};

    fn filled(dims: GridDims, seed: u64) -> State {
        let mut s = State::zeros(dims);
        s.fields.fill_deterministic(seed);
        s.coeffs.fill_deterministic(seed ^ 0xabc);
        s
    }

    #[test]
    fn zero_fields_zero_sources_stay_zero() {
        let mut s = State::zeros(GridDims::cubic(4));
        s.coeffs.fill_deterministic(1); // nonzero coefficients
        for arr in em_field::SourceArray::ALL {
            *s.coeffs.src_mut(arr) = em_field::CoeffArray::zeros(s.dims());
        }
        run_naive(&mut s, 3);
        assert_eq!(s.fields.energy(), 0.0);
    }

    #[test]
    fn halo_stays_zero_across_steps() {
        let mut s = filled(GridDims::new(4, 5, 3), 7);
        run_naive(&mut s, 2);
        for comp in Component::ALL {
            assert!(
                s.fields.comp(comp).halo_is_zero(),
                "{comp} halo must stay zero"
            );
        }
    }

    #[test]
    fn update_is_linear_in_fields_with_zero_sources() {
        // With src = 0 the step is a linear map: step(2a) == 2*step(a).
        let dims = GridDims::cubic(4);
        let mut a = filled(dims, 13);
        for arr in em_field::SourceArray::ALL {
            *a.coeffs.src_mut(arr) = em_field::CoeffArray::zeros(dims);
        }
        let mut b = a.clone();
        for comp in Component::ALL {
            let arr = b.fields.comp_mut(comp);
            let d = arr.dims();
            for z in 0..d.nz as isize {
                for y in 0..d.ny as isize {
                    for x in 0..d.nx as isize {
                        let v = arr.get(x, y, z);
                        arr.set(x, y, z, v * 2.0);
                    }
                }
            }
        }
        step_naive(&mut a);
        step_naive(&mut b);
        for comp in Component::ALL {
            for ((x, y, z), va) in a.fields.comp(comp).iter_interior() {
                let vb = b.fields.comp(comp).get(x as isize, y as isize, z as isize);
                assert!(
                    (vb - va * 2.0).abs() < 1e-12 * (1.0 + va.abs()),
                    "{comp} ({x},{y},{z})"
                );
            }
        }
    }

    #[test]
    fn impulse_propagates_at_one_cell_per_step() {
        // Causality: with uniform coefficients, a single-cell impulse in
        // Exy can influence cells at most `steps` away (Chebyshev distance
        // in the full coupled system).
        let dims = GridDims::cubic(7);
        let mut s = State::zeros(dims);
        s.coeffs.fill_deterministic(2);
        for arr in em_field::SourceArray::ALL {
            *s.coeffs.src_mut(arr) = em_field::CoeffArray::zeros(dims);
        }
        s.fields.comp_mut(Component::Exy).set(3, 3, 3, Cplx::ONE);
        run_naive(&mut s, 2);
        for comp in Component::ALL {
            for ((x, y, z), v) in s.fields.comp(comp).iter_interior() {
                let dist = (x as isize - 3)
                    .abs()
                    .max((y as isize - 3).abs())
                    .max((z as isize - 3).abs());
                if dist > 2 && v != Cplx::ZERO {
                    panic!("{comp} at ({x},{y},{z}) influenced beyond light cone: {v:?}");
                }
            }
        }
        // And it must influence at least its own cell.
        assert!(s.fields.energy() > 0.0);
    }

    #[test]
    fn steps_compose() {
        let dims = GridDims::new(5, 4, 3);
        let mut a = filled(dims, 21);
        let mut b = a.clone();
        run_naive(&mut a, 3);
        run_naive(&mut b, 1);
        run_naive(&mut b, 2);
        assert!(a.fields.bit_eq(&b.fields), "3 steps == 1 + 2 steps bitwise");
    }

    #[test]
    fn contractive_coefficients_keep_energy_bounded() {
        let mut s = filled(GridDims::cubic(4), 99);
        let e0 = s.fields.energy();
        run_naive(&mut s, 50);
        let e = s.fields.energy();
        assert!(e.is_finite());
        assert!(
            e < e0 * 1e3,
            "contractive |t|<1 coefficients must not blow up"
        );
    }
}
