//! Property-based tests of the update kernels' algebraic structure.

use em_field::{CoeffArray, Component, Cplx, GridDims, SourceArray, State};
use em_kernels::run_naive;
use proptest::prelude::*;

fn filled(dims: GridDims, seed: u64) -> State {
    let mut s = State::zeros(dims);
    s.fields.fill_deterministic(seed);
    s.coeffs.fill_deterministic(seed ^ 0xfeed);
    s
}

fn scale_fields(s: &mut State, f: Cplx) {
    for comp in Component::ALL {
        let arr = s.fields.comp_mut(comp);
        let d = arr.dims();
        for z in 0..d.nz as isize {
            for y in 0..d.ny as isize {
                for x in 0..d.nx as isize {
                    let v = arr.get(x, y, z);
                    arr.set(x, y, z, v * f);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// With zero sources, the full step is a complex-linear operator:
    /// step(c * a) == c * step(a) for any complex scalar c.
    #[test]
    fn step_is_complex_linear_without_sources(
        seed in 0u64..u64::MAX,
        re in -2.0f64..2.0,
        im in -2.0f64..2.0,
        steps in 1usize..4,
    ) {
        let dims = GridDims::new(4, 5, 4);
        let c = Cplx::new(re, im);
        let mut a = filled(dims, seed);
        for arr in SourceArray::ALL {
            *a.coeffs.src_mut(arr) = CoeffArray::zeros(a.dims());
        }
        let mut b = a.clone();
        scale_fields(&mut b, c);
        run_naive(&mut a, steps);
        run_naive(&mut b, steps);
        scale_fields(&mut a, c);
        let diff = a.fields.max_abs_diff(&b.fields);
        let scale = a.fields.energy().sqrt().max(1.0);
        prop_assert!(diff <= 1e-10 * scale, "linearity violated: {diff}");
    }

    /// Superposition: step(a + b) == step(a) + step(b) with zero sources.
    #[test]
    fn step_superposes(seed in 0u64..u64::MAX) {
        let dims = GridDims::new(4, 4, 4);
        let mut a = filled(dims, seed);
        let mut b = filled(dims, seed.wrapping_add(1));
        // Same coefficients for both; zero sources.
        b.coeffs = a.coeffs.clone();
        for arr in SourceArray::ALL {
            *a.coeffs.src_mut(arr) = CoeffArray::zeros(a.dims());
            *b.coeffs.src_mut(arr) = CoeffArray::zeros(b.dims());
        }
        let mut sum = a.clone();
        for comp in Component::ALL {
            let arr = sum.fields.comp_mut(comp);
            let d = arr.dims();
            for z in 0..d.nz as isize {
                for y in 0..d.ny as isize {
                    for x in 0..d.nx as isize {
                        let v = arr.get(x, y, z) + b.fields.comp(comp).get(x, y, z);
                        arr.set(x, y, z, v);
                    }
                }
            }
        }
        run_naive(&mut a, 2);
        run_naive(&mut b, 2);
        run_naive(&mut sum, 2);
        for comp in Component::ALL {
            for ((x, y, z), v) in sum.fields.comp(comp).iter_interior() {
                let (xi, yi, zi) = (x as isize, y as isize, z as isize);
                let expect = a.fields.comp(comp).get(xi, yi, zi)
                    + b.fields.comp(comp).get(xi, yi, zi);
                prop_assert!(
                    (v - expect).abs() <= 1e-10 * (1.0 + expect.abs()),
                    "{comp} ({x},{y},{z})"
                );
            }
        }
    }

    /// Zero curl coefficients freeze the coupling: each component evolves
    /// independently as dst = dst*t + src, i.e. a pure per-cell recursion.
    #[test]
    fn zero_curl_decouples_components(seed in 0u64..u64::MAX) {
        let dims = GridDims::new(3, 3, 3);
        let mut s = filled(dims, seed);
        for comp in Component::ALL {
            *s.coeffs.c_mut(comp) = CoeffArray::zeros(s.dims());
        }
        let before = s.clone();
        run_naive(&mut s, 1);
        for comp in Component::ALL {
            for ((x, y, z), v) in s.fields.comp(comp).iter_interior() {
                let (xi, yi, zi) = (x as isize, y as isize, z as isize);
                let old = before.fields.comp(comp).get(xi, yi, zi);
                let t = before.coeffs.t(comp).get(xi, yi, zi);
                let src = comp
                    .source_array()
                    .map(|a| before.coeffs.src(a).get(xi, yi, zi))
                    .unwrap_or(Cplx::ZERO);
                let expect = old * t + src;
                prop_assert!((v - expect).abs() < 1e-12 * (1.0 + expect.abs()));
            }
        }
    }
}
