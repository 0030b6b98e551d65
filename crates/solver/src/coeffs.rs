//! Assembly of the 28 coefficient arrays from the physics.
//!
//! Starting from the time-discretized THIIM equations (paper Eqs. 3-5),
//! solving each for the new field value yields per-cell complex factors:
//!
//! H update (Eq. 4), with PML-matched magnetic conductivity `sigma*`:
//! ```text
//! H^{n+1/2} (e^{iwt/2} + t s*/mu) = e^{-iwt/2} H^{n-1/2} - (t/mu) curl E + t S_H
//!   => tH = e^{-iwt/2} / D_H,  cH = (t/mu) / D_H,   D_H = e^{iwt/2} + t s*/mu
//! ```
//!
//! E update, regular iteration (Eq. 3), for `Re(eps) > 0`:
//! ```text
//! E^{n+1} (e^{iwt} + t s/eps) = E^n + (t/eps) e^{iwt/2} curl H + t S_E
//!   => tE = 1 / D_E,  cE = (t/eps) e^{iwt/2} / D_E,  D_E = e^{iwt} + t s/eps
//! ```
//!
//! E update, *back iteration* (Eq. 5), for `Re(eps) < 0` (silver):
//! ```text
//! e^{iwt} E^n - E^{n+1} = (t/eps) e^{iwt/2} curl H - (t s/eps) E^{n+1} + t S_E
//!   => tE = -e^{iwt} / D_B,  cE = (t/eps) e^{iwt/2} / D_B,  D_B = t s/eps - 1
//! ```
//!
//! With `s >= 0` and `eps < 0`, `|D_B| >= 1` so `|tE| <= 1`: the back
//! iteration is unconditionally stable where the regular one diverges —
//! the reason THIIM can handle metallic back contacts directly. The
//! kernels consume these factors verbatim (Listings 1-2 shape), so the
//! physics lives entirely in this builder.

use crate::fit::average_eps;
use crate::solver::SolverConfig;
use em_field::{Axis, CoeffError, CoeffRowBuilder, Component, Cplx, SourceArray, State};

/// Real and imaginary parts of one x-row under assembly.
#[derive(Clone)]
struct RowParts {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl RowParts {
    fn zeros(nx: usize) -> Self {
        RowParts {
            re: vec![0.0; nx],
            im: vec![0.0; nx],
        }
    }

    fn set(&mut self, x: usize, v: Cplx) {
        self.re[x] = v.re;
        self.im[x] = v.im;
    }

    /// Give every cell the value of cell 0.
    fn spread(&mut self) {
        let (re, im) = (self.re[0], self.im[0]);
        self.re.fill(re);
        self.im.fill(im);
    }
}

/// Replace `state.coeffs` (source arrays included) with the
/// coefficients of `config`, assembled one x-row at a time through
/// [`CoeffRowBuilder`]: rows the scene repeats are stored once and the
/// 28 dense arrays never exist. Returns the number of back-iteration
/// cells (Re(eps) < 0).
///
/// A cell's coefficients are a function of its averaged permittivity
/// and its z (PML profile, source sheet), so a plane the scene declares
/// laterally uniform ([`crate::Scene::plane_is_uniform`]) is evaluated
/// at cell `(0, 0)` alone — one `average_eps` instead of `nx * ny` —
/// and that value fills the plane: the same expressions on the same
/// inputs as the per-cell walk, hence the same bits. A layer stack pays
/// for `nz` cells; textured and sphere-bearing planes pay for all of
/// theirs.
///
/// The time-harmonic plane-wave drive is a uniform source sheet at
/// `source.z_plane` in the chosen E polarization. The source slot of
/// the update equals `tau * S / D`, so the sheet reuses the denominator
/// of its host cell.
///
/// `force_forward_iteration` is a test hook: it disables the back
/// iteration to demonstrate the instability of the regular iteration on
/// negative permittivity. [`crate::ThiimSolver::new`] passes `false`.
pub fn build_coefficients(
    state: &mut State,
    config: &SolverConfig,
    force_forward_iteration: bool,
) -> Result<usize, CoeffError> {
    let dims = state.dims();
    let scene = &config.scene;
    let omega = config.omega();
    let tau = config.tau();
    let eiwt = Cplx::cis(omega * tau);
    let eiwt2 = Cplx::cis(omega * tau / 2.0);
    let emiwt2 = Cplx::cis(-omega * tau / 2.0);
    let mut back_cells = 0usize;

    let sheet = config.source.as_ref().map(|src| {
        let arr = match src.polarization {
            Axis::X => SourceArray::SrcEx,
            Axis::Y => SourceArray::SrcEy,
            Axis::Z => panic!("plane-wave source must be transverse (X or Y)"),
        };
        (src.z_plane.min(dims.nz - 1), arr, Cplx::real(src.amplitude))
    });

    let builders =
        |n: usize| -> Vec<CoeffRowBuilder> { (0..n).map(|_| CoeffRowBuilder::new(dims)).collect() };
    let (mut t_out, mut c_out, mut src_out) = (builders(12), builders(12), builders(4));
    let mut t_row = vec![RowParts::zeros(dims.nx); 12];
    let mut c_row = vec![RowParts::zeros(dims.nx); 12];
    let mut src_row = RowParts::zeros(dims.nx);
    let no_src = RowParts::zeros(dims.nx);

    for z in 0..dims.nz {
        let sigma_pml = config.pml.map_or(0.0, |p| p.sigma_z(z, dims.nz));
        let sheet_here = sheet.filter(|&(z_plane, ..)| z_plane == z);
        // A uniform plane is its cell (0, 0): one evaluated cell stands
        // for `cells` of them, one assembled row for `rows`.
        let uniform = scene.plane_is_uniform(z);
        let (ys, xs, rows, cells) = if uniform {
            (1, 1, dims.ny, dims.nx * dims.ny)
        } else {
            (dims.ny, dims.nx, 1, 1)
        };
        for y in 0..ys {
            for x in 0..xs {
                let (er, ei) = average_eps(scene, config.lambda_nm, x, y, z);
                let sigma_mat = omega * ei;
                let forward = er > 0.0 || force_forward_iteration;

                for comp in Component::ALL {
                    // PML loss acts along the component's derivative axis;
                    // only z carries PML here.
                    let pml_here = if comp.deriv_axis() == Axis::Z {
                        sigma_pml
                    } else {
                        0.0
                    };
                    let (t, c) = match comp.field_kind() {
                        em_field::FieldKind::H => {
                            // Matched magnetic conductivity: sigma*/mu =
                            // sigma_pml/eps0 (normalized: both 1).
                            let d_h = eiwt2 + Cplx::real(tau * pml_here);
                            (emiwt2 / d_h, Cplx::real(tau) / d_h)
                        }
                        em_field::FieldKind::E => {
                            let sigma = sigma_mat + pml_here;
                            if forward {
                                let d_e = eiwt + Cplx::real(tau * sigma / er);
                                (Cplx::ONE / d_e, (eiwt2 * (tau / er)) / d_e)
                            } else {
                                // Back iteration (Eq. 5).
                                let d_b = Cplx::real(tau * sigma / er - 1.0);
                                (-eiwt / d_b, (eiwt2 * (tau / er)) / d_b)
                            }
                        }
                    };
                    t_row[comp.index()].set(x, t);
                    c_row[comp.index()].set(x, c);
                }
                if !forward {
                    back_cells += cells;
                }
                if let Some((.., amplitude)) = sheet_here {
                    let sigma = sigma_mat + sigma_pml;
                    let d = if forward {
                        eiwt + Cplx::real(tau * sigma / er)
                    } else {
                        Cplx::real(tau * sigma / er - 1.0)
                    };
                    src_row.set(x, (amplitude * tau) / d);
                }
            }
            if uniform {
                let buffers = t_row.iter_mut().chain(&mut c_row).chain([&mut src_row]);
                buffers.for_each(RowParts::spread);
            }
            for _ in 0..rows {
                for (out, row) in t_out.iter_mut().zip(&t_row) {
                    out.push_row(&row.re, &row.im)?;
                }
                for (out, row) in c_out.iter_mut().zip(&c_row) {
                    out.push_row(&row.re, &row.im)?;
                }
                for arr in SourceArray::ALL {
                    let row = match sheet_here {
                        Some((_, driven, _)) if driven == arr => &src_row,
                        _ => &no_src,
                    };
                    src_out[arr.index()].push_row(&row.re, &row.im)?;
                }
            }
        }
    }

    for (comp, (t, c)) in Component::ALL.into_iter().zip(t_out.into_iter().zip(c_out)) {
        *state.coeffs.t_mut(comp) = t.finish();
        *state.coeffs.c_mut(comp) = c.finish();
    }
    for (arr, src) in SourceArray::ALL.into_iter().zip(src_out) {
        *state.coeffs.src_mut(arr) = src.finish();
    }
    Ok(back_cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Scene;
    use crate::materials::Material;
    use crate::pml::PmlSpec;
    use crate::source::SourceSpec;
    use em_field::GridDims;

    /// `scene` on a fresh `dims` state at 12 cells / 550 nm.
    fn setup(dims: GridDims, scene: Scene) -> (State, SolverConfig) {
        (
            State::zeros(dims),
            SolverConfig::new(dims, scene, 12.0, 550.0),
        )
    }

    fn vacuum_state(n: usize) -> (State, SolverConfig) {
        setup(GridDims::cubic(n), Scene::vacuum())
    }

    #[test]
    fn vacuum_coefficients_are_unit_modulus_transfer() {
        let (mut state, cfg) = vacuum_state(4);
        let back = build_coefficients(&mut state, &cfg, false).unwrap();
        assert_eq!(back, 0);
        for comp in Component::ALL {
            let t = state.coeffs.t(comp).get(1, 1, 1);
            assert!((t.abs() - 1.0).abs() < 1e-12, "{comp}: |t| = {}", t.abs());
            let c = state.coeffs.c(comp).get(1, 1, 1);
            assert!(
                (c.abs() - cfg.tau()).abs() < 1e-12,
                "{comp}: |c| = {}",
                c.abs()
            );
        }
    }

    #[test]
    fn all_transfer_factors_are_stable() {
        // |t| <= 1 everywhere for any material mix, including silver.
        let mut scene = Scene::vacuum();
        let ag = scene.add_material(Material::silver());
        let asi = scene.add_material(Material::a_si());
        scene
            .layers
            .push(crate::geometry::Layer::flat(ag, 0.0, 3.0));
        scene
            .layers
            .push(crate::geometry::Layer::flat(asi, 3.0, 6.0));
        let (mut state, mut cfg) = setup(GridDims::new(4, 4, 8), scene);
        cfg.pml = Some(PmlSpec::new(2));
        let back = build_coefficients(&mut state, &cfg, false).unwrap();
        assert!(back > 0, "silver cells must use back iteration");
        for comp in Component::ALL {
            for (_, t) in state.coeffs.t(comp).iter_interior() {
                assert!(t.abs() <= 1.0 + 1e-9, "{comp}: |t| = {}", t.abs());
            }
        }
    }

    #[test]
    fn forward_iteration_on_silver_is_unstable() {
        // The defining contrast: forcing the regular iteration on
        // Re(eps) < 0 yields |t| > 1 (divergent mode).
        let (mut state, cfg) = setup(GridDims::cubic(3), Scene::uniform(Material::silver()));
        build_coefficients(&mut state, &cfg, true).unwrap();
        let t = state.coeffs.t(Component::Exy).get(1, 1, 1);
        assert!(
            t.abs() > 1.0,
            "forward |t| = {} must exceed 1 on silver",
            t.abs()
        );
    }

    #[test]
    fn pml_cells_are_lossy_only_in_z_derivative_components() {
        let (mut state, mut cfg) = vacuum_state(8);
        cfg.pml = Some(PmlSpec::new(3));
        build_coefficients(&mut state, &cfg, false).unwrap();
        // z-derivative component inside the PML: |t| < 1 (absorbing).
        let t_zderiv = state.coeffs.t(Component::Exy).get(4, 4, 0);
        assert!(t_zderiv.abs() < 0.999, "|t| = {}", t_zderiv.abs());
        // x-derivative component is untouched by z-PML.
        let t_xderiv = state.coeffs.t(Component::Ezy).get(4, 4, 0);
        assert!((t_xderiv.abs() - 1.0).abs() < 1e-12);
        // Interior cells untouched.
        let t_mid = state.coeffs.t(Component::Exy).get(4, 4, 4);
        assert!((t_mid.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn source_sheet_is_installed_at_the_plane() {
        let (mut state, mut cfg) = vacuum_state(6);
        cfg.source = Some(SourceSpec::x_polarized(3, 2.0));
        build_coefficients(&mut state, &cfg, false).unwrap();
        let src = state.coeffs.src(em_field::SourceArray::SrcEx);
        assert!(src.get(2, 2, 3).abs() > 0.0);
        assert_eq!(src.get(2, 2, 2), Cplx::ZERO);
        assert_eq!(
            state.coeffs.src(em_field::SourceArray::SrcEy).get(2, 2, 3),
            Cplx::ZERO
        );
    }

    /// `scene` with no plane declared uniform and not one material
    /// changed: a zero-radius sphere per cell plane, far outside the
    /// grid. Building it is the per-cell walk — the reference the
    /// plane-uniform build must equal.
    fn per_cell_reference(scene: &Scene, nz: usize) -> Scene {
        let mut scene = scene.clone();
        for z in 0..nz {
            scene.spheres.push(crate::geometry::Sphere {
                center: [-1e9, -1e9, z as f64 + 0.5],
                radius: 0.0,
                material: scene.background,
            });
            assert!(!scene.plane_is_uniform(z));
        }
        scene
    }

    /// Same row index, same bits in every interior cell.
    fn same_bits(a: &em_field::CoeffArray, b: &em_field::CoeffArray) -> bool {
        let bits = |v: Cplx| (v.re.to_bits(), v.im.to_bits());
        a.offsets() == b.offsets()
            && a.iter_interior()
                .zip(b.iter_interior())
                .all(|((_, x), (_, y))| bits(x) == bits(y))
    }

    #[test]
    fn uniform_planes_build_the_bits_of_the_per_cell_walk() {
        use crate::geometry::Layer;
        let mut stack = Scene::vacuum();
        let ag = stack.add_material(Material::silver());
        let asi = stack.add_material(Material::a_si());
        let glass = stack.add_material(Material::glass());
        stack.layers.push(Layer::flat(ag, 0.0, 3.0));
        // A face inside a cell: that plane is uniform too, at an
        // averaged permittivity.
        stack.layers.push(Layer::flat(asi, 3.0, 7.5));
        stack.layers.push(Layer::flat(glass, 7.5, 12.0));
        let cases = [
            ("flat stack", GridDims::new(5, 4, 16), stack, 16),
            (
                "tandem cell",
                GridDims::new(12, 12, 48),
                Scene::tandem_solar_cell(12, 12, 48),
                // All but three planes around each of the three textured
                // interfaces and three through the nanoparticles.
                36,
            ),
        ];
        for (name, dims, scene, uniform_planes) in cases {
            let uniform = (0..dims.nz).filter(|&z| scene.plane_is_uniform(z));
            assert_eq!(uniform.count(), uniform_planes, "{name}");
            let reference = per_cell_reference(&scene, dims.nz);
            let mut cfg = SolverConfig::new(dims, scene, 10.0, 500.0);
            cfg.pml = Some(PmlSpec::new(3));
            cfg.source = Some(SourceSpec::x_polarized(dims.nz - 5, 1.0));
            let (mut fast, mut slow) = (State::zeros(dims), State::zeros(dims));
            let back = build_coefficients(&mut fast, &cfg, false).unwrap();
            cfg.scene = reference;
            assert_eq!(
                back,
                build_coefficients(&mut slow, &cfg, false).unwrap(),
                "{name}: back-iteration cells"
            );
            assert!(back > 0, "{name}: silver is in the scene");
            for comp in Component::ALL {
                let (f, s) = (&fast.coeffs, &slow.coeffs);
                assert!(same_bits(f.t(comp), s.t(comp)), "{name}: t {comp}");
                assert!(same_bits(f.c(comp), s.c(comp)), "{name}: c {comp}");
            }
            for arr in SourceArray::ALL {
                let (f, s) = (fast.coeffs.src(arr), slow.coeffs.src(arr));
                assert!(same_bits(f, s), "{name}: {arr:?}");
            }
        }
    }
}
