//! The built-in scenario catalog.
//!
//! Six diverse workloads, all expressed as [`ScenarioSpec`] data and all
//! built from the same [`SolverConfig`](em_solver::SolverConfig) as
//! user-authored scenario files:
//!
//! | name               | what it exercises                                   |
//! |--------------------|-----------------------------------------------------|
//! | `solar-cell`       | the paper's Fig. 1 tandem cell, 3-wavelength sweep  |
//! | `silver-nanowire`  | plasmonics: `Re(eps) < 0` forcing the back iteration|
//! | `bragg-mirror`     | quarter-wave dielectric stack, MWD engine           |
//! | `vacuum-slab`      | bare-vacuum calibration (plane-wave sanity)         |
//! | `photonic-grating` | high-contrast grating, periodic-x MWD engine        |
//! | `thin-absorber`    | thin a-Si film absorption over a 4-point sweep      |

use crate::spec::{
    ConvergenceDecl, EngineDecl, GridDims, LayerDecl, OutputsDecl, PhysicsSpec, PmlSpec,
    ScenarioSpec, SceneDecl, SlabDecl, SourceSpec, SphereDecl, SweepDecl, SweepPoint,
};

/// The paper's motivating application (Fig. 1): the tandem thin-film
/// solar cell, swept over three visible wavelengths exactly like the
/// pre-scenario `examples/solar_cell.rs` did.
pub fn solar_cell() -> ScenarioSpec {
    let (nx, ny, nz) = (24usize, 24usize, 72usize);
    let z = |f: f64| (f * nz as f64) as usize;
    ScenarioSpec {
        name: "solar-cell".to_string(),
        description: "tandem thin-film solar cell (paper Fig. 1), visible-spectrum sweep"
            .to_string(),
        grid: GridDims::new(nx, ny, nz),
        physics: PhysicsSpec {
            lambda_cells: 11.0,
            lambda_nm: 550.0,
            cfl: 0.95,
        },
        pml: Some(PmlSpec::new(8)),
        source: Some(SourceSpec::x_polarized(nz - 12, 1.0)),
        scene: SceneDecl::Preset {
            preset: "tandem-solar-cell".to_string(),
        },
        engine: EngineDecl::NaivePeriodicXY,
        convergence: ConvergenceDecl {
            tol: 2e-2,
            max_periods: 60,
        },
        sweep: Some(SweepDecl {
            lambdas: vec![
                SweepPoint {
                    nm: 450.0,
                    cells: 9.0,
                },
                SweepPoint {
                    nm: 550.0,
                    cells: 11.0,
                },
                SweepPoint {
                    nm: 650.0,
                    cells: 13.0,
                },
            ],
        }),
        workers: 1,
        outputs: OutputsDecl {
            intensity_profile: false,
            absorption: vec![
                SlabDecl {
                    name: "a-Si".to_string(),
                    z_lo: z(0.48),
                    z_hi: z(0.62),
                },
                SlabDecl {
                    name: "uc-Si".to_string(),
                    z_lo: z(0.20),
                    z_hi: z(0.48),
                },
                SlabDecl {
                    name: "Ag".to_string(),
                    z_lo: 0,
                    z_hi: z(0.12),
                },
            ],
        },
    }
}

/// Plasmonics around a silver nanowire (paper ref. [10]): a chain of
/// overlapping Ag spheres whose negative permittivity forces the Eq. 5
/// back iteration. Geometry matches the pre-scenario example.
pub fn silver_nanowire() -> ScenarioSpec {
    let n = 24usize;
    let spheres = (0..n)
        .map(|j| SphereDecl {
            material: "Ag".to_string(),
            center: [n as f64 / 2.0, j as f64 + 0.5, n as f64 * 0.45],
            radius: n as f64 * 0.12,
        })
        .collect();
    ScenarioSpec {
        name: "silver-nanowire".to_string(),
        description: "silver nanowire in vacuum; negative permittivity drives the back iteration"
            .to_string(),
        grid: GridDims::new(n, n, 2 * n),
        physics: PhysicsSpec {
            lambda_cells: 10.0,
            lambda_nm: 550.0,
            cfl: 0.95,
        },
        pml: Some(PmlSpec::new(6)),
        source: Some(SourceSpec::x_polarized(2 * n - 10, 1.0)),
        scene: SceneDecl::Explicit {
            materials: vec!["vacuum".to_string(), "Ag".to_string()],
            background: "vacuum".to_string(),
            layers: Vec::new(),
            spheres,
        },
        engine: EngineDecl::NaivePeriodicXY,
        convergence: ConvergenceDecl {
            tol: 1e-3,
            max_periods: 8,
        },
        sweep: None,
        workers: 1,
        outputs: OutputsDecl {
            intensity_profile: false,
            absorption: vec![SlabDecl {
                name: "wire".to_string(),
                z_lo: 7,
                z_hi: 14,
            }],
        },
    }
}

/// A quarter-wave Bragg mirror: six TCO/glass bilayers on a glass
/// substrate, run on the MWD engine.
pub fn bragg_mirror() -> ScenarioSpec {
    let lambda_cells = 12.0;
    let d_hi = lambda_cells / (4.0 * 1.9); // quarter wave in TCO (n = 1.9)
    let d_lo = lambda_cells / (4.0 * 1.5); // quarter wave in glass (n = 1.5)
    let mut layers = vec![LayerDecl::flat("glass", 0.0, 16.0)];
    let mut zc = 16.0;
    for _ in 0..6 {
        layers.push(LayerDecl::flat("TCO", zc, zc + d_hi));
        zc += d_hi;
        layers.push(LayerDecl::flat("glass", zc, zc + d_lo));
        zc += d_lo;
    }
    ScenarioSpec {
        name: "bragg-mirror".to_string(),
        description: "quarter-wave TCO/glass Bragg mirror stack on the MWD engine".to_string(),
        grid: GridDims::new(16, 16, 96),
        physics: PhysicsSpec {
            lambda_cells,
            lambda_nm: 550.0,
            cfl: 0.95,
        },
        pml: Some(PmlSpec::new(8)),
        source: Some(SourceSpec::x_polarized(80, 1.0)),
        scene: SceneDecl::Explicit {
            materials: vec!["vacuum".to_string(), "glass".to_string(), "TCO".to_string()],
            background: "vacuum".to_string(),
            layers,
            spheres: Vec::new(),
        },
        engine: EngineDecl::Mwd {
            dw: 4,
            bz: 2,
            tg_x: 1,
            tg_z: 1,
            tg_c: 3,
            groups: 2,
        },
        convergence: ConvergenceDecl {
            tol: 1e-2,
            max_periods: 40,
        },
        sweep: None,
        workers: 1,
        outputs: OutputsDecl {
            intensity_profile: true,
            absorption: vec![SlabDecl {
                name: "mirror".to_string(),
                z_lo: 16,
                z_hi: 38,
            }],
        },
    }
}

/// Bare vacuum with PML and a source sheet: the calibration slab every
/// engine must turn into a clean travelling plane wave.
pub fn vacuum_slab() -> ScenarioSpec {
    ScenarioSpec {
        name: "vacuum-slab".to_string(),
        description: "bare-vacuum calibration slab (travelling plane wave)".to_string(),
        grid: GridDims::new(8, 8, 64),
        physics: PhysicsSpec {
            lambda_cells: 12.0,
            lambda_nm: 550.0,
            cfl: 0.95,
        },
        pml: Some(PmlSpec::new(8)),
        source: Some(SourceSpec::x_polarized(32, 1.0)),
        scene: SceneDecl::vacuum(),
        engine: EngineDecl::NaivePeriodicXY,
        convergence: ConvergenceDecl {
            tol: 1e-2,
            max_periods: 150,
        },
        sweep: None,
        workers: 1,
        outputs: OutputsDecl {
            intensity_profile: true,
            absorption: Vec::new(),
        },
    }
}

/// A high-contrast photonic grating: a-Si bars (chains of overlapping
/// spheres along y) over a glass substrate, on the periodic-x MWD
/// engine — the physically periodic direction.
pub fn photonic_grating() -> ScenarioSpec {
    let (nx, ny, nz) = (24usize, 24usize, 48usize);
    let mut spheres = Vec::new();
    for &bar_x in &[4.0, 12.0, 20.0] {
        for j in 0..ny {
            spheres.push(SphereDecl {
                material: "a-Si:H".to_string(),
                center: [bar_x, j as f64 + 0.5, 14.0],
                radius: 2.5,
            });
        }
    }
    ScenarioSpec {
        name: "photonic-grating".to_string(),
        description: "high-contrast a-Si grating bars on glass, periodic-x MWD engine".to_string(),
        grid: GridDims::new(nx, ny, nz),
        physics: PhysicsSpec {
            lambda_cells: 10.0,
            lambda_nm: 600.0,
            cfl: 0.95,
        },
        pml: Some(PmlSpec::new(6)),
        source: Some(SourceSpec::x_polarized(40, 1.0)),
        scene: SceneDecl::Explicit {
            materials: vec![
                "vacuum".to_string(),
                "glass".to_string(),
                "a-Si:H".to_string(),
            ],
            background: "vacuum".to_string(),
            layers: vec![LayerDecl::flat("glass", 0.0, 12.0)],
            spheres,
        },
        engine: EngineDecl::MwdPeriodicX {
            dw: 4,
            bz: 2,
            tg_x: 1,
            tg_z: 2,
            tg_c: 1,
            groups: 2,
        },
        convergence: ConvergenceDecl {
            tol: 1e-2,
            max_periods: 40,
        },
        sweep: None,
        workers: 1,
        outputs: OutputsDecl {
            intensity_profile: false,
            absorption: vec![SlabDecl {
                name: "grating".to_string(),
                z_lo: 11,
                z_hi: 17,
            }],
        },
    }
}

/// A thin a-Si absorber film over TCO/glass, swept across four
/// wavelengths — the "how thin can the junction get" workload.
pub fn thin_absorber() -> ScenarioSpec {
    ScenarioSpec {
        name: "thin-absorber".to_string(),
        description: "5-cell a-Si absorber on TCO/glass, four-wavelength sweep".to_string(),
        grid: GridDims::new(16, 16, 48),
        physics: PhysicsSpec {
            lambda_cells: 10.0,
            lambda_nm: 500.0,
            cfl: 0.95,
        },
        pml: Some(PmlSpec::new(6)),
        source: Some(SourceSpec::x_polarized(40, 1.0)),
        scene: SceneDecl::Explicit {
            materials: vec![
                "vacuum".to_string(),
                "glass".to_string(),
                "TCO".to_string(),
                "a-Si:H".to_string(),
            ],
            background: "vacuum".to_string(),
            layers: vec![
                LayerDecl::flat("glass", 0.0, 10.0),
                LayerDecl::flat("TCO", 10.0, 14.0),
                LayerDecl::flat("a-Si:H", 14.0, 19.0),
            ],
            spheres: Vec::new(),
        },
        engine: EngineDecl::NaivePeriodicXY,
        convergence: ConvergenceDecl {
            tol: 1e-2,
            max_periods: 40,
        },
        sweep: Some(SweepDecl {
            lambdas: vec![
                SweepPoint {
                    nm: 420.0,
                    cells: 8.4,
                },
                SweepPoint {
                    nm: 500.0,
                    cells: 10.0,
                },
                SweepPoint {
                    nm: 580.0,
                    cells: 11.6,
                },
                SweepPoint {
                    nm: 660.0,
                    cells: 13.2,
                },
            ],
        }),
        workers: 1,
        outputs: OutputsDecl {
            intensity_profile: false,
            absorption: vec![SlabDecl {
                name: "absorber".to_string(),
                z_lo: 14,
                z_hi: 19,
            }],
        },
    }
}

/// Every built-in scenario, in catalog order.
pub fn builtins() -> Vec<ScenarioSpec> {
    vec![
        solar_cell(),
        silver_nanowire(),
        bragg_mirror(),
        vacuum_slab(),
        photonic_grating(),
        thin_absorber(),
    ]
}

/// Look up one built-in scenario by name.
pub fn builtin(name: &str) -> Option<ScenarioSpec> {
    builtins().into_iter().find(|s| s.name == name)
}

/// The catalog's names, in order.
pub fn builtin_names() -> Vec<String> {
    builtins().into_iter().map(|s| s.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_at_least_six_valid_unique_scenarios() {
        let all = builtins();
        assert!(all.len() >= 6, "catalog too small: {}", all.len());
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
        for s in &all {
            s.validate().expect("builtin scenario must validate");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(builtin("solar-cell").is_some());
        assert!(builtin("no-such-scenario").is_none());
        assert_eq!(builtin_names().len(), builtins().len());
    }

    #[test]
    fn solar_cell_sweep_matches_the_pre_refactor_example() {
        let s = solar_cell();
        let jobs = s.jobs();
        assert_eq!(jobs.len(), 3);
        assert_eq!(
            jobs.iter()
                .map(|j| (j.lambda_nm, j.lambda_cells))
                .collect::<Vec<_>>(),
            vec![(450.0, 9.0), (550.0, 11.0), (650.0, 13.0)]
        );
    }

    #[test]
    fn every_builtin_roundtrips_through_toml() {
        for s in builtins() {
            let text = s.to_toml_string();
            let back = ScenarioSpec::from_toml_str(&text)
                .unwrap_or_else(|e| panic!("{}: reparse failed: {e}\n{text}", s.name));
            assert_eq!(back, s, "{} changed through TOML", s.name);
        }
    }

    #[test]
    fn every_builtin_builds_a_scene_and_engine() {
        for s in builtins() {
            let scene = s.build_scene().expect("scene builds");
            assert!(!scene.materials.is_empty());
            s.engine().expect("engine builds");
            let jobs = s.jobs();
            assert!(!jobs.is_empty());
        }
    }
}
