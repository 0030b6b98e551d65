//! Property and rejection tests for the scenario spec format.
//!
//! The property test generates randomized-but-sane specs, serializes
//! them to TOML and demands the reparse is exactly equal. The rejection
//! tests feed malformed specs (bad extents, unknown materials,
//! overlapping geometry, out-of-range sources, invalid engines) through
//! validation and assert the error names the offending section.

use em_scenarios::spec::{
    ConvergenceDecl, EngineDecl, GridDims, LayerDecl, OutputsDecl, PhysicsSpec, PmlSpec,
    ScenarioSpec, SceneDecl, SlabDecl, SourceSpec, SphereDecl, SweepDecl, SweepPoint, Texture,
};
use proptest::prelude::*;

/// A randomized, always-valid spec assembled from sampled parts.
#[allow(clippy::too_many_arguments)]
fn build_spec(
    name_pick: usize,
    nx: usize,
    nz_half: usize,
    lambda_cells: f64,
    lambda_nm: f64,
    pml_on: usize,
    source_frac: f64,
    engine_pick: usize,
    layers_n: usize,
    spheres_n: usize,
    texture_on: usize,
    sweep_n: usize,
    slabs_n: usize,
    seed: u64,
) -> ScenarioSpec {
    let names = ["alpha", "beta-2", "run_3", "x"];
    let nz = 2 * nz_half;
    let materials = vec![
        "vacuum".to_string(),
        "glass".to_string(),
        "a-Si:H".to_string(),
        "Ag".to_string(),
    ];
    // Disjoint layers stacked bottom-up inside [0, nz/2).
    let span = (nz as f64 / 2.0) / (layers_n.max(1) as f64);
    let layers: Vec<LayerDecl> = (0..layers_n)
        .map(|i| {
            let mat = ["glass", "a-Si:H", "Ag"][i % 3];
            let mut l = LayerDecl::flat(mat, i as f64 * span, (i as f64 + 0.7) * span);
            if texture_on == 1 && i == 0 {
                l.top_texture = Some(Texture {
                    amplitude: 0.5,
                    period: 4.0,
                    seed,
                });
            }
            l
        })
        .collect();
    let spheres: Vec<SphereDecl> = (0..spheres_n)
        .map(|i| SphereDecl {
            material: "Ag".to_string(),
            center: [
                (i as f64 * 1.3) % nx as f64,
                (i as f64 * 2.1) % nx as f64,
                (i as f64 * 3.7) % nz as f64,
            ],
            radius: 1.5,
        })
        .collect();
    let engine = match engine_pick % 6 {
        0 => EngineDecl::Naive,
        5 => EngineDecl::Auto { threads: 2 },
        1 => EngineDecl::NaivePeriodicXY,
        2 => EngineDecl::Spatial {
            by: 4,
            bz: 4,
            threads: 2,
        },
        3 => EngineDecl::Mwd {
            dw: 4,
            bz: 2,
            tg_x: 1,
            tg_z: 1,
            tg_c: 3,
            groups: 2,
        },
        _ => EngineDecl::MwdPeriodicX {
            dw: 4,
            bz: 2,
            tg_x: 1,
            tg_z: 2,
            tg_c: 1,
            groups: 1,
        },
    };
    ScenarioSpec {
        name: names[name_pick % names.len()].to_string(),
        description: "randomized property-test spec \"quoted\"".to_string(),
        grid: GridDims::new(nx, nx, nz),
        physics: PhysicsSpec {
            lambda_cells,
            lambda_nm,
            cfl: 0.95,
        },
        pml: (pml_on == 1).then(|| PmlSpec::new(nz / 4)),
        source: Some(SourceSpec::x_polarized(
            ((nz as f64 * source_frac) as usize).min(nz - 1),
            1.0,
        )),
        scene: SceneDecl::Explicit {
            materials,
            background: "vacuum".to_string(),
            layers,
            spheres,
        },
        engine,
        convergence: ConvergenceDecl {
            tol: 1e-3,
            max_periods: 10,
        },
        sweep: (sweep_n > 0).then(|| SweepDecl {
            lambdas: (0..sweep_n)
                .map(|i| SweepPoint {
                    nm: 400.0 + 50.0 * i as f64,
                    cells: 8.0 + i as f64,
                })
                .collect(),
        }),
        workers: 1,
        outputs: OutputsDecl {
            intensity_profile: slabs_n.is_multiple_of(2),
            absorption: (0..slabs_n)
                .map(|i| SlabDecl {
                    name: format!("slab{i}"),
                    z_lo: i,
                    z_hi: nz - i,
                })
                .collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Serialize -> parse is the identity on the spec, and sampled
    /// specs validate (so the generator stays honest).
    #[test]
    fn spec_roundtrips_through_toml(
        name_pick in 0usize..4,
        nx in 4usize..12,
        nz_half in 12usize..24,
        lambda_cells in 4.0f64..16.0,
        lambda_nm in 380.0f64..800.0,
        pml_on in 0usize..2,
        source_frac in 0.5f64..0.95,
        engine_pick in 0usize..6,
        layers_n in 0usize..4,
        spheres_n in 0usize..3,
        texture_on in 0usize..2,
        sweep_n in 0usize..4,
        slabs_n in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let spec = build_spec(
            name_pick, nx, nz_half, lambda_cells, lambda_nm, pml_on, source_frac,
            engine_pick, layers_n, spheres_n, texture_on, sweep_n, slabs_n, seed,
        );
        spec.validate().map_err(TestCaseError::fail)?;
        let text = spec.to_toml_string();
        let back = ScenarioSpec::from_toml_str(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&back, &spec, "round trip changed the spec:\n{}", text);
        // Round-tripping the reparse is also the identity (stability).
        prop_assert_eq!(back.to_toml_string(), text);
    }
}

// ----------------------------------------------------------- rejections

fn valid_base() -> ScenarioSpec {
    build_spec(0, 8, 16, 10.0, 550.0, 1, 0.8, 1, 2, 1, 1, 0, 1, 7)
}

#[test]
fn base_spec_is_valid() {
    valid_base().validate().unwrap();
}

#[test]
fn zero_extents_rejected() {
    let mut s = valid_base();
    s.grid.ny = 0;
    let e = s.validate().unwrap_err();
    assert!(e.contains("[grid]") && e.contains("positive"), "{e}");
}

#[test]
fn unknown_material_rejected() {
    let mut s = valid_base();
    if let SceneDecl::Explicit { materials, .. } = &mut s.scene {
        materials.push("unobtainium".to_string());
    }
    let e = s.validate().unwrap_err();
    assert!(e.contains("unknown material `unobtainium`"), "{e}");
    assert!(e.contains("vacuum"), "should list known materials: {e}");
}

#[test]
fn layer_material_missing_from_list_rejected() {
    let mut s = valid_base();
    if let SceneDecl::Explicit { layers, .. } = &mut s.scene {
        layers[0].material = "TCO".to_string(); // known, but not listed
    }
    let e = s.validate().unwrap_err();
    assert!(e.contains("not in the materials list"), "{e}");
}

#[test]
fn overlapping_layers_rejected() {
    let mut s = valid_base();
    if let SceneDecl::Explicit { layers, .. } = &mut s.scene {
        layers.clear();
        layers.push(LayerDecl::flat("glass", 0.0, 10.0));
        layers.push(LayerDecl::flat("Ag", 8.0, 14.0));
    }
    let e = s.validate().unwrap_err();
    assert!(e.contains("overlap"), "{e}");
}

#[test]
fn inverted_layer_rejected() {
    let mut s = valid_base();
    if let SceneDecl::Explicit { layers, .. } = &mut s.scene {
        layers[0].z_lo = 9.0;
        layers[0].z_hi = 3.0;
    }
    let e = s.validate().unwrap_err();
    assert!(e.contains("z_lo < z_hi"), "{e}");
}

#[test]
fn out_of_grid_sphere_rejected() {
    let mut s = valid_base();
    if let SceneDecl::Explicit { spheres, .. } = &mut s.scene {
        spheres[0].center = [4.0, 4.0, 1000.0];
    }
    let e = s.validate().unwrap_err();
    assert!(e.contains("sphere") && e.contains("outside"), "{e}");
}

#[test]
fn source_outside_grid_rejected() {
    let mut s = valid_base();
    s.source = Some(SourceSpec::x_polarized(32, 1.0)); // nz = 32
    let e = s.validate().unwrap_err();
    assert!(
        e.contains("[source]") && e.contains("outside the grid"),
        "{e}"
    );
}

#[test]
fn oversized_pml_rejected() {
    let mut s = valid_base();
    s.pml = Some(PmlSpec::new(16)); // 2*16 >= nz = 32
    let e = s.validate().unwrap_err();
    assert!(e.contains("[pml]"), "{e}");
}

#[test]
fn unresolvable_wavelength_rejected() {
    let mut s = valid_base();
    s.physics.lambda_cells = 2.0;
    let e = s.validate().unwrap_err();
    assert!(e.contains("lambda_cells"), "{e}");
}

#[test]
fn invalid_engine_shape_rejected() {
    let mut s = valid_base();
    s.engine = EngineDecl::Mwd {
        dw: 4,
        bz: 2,
        tg_x: 1,
        tg_z: 1,
        tg_c: 4, // component parallelism must be 1, 2, 3 or 6
        groups: 1,
    };
    let e = s.validate().unwrap_err();
    assert!(e.contains("[engine]"), "{e}");
}

#[test]
fn empty_sweep_rejected() {
    let mut s = valid_base();
    s.sweep = Some(SweepDecl { lambdas: vec![] });
    let e = s.validate().unwrap_err();
    assert!(e.contains("[sweep]"), "{e}");
}

#[test]
fn bad_absorption_slab_rejected() {
    let mut s = valid_base();
    s.outputs.absorption.push(SlabDecl {
        name: "broken".to_string(),
        z_lo: 20,
        z_hi: 10,
    });
    let e = s.validate().unwrap_err();
    assert!(e.contains("absorption slab"), "{e}");
}

#[test]
fn unknown_preset_rejected() {
    let mut s = valid_base();
    s.scene = SceneDecl::Preset {
        preset: "klein-bottle".to_string(),
    };
    let e = s.validate().unwrap_err();
    assert!(e.contains("unknown preset `klein-bottle`"), "{e}");
}

#[test]
fn scenario_name_with_path_separators_rejected() {
    let mut s = valid_base();
    s.name = "../escape".to_string();
    let e = s.validate().unwrap_err();
    assert!(e.contains("letters, digits"), "{e}");
}

// ------------------------------------------------- parse-level errors

#[test]
fn unknown_key_in_section_is_an_error() {
    let mut text = em_scenarios::library::vacuum_slab().to_toml_string();
    text.push_str("\n[grid2]\nnx = 3\n");
    let e = ScenarioSpec::from_toml_str(&text).unwrap_err();
    assert!(e.contains("unknown key `grid2`"), "{e}");
}

#[test]
fn typo_inside_section_is_an_error() {
    let text = em_scenarios::library::vacuum_slab()
        .to_toml_string()
        .replace("lambda_cells", "lambda_cels");
    let e = ScenarioSpec::from_toml_str(&text).unwrap_err();
    assert!(e.contains("lambda_cels"), "{e}");
}

#[test]
fn wrong_type_is_an_error() {
    let text = em_scenarios::library::vacuum_slab()
        .to_toml_string()
        .replace("nx = 8", "nx = \"eight\"");
    let e = ScenarioSpec::from_toml_str(&text).unwrap_err();
    assert!(e.contains("`nx` must be an integer"), "{e}");
}

#[test]
fn bad_polarization_is_an_error() {
    let text = em_scenarios::library::vacuum_slab()
        .to_toml_string()
        .replace("polarization = \"x\"", "polarization = \"z\"");
    let e = ScenarioSpec::from_toml_str(&text).unwrap_err();
    assert!(e.contains("polarization"), "{e}");
}
