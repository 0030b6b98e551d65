//! Seeded structure generators.
//!
//! Each [`Family`] maps a `(seed, params)` pair to one valid
//! [`ScenarioSpec`] through a deterministic [`GenRng`] stream. The
//! contract: same triple ⇒ byte-identical spec TOML on every host, and
//! every emitted spec passes [`ScenarioSpec::validate`] — a generated
//! spec that fails validation is a generator bug, which is exactly what
//! the fuzz harness in [`super::fuzz`] exists to catch.
//!
//! The families mirror the device classes of the source paper's
//! application domain: thin-film multilayer stacks, the same stacks
//! with rough (textured) interfaces, nanoparticle dispersions, and
//! nanowire chains — the last two with plasmonic metals (Ag/Au) that
//! force the THIIM back iteration through their negative permittivity.

use super::rng::GenRng;
use crate::spec::{
    ConvergenceDecl, EngineDecl, GridDims, LayerDecl, OutputsDecl, PhysicsSpec, PmlSpec,
    ScenarioSpec, SceneDecl, SourceSpec, SphereDecl, Texture,
};

/// A structure-generator family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Random dielectric/semiconductor layer stacks, optionally on a
    /// metallic back reflector.
    Multilayer,
    /// Multilayer stacks whose internal interfaces carry sinusoidal
    /// roughness textures (light-trapping morphology).
    RoughInterface,
    /// A dispersion of spherical nanoparticles in a host background.
    Nanoparticle,
    /// A metallic nanowire: a chain of overlapping spheres along y.
    Nanowire,
}

impl Family {
    pub const ALL: [Family; 4] = [
        Family::Multilayer,
        Family::RoughInterface,
        Family::Nanoparticle,
        Family::Nanowire,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Family::Multilayer => "multilayer",
            Family::RoughInterface => "rough-interface",
            Family::Nanoparticle => "nanoparticle",
            Family::Nanowire => "nanowire",
        }
    }

    pub fn description(&self) -> &'static str {
        match self {
            Family::Multilayer => "random thin-film layer stacks, optional metal back reflector",
            Family::RoughInterface => "layer stacks with textured (rough) internal interfaces",
            Family::Nanoparticle => "spherical nanoparticle dispersions in a host medium",
            Family::Nanowire => "plasmonic nanowire (overlapping Ag/Au sphere chain along y)",
        }
    }
}

impl std::str::FromStr for Family {
    type Err = String;

    fn from_str(name: &str) -> Result<Family, String> {
        let known = Family::ALL.map(|f| f.name()).join(", ");
        let found = Family::ALL.into_iter().find(|f| f.name() == name);
        found.ok_or_else(|| format!("unknown family `{name}` (known: {known})"))
    }
}

/// Wavelengths the synthetic material fits are calibrated for; requests
/// outside this band are rejected rather than silently extrapolated.
pub const LAMBDA_BAND_NM: (f64, f64) = (350.0, 1000.0);

/// Parameter ranges the generators draw from. All ranges are inclusive.
#[derive(Clone, Debug)]
pub struct GenParams {
    pub nx: (usize, usize),
    pub ny: (usize, usize),
    pub nz: (usize, usize),
    /// Layer count for the stack families.
    pub layers: (usize, usize),
    /// Vacuum wavelength draw range, nm.
    pub lambda_nm: (f64, f64),
    /// Grid resolution draw range, cells per vacuum wavelength.
    pub lambda_cells: (f64, f64),
    /// Sphere count for the particle family.
    pub spheres: (usize, usize),
    /// Convergence cap for emitted specs.
    pub max_periods: usize,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            nx: (8, 16),
            ny: (8, 16),
            nz: (28, 48),
            layers: (2, 6),
            lambda_nm: (420.0, 780.0),
            lambda_cells: (8.0, 14.0),
            spheres: (1, 6),
            max_periods: 4,
        }
    }
}

impl GenParams {
    /// A deliberately tiny grid for smoke tests and CI fuzz jobs.
    pub fn tiny() -> Self {
        GenParams {
            nx: (6, 8),
            ny: (6, 8),
            nz: (24, 30),
            layers: (1, 3),
            spheres: (1, 3),
            max_periods: 2,
            ..GenParams::default()
        }
    }

    /// Reject degenerate or out-of-band parameter ranges with a message
    /// naming the offending field. Generators call this before drawing,
    /// so bad params are an error, never a panic.
    pub fn validate(&self) -> Result<(), String> {
        for (what, (lo, hi)) in [
            ("nx", self.nx),
            ("ny", self.ny),
            ("nz", self.nz),
            ("layers", self.layers),
            ("spheres", self.spheres),
        ] {
            if lo == 0 && what != "layers" && what != "spheres" {
                return Err(format!("[gen] {what} range must start at 1, got {lo}"));
            }
            if lo > hi {
                return Err(format!("[gen] degenerate {what} range: lo {lo} > hi {hi}"));
            }
        }
        for (what, (lo, hi)) in [
            ("lambda_nm", self.lambda_nm),
            ("lambda_cells", self.lambda_cells),
        ] {
            if !lo.is_finite() || !hi.is_finite() || lo > hi {
                return Err(format!("[gen] degenerate {what} range: [{lo}, {hi}]"));
            }
        }
        let (band_lo, band_hi) = LAMBDA_BAND_NM;
        if self.lambda_nm.0 < band_lo || self.lambda_nm.1 > band_hi {
            return Err(format!(
                "[gen] lambda_nm range [{}, {}] leaves the calibrated band [{band_lo}, {band_hi}]",
                self.lambda_nm.0, self.lambda_nm.1
            ));
        }
        if self.lambda_cells.0 < 4.0 {
            return Err(format!(
                "[gen] lambda_cells range starts at {} — below the resolvable minimum of 4",
                self.lambda_cells.0
            ));
        }
        // The generators place PML, a source sheet and structure along
        // z; below ~20 cells there is no room for all three.
        if self.nz.0 < 20 {
            return Err(format!(
                "[gen] nz range starts at {} — need at least 20 cells for PML + source + structure",
                self.nz.0
            ));
        }
        if self.max_periods == 0 {
            return Err("[gen] max_periods must be at least 1".to_string());
        }
        Ok(())
    }
}

/// Materials the stack families draw layer bodies from.
const STACK_MATERIALS: [&str; 6] = ["glass", "SiO2", "TCO", "a-Si:H", "uc-Si:H", "c-Si"];
/// Back-reflector / plasmonic metals.
const METALS: [&str; 2] = ["Ag", "Au"];
/// Host media for particle dispersions.
const HOSTS: [&str; 3] = ["vacuum", "glass", "SiO2"];
/// Particle materials (dielectric and plasmonic).
const PARTICLES: [&str; 4] = ["SiO2", "c-Si", "Ag", "Au"];

/// Generate one spec from a `(family, seed, params)` triple.
///
/// The emitted spec is validated before being returned; a validation
/// failure here means the generator itself is buggy and is reported as
/// an error (the fuzz harness turns it into a repro line).
pub fn generate(family: Family, seed: u64, params: &GenParams) -> Result<ScenarioSpec, String> {
    params.validate()?;
    let mut rng = GenRng::for_family(family.name(), seed);
    let spec = build(family, seed, params, &mut rng);
    spec.validate()
        .map_err(|e| format!("generated spec failed validation (generator bug): {e}"))?;
    Ok(spec)
}

fn build(family: Family, seed: u64, p: &GenParams, rng: &mut GenRng) -> ScenarioSpec {
    let nx = rng.range_usize(p.nx.0, p.nx.1);
    let ny = rng.range_usize(p.ny.0, p.ny.1);
    let nz = rng.range_usize(p.nz.0, p.nz.1);
    let lambda_nm = round2(rng.range_f64(p.lambda_nm.0, p.lambda_nm.1));
    let lambda_cells = round2(rng.range_f64(p.lambda_cells.0, p.lambda_cells.1));

    // Fixed z budget: PML at both ends, the source sheet two cells
    // under the top PML, structure strictly below the source.
    let pml = 4usize.min((nz / 6).max(2));
    let z_source = nz - pml - 2;
    let z_floor = (pml + 1) as f64;
    let z_ceil = (z_source - 2) as f64;

    let scene = match family {
        Family::Multilayer => stack_scene(rng, p, z_floor, z_ceil, false),
        Family::RoughInterface => stack_scene(rng, p, z_floor, z_ceil, true),
        Family::Nanoparticle => particle_scene(rng, p, nx, ny, z_floor, z_ceil),
        Family::Nanowire => nanowire_scene(rng, nx, ny, z_floor, z_ceil),
    };

    ScenarioSpec {
        name: format!("gen-{}-s{seed}", family.name()),
        description: format!("generated: {} (seed {seed})", family.description()),
        grid: GridDims::new(nx, ny, nz),
        physics: PhysicsSpec {
            lambda_cells,
            lambda_nm,
            cfl: 0.95,
        },
        pml: Some(PmlSpec::new(pml)),
        source: Some(SourceSpec::x_polarized(z_source, 1.0)),
        scene,
        engine: pick_engine(rng),
        convergence: ConvergenceDecl {
            tol: 1e-2,
            max_periods: p.max_periods,
        },
        sweep: None,
        workers: 1,
        outputs: OutputsDecl::default(),
    }
}

/// Two decimals: keeps the TOML short and makes the float→text→float
/// roundtrip trivially exact.
fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Either the single-thread periodic naive engine or a small MWD
/// configuration that `MwdConfig::validate` accepts on any grid the
/// params can produce (dw=4 diamonds over bz=2 rows, 1–3 in-diamond
/// threads, 1–2 groups).
fn pick_engine(rng: &mut GenRng) -> EngineDecl {
    if rng.chance(0.5) {
        EngineDecl::NaivePeriodicXY
    } else {
        EngineDecl::Mwd {
            dw: 4,
            bz: 2,
            tg_x: 1,
            tg_z: 1,
            tg_c: *rng.pick(&[1usize, 3]),
            groups: rng.range_usize(1, 2),
        }
    }
}

fn stack_scene(
    rng: &mut GenRng,
    p: &GenParams,
    z_floor: f64,
    z_ceil: f64,
    textured: bool,
) -> SceneDecl {
    let n_layers = rng.range_usize(p.layers.0, p.layers.1).max(1);
    let with_metal = rng.chance(0.4);
    let metal = *rng.pick(&METALS);

    // Draw relative thickness weights, then scale the stack to the
    // available z span so the layers always fit between PML and source.
    let weights: Vec<f64> = (0..n_layers).map(|_| rng.range_f64(0.5, 2.0)).collect();
    let total: f64 = weights.iter().sum();
    let avail = z_ceil - z_floor;
    let metal_h = if with_metal {
        (avail * 0.15).min(4.0)
    } else {
        0.0
    };
    let stack_span = avail - metal_h;

    let mut materials: Vec<String> = vec!["vacuum".to_string()];
    let mut layers = Vec::new();
    let mut z = z_floor;
    if with_metal {
        materials.push(metal.to_string());
        layers.push(LayerDecl::flat(metal, z, round2(z + metal_h)));
        z = round2(z + metal_h);
    }
    for w in &weights {
        let body = *rng.pick(&STACK_MATERIALS);
        if !materials.iter().any(|m| m == body) {
            materials.push(body.to_string());
        }
        let z_hi = round2(z + stack_span * w / total);
        let mut layer = LayerDecl::flat(body, z, z_hi);
        if textured && z_hi - z > 2.0 {
            // Texture amplitude stays below half the layer thickness so
            // the perturbed interface cannot escape the grid.
            layer.top_texture = Some(Texture {
                amplitude: round2(rng.range_f64(0.2, ((z_hi - z) * 0.3).min(1.5))),
                period: round2(rng.range_f64(3.0, 9.0)),
                seed: rng.next_u64() & i64::MAX as u64,
            });
        }
        layers.push(layer);
        z = z_hi;
    }
    // Guard against float accumulation pushing the top edge past the
    // ceiling: clamp the last layer.
    if let Some(last) = layers.last_mut() {
        if last.z_hi > z_ceil {
            last.z_hi = z_ceil;
        }
    }
    SceneDecl::Explicit {
        materials,
        background: "vacuum".to_string(),
        layers,
        spheres: Vec::new(),
    }
}

fn particle_scene(
    rng: &mut GenRng,
    p: &GenParams,
    nx: usize,
    ny: usize,
    z_floor: f64,
    z_ceil: f64,
) -> SceneDecl {
    let host = *rng.pick(&HOSTS);
    let particle = loop {
        let m = *rng.pick(&PARTICLES);
        if m != host {
            break m;
        }
    };
    let n = rng.range_usize(p.spheres.0, p.spheres.1).max(1);
    let r_max = (nx.min(ny) as f64 / 4.0).max(1.0);
    let spheres = (0..n)
        .map(|_| {
            let radius = round2(rng.range_f64(0.8, r_max));
            SphereDecl {
                material: particle.to_string(),
                center: [
                    round2(rng.range_f64(0.0, nx as f64)),
                    round2(rng.range_f64(0.0, ny as f64)),
                    round2(
                        rng.range_f64(z_floor + radius, (z_ceil - radius).max(z_floor + radius)),
                    ),
                ],
                radius,
            }
        })
        .collect();
    let mut materials = vec![host.to_string(), particle.to_string()];
    materials.dedup();
    SceneDecl::Explicit {
        materials,
        background: host.to_string(),
        layers: Vec::new(),
        spheres,
    }
}

fn nanowire_scene(rng: &mut GenRng, nx: usize, ny: usize, z_floor: f64, z_ceil: f64) -> SceneDecl {
    let metal = *rng.pick(&METALS);
    let radius = round2(rng.range_f64(1.0, (nx as f64 / 5.0).max(1.0)));
    let cx = round2(rng.range_f64(radius, nx as f64 - radius));
    let cz = round2(rng.range_f64(z_floor + radius, (z_ceil - radius).max(z_floor + radius)));
    // Overlapping spheres along the full y extent make a continuous wire.
    let spheres = (0..ny)
        .map(|j| SphereDecl {
            material: metal.to_string(),
            center: [cx, j as f64 + 0.5, cz],
            radius,
        })
        .collect();
    SceneDecl::Explicit {
        materials: vec!["vacuum".to_string(), metal.to_string()],
        background: "vacuum".to_string(),
        layers: Vec::new(),
        spheres,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_generates_valid_specs() {
        let p = GenParams::default();
        for family in Family::ALL {
            for seed in 0..20u64 {
                let spec = generate(family, seed, &p)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", family.name()));
                assert_eq!(spec.name, format!("gen-{}-s{seed}", family.name()));
                assert!(spec.sweep.is_none(), "generated specs never sweep");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = GenParams::default();
        for family in Family::ALL {
            let a = generate(family, 99, &p).unwrap();
            let b = generate(family, 99, &p).unwrap();
            assert_eq!(a, b);
            assert_eq!(a.to_toml_string(), b.to_toml_string());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = GenParams::default();
        let a = generate(Family::Multilayer, 1, &p).unwrap();
        let b = generate(Family::Multilayer, 2, &p).unwrap();
        assert_ne!(a.to_toml_string(), b.to_toml_string());
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn family_names_roundtrip() {
        for f in Family::ALL {
            assert_eq!(f.name().parse(), Ok(f));
        }
        let e = "no-such".parse::<Family>().unwrap_err();
        assert!(e.contains("`no-such`") && e.contains("nanowire"), "{e}");
    }

    #[test]
    fn params_validation_names_the_field() {
        let p = GenParams {
            layers: (5, 2),
            ..GenParams::default()
        };
        let e = p.validate().unwrap_err();
        assert!(e.contains("degenerate layers range"), "{e}");

        let p = GenParams {
            lambda_nm: (200.0, 600.0),
            ..GenParams::default()
        };
        let e = p.validate().unwrap_err();
        assert!(e.contains("calibrated band"), "{e}");

        let p = GenParams {
            nz: (4, 10),
            ..GenParams::default()
        };
        assert!(p.validate().is_err());
    }
}
