//! The declarative scenario specification.
//!
//! A [`ScenarioSpec`] describes a complete THIIM workload as data: grid
//! extents, the material stack / geometry (or a named scene preset),
//! plane-wave source, PML, execution engine, convergence criteria, an
//! optional wavelength sweep, and the output artifacts to compute. Specs
//! serialize to and from the TOML subset of [`crate::toml`], validate
//! with precise error messages, and build [`ThiimSolver`] instances from
//! one [`SolverConfig`] — the same problem description the examples
//! spell, so scenario-driven runs are bit-identical to hand-rolled ones.
//! Grid, PML, source and textures are held in the solver's own types;
//! only what a spec translates (material names, engine kinds) has a
//! declaration type of its own.

pub use em_field::GridDims;
pub use em_solver::geometry::Texture;
pub use em_solver::{PmlSpec, SourceSpec};

use em_field::Axis;
use em_kernels::SpatialConfig;
use em_solver::geometry::Layer;
use em_solver::{Engine, Material, MaterialId, Scene, SolverConfig, Sphere, ThiimSolver};
use mwd_core::{MwdConfig, TgShape};

/// Names the spec format accepts for materials, mapped to the presets of
/// [`em_solver::materials`].
pub const MATERIAL_NAMES: [&str; 9] = [
    "vacuum", "glass", "SiO2", "TCO", "a-Si:H", "uc-Si:H", "Ag", "Au", "c-Si",
];

/// Names the spec format accepts for whole-scene presets.
pub const SCENE_PRESETS: [&str; 1] = ["tandem-solar-cell"];

/// Resolve a catalog material by name.
pub fn material_by_name(name: &str) -> Option<Material> {
    match name {
        "vacuum" => Some(Material::vacuum()),
        "glass" => Some(Material::glass()),
        "SiO2" => Some(Material::silica()),
        "TCO" => Some(Material::tco()),
        "a-Si:H" => Some(Material::a_si()),
        "uc-Si:H" => Some(Material::uc_si()),
        "Ag" => Some(Material::silver()),
        "Au" => Some(Material::gold()),
        "c-Si" => Some(Material::c_si()),
        _ => None,
    }
}

/// Wavelength and time-step parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhysicsSpec {
    /// Vacuum wavelength in cells (grid resolution).
    pub lambda_cells: f64,
    /// Vacuum wavelength in nm (material dispersion lookup).
    pub lambda_nm: f64,
    /// CFL safety factor.
    pub cfl: f64,
}

/// One horizontal layer, z in cells.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerDecl {
    pub material: String,
    pub z_lo: f64,
    pub z_hi: f64,
    pub top_texture: Option<Texture>,
    pub bottom_texture: Option<Texture>,
}

impl LayerDecl {
    pub fn flat(material: &str, z_lo: f64, z_hi: f64) -> Self {
        LayerDecl {
            material: material.to_string(),
            z_lo,
            z_hi,
            top_texture: None,
            bottom_texture: None,
        }
    }
}

/// One spherical inclusion, coordinates in cells.
#[derive(Clone, Debug, PartialEq)]
pub struct SphereDecl {
    pub material: String,
    pub center: [f64; 3],
    pub radius: f64,
}

/// The scene: either a named preset or an explicit stack.
#[derive(Clone, Debug, PartialEq)]
pub enum SceneDecl {
    /// A scene generator from [`em_solver::geometry`], by name
    /// (see [`SCENE_PRESETS`]).
    Preset { preset: String },
    /// Explicit material list + layers + spheres. Materials are
    /// registered in listed order (so `MaterialId`s are reproducible);
    /// `background` must name one of them.
    Explicit {
        materials: Vec<String>,
        background: String,
        layers: Vec<LayerDecl>,
        spheres: Vec<SphereDecl>,
    },
}

impl SceneDecl {
    pub fn vacuum() -> SceneDecl {
        SceneDecl::Explicit {
            materials: vec!["vacuum".to_string()],
            background: "vacuum".to_string(),
            layers: Vec::new(),
            spheres: Vec::new(),
        }
    }

    /// Materialize the scene for the given grid.
    pub fn build(&self, dims: GridDims) -> Result<Scene, String> {
        match self {
            SceneDecl::Preset { preset } => match preset.as_str() {
                "tandem-solar-cell" => Ok(Scene::tandem_solar_cell(dims.nx, dims.ny, dims.nz)),
                other => Err(format!(
                    "unknown scene preset `{other}` (known: {})",
                    SCENE_PRESETS.join(", ")
                )),
            },
            SceneDecl::Explicit {
                materials,
                background,
                layers,
                spheres,
            } => {
                let resolved: Vec<Material> = materials
                    .iter()
                    .map(|n| {
                        material_by_name(n).ok_or_else(|| {
                            format!(
                                "unknown material `{n}` (known: {})",
                                MATERIAL_NAMES.join(", ")
                            )
                        })
                    })
                    .collect::<Result<_, String>>()?;
                let id_of = |name: &str| -> Result<MaterialId, String> {
                    materials
                        .iter()
                        .position(|m| m == name)
                        .map(MaterialId)
                        .ok_or_else(|| format!("material `{name}` is not in the materials list"))
                };
                let mut scene = Scene {
                    materials: resolved,
                    background: id_of(background)?,
                    layers: Vec::new(),
                    spheres: Vec::new(),
                };
                for l in layers {
                    scene.layers.push(Layer {
                        material: id_of(&l.material)?,
                        z_lo: l.z_lo,
                        z_hi: l.z_hi,
                        top_texture: l.top_texture,
                        bottom_texture: l.bottom_texture,
                    });
                }
                for s in spheres {
                    scene.spheres.push(Sphere {
                        center: s.center,
                        radius: s.radius,
                        material: id_of(&s.material)?,
                    });
                }
                Ok(scene)
            }
        }
    }
}

/// Execution engine selection, as data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineDecl {
    /// Let the auto-tuner pick the MWD configuration for this grid at
    /// run time (resolved through the tuning cache by the batch runner;
    /// `threads = 0` means "this job's thread-budget share").
    Auto {
        threads: usize,
    },
    Naive,
    NaivePeriodicXY,
    Spatial {
        by: usize,
        bz: usize,
        threads: usize,
    },
    Mwd {
        dw: usize,
        bz: usize,
        tg_x: usize,
        tg_z: usize,
        tg_c: usize,
        groups: usize,
    },
    MwdPeriodicX {
        dw: usize,
        bz: usize,
        tg_x: usize,
        tg_z: usize,
        tg_c: usize,
        groups: usize,
    },
}

impl EngineDecl {
    pub const KINDS: [&'static str; 6] = [
        "auto",
        "naive",
        "naive-periodic-xy",
        "spatial",
        "mwd",
        "mwd-periodic-x",
    ];

    /// A reasonable engine of the given kind for `threads` threads
    /// (used by the CLI `--engine` override).
    pub fn auto(kind: &str, threads: usize) -> Result<EngineDecl, String> {
        let threads = threads.max(1);
        match kind {
            "auto" => Ok(EngineDecl::Auto { threads }),
            "naive" => Ok(EngineDecl::Naive),
            "naive-periodic-xy" => Ok(EngineDecl::NaivePeriodicXY),
            "spatial" => Ok(EngineDecl::Spatial {
                by: 8,
                bz: 8,
                threads,
            }),
            "mwd" | "mwd-periodic-x" => Ok(EngineDecl::mwd_family(
                kind,
                MwdConfig::one_wd(4, 2, threads),
            )),
            other => Err(format!(
                "unknown engine kind `{other}` (known: {})",
                Self::KINDS.join(", ")
            )),
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            EngineDecl::Auto { .. } => "auto",
            EngineDecl::Naive => "naive",
            EngineDecl::NaivePeriodicXY => "naive-periodic-xy",
            EngineDecl::Spatial { .. } => "spatial",
            EngineDecl::Mwd { .. } => "mwd",
            EngineDecl::MwdPeriodicX { .. } => "mwd-periodic-x",
        }
    }

    /// Human-readable engine description for status lines and artifacts.
    pub fn label(&self) -> String {
        match *self {
            EngineDecl::Auto { threads: 0 } => "auto".to_string(),
            EngineDecl::Auto { threads } => format!("auto(threads={threads})"),
            EngineDecl::Naive | EngineDecl::NaivePeriodicXY => self.kind().to_string(),
            EngineDecl::Spatial { by, bz, threads } => {
                format!("spatial(by={by}, bz={bz}, threads={threads})")
            }
            EngineDecl::Mwd { .. } | EngineDecl::MwdPeriodicX { .. } => {
                let c = self.mwd_config().expect("an MWD-family declaration");
                format!(
                    "{}(dw={}, bz={}, tg={}, groups={})",
                    self.kind(),
                    c.dw,
                    c.bz,
                    c.tg,
                    c.groups
                )
            }
        }
    }

    /// Threads this engine occupies while stepping.
    pub fn threads(&self) -> usize {
        match *self {
            EngineDecl::Auto { threads } => threads.max(1),
            EngineDecl::Naive | EngineDecl::NaivePeriodicXY => 1,
            EngineDecl::Spatial { threads, .. } => threads,
            EngineDecl::Mwd { .. } | EngineDecl::MwdPeriodicX { .. } => self
                .mwd_config()
                .expect("an MWD-family declaration")
                .threads(),
        }
    }

    /// `cfg` as a declaration of the MWD family: `mwd-periodic-x` for
    /// that kind, plain `mwd` for any other. With [`Self::mwd_config`],
    /// the one place the six declared fields and an [`MwdConfig`] meet.
    pub fn mwd_family(kind: &str, cfg: MwdConfig) -> EngineDecl {
        let MwdConfig { dw, bz, tg, groups } = cfg;
        let (tg_x, tg_z, tg_c) = (tg.x, tg.z, tg.c);
        if kind == "mwd-periodic-x" {
            EngineDecl::MwdPeriodicX {
                dw,
                bz,
                tg_x,
                tg_z,
                tg_c,
                groups,
            }
        } else {
            EngineDecl::Mwd {
                dw,
                bz,
                tg_x,
                tg_z,
                tg_c,
                groups,
            }
        }
    }

    /// The configuration an MWD-family declaration spells (not yet
    /// validated against a grid); `None` for every other kind.
    pub fn mwd_config(&self) -> Option<MwdConfig> {
        match *self {
            EngineDecl::Mwd {
                dw,
                bz,
                tg_x,
                tg_z,
                tg_c,
                groups,
            }
            | EngineDecl::MwdPeriodicX {
                dw,
                bz,
                tg_x,
                tg_z,
                tg_c,
                groups,
            } => Some(MwdConfig {
                dw,
                bz,
                tg: TgShape {
                    x: tg_x,
                    z: tg_z,
                    c: tg_c,
                },
                groups,
            }),
            _ => None,
        }
    }

    /// Validate against the grid and produce the runnable [`Engine`].
    pub fn to_engine(&self, dims: GridDims) -> Result<Engine, String> {
        match *self {
            EngineDecl::Auto { .. } => Err(
                "engine `auto` must be resolved through the tuning cache before execution \
                 (the batch runner does this; see `mwd tune`)"
                    .to_string(),
            ),
            EngineDecl::Naive => Ok(Engine::Naive),
            EngineDecl::NaivePeriodicXY => Ok(Engine::NaivePeriodicXY),
            EngineDecl::Spatial { by, bz, threads } => {
                if by == 0 || bz == 0 {
                    return Err(format!(
                        "spatial block sizes must be positive, got {by}x{bz}"
                    ));
                }
                if threads == 0 {
                    return Err("spatial engine needs at least one thread".to_string());
                }
                Ok(Engine::Spatial {
                    cfg: SpatialConfig::new(by, bz),
                    threads,
                })
            }
            EngineDecl::Mwd { .. } | EngineDecl::MwdPeriodicX { .. } => {
                let cfg = self.mwd_config().expect("an MWD-family declaration");
                cfg.validate(dims)?;
                Ok(if matches!(self, EngineDecl::Mwd { .. }) {
                    Engine::Mwd(cfg)
                } else {
                    Engine::MwdPeriodicX(cfg)
                })
            }
        }
    }
}

/// Stop criteria for the per-job convergence loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConvergenceDecl {
    /// Relative field change per period below which the run converged.
    pub tol: f64,
    pub max_periods: usize,
}

impl Default for ConvergenceDecl {
    fn default() -> Self {
        ConvergenceDecl {
            tol: 1e-2,
            max_periods: 40,
        }
    }
}

/// One absorption-accounting slab, z in cells.
#[derive(Clone, Debug, PartialEq)]
pub struct SlabDecl {
    pub name: String,
    pub z_lo: usize,
    pub z_hi: usize,
}

/// Which result artifacts a job computes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OutputsDecl {
    /// Include the laterally averaged |E|^2(z) profile in the artifact.
    pub intensity_profile: bool,
    /// Absorption totals per named slab.
    pub absorption: Vec<SlabDecl>,
}

/// One wavelength point of a sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    pub nm: f64,
    pub cells: f64,
}

/// A parameter sweep expanded into one job per point.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepDecl {
    pub lambdas: Vec<SweepPoint>,
}

/// A fully declarative workload description.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    pub name: String,
    pub description: String,
    pub grid: GridDims,
    pub physics: PhysicsSpec,
    pub pml: Option<PmlSpec>,
    pub source: Option<SourceSpec>,
    pub scene: SceneDecl,
    pub engine: EngineDecl,
    pub convergence: ConvergenceDecl,
    pub sweep: Option<SweepDecl>,
    pub outputs: OutputsDecl,
    /// Worker processes to decompose each solve across (z-axis domain
    /// decomposition via `em_dist`). 1 — the default — solves in
    /// process; the canonical TOML omits the key at 1, so adding this
    /// knob changed no existing content hash.
    pub workers: usize,
}

/// One executable unit expanded from a spec (a single wavelength point).
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioJob {
    pub scenario: String,
    /// Index within the scenario's own sweep.
    pub sweep_index: usize,
    pub lambda_nm: f64,
    pub lambda_cells: f64,
}

impl ScenarioSpec {
    pub fn dims(&self) -> GridDims {
        self.grid
    }

    /// Expand the sweep (or the single physics point) into jobs.
    pub fn jobs(&self) -> Vec<ScenarioJob> {
        let points: Vec<SweepPoint> = match &self.sweep {
            Some(s) => s.lambdas.clone(),
            None => vec![SweepPoint {
                nm: self.physics.lambda_nm,
                cells: self.physics.lambda_cells,
            }],
        };
        points
            .into_iter()
            .enumerate()
            .map(|(i, p)| ScenarioJob {
                scenario: self.name.clone(),
                sweep_index: i,
                lambda_nm: p.nm,
                lambda_cells: p.cells,
            })
            .collect()
    }

    /// Build the scene for this spec's grid.
    pub fn build_scene(&self) -> Result<Scene, String> {
        self.scene.build(self.dims())
    }

    /// Build a solver for one job: the job's wavelength point on this
    /// spec's [`SolverConfig`].
    pub fn build_solver(&self, job: &ScenarioJob) -> Result<ThiimSolver, String> {
        Ok(ThiimSolver::new(SolverConfig {
            dims: self.grid,
            scene: self.build_scene()?,
            lambda_cells: job.lambda_cells,
            lambda_nm: job.lambda_nm,
            cfl: self.physics.cfl,
            pml: self.pml,
            source: self.source,
        }))
    }

    /// The runnable engine, validated against this spec's grid.
    pub fn engine(&self) -> Result<Engine, String> {
        self.engine.to_engine(self.dims())
    }

    /// One-line description for `mwd list`.
    pub fn summary(&self) -> String {
        format!(
            "{:<18} {:>11}  {:<18} {} job{}  {}",
            self.name,
            format!("{}", self.dims()),
            self.engine.kind(),
            self.jobs().len(),
            if self.jobs().len() == 1 { " " } else { "s" },
            self.description
        )
    }

    /// Content hash of the spec's canonical TOML serialization — 32 hex
    /// digits, stable across hosts and processes. The same key the job
    /// service derives for a submitted spec body, so artifacts named by
    /// it line up with the service's result store.
    pub fn content_hash(&self) -> String {
        em_json::hash::content_hash(&[&self.to_toml_string()])
    }

    // ---------------------------------------------------- validation

    /// Check every declared quantity for consistency; error messages
    /// name the offending section and value.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_inner()
            .map_err(|e| format!("scenario `{}`: {e}", self.name))
    }

    fn validate_inner(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("name must not be empty".to_string());
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "name `{}` may only use letters, digits, `-` and `_` \
                 (it becomes part of artifact file names)",
                self.name
            ));
        }
        let g = self.grid;
        if g.nx == 0 || g.ny == 0 || g.nz == 0 {
            return Err(format!(
                "[grid] extents must be positive, got {}x{}x{}",
                g.nx, g.ny, g.nz
            ));
        }
        let dims = self.dims();

        let p = self.physics;
        for (what, v) in [
            ("lambda_cells", p.lambda_cells),
            ("lambda_nm", p.lambda_nm),
            ("cfl", p.cfl),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "[physics] {what} must be positive and finite, got {v}"
                ));
            }
        }
        if p.lambda_cells < 4.0 {
            return Err(format!(
                "[physics] lambda_cells = {} is below the resolvable minimum of 4 cells",
                p.lambda_cells
            ));
        }
        if p.cfl > 1.0 {
            return Err(format!(
                "[physics] cfl = {} exceeds the stability limit 1",
                p.cfl
            ));
        }

        if let Some(pml) = &self.pml {
            if 2 * pml.thickness >= g.nz {
                return Err(format!(
                    "[pml] two {}-cell layers do not fit into nz = {}",
                    pml.thickness, g.nz
                ));
            }
            if !pml.order.is_finite() || pml.order <= 0.0 {
                return Err(format!("[pml] order must be positive, got {}", pml.order));
            }
            if !pml.sigma_max.is_finite() || pml.sigma_max < 0.0 {
                return Err(format!(
                    "[pml] sigma_max must be non-negative, got {}",
                    pml.sigma_max
                ));
            }
        }

        if let Some(src) = &self.source {
            if src.z_plane >= g.nz {
                return Err(format!(
                    "[source] z_plane = {} is outside the grid (nz = {})",
                    src.z_plane, g.nz
                ));
            }
            if !src.amplitude.is_finite() {
                return Err("[source] amplitude must be finite".to_string());
            }
            if !matches!(src.polarization, Axis::X | Axis::Y) {
                return Err("[source] polarization must be `x` or `y`".to_string());
            }
        }

        self.validate_scene()?;

        // `to_engine` runs the full structural check (diamond width,
        // thread-group shape, z-parallelism vs BZ, x-parallelism vs Nx).
        // `auto` has no structure yet — the tuner only emits validated
        // configurations, so the spec is consistent by construction.
        if !matches!(self.engine, EngineDecl::Auto { .. }) {
            self.engine
                .to_engine(dims)
                .map_err(|e| format!("[engine] {e}"))?;
        }

        if self.workers == 0 {
            return Err("workers must be at least 1".to_string());
        }
        if self.workers > g.nz {
            return Err(format!(
                "workers = {} exceeds nz = {}; every z-slab needs at least one plane",
                self.workers, g.nz
            ));
        }

        let c = self.convergence;
        if !c.tol.is_finite() || c.tol <= 0.0 {
            return Err(format!("[convergence] tol must be positive, got {}", c.tol));
        }
        if c.max_periods == 0 {
            return Err("[convergence] max_periods must be at least 1".to_string());
        }

        if let Some(s) = &self.sweep {
            if s.lambdas.is_empty() {
                return Err("[sweep] needs at least one lambda point".to_string());
            }
            for (i, pt) in s.lambdas.iter().enumerate() {
                if !pt.nm.is_finite() || pt.nm <= 0.0 || !pt.cells.is_finite() || pt.cells < 4.0 {
                    return Err(format!(
                        "[sweep] lambda #{i}: nm must be positive and cells >= 4, \
                         got nm = {}, cells = {}",
                        pt.nm, pt.cells
                    ));
                }
            }
        }

        for (i, slab) in self.outputs.absorption.iter().enumerate() {
            if slab.z_lo >= slab.z_hi || slab.z_hi > g.nz {
                return Err(format!(
                    "[outputs] absorption slab #{i} (`{}`): need z_lo < z_hi <= nz, \
                     got [{}, {}) with nz = {}",
                    slab.name, slab.z_lo, slab.z_hi, g.nz
                ));
            }
        }
        Ok(())
    }

    fn validate_scene(&self) -> Result<(), String> {
        let g = self.grid;
        match &self.scene {
            SceneDecl::Preset { preset } => {
                if !SCENE_PRESETS.contains(&preset.as_str()) {
                    return Err(format!(
                        "[scene] unknown preset `{preset}` (known: {})",
                        SCENE_PRESETS.join(", ")
                    ));
                }
            }
            SceneDecl::Explicit {
                materials,
                background,
                layers,
                spheres,
            } => {
                if materials.is_empty() {
                    return Err("[scene] materials list must not be empty".to_string());
                }
                for (i, m) in materials.iter().enumerate() {
                    if material_by_name(m).is_none() {
                        return Err(format!(
                            "[scene] unknown material `{m}` (known: {})",
                            MATERIAL_NAMES.join(", ")
                        ));
                    }
                    if materials[..i].contains(m) {
                        return Err(format!("[scene] material `{m}` listed twice"));
                    }
                }
                if !materials.contains(background) {
                    return Err(format!(
                        "[scene] background `{background}` is not in the materials list"
                    ));
                }
                for (i, l) in layers.iter().enumerate() {
                    if !materials.contains(&l.material) {
                        return Err(format!(
                            "[scene] layer #{i} uses material `{}` \
                             which is not in the materials list",
                            l.material
                        ));
                    }
                    if !(l.z_lo.is_finite() && l.z_hi.is_finite())
                        || l.z_lo < 0.0
                        || l.z_lo >= l.z_hi
                        || l.z_hi > g.nz as f64
                    {
                        return Err(format!(
                            "[scene] layer #{i}: need 0 <= z_lo < z_hi <= nz = {}, \
                             got [{}, {})",
                            g.nz, l.z_lo, l.z_hi
                        ));
                    }
                    for t in [l.top_texture, l.bottom_texture].into_iter().flatten() {
                        if !t.amplitude.is_finite() || t.amplitude < 0.0 {
                            return Err(format!(
                                "[scene] layer #{i}: texture amplitude must be non-negative"
                            ));
                        }
                        if !t.period.is_finite() || t.period <= 0.0 {
                            return Err(format!(
                                "[scene] layer #{i}: texture period must be positive"
                            ));
                        }
                        if t.seed > i64::MAX as u64 {
                            // TOML integers are i64; a larger seed would
                            // not survive serialization.
                            return Err(format!(
                                "[scene] layer #{i}: texture seed {} exceeds the \
                                 TOML integer maximum {}",
                                t.seed,
                                i64::MAX
                            ));
                        }
                    }
                }
                // Nominal (untextured) layer intervals must be disjoint:
                // overlapping stacks are almost always authoring errors,
                // and "later layer wins" would silently hide them.
                let mut spans: Vec<(f64, f64, usize)> = layers
                    .iter()
                    .enumerate()
                    .map(|(i, l)| (l.z_lo, l.z_hi, i))
                    .collect();
                spans.sort_by(|a, b| a.0.total_cmp(&b.0));
                for w in spans.windows(2) {
                    if w[1].0 < w[0].1 {
                        return Err(format!(
                            "[scene] layers #{} and #{} overlap: [{}, {}) vs [{}, {})",
                            w[0].2, w[1].2, w[0].0, w[0].1, w[1].0, w[1].1
                        ));
                    }
                }
                for (i, s) in spheres.iter().enumerate() {
                    if !materials.contains(&s.material) {
                        return Err(format!(
                            "[scene] sphere #{i} uses material `{}` \
                             which is not in the materials list",
                            s.material
                        ));
                    }
                    if !s.radius.is_finite() || s.radius <= 0.0 {
                        return Err(format!(
                            "[scene] sphere #{i}: radius must be positive, got {}",
                            s.radius
                        ));
                    }
                    let bounds = [g.nx as f64, g.ny as f64, g.nz as f64];
                    for (axis, (&c, &b)) in s.center.iter().zip(bounds.iter()).enumerate() {
                        if !c.is_finite() || c < 0.0 || c > b {
                            return Err(format!(
                                "[scene] sphere #{i}: center component {axis} = {c} \
                                 is outside [0, {b}]"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
