//! [`ScenarioSpec`] ⇄ TOML.
//!
//! The mapping is explicit, field by field, with unknown-key detection
//! per section so typos fail loudly (`unknown key `sigmamax` in [pml]`)
//! instead of silently using a default. Serialization emits every
//! section the spec holds, so `from_toml_str(to_toml_string(s)) == s`.

use crate::spec::{
    ConvergenceDecl, EngineDecl, GridDims, LayerDecl, OutputsDecl, PhysicsSpec, PmlSpec,
    ScenarioSpec, SceneDecl, SlabDecl, SourceSpec, SphereDecl, SweepDecl, SweepPoint, Texture,
};
use crate::toml::{self, Entry, Table, Value};
use em_field::Axis;
use mwd_core::{MwdConfig, TgShape};

// ------------------------------------------------------------ reading

fn check_keys(t: &Table, ctx: &str, allowed: &[&str]) -> Result<(), String> {
    for k in t.keys() {
        if !allowed.contains(&k) {
            return Err(format!(
                "unknown key `{k}` in {ctx} (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn req<'a>(t: &'a Table, key: &str, ctx: &str) -> Result<&'a Entry, String> {
    t.get(key)
        .ok_or_else(|| format!("{ctx}: missing key `{key}`"))
}

fn get_str(t: &Table, key: &str, ctx: &str) -> Result<String, String> {
    match req(t, key, ctx)? {
        Entry::Value(Value::Str(s)) => Ok(s.clone()),
        other => Err(format!("{ctx}: `{key}` must be a string, got {other:?}")),
    }
}

fn get_i64(t: &Table, key: &str, ctx: &str) -> Result<i64, String> {
    match req(t, key, ctx)? {
        Entry::Value(Value::Int(i)) => Ok(*i),
        other => Err(format!("{ctx}: `{key}` must be an integer, got {other:?}")),
    }
}

fn get_usize(t: &Table, key: &str, ctx: &str) -> Result<usize, String> {
    let i = get_i64(t, key, ctx)?;
    usize::try_from(i).map_err(|_| format!("{ctx}: `{key}` must be non-negative, got {i}"))
}

fn get_u64(t: &Table, key: &str, ctx: &str) -> Result<u64, String> {
    let i = get_i64(t, key, ctx)?;
    u64::try_from(i).map_err(|_| format!("{ctx}: `{key}` must be non-negative, got {i}"))
}

fn get_f64(t: &Table, key: &str, ctx: &str) -> Result<f64, String> {
    match req(t, key, ctx)? {
        Entry::Value(Value::Float(f)) => Ok(*f),
        Entry::Value(Value::Int(i)) => Ok(*i as f64),
        other => Err(format!("{ctx}: `{key}` must be a number, got {other:?}")),
    }
}

fn get_bool_or(t: &Table, key: &str, ctx: &str, default: bool) -> Result<bool, String> {
    match t.get(key) {
        None => Ok(default),
        Some(Entry::Value(Value::Bool(b))) => Ok(*b),
        Some(other) => Err(format!("{ctx}: `{key}` must be a boolean, got {other:?}")),
    }
}

fn get_str_array(t: &Table, key: &str, ctx: &str) -> Result<Vec<String>, String> {
    match req(t, key, ctx)? {
        Entry::Value(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                other => Err(format!(
                    "{ctx}: `{key}` must contain only strings, got {other:?}"
                )),
            })
            .collect(),
        other => Err(format!("{ctx}: `{key}` must be an array, got {other:?}")),
    }
}

fn get_f64_triple(t: &Table, key: &str, ctx: &str) -> Result<[f64; 3], String> {
    let items = match req(t, key, ctx)? {
        Entry::Value(Value::Array(items)) => items,
        other => Err(format!("{ctx}: `{key}` must be an array, got {other:?}"))?,
    };
    if items.len() != 3 {
        return Err(format!(
            "{ctx}: `{key}` must have exactly 3 components, got {}",
            items.len()
        ));
    }
    let mut out = [0.0; 3];
    for (i, v) in items.iter().enumerate() {
        out[i] = match v {
            Value::Float(f) => *f,
            Value::Int(n) => *n as f64,
            other => Err(format!(
                "{ctx}: `{key}` must contain only numbers, got {other:?}"
            ))?,
        };
    }
    Ok(out)
}

fn get_table_opt<'a>(t: &'a Table, key: &str, ctx: &str) -> Result<Option<&'a Table>, String> {
    match t.get(key) {
        None => Ok(None),
        Some(Entry::Table(sub)) => Ok(Some(sub)),
        Some(_) => Err(format!("{ctx}: `{key}` must be a table (`[{key}]`)")),
    }
}

fn get_tables<'a>(t: &'a Table, key: &str, ctx: &str) -> Result<Vec<&'a Table>, String> {
    match t.get(key) {
        None => Ok(Vec::new()),
        Some(Entry::Tables(v)) => Ok(v.iter().collect()),
        Some(_) => Err(format!(
            "{ctx}: `{key}` must be an array of tables (`[[{ctx_key}]]`)",
            ctx_key = key
        )),
    }
}

fn texture_from(t: &Table, ctx: &str) -> Result<Texture, String> {
    check_keys(t, ctx, &["amplitude", "period", "seed"])?;
    Ok(Texture {
        amplitude: get_f64(t, "amplitude", ctx)?,
        period: get_f64(t, "period", ctx)?,
        seed: get_u64(t, "seed", ctx)?,
    })
}

fn scene_from(t: &Table) -> Result<SceneDecl, String> {
    let ctx = "[scene]";
    if t.get("preset").is_some() {
        check_keys(t, ctx, &["preset"])?;
        return Ok(SceneDecl::Preset {
            preset: get_str(t, "preset", ctx)?,
        });
    }
    check_keys(t, ctx, &["materials", "background", "layer", "sphere"])?;
    let materials = get_str_array(t, "materials", ctx)?;
    let background = get_str(t, "background", ctx)?;
    let mut layers = Vec::new();
    for (i, lt) in get_tables(t, "layer", ctx)?.into_iter().enumerate() {
        let lctx = format!("[[scene.layer]] #{i}");
        check_keys(
            lt,
            &lctx,
            &["material", "z_lo", "z_hi", "top_texture", "bottom_texture"],
        )?;
        let tex = |key: &str| -> Result<Option<Texture>, String> {
            match get_table_opt(lt, key, &lctx)? {
                None => Ok(None),
                Some(tt) => Ok(Some(texture_from(tt, &format!("{lctx}.{key}"))?)),
            }
        };
        layers.push(LayerDecl {
            material: get_str(lt, "material", &lctx)?,
            z_lo: get_f64(lt, "z_lo", &lctx)?,
            z_hi: get_f64(lt, "z_hi", &lctx)?,
            top_texture: tex("top_texture")?,
            bottom_texture: tex("bottom_texture")?,
        });
    }
    let mut spheres = Vec::new();
    for (i, st) in get_tables(t, "sphere", ctx)?.into_iter().enumerate() {
        let sctx = format!("[[scene.sphere]] #{i}");
        check_keys(st, &sctx, &["material", "center", "radius"])?;
        spheres.push(SphereDecl {
            material: get_str(st, "material", &sctx)?,
            center: get_f64_triple(st, "center", &sctx)?,
            radius: get_f64(st, "radius", &sctx)?,
        });
    }
    Ok(SceneDecl::Explicit {
        materials,
        background,
        layers,
        spheres,
    })
}

fn engine_from(t: &Table) -> Result<EngineDecl, String> {
    let ctx = "[engine]";
    let kind = get_str(t, "kind", ctx)?;
    match kind.as_str() {
        "auto" => {
            check_keys(t, ctx, &["kind", "threads"])?;
            Ok(EngineDecl::Auto {
                threads: match t.get("threads") {
                    None => 0,
                    Some(_) => get_usize(t, "threads", ctx)?,
                },
            })
        }
        "naive" => {
            check_keys(t, ctx, &["kind"])?;
            Ok(EngineDecl::Naive)
        }
        "naive-periodic-xy" => {
            check_keys(t, ctx, &["kind"])?;
            Ok(EngineDecl::NaivePeriodicXY)
        }
        "spatial" => {
            check_keys(t, ctx, &["kind", "by", "bz", "threads"])?;
            Ok(EngineDecl::Spatial {
                by: get_usize(t, "by", ctx)?,
                bz: get_usize(t, "bz", ctx)?,
                threads: get_usize(t, "threads", ctx)?,
            })
        }
        "mwd" | "mwd-periodic-x" => {
            check_keys(
                t,
                ctx,
                &["kind", "dw", "bz", "tg_x", "tg_z", "tg_c", "groups"],
            )?;
            let cfg = MwdConfig {
                dw: get_usize(t, "dw", ctx)?,
                bz: get_usize(t, "bz", ctx)?,
                tg: TgShape {
                    x: get_usize(t, "tg_x", ctx)?,
                    z: get_usize(t, "tg_z", ctx)?,
                    c: get_usize(t, "tg_c", ctx)?,
                },
                groups: get_usize(t, "groups", ctx)?,
            };
            Ok(EngineDecl::mwd_family(&kind, cfg))
        }
        other => Err(format!(
            "{ctx}: unknown engine kind `{other}` (known: {})",
            EngineDecl::KINDS.join(", ")
        )),
    }
}

impl ScenarioSpec {
    /// Parse a scenario document (does not [`validate`](Self::validate)).
    pub fn from_toml_str(text: &str) -> Result<ScenarioSpec, String> {
        Self::from_toml(&toml::parse(text)?)
    }

    pub fn from_toml(root: &Table) -> Result<ScenarioSpec, String> {
        check_keys(
            root,
            "the scenario root",
            &[
                "name",
                "description",
                "grid",
                "physics",
                "pml",
                "source",
                "scene",
                "engine",
                "convergence",
                "sweep",
                "outputs",
                "workers",
            ],
        )?;
        let name = get_str(root, "name", "the scenario root")?;
        let description = match root.get("description") {
            None => String::new(),
            Some(_) => get_str(root, "description", "the scenario root")?,
        };

        let gt = get_table_opt(root, "grid", "the scenario root")?
            .ok_or("the scenario root: missing `[grid]` section")?;
        check_keys(gt, "[grid]", &["nx", "ny", "nz"])?;
        let grid = GridDims {
            nx: get_usize(gt, "nx", "[grid]")?,
            ny: get_usize(gt, "ny", "[grid]")?,
            nz: get_usize(gt, "nz", "[grid]")?,
        };

        let pt = get_table_opt(root, "physics", "the scenario root")?
            .ok_or("the scenario root: missing `[physics]` section")?;
        check_keys(pt, "[physics]", &["lambda_cells", "lambda_nm", "cfl"])?;
        let physics = PhysicsSpec {
            lambda_cells: get_f64(pt, "lambda_cells", "[physics]")?,
            lambda_nm: get_f64(pt, "lambda_nm", "[physics]")?,
            cfl: match pt.get("cfl") {
                None => 0.95,
                Some(_) => get_f64(pt, "cfl", "[physics]")?,
            },
        };

        let pml = match get_table_opt(root, "pml", "the scenario root")? {
            None => None,
            Some(t) => {
                check_keys(t, "[pml]", &["thickness", "order", "sigma_max"])?;
                let thickness = get_usize(t, "thickness", "[pml]")?;
                let defaults = PmlSpec::new(thickness);
                Some(PmlSpec {
                    thickness,
                    order: match t.get("order") {
                        None => defaults.order,
                        Some(_) => get_f64(t, "order", "[pml]")?,
                    },
                    sigma_max: match t.get("sigma_max") {
                        None => defaults.sigma_max,
                        Some(_) => get_f64(t, "sigma_max", "[pml]")?,
                    },
                })
            }
        };

        let source = match get_table_opt(root, "source", "the scenario root")? {
            None => None,
            Some(t) => {
                check_keys(t, "[source]", &["z_plane", "amplitude", "polarization"])?;
                let pol = match t.get("polarization") {
                    None => Axis::X,
                    Some(_) => match get_str(t, "polarization", "[source]")?.as_str() {
                        "x" => Axis::X,
                        "y" => Axis::Y,
                        other => {
                            return Err(format!(
                                "[source]: polarization must be \"x\" or \"y\", got \"{other}\""
                            ))
                        }
                    },
                };
                Some(SourceSpec {
                    z_plane: get_usize(t, "z_plane", "[source]")?,
                    amplitude: match t.get("amplitude") {
                        None => 1.0,
                        Some(_) => get_f64(t, "amplitude", "[source]")?,
                    },
                    polarization: pol,
                })
            }
        };

        let st = get_table_opt(root, "scene", "the scenario root")?
            .ok_or("the scenario root: missing `[scene]` section")?;
        let scene = scene_from(st)?;

        let engine = match get_table_opt(root, "engine", "the scenario root")? {
            None => EngineDecl::NaivePeriodicXY,
            Some(t) => engine_from(t)?,
        };

        let convergence = match get_table_opt(root, "convergence", "the scenario root")? {
            None => ConvergenceDecl::default(),
            Some(t) => {
                check_keys(t, "[convergence]", &["tol", "max_periods"])?;
                ConvergenceDecl {
                    tol: get_f64(t, "tol", "[convergence]")?,
                    max_periods: get_usize(t, "max_periods", "[convergence]")?,
                }
            }
        };

        let sweep = match get_table_opt(root, "sweep", "the scenario root")? {
            None => None,
            Some(t) => {
                check_keys(t, "[sweep]", &["lambda"])?;
                let mut lambdas = Vec::new();
                for (i, lt) in get_tables(t, "lambda", "[sweep]")?.into_iter().enumerate() {
                    let ctx = format!("[[sweep.lambda]] #{i}");
                    check_keys(lt, &ctx, &["nm", "cells"])?;
                    lambdas.push(SweepPoint {
                        nm: get_f64(lt, "nm", &ctx)?,
                        cells: get_f64(lt, "cells", &ctx)?,
                    });
                }
                Some(SweepDecl { lambdas })
            }
        };

        let outputs = match get_table_opt(root, "outputs", "the scenario root")? {
            None => OutputsDecl::default(),
            Some(t) => {
                check_keys(t, "[outputs]", &["intensity_profile", "absorption"])?;
                let mut absorption = Vec::new();
                for (i, at) in get_tables(t, "absorption", "[outputs]")?
                    .into_iter()
                    .enumerate()
                {
                    let ctx = format!("[[outputs.absorption]] #{i}");
                    check_keys(at, &ctx, &["name", "z_lo", "z_hi"])?;
                    absorption.push(SlabDecl {
                        name: get_str(at, "name", &ctx)?,
                        z_lo: get_usize(at, "z_lo", &ctx)?,
                        z_hi: get_usize(at, "z_hi", &ctx)?,
                    });
                }
                OutputsDecl {
                    intensity_profile: get_bool_or(t, "intensity_profile", "[outputs]", false)?,
                    absorption,
                }
            }
        };

        let workers = match root.get("workers") {
            None => 1,
            Some(_) => get_usize(root, "workers", "the scenario root")?,
        };

        Ok(ScenarioSpec {
            name,
            description,
            grid,
            physics,
            pml,
            source,
            scene,
            engine,
            convergence,
            sweep,
            outputs,
            workers,
        })
    }

    // -------------------------------------------------------- writing

    pub fn to_toml_string(&self) -> String {
        toml::serialize(&self.to_toml())
    }

    pub fn to_toml(&self) -> Table {
        let mut root = Table::new();
        root.set_value("name", Value::Str(self.name.clone()));
        root.set_value("description", Value::Str(self.description.clone()));
        // Omitted at the default so pre-dist canonical documents (and
        // every derived content hash) are byte-for-byte unchanged.
        if self.workers != 1 {
            root.set_value("workers", Value::Int(self.workers as i64));
        }

        let mut grid = Table::new();
        grid.set_value("nx", Value::Int(self.grid.nx as i64));
        grid.set_value("ny", Value::Int(self.grid.ny as i64));
        grid.set_value("nz", Value::Int(self.grid.nz as i64));
        root.set("grid", Entry::Table(grid));

        let mut physics = Table::new();
        physics.set_value("lambda_cells", Value::Float(self.physics.lambda_cells));
        physics.set_value("lambda_nm", Value::Float(self.physics.lambda_nm));
        physics.set_value("cfl", Value::Float(self.physics.cfl));
        root.set("physics", Entry::Table(physics));

        if let Some(p) = &self.pml {
            let mut pml = Table::new();
            pml.set_value("thickness", Value::Int(p.thickness as i64));
            pml.set_value("order", Value::Float(p.order));
            pml.set_value("sigma_max", Value::Float(p.sigma_max));
            root.set("pml", Entry::Table(pml));
        }

        if let Some(s) = &self.source {
            let mut src = Table::new();
            src.set_value("z_plane", Value::Int(s.z_plane as i64));
            src.set_value("amplitude", Value::Float(s.amplitude));
            let pol = match s.polarization {
                Axis::Y => "y",
                _ => "x",
            };
            src.set_value("polarization", Value::Str(pol.to_string()));
            root.set("source", Entry::Table(src));
        }

        root.set("scene", Entry::Table(self.scene_to_toml()));
        root.set("engine", Entry::Table(self.engine_to_toml()));

        let mut conv = Table::new();
        conv.set_value("tol", Value::Float(self.convergence.tol));
        conv.set_value(
            "max_periods",
            Value::Int(self.convergence.max_periods as i64),
        );
        root.set("convergence", Entry::Table(conv));

        if let Some(sweep) = &self.sweep {
            let mut st = Table::new();
            let points: Vec<Table> = sweep
                .lambdas
                .iter()
                .map(|p| {
                    let mut t = Table::new();
                    t.set_value("nm", Value::Float(p.nm));
                    t.set_value("cells", Value::Float(p.cells));
                    t
                })
                .collect();
            st.set("lambda", Entry::Tables(points));
            root.set("sweep", Entry::Table(st));
        }

        let mut outputs = Table::new();
        outputs.set_value(
            "intensity_profile",
            Value::Bool(self.outputs.intensity_profile),
        );
        if !self.outputs.absorption.is_empty() {
            let slabs: Vec<Table> = self
                .outputs
                .absorption
                .iter()
                .map(|s| {
                    let mut t = Table::new();
                    t.set_value("name", Value::Str(s.name.clone()));
                    t.set_value("z_lo", Value::Int(s.z_lo as i64));
                    t.set_value("z_hi", Value::Int(s.z_hi as i64));
                    t
                })
                .collect();
            outputs.set("absorption", Entry::Tables(slabs));
        }
        root.set("outputs", Entry::Table(outputs));
        root
    }

    fn scene_to_toml(&self) -> Table {
        let mut scene = Table::new();
        match &self.scene {
            SceneDecl::Preset { preset } => {
                scene.set_value("preset", Value::Str(preset.clone()));
            }
            SceneDecl::Explicit {
                materials,
                background,
                layers,
                spheres,
            } => {
                scene.set_value(
                    "materials",
                    Value::Array(materials.iter().map(|m| Value::Str(m.clone())).collect()),
                );
                scene.set_value("background", Value::Str(background.clone()));
                if !layers.is_empty() {
                    let lts: Vec<Table> = layers.iter().map(layer_to_toml).collect();
                    scene.set("layer", Entry::Tables(lts));
                }
                if !spheres.is_empty() {
                    let sts: Vec<Table> = spheres
                        .iter()
                        .map(|s| {
                            let mut t = Table::new();
                            t.set_value("material", Value::Str(s.material.clone()));
                            t.set_value(
                                "center",
                                Value::Array(s.center.iter().map(|&c| Value::Float(c)).collect()),
                            );
                            t.set_value("radius", Value::Float(s.radius));
                            t
                        })
                        .collect();
                    scene.set("sphere", Entry::Tables(sts));
                }
            }
        }
        scene
    }

    fn engine_to_toml(&self) -> Table {
        let mut t = Table::new();
        t.set_value("kind", Value::Str(self.engine.kind().to_string()));
        match self.engine {
            EngineDecl::Auto { threads } => {
                t.set_value("threads", Value::Int(threads as i64));
            }
            EngineDecl::Naive | EngineDecl::NaivePeriodicXY => {}
            EngineDecl::Spatial { by, bz, threads } => {
                t.set_value("by", Value::Int(by as i64));
                t.set_value("bz", Value::Int(bz as i64));
                t.set_value("threads", Value::Int(threads as i64));
            }
            EngineDecl::Mwd { .. } | EngineDecl::MwdPeriodicX { .. } => {
                let c = self.engine.mwd_config().expect("an MWD-family declaration");
                for (key, v) in [
                    ("dw", c.dw),
                    ("bz", c.bz),
                    ("tg_x", c.tg.x),
                    ("tg_z", c.tg.z),
                    ("tg_c", c.tg.c),
                    ("groups", c.groups),
                ] {
                    t.set_value(key, Value::Int(v as i64));
                }
            }
        }
        t
    }
}

fn layer_to_toml(l: &LayerDecl) -> Table {
    let mut t = Table::new();
    t.set_value("material", Value::Str(l.material.clone()));
    t.set_value("z_lo", Value::Float(l.z_lo));
    t.set_value("z_hi", Value::Float(l.z_hi));
    for (key, tex) in [
        ("top_texture", &l.top_texture),
        ("bottom_texture", &l.bottom_texture),
    ] {
        if let Some(tex) = tex {
            let mut tt = Table::new();
            tt.set_value("amplitude", Value::Float(tex.amplitude));
            tt.set_value("period", Value::Float(tex.period));
            tt.set_value("seed", Value::Int(tex.seed as i64));
            t.set(key, Entry::Table(tt));
        }
    }
    t
}
