//! Scene geometry: layered thin-film stacks with textured interfaces and
//! embedded nanoparticles (the Fig. 1 tandem cell).

use crate::materials::{Material, MaterialId};

/// Deterministic rough-surface height field: a few incommensurate
/// sinusoids with hashed phases, standing in for the AFM-measured etch
/// textures of the real device ("textured surfaces to increase the light
/// trapping ability", Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Texture {
    /// Peak amplitude in cells.
    pub amplitude: f64,
    /// Characteristic lateral period in cells.
    pub period: f64,
    /// Seed decorrelating different interfaces.
    pub seed: u64,
}

impl Texture {
    pub fn height(&self, x: f64, y: f64) -> f64 {
        if self.amplitude == 0.0 {
            return 0.0;
        }
        let p = std::f64::consts::TAU / self.period;
        let ph = |i: u64| {
            let mut h = self
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i);
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            (h >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU
        };
        let s = (p * x + ph(1)).sin()
            + (p * y + ph(2)).sin()
            + 0.5 * (1.7 * p * x + 0.9 * p * y + ph(3)).sin()
            + 0.5 * (0.8 * p * x - 1.6 * p * y + ph(4)).sin();
        self.amplitude * s / 3.0
    }
}

/// A horizontal layer `z in [z_lo, z_hi)`, with optional textured
/// interfaces displacing either face laterally. Conformal stacks share
/// one texture between a layer's top and the next layer's bottom, as the
/// etched films of the real device do.
#[derive(Clone, Debug)]
pub struct Layer {
    pub material: MaterialId,
    pub z_lo: f64,
    pub z_hi: f64,
    pub top_texture: Option<Texture>,
    pub bottom_texture: Option<Texture>,
}

impl Layer {
    pub fn flat(material: MaterialId, z_lo: f64, z_hi: f64) -> Layer {
        Layer {
            material,
            z_lo,
            z_hi,
            top_texture: None,
            bottom_texture: None,
        }
    }

    fn top_at(&self, x: f64, y: f64) -> f64 {
        self.z_hi + self.top_texture.map_or(0.0, |t| t.height(x, y))
    }

    fn bottom_at(&self, x: f64, y: f64) -> f64 {
        self.z_lo + self.bottom_texture.map_or(0.0, |t| t.height(x, y))
    }
}

/// A spherical inclusion (SiO2 nanoparticles at the back electrode).
#[derive(Clone, Copy, Debug)]
pub struct Sphere {
    pub center: [f64; 3],
    pub radius: f64,
    pub material: MaterialId,
}

impl Sphere {
    fn contains(&self, x: f64, y: f64, z: f64) -> bool {
        let dx = x - self.center[0];
        let dy = y - self.center[1];
        let dz = z - self.center[2];
        dx * dx + dy * dy + dz * dz <= self.radius * self.radius
    }
}

/// A full simulation scene.
#[derive(Clone, Debug)]
pub struct Scene {
    pub materials: Vec<Material>,
    pub background: MaterialId,
    /// Layers in increasing z; later layers win where they overlap.
    pub layers: Vec<Layer>,
    pub spheres: Vec<Sphere>,
}

impl Scene {
    /// Vacuum-only scene (the benchmark configuration).
    pub fn vacuum() -> Scene {
        Scene {
            materials: vec![Material::vacuum()],
            background: MaterialId(0),
            layers: Vec::new(),
            spheres: Vec::new(),
        }
    }

    /// Uniform scene of a single material.
    pub fn uniform(material: Material) -> Scene {
        Scene {
            materials: vec![material],
            background: MaterialId(0),
            layers: Vec::new(),
            spheres: Vec::new(),
        }
    }

    pub fn add_material(&mut self, m: Material) -> MaterialId {
        self.materials.push(m);
        MaterialId(self.materials.len() - 1)
    }

    /// Material at a continuous point. Spheres override layers; among
    /// layers the last one containing the point wins.
    pub fn material_at(&self, x: f64, y: f64, z: f64) -> MaterialId {
        for s in &self.spheres {
            if s.contains(x, y, z) {
                return s.material;
            }
        }
        let mut hit = self.background;
        for l in &self.layers {
            if z >= l.bottom_at(x, y) && z < l.top_at(x, y) {
                hit = l.material;
            }
        }
        hit
    }

    pub fn material(&self, id: MaterialId) -> &Material {
        &self.materials[id.0]
    }

    /// True only when [`Scene::material_at`] depends on `z` alone
    /// throughout the cell plane `z in [z, z + 1)`: no sphere's z extent
    /// and no textured face's `z_face +- |amplitude|` band (a texture's
    /// height never exceeds its amplitude) reaches the plane. Flat faces
    /// never disqualify. Sound and conservative: `false` claims nothing,
    /// and a band that merely touches the plane counts as reaching it.
    pub fn plane_is_uniform(&self, z: usize) -> bool {
        let (lo, hi) = (z as f64, z as f64 + 1.0);
        // Written so that a NaN extent reaches every plane.
        let reaches = |center: f64, reach: f64| !(center + reach < lo || center - reach > hi);
        let textured = |face: f64, texture: &Option<Texture>| {
            texture.is_some_and(|t| t.amplitude != 0.0 && reaches(face, t.amplitude.abs()))
        };
        !self
            .spheres
            .iter()
            .any(|s| reaches(s.center[2], s.radius.abs()))
            && !self
                .layers
                .iter()
                .any(|l| textured(l.z_hi, &l.top_texture) || textured(l.z_lo, &l.bottom_texture))
    }

    /// The Fig. 1 tandem thin-film cell, scaled to `nz` grid cells of
    /// height and `nx x ny` laterally: glass superstrate, front TCO,
    /// a-Si:H top junction (textured), uc-Si:H bottom junction
    /// (textured), back TCO, silver reflector with embedded SiO2
    /// nanoparticles. Light enters from high z.
    pub fn tandem_solar_cell(nx: usize, ny: usize, nz: usize) -> Scene {
        let mut scene = Scene::vacuum();
        let glass = scene.add_material(Material::glass());
        let tco = scene.add_material(Material::tco());
        let asi = scene.add_material(Material::a_si());
        let ucsi = scene.add_material(Material::uc_si());
        let ag = scene.add_material(Material::silver());
        let sio2 = scene.add_material(Material::silica());

        let h = nz as f64;
        let z = |f: f64| f * h;
        let tex = |amp: f64, seed: u64| Texture {
            amplitude: amp,
            period: (nx.min(ny) as f64 / 2.5).max(4.0),
            seed,
        };

        // Bottom-up: Ag back reflector, back TCO, uc-Si, a-Si, front TCO,
        // glass; vacuum above. Consecutive layers share their interface
        // texture (conformal films).
        let t_back = tex(h * 0.015, 11);
        let t_uc = tex(h * 0.02, 22);
        let t_a = tex(h * 0.02, 33);
        scene.layers.push(Layer::flat(ag, z(0.0), z(0.12)));
        scene.layers.push(Layer {
            material: tco,
            z_lo: z(0.12),
            z_hi: z(0.20),
            top_texture: Some(t_back),
            bottom_texture: None,
        });
        scene.layers.push(Layer {
            material: ucsi,
            z_lo: z(0.20),
            z_hi: z(0.48),
            top_texture: Some(t_uc),
            bottom_texture: Some(t_back),
        });
        scene.layers.push(Layer {
            material: asi,
            z_lo: z(0.48),
            z_hi: z(0.62),
            top_texture: Some(t_a),
            bottom_texture: Some(t_uc),
        });
        scene.layers.push(Layer {
            material: tco,
            z_lo: z(0.62),
            z_hi: z(0.70),
            top_texture: None,
            bottom_texture: Some(t_a),
        });
        scene.layers.push(Layer::flat(glass, z(0.70), z(0.82)));

        // SiO2 nanoparticles scattered on the back reflector.
        let r = (nx.min(ny) as f64 * 0.06).max(1.2);
        let mut sx = 0.31f64;
        let mut sy = 0.17f64;
        for _ in 0..((nx * ny) / 144).clamp(2, 24) {
            sx = (sx * 29.17).fract();
            sy = (sy * 31.41).fract();
            scene.spheres.push(Sphere {
                center: [sx * nx as f64, sy * ny as f64, z(0.12)],
                radius: r,
                material: sio2,
            });
        }
        scene
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn texture_is_deterministic_and_bounded() {
        let t = Texture {
            amplitude: 2.0,
            period: 10.0,
            seed: 5,
        };
        let a = t.height(3.2, 4.7);
        let b = t.height(3.2, 4.7);
        assert_eq!(a, b);
        for i in 0..50 {
            let h = t.height(i as f64 * 0.7, i as f64 * 1.3);
            assert!(h.abs() <= 2.0, "height {h} exceeds amplitude");
        }
        let flat = Texture {
            amplitude: 0.0,
            period: 10.0,
            seed: 5,
        };
        assert_eq!(flat.height(1.0, 2.0), 0.0);
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = Texture {
            amplitude: 1.0,
            period: 8.0,
            seed: 1,
        };
        let b = Texture {
            amplitude: 1.0,
            period: 8.0,
            seed: 2,
        };
        let same =
            (0..20).filter(|&i| (a.height(i as f64, 0.0) - b.height(i as f64, 0.0)).abs() < 1e-12);
        assert!(same.count() < 3);
    }

    #[test]
    fn layers_stack_and_background_fills() {
        let mut s = Scene::vacuum();
        let m1 = s.add_material(Material::glass());
        s.layers.push(Layer::flat(m1, 2.0, 5.0));
        assert_eq!(s.material_at(0.0, 0.0, 0.5), MaterialId(0));
        assert_eq!(s.material_at(0.0, 0.0, 3.0), m1);
        assert_eq!(s.material_at(0.0, 0.0, 5.5), MaterialId(0));
    }

    #[test]
    fn spheres_override_layers() {
        let mut s = Scene::vacuum();
        let m1 = s.add_material(Material::glass());
        let m2 = s.add_material(Material::silica());
        s.layers.push(Layer::flat(m1, 0.0, 10.0));
        s.spheres.push(Sphere {
            center: [5.0, 5.0, 5.0],
            radius: 2.0,
            material: m2,
        });
        assert_eq!(s.material_at(5.0, 5.0, 5.0), m2);
        assert_eq!(s.material_at(5.0, 5.0, 8.5), m1);
    }

    #[test]
    fn tandem_cell_has_all_fig1_ingredients() {
        let s = Scene::tandem_solar_cell(24, 24, 48);
        let names: Vec<&str> = s.materials.iter().map(|m| m.name()).collect();
        for want in ["vacuum", "glass", "TCO", "a-Si:H", "uc-Si:H", "Ag", "SiO2"] {
            assert!(names.contains(&want), "missing {want}");
        }
        assert!(!s.spheres.is_empty(), "nanoparticles present");
        assert!(
            s.layers.iter().any(|l| l.top_texture.is_some()),
            "textured interfaces"
        );
        // Probe: silver near the bottom, vacuum on top.
        let ag_id = s.material_at(12.0, 12.0, 1.0);
        assert_eq!(s.material(ag_id).name(), "Ag");
        let top = s.material_at(12.0, 12.0, 47.0);
        assert_eq!(s.material(top).name(), "vacuum");
    }

    #[test]
    fn textured_interface_varies_laterally() {
        let s = Scene::tandem_solar_cell(32, 32, 64);
        // Near the a-Si / TCO interface the material must differ across
        // (x, y) at some z level thanks to the conformal texture.
        let found = (0..16).any(|step| {
            let zprobe = 0.62 * 64.0 - 2.0 + step as f64 * 0.25;
            let mut kinds = std::collections::HashSet::new();
            for i in 0..32 {
                for j in 0..32 {
                    kinds.insert(s.material_at(i as f64, j as f64, zprobe));
                }
            }
            kinds.len() >= 2
        });
        assert!(found, "interface shows no texture");
    }

    #[test]
    fn conformal_stack_has_no_vacuum_gaps_inside() {
        // Between the silver bottom and the glass top, no probe point may
        // see the vacuum background: the textured faces must meet.
        let s = Scene::tandem_solar_cell(24, 24, 64);
        for i in 0..24 {
            for j in 0..24 {
                for zstep in 4..44 {
                    let z = zstep as f64;
                    let id = s.material_at(i as f64 + 0.5, j as f64 + 0.5, z);
                    assert_ne!(s.material(id).name(), "vacuum", "gap at ({i},{j},{z})");
                }
            }
        }
    }

    /// Soundness of [`Scene::plane_is_uniform`]: wherever it says
    /// uniform, every sub-sample of every cell of the plane maps to the
    /// material the `(0, 0)` cell's same sub-sample maps to — which is
    /// what makes that cell's averaged permittivity the plane's.
    #[test]
    fn a_plane_declared_uniform_has_one_material_per_sub_sample_height() {
        let s = crate::fit::SUBSAMPLES;
        let at = |i: usize| (i as f64 + 0.5) / s as f64;
        let mut flat = Scene::vacuum();
        let g = flat.add_material(Material::glass());
        flat.layers.push(Layer::flat(g, 2.0, 5.5));
        // Faces whose texture bands end exactly on a cell face, and a
        // sphere that touches one.
        let mut edge = flat.clone();
        edge.layers.push(Layer {
            material: g,
            z_lo: 8.5,
            z_hi: 12.25,
            top_texture: Some(Texture {
                amplitude: -0.75,
                period: 5.0,
                seed: 3,
            }),
            bottom_texture: Some(Texture {
                amplitude: 0.5,
                period: 7.0,
                seed: 4,
            }),
        });
        edge.spheres.push(Sphere {
            center: [3.0, 3.0, 17.0],
            radius: 1.0,
            material: g,
        });
        let (n, nz) = (10, 24);
        for (name, scene, uniform_planes) in [
            ("flat", flat, 24),
            // Not 7-9, 11-13 and 15-18: a band that only touches a
            // plane (7, 9, 13, 15, 18) disqualifies it too.
            ("edge", edge, 14),
            ("tandem", Scene::tandem_solar_cell(n, n, nz), 15),
        ] {
            let mut uniform = 0;
            for z in (0..nz).filter(|&z| scene.plane_is_uniform(z)) {
                uniform += 1;
                for (i, j, k) in (0..s * s * s).map(|v| (v / (s * s), v / s % s, v % s)) {
                    let fz = z as f64 + at(k);
                    let want = scene.material_at(at(i), at(j), fz);
                    for (x, y) in (0..n * n).map(|c| (c / n, c % n)) {
                        let got = scene.material_at(x as f64 + at(i), y as f64 + at(j), fz);
                        assert_eq!(got, want, "{name}: cell ({x},{y},{z}) sample ({i},{j},{k})");
                    }
                }
            }
            assert_eq!(uniform, uniform_planes, "{name}");
        }
    }
}
