//! Everything a workload consumes, derived from `--seed`: fill seeds
//! for the synthetic grids, the generated layer stacks, the wavelength
//! draws. The crates under test see only these generated inputs.
//!
//! The seed picks *what* is computed, never *how much*: grid extents,
//! cells per wavelength (hence steps per period) and period counts are
//! constants, so runs under different seeds do the same number of cell
//! updates and their timings are comparable.

use em_scenarios::gen::{generate, Family, GenParams, GenRng};
use em_scenarios::{EngineDecl, OutputsDecl, ScenarioSpec, SlabDecl, SweepDecl, SweepPoint};

/// Cells per vacuum wavelength for every generated scenario; with the
/// generators' cfl = 0.95 this is 18 steps per period.
pub const LAMBDA_CELLS: f64 = 10.0;
/// Tolerance no run reaches, so `max_periods` fixes the step count.
/// Periods-to-tolerance moves by ±1 with the drawn structure here
/// (rel_change falls ~0.0017 per period around 0.1 while seeds spread
/// it by ~0.001), which would put a seed-dependent 6 % step into
/// `solve_s`; `solver.periods_to_converge` reports it instead.
pub const UNREACHABLE_TOL: f64 = 1e-30;
const LAMBDA_BAND_NM: (f64, f64) = (420.0, 780.0);

fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    pub seed: u64,
}

impl Inputs {
    /// An independent stream per purpose, from the generator's own
    /// seeded PRNG.
    fn stream(&self, purpose: &str) -> GenRng {
        GenRng::for_family(purpose, self.seed)
    }

    fn sub(&self, purpose: &str) -> u64 {
        self.stream(purpose).next_u64()
    }

    pub fn field_seed(&self) -> u64 {
        self.sub("grid-fields")
    }

    pub fn coeff_seed(&self) -> u64 {
        self.sub("grid-coeffs")
    }

    /// A generated multilayer stack on a fixed `16 x 16 x nz` grid that
    /// runs exactly `periods` periods per wavelength on `engine`.
    pub fn stack_spec(
        &self,
        name: &str,
        nz: usize,
        periods: usize,
        engine: EngineDecl,
    ) -> Result<ScenarioSpec, String> {
        let params = GenParams {
            nx: (16, 16),
            ny: (16, 16),
            nz: (nz, nz),
            layers: (3, 5),
            lambda_nm: LAMBDA_BAND_NM,
            lambda_cells: (LAMBDA_CELLS, LAMBDA_CELLS),
            max_periods: periods,
            ..GenParams::default()
        };
        let mut spec = generate(Family::Multilayer, self.sub(name), &params)?;
        spec.name = name.to_string();
        spec.engine = engine;
        spec.convergence.tol = UNREACHABLE_TOL;
        Ok(spec)
    }

    /// The `n`-th wavelength of the purpose's stream: a golden-ratio
    /// sequence from a seeded offset, so draws never repeat within a
    /// run (the serve workload needs never-seen variants).
    pub fn lambda_nm(&self, purpose: &str, n: u64) -> f64 {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        let frac = (self.stream(purpose).next_f64() + n as f64 * GOLDEN).fract();
        round4(LAMBDA_BAND_NM.0 + frac * (LAMBDA_BAND_NM.1 - LAMBDA_BAND_NM.0))
    }

    /// The sweep workload's spec: the stack, three drawn wavelengths,
    /// and both analysis outputs so the artifact exercises them.
    pub fn sweep_spec(&self, periods: usize, threads: usize) -> Result<ScenarioSpec, String> {
        let mut spec = self.stack_spec("sweep-stack", 64, periods, EngineDecl::Auto { threads })?;
        spec.sweep = Some(SweepDecl {
            lambdas: (0..3)
                .map(|n| SweepPoint {
                    nm: self.lambda_nm("sweep-lambdas", n),
                    cells: LAMBDA_CELLS,
                })
                .collect(),
        });
        spec.outputs = OutputsDecl {
            intensity_profile: true,
            absorption: vec![SlabDecl {
                name: "stack".to_string(),
                z_lo: 8,
                z_hi: 48,
            }],
        };
        Ok(spec)
    }

    /// Every generated input as one string: equal seeds must give equal
    /// bytes, different seeds different bytes.
    #[cfg(test)]
    fn fingerprint(&self) -> Result<String, String> {
        let dist = self.stack_spec("dist-slab", 96, 16, EngineDecl::Naive)?;
        let serve = self.stack_spec("serve-mix", 64, 6, EngineDecl::Naive)?;
        let lambdas: Vec<String> = (0..8)
            .map(|n| self.lambda_nm("serve-lambdas", n).to_string())
            .collect();
        Ok(format!(
            "{}\n{}\n{}\n{}\n{}\n{}",
            self.field_seed(),
            self.coeff_seed(),
            self.sweep_spec(16, 2)?.to_toml_string(),
            dist.to_toml_string(),
            serve.to_toml_string(),
            lambdas.join(",")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let a = Inputs { seed: 12 }.fingerprint().unwrap();
        let b = Inputs { seed: 12 }.fingerprint().unwrap();
        let c = Inputs { seed: 13 }.fingerprint().unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Every part moves with the seed, not just one of them.
        for (x, y) in a.split('\n').zip(c.split('\n')).take(2) {
            assert_ne!(x, y);
        }
    }

    #[test]
    fn wavelength_draws_stay_in_band_and_never_repeat() {
        let inputs = Inputs { seed: 7 };
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..2000 {
            let nm = inputs.lambda_nm("serve-lambdas", n);
            assert!((LAMBDA_BAND_NM.0..=LAMBDA_BAND_NM.1).contains(&nm), "{nm}");
            assert!(seen.insert(nm.to_bits()), "draw {n} repeats {nm}");
        }
    }

    #[test]
    fn work_does_not_depend_on_the_seed() {
        for seed in 0..16 {
            let spec = Inputs { seed }.sweep_spec(16, 2).unwrap();
            assert_eq!((spec.grid.nx, spec.grid.ny, spec.grid.nz), (16, 16, 64));
            assert_eq!(spec.physics.lambda_cells, LAMBDA_CELLS);
            assert_eq!(spec.convergence.max_periods, 16);
            assert_eq!(spec.jobs().len(), 3);
        }
    }
}
