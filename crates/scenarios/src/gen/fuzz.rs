//! Differential fuzzing over the bit-identity oracle.
//!
//! Each case takes one `(family, case_seed)` pair through the full
//! pipeline the paper's correctness argument rests on:
//!
//! 1. **generate** — the structure generator must emit a spec that
//!    passes validation (a panic or validation error is a generator
//!    bug);
//! 2. **codec** — the spec must roundtrip through its TOML
//!    serialization unchanged;
//! 3. **solve** — a naive reference solver and an MWD solver step the
//!    same scene from the same deterministically filled fields; panics
//!    and non-finite energies fail the case;
//! 4. **bit-identity** — the two field sets must match bit for bit
//!    (the Malas et al. diamond-tiling equivalence, checked per spec
//!    instead of per hand-picked example).
//!
//! Every failure carries a one-line repro: re-running
//! `mwd gen fuzz --family F --seed S --count 1` regenerates exactly the
//! offending case, because case `i` of a run seeded `S0` uses seed
//! `S0 + i` and generation depends only on `(family, seed, params)`.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

use em_solver::Engine;
use mwd_core::{MwdConfig, TgShape};

use super::families::{generate, Family, GenParams};
use crate::spec::{EngineDecl, ScenarioSpec};

/// What one fuzz run does.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Number of cases; case `i` uses seed `seed + i`.
    pub count: usize,
    pub seed: u64,
    /// Families to cycle through (case `i` uses `families[i % len]`).
    pub families: Vec<Family>,
    pub params: GenParams,
    /// Solver steps per engine before the bit comparison.
    pub steps: usize,
    /// Test-only corruption hook: advance the MWD side one extra step
    /// before comparing, simulating a kernel that computes the wrong
    /// fields. The harness must flag every such case.
    pub corrupt: bool,
    /// Where to write failing specs' TOML (one file per failure).
    pub out_dir: Option<PathBuf>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            count: 8,
            seed: 42,
            families: Family::ALL.to_vec(),
            params: GenParams::tiny(),
            steps: 6,
            corrupt: false,
            out_dir: None,
        }
    }
}

/// One failed case, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    pub family: &'static str,
    pub seed: u64,
    /// Pipeline stage that failed: `generate`, `codec`, `solve`, `nan`
    /// or `bit-identity`.
    pub stage: &'static str,
    pub message: String,
    /// The generated spec, when generation got that far.
    pub spec_toml: Option<String>,
}

impl FuzzFailure {
    /// The one-line repro contract: this exact command regenerates and
    /// re-checks the failing case.
    pub fn repro_line(&self) -> String {
        format!(
            "repro: mwd gen fuzz --family {} --seed {} --count 1",
            self.family, self.seed
        )
    }

    /// `(family, seed) stage: message` — the line the CLI prints.
    pub fn summary(&self) -> String {
        format!(
            "({}, seed {}) failed at {}: {}",
            self.family, self.seed, self.stage, self.message
        )
    }
}

/// Outcome of a fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    pub cases: usize,
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run the harness. Failing specs are written to `out_dir` (if set) as
/// `<family>-s<seed>.toml`; directory-creation or write errors surface
/// as an `Err`, case failures do not.
pub fn run_fuzz(opts: &FuzzOptions) -> Result<FuzzReport, String> {
    if opts.families.is_empty() {
        return Err("[gen] fuzz needs at least one family".to_string());
    }
    if opts.count == 0 {
        return Err("[gen] fuzz needs at least one case".to_string());
    }
    // Zero steps would compare two untouched field sets: a vacuous pass.
    if opts.steps == 0 {
        return Err("[gen] fuzz needs at least one solver step".to_string());
    }
    opts.params.validate()?;
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create fuzz output dir {}: {e}", dir.display()))?;
    }

    let mut report = FuzzReport {
        cases: opts.count,
        failures: Vec::new(),
    };
    for i in 0..opts.count {
        let family = opts.families[i % opts.families.len()];
        let case_seed = opts.seed.wrapping_add(i as u64);
        if let Some(mut failure) = run_case(family, case_seed, opts) {
            if let (Some(dir), Some(toml)) = (&opts.out_dir, &failure.spec_toml) {
                let path = dir.join(format!("{}-s{case_seed}.toml", family.name()));
                if let Err(e) = std::fs::write(&path, toml) {
                    failure
                        .message
                        .push_str(&format!(" (also failed to write {}: {e})", path.display()));
                }
            }
            report.failures.push(failure);
        }
    }
    Ok(report)
}

/// The MWD configuration paired against the naive reference when the
/// generated spec itself declares a naive engine: a nontrivial shape
/// (multi-group, component-parallel) that `MwdConfig::validate` accepts
/// on every grid the generators can produce.
fn oracle_config() -> MwdConfig {
    MwdConfig {
        dw: 4,
        bz: 2,
        tg: TgShape { x: 1, z: 1, c: 3 },
        groups: 2,
    }
}

fn run_case(family: Family, case_seed: u64, opts: &FuzzOptions) -> Option<FuzzFailure> {
    let fail = |stage: &'static str, message: String, spec_toml: Option<String>| {
        Some(FuzzFailure {
            family: family.name(),
            seed: case_seed,
            stage,
            message,
            spec_toml,
        })
    };

    // Stage 1: generation. Panics and validation errors are both
    // generator bugs.
    let spec = match catching(|| generate(family, case_seed, &opts.params)) {
        Ok(Ok(spec)) => spec,
        Ok(Err(e)) => return fail("generate", e, None),
        Err(p) => return fail("generate", format!("panic: {p}"), None),
    };
    let toml = spec.to_toml_string();

    // Stage 2: TOML roundtrip.
    match catching(|| ScenarioSpec::from_toml_str(&toml)) {
        Ok(Ok(back)) if back == spec => {}
        Ok(Ok(_)) => {
            return fail(
                "codec",
                "spec changed through TOML roundtrip".to_string(),
                Some(toml),
            )
        }
        Ok(Err(e)) => return fail("codec", format!("reparse failed: {e}"), Some(toml)),
        Err(p) => return fail("codec", format!("panic: {p}"), Some(toml)),
    }

    // Stage 3: build and step the naive/MWD solver pair. The oracle is
    // the Dirichlet pair (`Naive` vs `Mwd` — the paper's benchmark
    // boundary, the only one with engines on both sides); when the spec
    // declares its own MWD shape, that shape is the MWD side, so the
    // fuzz also sweeps tiling configurations.
    let naive_engine = Engine::Naive;
    let mwd_engine = match spec.engine {
        EngineDecl::Mwd { .. } => spec
            .engine()
            .unwrap_or_else(|_| Engine::Mwd(oracle_config())),
        _ => Engine::Mwd(oracle_config()),
    };
    let solved = catching(|| {
        let job = &spec.jobs()[0];
        let mut naive = spec.build_solver(job)?;
        let mut mwd = spec.build_solver(job)?;
        naive.state.fields.fill_deterministic(case_seed);
        mwd.state.fields.fill_deterministic(case_seed);
        naive.step_n(&naive_engine, opts.steps)?;
        let mwd_steps = opts.steps + usize::from(opts.corrupt);
        mwd.step_n(&mwd_engine, mwd_steps)?;
        Ok::<_, String>((naive, mwd))
    });
    let (naive, mwd) = match solved {
        Ok(Ok(pair)) => pair,
        Ok(Err(e)) => return fail("solve", e, Some(toml)),
        Err(p) => return fail("solve", format!("panic: {p}"), Some(toml)),
    };

    // Stage 4: finite energies, then bit identity.
    let (en, em) = (naive.fields().energy(), mwd.fields().energy());
    if !en.is_finite() || !em.is_finite() {
        return fail(
            "nan",
            format!("non-finite field energy (naive {en}, mwd {em})"),
            Some(toml),
        );
    }
    if !naive.fields().bit_eq(mwd.fields()) {
        return fail(
            "bit-identity",
            format!(
                "naive ({naive_engine:?}) and MWD ({mwd_engine:?}) fields differ after {} steps",
                opts.steps
            ),
            Some(toml),
        );
    }
    None
}

/// Run a closure, converting a panic into its display payload. The
/// default panic hook is left in place — a fuzz failure *should* be
/// loud in the log; the harness merely survives it.
fn catching<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_passes() {
        let report = run_fuzz(&FuzzOptions {
            count: 4,
            steps: 4,
            ..FuzzOptions::default()
        })
        .unwrap();
        assert_eq!(report.cases, 4);
        assert!(
            report.ok(),
            "unexpected failures: {:?}",
            report
                .failures
                .iter()
                .map(FuzzFailure::summary)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupted_kernel_is_caught_with_a_repro_line() {
        let report = run_fuzz(&FuzzOptions {
            count: 4,
            steps: 4,
            corrupt: true,
            ..FuzzOptions::default()
        })
        .unwrap();
        assert_eq!(
            report.failures.len(),
            4,
            "every corrupted case must be flagged"
        );
        for f in &report.failures {
            assert_eq!(f.stage, "bit-identity");
            assert!(f.repro_line().contains("--family"), "{}", f.repro_line());
            assert!(
                f.repro_line().contains(&format!("--seed {}", f.seed)),
                "{}",
                f.repro_line()
            );
            assert!(f.spec_toml.is_some());
        }
    }

    #[test]
    fn bad_options_error_instead_of_panicking() {
        assert!(run_fuzz(&FuzzOptions {
            count: 0,
            ..FuzzOptions::default()
        })
        .is_err());
        assert!(run_fuzz(&FuzzOptions {
            families: Vec::new(),
            ..FuzzOptions::default()
        })
        .is_err());
        let mut bad = FuzzOptions::default();
        bad.params.lambda_nm = (100.0, 200.0);
        assert!(run_fuzz(&bad).is_err());
    }
}
