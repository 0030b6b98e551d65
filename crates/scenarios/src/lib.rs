//! # em-scenarios — declarative workloads and the batch runner
//!
//! The paper's THIIM solver exists to sweep *many* device configurations
//! (solar-cell stacks, nanowire arrays, gratings) through the same
//! MWD-accelerated Maxwell kernel. This crate makes those workloads
//! first-class data instead of hand-rolled example programs:
//!
//! - [`spec`]: the declarative [`ScenarioSpec`](spec::ScenarioSpec) —
//!   grid, material stack / geometry, source, PML, engine, convergence
//!   criteria, wavelength sweep and output artifacts — with validation
//!   and precise error messages; grid, PML, source and textures are the
//!   solver's own types, re-exported here;
//! - [`toml`]: a hand-rolled parser/serializer for the TOML subset the
//!   scenario files use (no crates.io in this environment, consistent
//!   with the vendored `proptest` shim);
//! - [`codec`]: the explicit `ScenarioSpec` ⇄ TOML mapping with
//!   unknown-key detection;
//! - [`library`]: the built-in catalog — the paper's tandem solar cell
//!   and silver nanowire plus a Bragg mirror, a bare-vacuum calibration
//!   slab, a high-contrast photonic grating and a thin-absorber sweep —
//!   all built from one [`em_solver::SolverConfig`], the problem
//!   description the examples spell (scenario runs are bit-identical to
//!   hand-rolled ones);
//! - [`gen`]: the generative catalog — seeded structure generators
//!   (multilayer / rough-interface / nanoparticle / nanowire families)
//!   over dispersive materials, plus the differential fuzz harness that
//!   checks every generated spec against the naive-vs-MWD bit-identity
//!   oracle;
//! - [`resolve`]: the engine-resolution seam — the one place a declared
//!   engine becomes a runnable one (which kinds tune, the cache key,
//!   `force` / `refine` / dry-run, the `tuned` record), shared by the
//!   batch runner, the job daemon's admission path and `mwd tune`;
//! - [`runner`]: the concurrent batch runner — a bounded worker pool
//!   sharing one [`mwd_core::ThreadBudget`] with each job's intra-solve
//!   thread groups, deterministic result ordering, and one JSON artifact
//!   per job plus a batch summary;
//! - [`Json`]: the shared [`em_json`] crate's value type, which those
//!   artifacts (and the tuning cache and the job service) use.
//!
//! The `mwd` CLI binary in the umbrella crate (`list`, `show`, `run`,
//! `batch`, `tune`) is a thin shell over this crate.

pub mod codec;
pub mod gen;
pub mod library;
pub mod resolve;
pub mod runner;
pub mod spec;
pub mod toml;

pub use em_json::Json;
pub use library::{builtin, builtin_names, builtins};
pub use resolve::{EngineResolver, Resolved, TunePlan, TunePreview, TuneRecord};
pub use runner::{run_batch, run_job, write_artifacts, BatchOptions, BatchReport, JobOutcome};
pub use spec::{
    ConvergenceDecl, EngineDecl, GridDims, LayerDecl, OutputsDecl, PhysicsSpec, PmlSpec,
    ScenarioJob, ScenarioSpec, SceneDecl, SlabDecl, SourceSpec, SphereDecl, SweepDecl, SweepPoint,
    Texture,
};
