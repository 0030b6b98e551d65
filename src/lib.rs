//! # thiim-mwd — umbrella crate
//!
//! Reproduction of Malas et al., *"Optimization of an Electromagnetics
//! Code with Multicore Wavefront Diamond Blocking and Multi-dimensional
//! Intra-Tile Parallelization"* (2016). Re-exports the workspace crates
//! under one roof and hosts the runnable examples and cross-crate
//! integration tests.
//!
//! Layer map (see DESIGN.md for the full inventory):
//!
//! - [`field`]: complex split-field storage (12 field arrays + 28 row-deduplicated
//!   coefficient tables; 640 B/cell when dense);
//! - [`kernels`]: the THIIM component updates (paper Listings 1-2) and
//!   reference engines;
//! - [`mwd`]: diamond/wavefront temporal blocking with thread groups —
//!   the paper's contribution;
//! - [`memsim`]: simulated memory hierarchy standing in for LIKWID;
//! - [`models`]: the paper's analytic models (Eqs. 8-12);
//! - [`tuner`]: the cache-model-guided auto-tuner;
//! - [`solver`]: the solar-cell optics application (materials, PML,
//!   back iteration, plane-wave source);
//! - [`scenarios`]: declarative workload specs, the built-in scenario
//!   catalog and the concurrent batch runner behind the `mwd` CLI;
//! - [`dist`]: distributed solves — z-axis domain decomposition over
//!   worker processes, `k`-step deep-halo slabs on the declared
//!   engine, bit-identical to the single-process solver;
//! - [`service`]: the `mwd serve` HTTP job daemon — content-addressed
//!   result cache, admission-controlled scheduling, graceful drain;
//! - [`json`]: the shared JSON value type every artifact, report,
//!   cache and API document uses;
//! - [`obs`]: zero-dep telemetry — structured spans (`--trace` Chrome
//!   trace export) and the metric registry behind `GET /metrics`.
//!
//! ## Quickstart
//!
//! ```
//! use thiim_mwd::field::{GridDims, State};
//! use thiim_mwd::kernels::run_naive;
//! use thiim_mwd::mwd::{run_mwd, MwdConfig};
//!
//! let dims = GridDims::cubic(8);
//! let mut a = State::zeros(dims);
//! a.fields.fill_deterministic(1);
//! a.coeffs.fill_deterministic(2);
//! let mut b = a.clone();
//!
//! run_naive(&mut a, 4);
//! run_mwd(&mut b, &MwdConfig::one_wd(4, 2, 2), 4).unwrap();
//! assert!(a.fields.bit_eq(&b.fields)); // MWD is bit-identical
//! ```

pub use autotune as tuner;
pub use em_dist as dist;
pub use em_field as field;
pub use em_json as json;
pub use em_kernels as kernels;
pub use em_obs as obs;
pub use em_scenarios as scenarios;
pub use em_service as service;
pub use em_solver as solver;
pub use mem_sim as memsim;
pub use mwd_core as mwd;
pub use perf_models as models;
