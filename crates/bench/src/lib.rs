//! # em-bench — figure regeneration and the tuner's ground truth
//!
//! One generator per table/figure of the paper's evaluation (Sec. III-IV),
//! shared between the `figures` binary and the integration smoke tests.
//! Results are written to `results/*.csv` and printed with the paper's
//! reference shapes alongside. The [`regret`] module measures every
//! configuration the tuner ranks against the model's score
//! (`bench_report --tune-regret`). Throughput on this host is the repo
//! benchmark's job (`benchmark/`), not this crate's.

pub mod figures;
pub mod harness;
pub mod paper;
pub mod regret;

pub use figures::{fig5, fig6, fig7, fig8, sect3, shapes, thin_domain, validate, Scale};
