//! # autotune — MWD parameter search (paper Sec. II-A)
//!
//! "We use the auto-tuner in the Girih system to select the diamond tile
//! size, the wavefront tile width, and the TG size in all dimensions to
//! achieve the best performance. To shorten the auto-tuning process, the
//! parameter search space is narrowed down to diamond tiles that fit
//! within a predefined cache size range using a cache block size model."
//!
//! The same structure lives here, once: [`space`] enumerates `(Dw, BZ,
//! TG shape, groups)` candidates, [`prune`] filters them with Eq. 11
//! against the usable cache window, and [`tuner`] holds the one
//! candidate policy ([`survivors`]), the one model ranking ([`rank`])
//! and the wall-clock probe that can refine it. Every caller (the
//! resolve miss path, the figure harness, the tune-regret table,
//! `mwd tune --dry-run`) runs that one pipeline. The cache simulator
//! (`mem_sim`) is an instrument beside it, not a step of it: one
//! integration test holds the model's first choice against the
//! simulated code balance.
//!
//! On top of the search sits the persistent subsystem the serving path
//! uses: [`fingerprint`] identifies the host (threads + SIMD ISA +
//! machine model), [`cache`] stores tuned winners per `(fingerprint,
//! grid, engine, thread budget)` key and resolves misses through the
//! staged lookup → model-pruned search → optional native refinement
//! pipeline, and the shared [`em_json`] crate reads/writes the cache
//! file.

pub mod cache;
pub mod fingerprint;
pub mod prune;
pub mod space;
pub mod tuner;

pub use cache::{
    default_cache_path, ranked, resolve, Resolution, ResolveOptions, Stage, TuneCache, TuneEntry,
    TuneKey,
};
pub use fingerprint::{host_fingerprint, machine_slug};
pub use prune::{cache_fit, CacheWindow};
pub use space::{Candidate, SearchSpace};
pub use tuner::{
    finalists, list_schedule, rank, score, survivors, Factors, ModelEvaluator, NativeEvaluator,
    Ranked, Schedule,
};
