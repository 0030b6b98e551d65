//! # em-service — the long-running THIIM job service
//!
//! The ROADMAP's north star is a system that serves heavy traffic, and
//! the MWD engine exists because the THIIM update is memory-starved and
//! throughput-bound: the scarce resource is sustained machine bandwidth.
//! A serving layer therefore must not re-pay work — process startup,
//! tune-cache loading, or (for identical specs) the entire solve — per
//! request. This crate is that layer:
//!
//! - [`http`]: a hand-rolled HTTP/1.1 server substrate on
//!   `std::net::TcpListener` (no new dependencies, matching the
//!   offline/vendored constraint): request parsing with header/body
//!   limits and chunked-transfer decoding, JSON responses;
//! - the canonical content hash ([`em_json::hash`]). A job's identity is
//!   `FNV-1a-128(resolved spec TOML, engine config, host/ISA
//!   fingerprint)` — two submissions with equal hashes are
//!   interchangeable by construction;
//! - [`store`]: the content-addressed result store. Artifacts are the
//!   *canonical* (wall-clock-free) batch outcome JSON, so a cached
//!   result is byte-identical to what a fresh solve would produce; every
//!   disk artifact carries an integrity footer, is fsynced before its
//!   rename, and fails verification into a `.corrupt` quarantine rather
//!   than ever being served;
//! - [`scheduler`]: admission control and execution. A bounded queue
//!   (overflow → HTTP 429) feeds a worker pool that shares one
//!   [`mwd_core::ThreadBudget`] between concurrent jobs, exactly like
//!   the batch runner; identical in-flight submissions coalesce onto
//!   one job, `engine = "auto"` resolves through the tuning cache the
//!   daemon loaded at bind (read-only: only `mwd tune` writes the file,
//!   a miss stays in memory), and every job carries a
//!   [`mwd_core::CancelToken`] so deadlines (`deadline_ms`) and
//!   `POST /jobs/:id/cancel` halt it within one solver period;
//! - [`server`]: the connection planes and the JSON API — `POST /jobs`,
//!   `GET /jobs/:id`, `GET /jobs/:id/result`, `POST /jobs/:id/cancel`,
//!   `GET /results/:key`, `GET /healthz`, `GET /stats`,
//!   `POST /shutdown`; with `--chaos`, an [`em_faults::FaultInjector`]
//!   is threaded through the solve, store, and connection seams;
//! - `event_loop` (Linux): the default connection plane — one thread
//!   running a non-blocking epoll event loop that answers every
//!   request, admission included, with HTTP/1.1 keep-alive, pipelining,
//!   and bounded connections, serving bytes identical to the blocking
//!   plane;
//! - [`shutdown`]: SIGINT/SIGTERM → a cooperative stop flag, shared
//!   with the batch runner's drain path;
//! - [`stats`]: the service counters behind `GET /stats`;
//! - [`flags`]: the command-line parser both front ends use.
//!
//! The `mwd serve` subcommand and the `loadgen` load generator are thin
//! shells over this crate.

#[cfg(target_os = "linux")]
pub(crate) mod event_loop;
pub mod flags;
pub mod http;
pub mod scheduler;
pub mod server;
pub mod shutdown;
pub mod stats;
pub mod store;
pub mod submit;

pub use http::{Body, Limits, Request, Response};
pub use scheduler::{
    CancelError, CancelOutcome, Scheduler, SchedulerConfig, Submission, SubmitError,
};
pub use server::{ConnModel, Server, ServerConfig};
pub use stats::ServiceStats;
pub use store::ResultStore;
pub use submit::{parse_submission, SubmitRequest};
