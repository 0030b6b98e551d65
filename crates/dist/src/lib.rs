//! # em_dist — distributed solves by z-axis domain decomposition
//!
//! Splits the global grid along z into `N` contiguous slabs, one per
//! worker. Each worker keeps its slab extended by `k` halo planes
//! across every cut face, advances the extended block `k` time steps
//! at a time with the **declared engine** (an `mwd` spec really runs
//! the MWD executor, per slab), then swaps the `k` owned boundary
//! planes of all twelve field arrays with each neighbour in one message
//! per direction. A cell's value after `s` steps depends only on data
//! within `s` planes of it, so whatever is wrong at the extended edge
//! has not reached an owned plane when the halo is refreshed: the
//! planes in between were computed redundantly by both sides and are
//! thrown away ([`slab`] has the argument, [`decomp::halo_depth`] the
//! rule for `k`). One period of `spp` steps costs `ceil(spp / k)`
//! exchanges instead of `2 * spp`.
//!
//! Nothing but halos crosses a cut during a period, and nothing but
//! `2 * nz` numbers reaches the coordinator at its end: the convergence
//! functional ([`em_field::norms::relative_change`]) is defined as
//! per-plane partials combined in ascending z, so each worker reduces
//! the planes it owns against its own snapshot of the previous period
//! and the coordinator combines what arrives. The fields themselves are
//! gathered once per job, after the last period.
//!
//! The wire is a thin hand-rolled length-prefixed binary protocol
//! ([`proto`]) over local sockets. Field rows travel as the arrays
//! store them, through one reusable frame buffer per direction, under
//! a word-at-a-time checksum: one copy and one checksum pass per side.
//!
//! The subsystem's contract is **bit identity**: a decomposed solve
//! produces exactly the artifact the single-process solver would. Every
//! owned cell sees the IEEE operations of the global sweep on the same
//! inputs; the convergence functional is the same per-plane function
//! whoever evaluates it; the analysis reductions run over the gathered
//! global grid in the single-process code itself: the slab group is an
//! [`em_solver::Stepper`] under the solver's one convergence loop and
//! the batch runner's one outcome assembler ([`coord`]).
//!
//! Module map:
//! - [`proto`] — framing, checksum, message codec.
//! - [`decomp`] — the balanced contiguous z split, slab extension, the
//!   halo-depth rule.
//! - [`slab`] — cropping and the row codec of halo blocks and the
//!   final gather.
//! - [`worker`] — one slab's lockstep solve loop and plane reduction.
//! - [`coord`] — pre-flight, launch, topology relay, the period
//!   lockstep and the final gather as a `Stepper`, abort/reap.

pub mod coord;
pub mod decomp;
pub mod proto;
pub mod slab;
pub mod worker;

pub use coord::{
    run_dist, DistOptions, Launcher, GATHERS_METRIC, GATHER_SECONDS_METRIC, HALO_DEPTH_METRIC,
    HALO_EXCHANGES_METRIC, HALO_WAIT_METRIC, PERIOD_PHASES, PERIOD_PHASE_METRIC,
};
pub use decomp::{halo_depth, split_z, Slab};
pub use worker::{run_worker, WorkerConfig};
