//! # em_dist — distributed solves by z-axis domain decomposition
//!
//! Splits the global grid along z into `N` contiguous slabs, each
//! stepped by a worker's phase-split row-parallel sweep (not the MWD
//! engine: the declared engine only selects the boundary mode), with the
//! boundary planes exchanged once per phase over local sockets. The
//! wire is a thin hand-rolled length-prefixed binary protocol
//! ([`proto`]) with FNV-1a-128 frame checksums; communication overlaps
//! computation at step granularity (boundary planes are posted before
//! the interior update and awaited only for the one boundary row each
//! phase still owes).
//!
//! The subsystem's contract is **bit identity**: a decomposed solve
//! produces exactly the artifact the single-process solver would.
//! Within a THIIM phase every cell reads only frozen opposite-kind
//! fields plus its own previous value, so any spatial partition of a
//! phase reproduces the reference bits; the order-dependent pieces —
//! the convergence functional and the analysis reductions — run over
//! the gathered global grid in the single-process code itself: the slab
//! group is an [`em_solver::Stepper`] under the solver's one convergence
//! loop and the batch runner's one outcome assembler ([`coord`]).
//!
//! Module map:
//! - [`proto`] — framing, checksums, message codec.
//! - [`decomp`] — the balanced contiguous z split.
//! - [`slab`] — cropping, plane/slab codecs, split-phase stepping.
//! - [`worker`] — one slab's lockstep solve loop.
//! - [`coord`] — launch, topology relay, the lockstep gather as a
//!   `Stepper`, abort/reap.

pub mod coord;
pub mod decomp;
pub mod proto;
pub mod slab;
pub mod worker;

pub use coord::{run_dist, DistOptions, Launcher, HALO_EXCHANGES_METRIC, HALO_WAIT_METRIC};
pub use decomp::{split_z, Slab};
pub use worker::{run_worker, WorkerConfig};
