//! # mwd-core — multicore wavefront diamond temporal blocking
//!
//! The paper's primary contribution: diamond tiling along y with E/H field
//! splitting (Fig. 2), wavefront traversal along z (Fig. 4), dynamic FIFO
//! tile scheduling, and thread groups with multi-dimensional intra-tile
//! parallelization (x chunks, z sub-windows, and 1/2/3/6-way component
//! parallelism — Fig. 3).
//!
//! The module structure follows the system's layers:
//!
//! - [`cancel`]: cooperative cancellation tokens (stop flag + deadline)
//!   observed by the executor and every layer above it;
//! - [`diamond`]: canonical diamond geometry in (y, time) space;
//! - [`tiling`]: tessellation of a whole run into clipped tiles plus the
//!   two-parent dependency DAG, with an exact-level schedule validator;
//! - [`wavefront`]: per-row z windows realizing `Ww = Dw + BZ - 1`;
//! - [`queue`]: the FIFO ready queue ("OpenMP critical" in the paper);
//! - [`barrier`]: sense-reversing spin barrier for intra-group sync;
//! - [`config`]: `Dw`/`BZ`/thread-group-shape parameters;
//! - [`budget`]: thread-budget sharing between concurrent solver jobs
//!   and the thread groups inside each job;
//! - [`executor`]: the parallel engine, bit-identical to the naive sweep.

pub mod barrier;
pub mod budget;
pub mod cancel;
pub mod config;
pub mod diamond;
pub mod executor;
pub mod queue;
pub mod tiling;
pub mod wavefront;

pub use barrier::SpinBarrier;
pub use budget::{BudgetSplit, ThreadBudget};
pub use cancel::{CancelState, CancelToken};
pub use config::{split_range, split_range_aligned, MwdConfig, TgShape};
pub use diamond::{diamond_rows, DiamondRow, DiamondWidth};
pub use executor::{run_mwd, run_mwd_bc_rec, MwdBoundary, MwdRun, RunStats};
pub use queue::ReadyQueue;
pub use tiling::{ClippedRow, Tile, TilePlan};
pub use wavefront::WavefrontSpec;
