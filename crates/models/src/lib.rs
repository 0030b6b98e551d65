//! # perf-models — the paper's analytic performance models
//!
//! Pure-math implementations of Sec. III:
//!
//! - Eq. 8: naive code balance, 1344 bytes/LUP;
//! - Eq. 9: spatially blocked code balance, 1216 bytes/LUP;
//! - Eq. 10: bandwidth-bottleneck performance `P_mem = b_S / B_C`;
//! - Eq. 11: cache block size of a wavefront-diamond tile;
//! - Eq. 12: diamond-tiled code balance;
//! - machine descriptions (the 18-core Haswell EP testbed) and the
//!   bottleneck (roofline) performance model used to regenerate the
//!   paper's MLUP/s figures on simulated hardware.

pub mod balance;
pub mod machine;
pub mod roofline;

pub use balance::{
    arithmetic_intensity, cache_block_bytes, code_balance_diamond, code_balance_naive,
    code_balance_spatial, wavefront_width, BYTES_PER_CELL, FLOPS_PER_LUP,
};
pub use machine::MachineSpec;
pub use roofline::{mem_bound_mlups, perf_mlups, perf_mlups_parallel, PerfEstimate};
