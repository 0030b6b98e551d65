//! # em-kernels — the THIIM stencil update kernels
//!
//! Implements the twelve split-field component updates of the paper's
//! Listings 1 and 2, plus reference execution engines: the naive
//! component-by-component sweep the paper's traffic analysis assumes, and
//! the spatially blocked baseline of Sec. III-B.
//!
//! ## Update semantics
//!
//! One full time step advances H then E:
//!
//! ```text
//! Hab(x) <- Hab(x)*tHab(x) [+ SrcHa(x)] - sign * cHab(x) * (Eb(x) - Eb(x - e_d))
//! Eab(x) <- Eab(x)*tEab(x) [+ SrcEa(x)] - sign * cEab(x) * (Eb(x) - Eb(x + e_d))
//! ```
//!
//! where `Eb = Eb1 + Eb2` is the total source component (sum of its two
//! split parts), `d` is the derivative axis and `sign = eps(a, d, b)` the
//! Levi-Civita curl sign. With `D = center - neighbor` the same expression
//! `dst*t + src - sign*c*D` reproduces both listings: Listing 1 (`Hyx`,
//! sign +1, z-shift, with source) and Listing 2 (`Hzx`, sign -1, y-shift,
//! no source). All arithmetic is double-complex on *split re/im planes*
//! (unlike the interleaved C code), which makes every access unit-stride
//! and lets the [`simd`] module run the row body in full vector lanes —
//! scalar, AVX2 and AVX-512 paths are bit-for-bit identical because the
//! per-cell operation order is fixed and FMA contraction is never used.
//!
//! ## Safety architecture
//!
//! The multithreaded engines (spatial baseline here, MWD in `mwd-core`)
//! partition disjoint cell ranges between threads. Kernels therefore work
//! on a [`RawGrid`] of raw pointers; the safety argument (no two threads
//! write the same cells, no thread reads cells concurrently written) lives
//! with the schedules, which are property-tested and cross-checked by the
//! bitwise MWD-vs-naive oracle.

pub mod boundary;
pub mod flops;
pub mod raw;
pub mod simd;
pub mod spatial;
pub mod sweep;
pub mod update;

pub use raw::{CoeffRows, RawGrid};
pub use simd::{active_isa, detected_isa, Isa, LANE_WIDTH};
pub use spatial::{step_spatial, step_spatial_mt, SpatialConfig};
pub use sweep::{run_naive, step_naive};
pub use update::update_component_rows;
