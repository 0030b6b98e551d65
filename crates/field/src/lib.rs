//! # em-field — storage substrate for the THIIM/FDFD split-field stencil
//!
//! This crate provides the data layer of the reproduction: double-complex
//! 3-D arrays stored as *split re/im planes* (two contiguous `f64` planes
//! per array, x fastest, then y, then z — unlike the paper's production
//! code, which interleaves `re, im` pairs), the twelve Berenger
//! split-field components of the electric and magnetic fields, and the 28
//! domain-sized coefficient arrays, for a total of 40 arrays and — with
//! every array dense — 640 bytes per grid cell (Sec. III of the paper).
//! The coefficient arrays are stored as tables of their distinct x-rows
//! under a row index ([`coeff`]), so scenes that repeat rows hold, and
//! stream, a fraction of that. The split layout keeps every kernel
//! access unit-stride so the row updates vectorize; see [`array3`] for
//! the plane-stride and alignment guarantees.
//!
//! Component naming follows the paper's Fig. 3 / Listings 1–2 convention:
//! the **first** subscript is the vector component the array contributes to,
//! the **second** subscript is the *source* component of the other field
//! that the update reads. For example `Hyx` is the part of `H_y` that is
//! driven by `E_x = Exy + Exz`, read with a unit shift along z.
//!
//! All field arrays carry a one-cell zero halo in every dimension, giving
//! homogeneous Dirichlet boundaries for free — the boundary condition the
//! paper uses for all its benchmark experiments (Sec. II-B).

pub mod aligned;
pub mod array3;
pub mod coeff;
pub mod complex;
pub mod component;
pub mod fields;
pub mod grid;
pub mod norms;

pub use aligned::{AlignedBuf, LANE_F64};
pub use array3::Array3C;
pub use coeff::{CoeffArray, CoeffError, CoeffRowBuilder};
pub use complex::Cplx;
pub use component::{Axis, Component, FieldKind, SourceArray, TotalComponent};
pub use fields::{CoeffSet, CoeffStats, FieldSet, State};
pub use grid::GridDims;
