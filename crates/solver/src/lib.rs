//! # thiim-solver — the solar-cell optics application
//!
//! The Time-Harmonic Inverse Iteration Method (THIIM) solver for
//! Maxwell's equations with Finite-Difference Frequency-Domain
//! discretization, as used by the paper's production code for thin-film
//! photovoltaics (Sec. I):
//!
//! - [`materials`]: complex optical constants (including silver with
//!   negative real permittivity, driving the back-iteration of Eq. 5);
//! - [`geometry`]: layered cell stacks with textured interfaces and
//!   nanoparticles (Fig. 1);
//! - [`fit`]: Finite-Integration-style sub-cell material averaging onto
//!   the staggered grid;
//! - [`pml`]: Berenger split-field perfectly matched layers (Eqs. 6-7);
//! - [`coeffs`]: assembly of the 28 coefficient arrays from physics;
//! - [`source`]: time-harmonic plane-wave drive;
//! - [`solver`]: the problem description ([`SolverConfig`], the one the
//!   coefficient build reads) and the iteration driver with convergence
//!   monitoring, runnable on any engine (naive / spatial / MWD);
//! - [`analysis`]: Poynting flux and per-layer absorption.
//!
//! Units are normalized: cell size = 1, vacuum light speed = 1,
//! eps0 = mu0 = 1. Wavelengths are given in cells.

pub mod analysis;
pub mod coeffs;
pub mod fit;
pub mod geometry;
pub mod materials;
pub mod pml;
pub mod solver;
pub mod source;

pub use coeffs::build_coefficients;
pub use geometry::{Layer, Scene, Sphere};
pub use materials::{Material, MaterialId};
pub use pml::PmlSpec;
pub use solver::{ConvergenceReport, Engine, EngineStepper, SolverConfig, Stepper, ThiimSolver};
pub use source::SourceSpec;
