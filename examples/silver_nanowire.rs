//! Plasmonics around silver nano-structures (paper ref. [10]): a silver
//! cylinder illuminated by a plane wave. Demonstrates why THIIM exists:
//! with `Re(eps) < 0`, the regular FDFD iteration diverges and the back
//! iteration (Eq. 5) converges — shown side by side.
//!
//! The stable half is a thin wrapper over the built-in `silver-nanowire`
//! scenario (also runnable as `mwd run silver-nanowire`); the divergence
//! demo rebuilds the same solver config's coefficients with the raw
//! coefficient API, since forcing the unstable forward iteration is
//! exactly what scenarios refuse to describe.
//!
//!     cargo run --release --example silver_nanowire

use thiim_mwd::field::State;
use thiim_mwd::scenarios::library;
use thiim_mwd::solver::coeffs::build_coefficients;
use thiim_mwd::solver::Material;

fn main() {
    let spec = library::silver_nanowire();
    let jobs = spec.jobs();
    let job = &jobs[0];

    println!(
        "silver nanowire in vacuum, {} grid, lambda = {} nm",
        spec.dims(),
        job.lambda_nm
    );
    let (re, im) = Material::silver().eps(job.lambda_nm);
    println!("Ag permittivity: {re:.1} + {im:.2}i  (negative => back iteration)\n");

    // THIIM back iteration: stable.
    let mut solver = spec.build_solver(job).expect("builtin scenario builds");
    println!("back-iteration cells: {}", solver.back_iteration_cells);
    let engine = spec.engine().expect("builtin engine is valid");
    for period in 1..=8 {
        solver
            .step_n(&engine, solver.steps_per_period())
            .expect("run");
        println!(
            "  period {period}: field energy = {:.4e} (bounded)",
            solver.state.fields.energy()
        );
    }

    // Regular iteration on the same problem: diverges.
    let mut state = State::zeros(spec.dims());
    build_coefficients(&mut state, &solver.config, true).expect("coefficients fit");
    let spp = solver.steps_per_period();
    println!("\nregular (forward) iteration on the same silver:");
    for period in 1..=4 {
        for _ in 0..spp {
            thiim_mwd::kernels::boundary::step_naive_with_boundary(
                &mut state,
                thiim_mwd::kernels::boundary::Boundary::PeriodicXY,
            );
        }
        let e = state.fields.energy();
        println!("  period {period}: field energy = {e:.4e}");
        if !e.is_finite() || e > 1e12 {
            println!("  -> diverged, as the theory predicts (Sec. I / ref [2])");
            break;
        }
    }
}
