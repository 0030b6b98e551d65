//! Golden equivalence: the built-in scenarios must reproduce the
//! pre-refactor examples' solver setup **bit-for-bit**. The "golden"
//! side below is a verbatim transcription of what
//! `examples/solar_cell.rs` / `examples/silver_nanowire.rs` did before
//! they became thin wrappers over the scenario library; if a scenario
//! or the `SolverConfig` a spec builds ever drifts from that
//! construction, the field bits diverge and these tests fail.

use thiim_mwd::field::GridDims;
use thiim_mwd::scenarios::library;
use thiim_mwd::solver::{
    Engine, Material, PmlSpec, Scene, SolverConfig, SourceSpec, Sphere, ThiimSolver,
};

#[test]
fn solar_cell_scenario_is_bit_identical_to_the_pre_refactor_example() {
    // --- golden: the example's hand-rolled setup (550 nm sweep point).
    let (nx, ny, nz) = (24, 24, 72);
    let dims = GridDims::new(nx, ny, nz);
    let scene = Scene::tandem_solar_cell(nx, ny, nz);
    let mut cfg = SolverConfig::new(dims, scene, 11.0, 550.0);
    cfg.pml = Some(PmlSpec::new(8));
    cfg.source = Some(SourceSpec::x_polarized(nz - 12, 1.0));
    let mut golden = ThiimSolver::new(cfg);

    // --- scenario route: the same workload as declarative data.
    let spec = library::solar_cell();
    let jobs = spec.jobs();
    let job = jobs
        .iter()
        .find(|j| j.lambda_nm == 550.0)
        .expect("the sweep covers 550 nm");
    assert_eq!(job.lambda_cells, 11.0);
    let mut scenario = spec.build_solver(job).expect("builtin builds");

    assert_eq!(
        golden.back_iteration_cells, scenario.back_iteration_cells,
        "coefficient assembly must agree"
    );
    assert_eq!(golden.omega.to_bits(), scenario.omega.to_bits());
    assert_eq!(golden.tau.to_bits(), scenario.tau.to_bits());

    // Step both through the example's engine; bits must stay equal.
    golden.step_n(&Engine::NaivePeriodicXY, 5).unwrap();
    scenario.step_n(&Engine::NaivePeriodicXY, 5).unwrap();
    assert!(
        golden.fields().bit_eq(scenario.fields()),
        "scenario route diverged from the pre-refactor example"
    );
}

#[test]
fn silver_nanowire_scenario_is_bit_identical_to_the_pre_refactor_example() {
    // --- golden: the example's `make_scene(24)` and config, verbatim.
    let n = 24usize;
    let dims = GridDims::new(n, n, 2 * n);
    let mut scene = Scene::vacuum();
    let ag = scene.add_material(Material::silver());
    let r = n as f64 * 0.12;
    for j in 0..n {
        scene.spheres.push(Sphere {
            center: [n as f64 / 2.0, j as f64 + 0.5, n as f64 * 0.45],
            radius: r,
            material: ag,
        });
    }
    let mut cfg = SolverConfig::new(dims, scene, 10.0, 550.0);
    cfg.pml = Some(PmlSpec::new(6));
    cfg.source = Some(SourceSpec::x_polarized(2 * n - 10, 1.0));
    let mut golden = ThiimSolver::new(cfg);

    // --- scenario route.
    let spec = library::silver_nanowire();
    let jobs = spec.jobs();
    let mut scenario = spec.build_solver(&jobs[0]).expect("builtin builds");

    assert_eq!(golden.back_iteration_cells, scenario.back_iteration_cells);
    golden.step_n(&Engine::NaivePeriodicXY, 5).unwrap();
    scenario.step_n(&Engine::NaivePeriodicXY, 5).unwrap();
    assert!(
        golden.fields().bit_eq(scenario.fields()),
        "scenario route diverged from the pre-refactor example"
    );
}
