//! The built-in catalog honors the repo's central contract: on every
//! scenario's real physics (materials, PML, sources, back iteration),
//! the MWD temporal-blocking engine reproduces the naive sweep
//! bit-for-bit.

use em_field::{Component, SourceArray};
use em_scenarios::gen::{generate, Family, GenParams};
use em_scenarios::library;
use em_solver::{Engine, Sphere, ThiimSolver};
use mwd_core::{MwdConfig, TgShape};

#[test]
fn every_builtin_mwd_run_is_bit_identical_to_the_naive_sweep() {
    let mwd_cfg = MwdConfig {
        dw: 4,
        bz: 2,
        tg: TgShape { x: 1, z: 1, c: 3 },
        groups: 2,
    };
    for spec in library::builtins() {
        mwd_cfg
            .validate(spec.dims())
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let jobs = spec.jobs();
        let job = &jobs[0];
        let mut naive = spec.build_solver(job).expect("solver builds");
        let mut mwd = spec.build_solver(job).expect("solver builds");
        // Seed nontrivial fields so six steps exercise real data flow.
        naive.state.fields.fill_deterministic(17);
        mwd.state.fields.fill_deterministic(17);

        naive.step_n(&Engine::Naive, 6).unwrap();
        mwd.step_n(&Engine::Mwd(mwd_cfg), 6).unwrap();
        assert!(
            naive.fields().bit_eq(mwd.fields()),
            "{}: MWD diverged from naive bits",
            spec.name
        );
    }
}

#[test]
fn builtin_solvers_expose_the_expected_physics() {
    // The solar cell and the nanowire contain silver, so the Eq. 5 back
    // iteration must be active; the calibration slab must not need it.
    let job = |spec: &em_scenarios::ScenarioSpec| spec.jobs().remove(0);

    let cell = library::solar_cell();
    let s = cell.build_solver(&job(&cell)).unwrap();
    assert!(s.back_iteration_cells > 0, "solar cell needs Eq. 5");

    let wire = library::silver_nanowire();
    let s = wire.build_solver(&job(&wire)).unwrap();
    assert!(s.back_iteration_cells > 0, "nanowire needs Eq. 5");

    let slab = library::vacuum_slab();
    let s = slab.build_solver(&job(&slab)).unwrap();
    assert_eq!(s.back_iteration_cells, 0, "vacuum has no negative eps");
}

#[test]
fn builtin_engines_run_on_their_own_specs() {
    // Each spec's declared engine must actually step its own grid
    // (one step is enough to catch validation mismatches).
    for spec in library::builtins() {
        let jobs = spec.jobs();
        let job = &jobs[0];
        let engine = spec
            .engine()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let mut solver = spec.build_solver(job).expect("solver builds");
        solver
            .step_n(&engine, 2)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert!(solver.state.fields.energy().is_finite());
    }
}

/// The coefficient build evaluates a laterally uniform plane once
/// (`Scene::plane_is_uniform`). On every catalog scene and a generated
/// scene of each family — layer stacks, textured interfaces, sphere
/// dispersions — it must produce the bits of the per-cell walk, forced
/// here by a zero-radius sphere per plane far outside the grid: no
/// material changes, no plane is declared uniform.
#[test]
fn uniform_plane_builds_equal_the_per_cell_build_on_every_scene_kind() {
    let mut specs = library::builtins();
    for family in Family::ALL {
        for seed in [7, 19] {
            specs.push(generate(family, seed, &GenParams::tiny()).expect("generates"));
        }
    }
    let (mut uniform, mut per_cell) = (0, 0);
    for spec in specs {
        let fast = spec.build_solver(&spec.jobs()[0]).expect("solver builds");
        let nz = spec.dims().nz;
        let skipped = (0..nz).filter(|&z| fast.config.scene.plane_is_uniform(z));
        let skipped = skipped.count();
        uniform += skipped;
        per_cell += nz - skipped;
        let mut config = fast.config.clone();
        for z in 0..nz {
            config.scene.spheres.push(Sphere {
                center: [-1e9, -1e9, z as f64 + 0.5],
                radius: 0.0,
                material: config.scene.background,
            });
        }
        let slow = ThiimSolver::new(config);
        let name = &spec.name;
        assert_eq!(
            fast.back_iteration_cells, slow.back_iteration_cells,
            "{name}"
        );
        let pairs = Component::ALL
            .into_iter()
            .flat_map(|c| {
                let (f, s) = (&fast.state.coeffs, &slow.state.coeffs);
                [(f.t(c), s.t(c)), (f.c(c), s.c(c))]
            })
            .chain(SourceArray::ALL.map(|a| (fast.state.coeffs.src(a), slow.state.coeffs.src(a))));
        for (i, (f, s)) in pairs.enumerate() {
            assert_eq!(f.offsets(), s.offsets(), "{name}: array {i} row index");
            for ((cell, x), (_, y)) in f.iter_interior().zip(s.iter_interior()) {
                let same = x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits();
                assert!(same, "{name}: array {i} at {cell:?}: {x:?} vs {y:?}");
            }
        }
    }
    assert!(
        uniform > 0 && per_cell > 0,
        "both walks ran: {uniform} uniform planes, {per_cell} per-cell"
    );
}
