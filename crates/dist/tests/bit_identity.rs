//! The dist oracle: a decomposed solve must be **bit-identical** to
//! the single-process solve — same converged flag, same period count,
//! same `rel_change` and `energy` down to the last bit, same analysis
//! outputs — for every builtin scenario and a band of generated fuzz
//! specs, at both 2 and 3 workers.
//!
//! Comparison is on `JobOutcome::to_json_canonical()` (the artifact
//! JSON minus the wall clock), so any drift in any reported field
//! fails loudly with the scenario name attached.
//!
//! The deep-halo geometry gets its own cases: a table of halo depths
//! (`k = 1`, `k` equal to the period, periods `k` does not divide, a
//! slab with two cut faces, engines that wrap periodically inside halo
//! planes), a canary that steps once past `k` and must go wrong, and a
//! flipped halo bit that must fail the job. The once-per-job field
//! gather has two: a solve that converges before its period cap, and a
//! control stream severed mid-gather.

use std::sync::Arc;

use em_dist::slab::{crop_state, put_planes};
use em_dist::{halo_depth, run_dist, split_z, DistOptions};
use em_field::{GridDims, State};
use em_scenarios::gen::{generate, Family, GenParams};
use em_scenarios::{
    builtins, run_batch, BatchOptions, EngineDecl, PmlSpec, ScenarioSpec, SourceSpec,
};
use em_solver::{Engine, EngineStepper};

/// Cap the convergence loop so the suite stays test-sized; both sides
/// solve the same capped spec, so identity is still fully exercised
/// (including the `prev`/`rel_change` bookkeeping across periods).
fn capped(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut s = spec.clone();
    s.convergence.max_periods = s.convergence.max_periods.min(2);
    s
}

fn single_process(spec: &ScenarioSpec) -> Vec<String> {
    let report = run_batch(
        std::slice::from_ref(spec),
        &BatchOptions {
            workers: 1,
            ..BatchOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("[{}] single-process batch failed: {e}", spec.name));
    report
        .outcomes
        .iter()
        .map(|o| {
            assert!(
                o.error.is_none(),
                "[{}] single-process job {} errored: {:?}",
                spec.name,
                o.job,
                o.error
            );
            o.to_json_canonical().pretty()
        })
        .collect()
}

fn distributed(spec: &ScenarioSpec, workers: usize) -> Vec<String> {
    let outcomes = run_dist(
        spec,
        &DistOptions {
            workers,
            // Exactly the budget the declared engine asks of each worker.
            threads: workers * spec.engine.threads(),
            ..DistOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("[{}] dist run failed: {e}", spec.name));
    outcomes
        .iter()
        .map(|o| {
            assert!(
                o.error.is_none(),
                "[{}] dist job {} ({workers} workers) errored: {:?}",
                spec.name,
                o.job,
                o.error
            );
            o.to_json_canonical().pretty()
        })
        .collect()
}

fn assert_identical(spec: &ScenarioSpec, worker_counts: &[usize]) {
    let want = single_process(spec);
    for &workers in worker_counts {
        let got = distributed(spec, workers);
        assert_eq!(
            want.len(),
            got.len(),
            "[{}] job count diverged at {workers} workers",
            spec.name
        );
        for (j, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(
                w, g,
                "[{}] job {j} diverged from the single-process artifact at {workers} workers",
                spec.name
            );
        }
    }
}

fn fuzz_specs() -> Vec<ScenarioSpec> {
    let params = GenParams::tiny();
    let mut specs = Vec::new();
    for family in Family::ALL {
        for seed in [7u64, 19] {
            specs.push(
                generate(family, seed, &params)
                    .unwrap_or_else(|e| panic!("generate({family:?}, {seed}) failed: {e}")),
            );
        }
    }
    specs
}

#[test]
fn builtins_decompose_bit_identically_over_2_and_3_workers() {
    for spec in builtins() {
        assert_identical(&capped(&spec), &[2, 3]);
    }
}

#[test]
fn fuzz_specs_decompose_bit_identically_over_2_and_3_workers() {
    for spec in fuzz_specs() {
        assert_identical(&capped(&spec), &[2, 3]);
    }
}

/// The vacuum slab re-cut to `nz` planes at `lambda_cells` per
/// wavelength (which fixes the period length) on `engine`.
fn slab_case(nz: usize, lambda_cells: f64, engine: EngineDecl) -> ScenarioSpec {
    let mut spec = capped(&em_scenarios::builtin("vacuum-slab").unwrap());
    spec.grid.nz = nz;
    spec.physics.lambda_cells = lambda_cells;
    spec.pml = Some(PmlSpec::new((nz / 4).min(8)));
    spec.source = Some(SourceSpec::x_polarized(nz / 2, 1.0));
    spec.engine = engine;
    spec
}

/// Every shape the halo rule can hand a worker, each asserted to be
/// the shape it claims to be before it is solved both ways.
#[test]
fn deep_halo_geometries_decompose_bit_identically() {
    let mwd = |periodic: bool| {
        let (dw, bz, tg_x, tg_z, tg_c, groups) = (4, 2, 1, 1, 1, 1);
        if periodic {
            EngineDecl::MwdPeriodicX {
                dw,
                bz,
                tg_x,
                tg_z,
                tg_c,
                groups,
            }
        } else {
            EngineDecl::Mwd {
                dw,
                bz,
                tg_x,
                tg_z,
                tg_c,
                groups,
            }
        }
    };
    // (nz, lambda_cells, workers, engine, expected spp, expected k)
    let cases = [
        // spp % k != 0: five exchanges of 4 steps and one of 2.
        (64, 12.0, 2, EngineDecl::NaivePeriodicXY, 22, 4),
        (64, 12.0, 2, mwd(false), 22, 4),
        // A middle slab with two cut faces at k > 1, wraps inside halo
        // planes taken by the engine.
        (90, 12.0, 3, mwd(true), 22, 2),
        (90, 12.0, 3, EngineDecl::NaivePeriodicXY, 22, 2),
        // Slabs too thin for any redundancy budget: k clamps to 1.
        (24, 12.0, 3, EngineDecl::Naive, 22, 1),
        (9, 12.0, 3, mwd(true), 22, 1),
        // A period shorter than the cap: k clamps to spp, one exchange
        // per period.
        (96, 4.0, 2, mwd(false), 7, 7),
    ];
    for (nz, lambda_cells, workers, engine, spp, k) in cases {
        let spec = slab_case(nz, lambda_cells, engine);
        let tag = format!("nz={nz} workers={workers} {}", engine.label());
        let solver = spec.build_solver(&spec.jobs()[0]).expect(&tag);
        assert_eq!(solver.steps_per_period(), spp, "{tag}");
        assert_eq!(halo_depth(spp, &split_z(nz, workers).unwrap()), k, "{tag}");
        assert_identical(&spec, &[workers]);
    }
}

fn owned_bytes(state: &State, planes: std::ops::Range<usize>) -> Vec<u8> {
    let mut bytes = Vec::new();
    put_planes(&mut bytes, &state.fields, planes);
    bytes
}

/// The dependence-cone argument, and its canary: `k` steps on a
/// `k`-deep halo leave every owned plane equal to the global sweep;
/// one step more, still on that one exchange, lets the stale edge reach
/// the owned plane at each cut — and nowhere deeper.
#[test]
fn a_step_past_the_halo_depth_corrupts_exactly_the_planes_at_the_cut() {
    let (nz, k) = (20, 3);
    let mut global = State::zeros(GridDims::new(5, 4, nz));
    global.fields.fill_deterministic(41);
    global.coeffs.fill_deterministic(42);
    let step = |state: &mut State, n: usize| {
        EngineStepper::untraced(&Engine::Naive)
            .step_n(state, n, &mwd_core::CancelToken::none())
            .unwrap();
    };
    for steps in [k, k + 1] {
        let mut want = global.clone();
        step(&mut want, steps);
        for slab in split_z(nz, 3).unwrap() {
            let ext = slab.extended(k, nz);
            let mut local = crop_state(&global, ext);
            step(&mut local, steps);
            let lo = slab.z0 - ext.z0;
            for z in 0..slab.nz {
                let got = owned_bytes(&local, lo + z..lo + z + 1);
                let same = got == owned_bytes(&want, slab.z0 + z..slab.z0 + z + 1);
                let at_cut =
                    (z == 0 && slab.z0 > 0) || (z + 1 == slab.nz && slab.z0 + slab.nz < nz);
                assert_eq!(
                    same,
                    steps == k || !at_cut,
                    "{steps} steps on a {k}-deep halo, slab at {}, owned plane {z}",
                    slab.z0
                );
            }
        }
    }
}

/// The chaos seam on the halo wire: an injector flips one bit of every
/// sealed halo frame, the receiver's checksum refuses it, and the job
/// fails by name instead of stepping on corrupt planes.
#[test]
fn a_flipped_halo_bit_is_caught_by_the_frame_checksum() {
    let spec = capped(&em_scenarios::builtin("vacuum-slab").unwrap());
    let plan = em_faults::FaultPlan::parse("seed=5").unwrap();
    let outcomes = run_dist(
        &spec,
        &DistOptions {
            workers: 2,
            threads: 2,
            faults: Some(Arc::new(em_faults::FaultInjector::new(plan))),
            ..DistOptions::default()
        },
    )
    .unwrap();
    let err = outcomes[0]
        .error
        .as_ref()
        .expect("the job must fail")
        .to_string();
    assert!(err.contains("dist worker"), "{err}");
    assert!(err.contains("corrupt frame"), "{err}");
}

/// The fields are gathered once, after whichever period ends the loop:
/// here the tolerance, well before the period cap. Every period's
/// `rel_change` on the way was combined from the workers' plane
/// partials, so the same period count is itself the invariance under
/// test.
#[test]
fn early_convergence_gathers_the_converged_fields() {
    let spec = em_scenarios::builtin("vacuum-slab").unwrap();
    let outcome = &run_batch(std::slice::from_ref(&spec), &BatchOptions::default())
        .unwrap()
        .outcomes[0];
    assert!(outcome.converged, "vacuum-slab converges");
    assert!(
        (2..spec.convergence.max_periods).contains(&outcome.periods),
        "converged at period {}",
        outcome.periods
    );
    assert_identical(&spec, &[1, 3]);
}

/// A worker that dies half way through its gather frame is the same
/// typed failure as one that dies mid-period: the job fails by name,
/// nothing hangs, and `run_dist` returns with its workers joined (the
/// footprint suite holds the thread count).
#[test]
fn a_control_stream_severed_during_the_final_gather_fails_the_job() {
    let spec = capped(&em_scenarios::builtin("vacuum-slab").unwrap());
    // One worker has no halo wire, so the injector's only site is the
    // gather frame.
    let plan = em_faults::FaultPlan::parse("seed=5,conn-drop=1").unwrap();
    let faults = Arc::new(em_faults::FaultInjector::new(plan));
    let outcomes = run_dist(
        &spec,
        &DistOptions {
            workers: 1,
            faults: Some(faults.clone()),
            ..DistOptions::default()
        },
    )
    .unwrap();
    assert_eq!(faults.counts().conn_drops, 1, "the gather was severed");
    let err = outcomes[0]
        .error
        .as_ref()
        .expect("the job must fail")
        .to_string();
    assert!(err.starts_with("dist worker 0 failed:"), "{err}");
    assert!(err.contains("torn frame"), "{err}");
}

/// Degenerate and invalid decompositions fail fast with a message, and
/// a 1-worker "decomposition" (no halo links at all) still matches.
#[test]
fn dist_validates_its_inputs() {
    let spec = capped(&em_scenarios::builtin("vacuum-slab").unwrap());
    assert_identical(&spec, &[1]);

    let err = run_dist(
        &spec,
        &DistOptions {
            workers: 0,
            ..DistOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("0 workers"), "{err}");

    let err = run_dist(
        &spec,
        &DistOptions {
            workers: 10_000,
            ..DistOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("workers"), "{err}");

    let mut auto = spec.clone();
    auto.engine = em_scenarios::EngineDecl::auto("auto", 1).unwrap();
    let err = run_dist(
        &auto,
        &DistOptions {
            workers: 2,
            ..DistOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("concrete engine"), "{err}");

    // The per-worker thread share is a budget: bragg-mirror declares
    // six engine threads, four threads over two workers leave two.
    let bragg = capped(&em_scenarios::builtin("bragg-mirror").unwrap());
    let err = run_dist(
        &bragg,
        &DistOptions {
            workers: 2,
            threads: 4,
            ..DistOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        err.contains("needs 6 thread(s) per worker") && err.contains("leave 2"),
        "{err}"
    );
}
