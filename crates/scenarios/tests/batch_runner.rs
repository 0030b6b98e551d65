//! Acceptance tests for the concurrent batch runner: bounded worker
//! pool with real concurrency, one JSON artifact per job, deterministic
//! output ordering, and thread-budget sharing.

use em_scenarios::runner::{run_batch, BatchOptions};
use em_scenarios::spec::{
    ConvergenceDecl, EngineDecl, GridDims, PhysicsSpec, PmlSpec, ScenarioSpec, SceneDecl,
    SourceSpec,
};
use mwd_core::ThreadBudget;
use std::path::PathBuf;

/// A deterministic-workload spec: impossible tolerance means it always
/// runs exactly `max_periods` periods (a few hundred ms in debug), long
/// enough that pool overlap is observable even on a one-core host.
fn work_spec(name: &str) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        description: "batch-runner test workload".to_string(),
        grid: GridDims::new(8, 8, 32),
        physics: PhysicsSpec {
            lambda_cells: 8.0,
            lambda_nm: 550.0,
            cfl: 0.95,
        },
        pml: Some(PmlSpec::new(6)),
        source: Some(SourceSpec::x_polarized(24, 1.0)),
        scene: SceneDecl::vacuum(),
        engine: EngineDecl::NaivePeriodicXY,
        convergence: ConvergenceDecl {
            tol: 1e-30,
            max_periods: 4,
        },
        sweep: None,
        workers: 1,
        outputs: Default::default(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("em_scenarios_batch_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn batch_runs_three_plus_scenarios_concurrently_with_one_artifact_per_job() {
    let specs: Vec<ScenarioSpec> = ["job-a", "job-b", "job-c", "job-d", "job-e", "job-f"]
        .iter()
        .map(|n| work_spec(n))
        .collect();
    let dir = temp_dir("concurrent");
    let report = run_batch(
        &specs,
        &BatchOptions {
            workers: 3,
            out_dir: Some(dir.clone()),
            ..Default::default()
        },
    )
    .unwrap();

    // Bounded pool, and genuinely concurrent: with six multi-hundred-ms
    // jobs and three workers, at least two (in practice all three) are
    // in flight together; the pool cap is never exceeded.
    assert_eq!(report.workers, 3);
    assert!(
        report.max_in_flight <= 3,
        "pool exceeded its bound: {}",
        report.max_in_flight
    );
    assert!(
        report.max_in_flight >= 2,
        "no overlap observed across 6 jobs on 3 workers"
    );

    // Deterministic ordering regardless of completion order.
    let names: Vec<&str> = report
        .outcomes
        .iter()
        .map(|o| o.scenario.as_str())
        .collect();
    assert_eq!(
        names,
        vec!["job-a", "job-b", "job-c", "job-d", "job-e", "job-f"]
    );

    // One JSON artifact per job, named by job order, plus the summary.
    for (i, o) in report.outcomes.iter().enumerate() {
        assert!(o.error.is_none(), "{:?}", o.error);
        assert_eq!(o.periods, 4, "deterministic workload length");
        let artifact = o.artifact.as_ref().expect("artifact path recorded");
        assert!(artifact.is_file(), "{}", artifact.display());
        let body = std::fs::read_to_string(artifact).unwrap();
        assert!(body.contains(&format!("\"job\": {i}")), "{body}");
        assert!(body.contains(&format!("\"scenario\": \"{}\"", o.scenario)));
        assert!(body.contains("\"energy\""));
    }
    assert!(dir.join("batch_summary.json").is_file());
    let csv = std::fs::read_to_string(dir.join("batch_summary.csv")).unwrap();
    assert_eq!(csv.lines().count(), 1 + 6, "header + one row per job");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_batches_produce_identical_artifacts() {
    // Naive engines are deterministic, so two runs of the same batch
    // must produce byte-identical JSON artifacts (modulo wall_secs,
    // which is why wall time lives in its own line).
    let specs = vec![work_spec("repeat")];
    let (d1, d2) = (temp_dir("rep1"), temp_dir("rep2"));
    for dir in [&d1, &d2] {
        run_batch(
            &specs,
            &BatchOptions {
                workers: 1,
                out_dir: Some(dir.clone()),
                ..Default::default()
            },
        )
        .unwrap();
    }
    let strip_wall = |p: PathBuf| -> String {
        std::fs::read_to_string(p)
            .unwrap()
            .lines()
            .filter(|l| !l.contains("wall_secs"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let hash12 = &specs[0].content_hash()[..12];
    let a = strip_wall(d1.join(format!("00_repeat_0550nm_{hash12}.json")));
    let b = strip_wall(d2.join(format!("00_repeat_0550nm_{hash12}.json")));
    assert!(!a.is_empty());
    assert_eq!(a, b, "artifacts must be reproducible");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}

#[test]
fn engine_override_applies_to_every_job_and_stays_bit_identical() {
    // The same workload through --engine mwd must produce the same
    // converged state as the naive engine: temporal blocking is
    // bit-identical, so even the energies match exactly.
    let specs = vec![work_spec("override")];
    let naive = run_batch(
        &specs,
        &BatchOptions {
            workers: 1,
            engine_kind: Some("naive".to_string()),
            ..Default::default()
        },
    )
    .unwrap();
    let mwd = run_batch(
        &specs,
        &BatchOptions {
            workers: 1,
            engine_kind: Some("mwd".to_string()),
            threads: Some(2),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(naive.outcomes[0].engine.starts_with("naive"));
    assert!(mwd.outcomes[0].engine.starts_with("mwd"));
    assert_eq!(mwd.outcomes[0].threads, 2);
    assert_eq!(
        naive.outcomes[0].energy.to_bits(),
        mwd.outcomes[0].energy.to_bits(),
        "MWD override must stay bit-identical to naive"
    );
}

#[test]
fn auto_pool_shrinks_for_thread_hungry_spec_engines() {
    // Four jobs whose spec engine wants 6 threads each (2 groups x
    // 1x1x3) on an 8-thread budget: an auto-sized pool must drop to one
    // worker so workers x engine-threads stays within the budget.
    let specs: Vec<ScenarioSpec> = (0..4)
        .map(|i| {
            let mut s = work_spec(&format!("hungry-{i}"));
            s.engine = EngineDecl::Mwd {
                dw: 4,
                bz: 2,
                tg_x: 1,
                tg_z: 1,
                tg_c: 3,
                groups: 2,
            };
            s
        })
        .collect();
    let report = run_batch(
        &specs,
        &BatchOptions {
            budget: ThreadBudget::new(8),
            dry_run: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.workers, 1, "6-thread engines cap an 8-thread pool");

    // An explicitly pinned pool size is honored as is.
    let pinned = run_batch(
        &specs,
        &BatchOptions {
            workers: 2,
            budget: ThreadBudget::new(8),
            dry_run: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(pinned.workers, 2);
}

#[test]
fn single_worker_run_gets_the_whole_budget_per_job() {
    // `mwd run` pins workers = 1; each sequential job's engine share is
    // then the full budget, not total/jobs.
    let specs: Vec<ScenarioSpec> = (0..3).map(|i| work_spec(&format!("seq-{i}"))).collect();
    let report = run_batch(
        &specs,
        &BatchOptions {
            workers: 1,
            budget: ThreadBudget::new(8),
            dry_run: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.workers, 1);
    assert_eq!(report.threads_per_job, 8);
}

#[test]
fn thread_budget_is_shared_between_workers_and_jobs() {
    let specs: Vec<ScenarioSpec> = (0..4).map(|i| work_spec(&format!("budget-{i}"))).collect();
    let report = run_batch(
        &specs,
        &BatchOptions {
            budget: ThreadBudget::new(8),
            dry_run: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.workers, 4);
    assert_eq!(report.threads_per_job, 2);
    assert!(report.workers * report.threads_per_job <= 8);
}

/// The batch invariant the `ThreadBudget` exists for: however jobs,
/// sweeps and tuned thread groups combine, an auto-sized pool keeps
/// `concurrent workers x widest resolved engine` within the budget —
/// including when the configurations only materialize at run time via
/// `engine = "auto"` tuning.
#[test]
fn workers_times_widest_resolved_tg_never_exceeds_the_budget() {
    for (budget, jobs) in [(1usize, 3usize), (4, 5), (8, 2), (8, 13)] {
        let specs: Vec<ScenarioSpec> = (0..jobs)
            .map(|i| {
                let mut s = work_spec(&format!("auto-{i}"));
                s.engine = EngineDecl::Auto { threads: 0 };
                s
            })
            .collect();
        let report = run_batch(
            &specs,
            &BatchOptions {
                budget: ThreadBudget::new(budget),
                dry_run: true,
                ..Default::default()
            },
        )
        .unwrap();
        let widest = report
            .outcomes
            .iter()
            .map(|o| o.threads)
            .max()
            .expect("outcomes exist");
        assert!(
            report.workers * widest <= budget,
            "budget {budget}, {jobs} jobs: {} workers x {widest} threads",
            report.workers
        );
        // Every auto job really was resolved to a concrete MWD engine
        // occupying its full budget slice.
        for o in &report.outcomes {
            assert!(o.engine.starts_with("mwd("), "unresolved: {}", o.engine);
            assert_eq!(o.threads, report.threads_per_job);
            assert!(o.tuned.is_some());
        }
    }
}

/// Result ordering must not depend on completion order. The first job
/// is adversarially slow (several periods on a taller grid) while the
/// rest are quick, so on a multi-worker pool the later jobs all finish
/// first — and the report must still come back in submission order.
#[test]
fn ordering_is_deterministic_under_adversarially_slow_jobs() {
    let mut specs = vec![work_spec("slowest")];
    specs[0].grid.nz = 64;
    specs[0].convergence.max_periods = 6;
    for i in 0..5 {
        let mut s = work_spec(&format!("quick-{i}"));
        s.grid = GridDims::new(4, 4, 24);
        s.pml = Some(PmlSpec::new(4));
        s.source = Some(SourceSpec::x_polarized(18, 1.0));
        s.convergence.max_periods = 1;
        specs.push(s);
    }
    let report = run_batch(
        &specs,
        &BatchOptions {
            workers: 3,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(report.max_in_flight >= 2, "overlap must actually happen");
    let names: Vec<&str> = report
        .outcomes
        .iter()
        .map(|o| o.scenario.as_str())
        .collect();
    assert_eq!(
        names,
        vec!["slowest", "quick-0", "quick-1", "quick-2", "quick-3", "quick-4"]
    );
    for (i, o) in report.outcomes.iter().enumerate() {
        assert_eq!(o.job, i);
        assert!(o.error.is_none(), "{:?}", o.error);
    }
    // The slow job really was the long pole: it ran at least as long as
    // any quick one (sanity check that the adversarial setup holds).
    let slow = report.outcomes[0].wall_secs;
    assert!(
        report.outcomes[1..].iter().all(|o| o.wall_secs <= slow),
        "slow job was not the long pole"
    );
}

#[test]
fn sweep_jobs_order_is_deterministic_within_a_scenario() {
    let mut spec = work_spec("sweep");
    spec.sweep = Some(em_scenarios::SweepDecl {
        lambdas: vec![
            em_scenarios::SweepPoint {
                nm: 450.0,
                cells: 8.0,
            },
            em_scenarios::SweepPoint {
                nm: 650.0,
                cells: 12.0,
            },
        ],
    });
    let report = run_batch(
        &[spec],
        &BatchOptions {
            workers: 2,
            dry_run: true,
            ..Default::default()
        },
    )
    .unwrap();
    let nm: Vec<f64> = report.outcomes.iter().map(|o| o.lambda_nm).collect();
    assert_eq!(nm, vec![450.0, 650.0]);
    assert_eq!(report.outcomes[0].sweep_index, 0);
    assert_eq!(report.outcomes[1].sweep_index, 1);
}

#[test]
fn a_traced_mwd_batch_records_every_executor_phase_and_changes_no_artifact_byte() {
    // The solver path must reach the same executor body as a bare
    // `run_mwd_bc_rec` call: all three phase spans, nested under the
    // job's span, and tracing stays bit-neutral.
    let mut spec = work_spec("traced");
    spec.engine = EngineDecl::Mwd {
        dw: 4,
        bz: 2,
        tg_x: 1,
        tg_z: 1,
        tg_c: 1,
        groups: 2,
    };
    spec.convergence.max_periods = 2;
    let trace = em_obs::Recorder::enabled();
    let traced = run_batch(
        std::slice::from_ref(&spec),
        &BatchOptions {
            trace: trace.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let plain = run_batch(&[spec], &BatchOptions::default()).unwrap();
    assert!(traced.outcomes[0].error.is_none());
    assert_eq!(
        traced.outcomes[0].to_json_canonical().pretty(),
        plain.outcomes[0].to_json_canonical().pretty(),
    );

    let spans = trace.drain().spans;
    let job = spans.iter().find(|s| s.name == "job").expect("job span");
    for phase in ["frontier_setup", "queue_wait", "diamond_update"] {
        let found: Vec<_> = spans.iter().filter(|s| s.name == phase).collect();
        assert!(!found.is_empty(), "the solver path records `{phase}`");
        assert!(
            found.iter().all(|s| s.parent == job.id),
            "`{phase}` nests under the job span"
        );
    }
}
