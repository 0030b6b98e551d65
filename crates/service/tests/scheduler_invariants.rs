//! Scheduler invariants under controlled timing: the worker pool never
//! outgrows its [`ThreadBudget`], the queue bounds admission, identical
//! submissions dedupe, and shutdown drains instead of aborting.
//!
//! Jobs run through an injected runner gated on a condvar, so every
//! "while N jobs are running" state is reached deterministically
//! instead of by sleeping.

use em_scenarios::spec::{
    ConvergenceDecl, EngineDecl, GridDims, PhysicsSpec, ScenarioSpec, SceneDecl,
};
use em_scenarios::JobOutcome;
use em_service::scheduler::{
    CancelError, CancelOutcome, JobState, ResultError, Scheduler, SchedulerConfig, Submission,
    SubmitError,
};
use em_service::{ResultStore, ServiceStats};
use mwd_core::ThreadBudget;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn spec(lambda_nm: f64, engine: EngineDecl) -> ScenarioSpec {
    ScenarioSpec {
        name: "invariant".to_string(),
        description: String::new(),
        grid: GridDims::new(4, 4, 24),
        physics: PhysicsSpec {
            lambda_cells: 8.0,
            lambda_nm,
            cfl: 0.95,
        },
        pml: None,
        source: None,
        scene: SceneDecl::vacuum(),
        engine,
        convergence: ConvergenceDecl {
            tol: 1e-2,
            max_periods: 1,
        },
        sweep: None,
        workers: 1,
        outputs: Default::default(),
    }
}

fn ok_outcome(spec: &ScenarioSpec) -> Vec<JobOutcome> {
    vec![JobOutcome {
        job: 0,
        scenario: spec.name.clone(),
        sweep_index: 0,
        lambda_nm: spec.physics.lambda_nm,
        lambda_cells: spec.physics.lambda_cells,
        dims: format!("{}", spec.dims()),
        spec_hash: spec.content_hash(),
        engine: spec.engine.label(),
        threads: spec.engine.threads(),
        dry_run: false,
        converged: true,
        periods: 1,
        steps: 8,
        rel_change: 1e-3,
        energy: 1.0,
        back_iteration_cells: 0,
        absorption: Vec::new(),
        intensity_profile: None,
        wall_secs: 0.0,
        error: None,
        artifact: None,
        tuned: None,
    }]
}

/// A gate the injected runner blocks on until the test opens it.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

struct Harness {
    scheduler: Arc<Scheduler>,
    stats: Arc<ServiceStats>,
    store: Arc<ResultStore>,
    gate: Arc<Gate>,
}

fn start(cfg: SchedulerConfig) -> Harness {
    let stats = Arc::new(ServiceStats::default());
    let store = Arc::new(ResultStore::in_memory());
    let gate = Arc::new(Gate::default());
    let runner_gate = gate.clone();
    let scheduler = Scheduler::start(
        cfg,
        store.clone(),
        autotune::TuneCache::in_memory(),
        stats.clone(),
        Box::new(move |spec, _threads, cancel| {
            runner_gate.wait();
            // Honor the cancellation contract the way the real solver
            // does at a period boundary: halt with the prefixed error.
            if let Some(e) = cancel.halt_error() {
                return Err(e);
            }
            Ok(ok_outcome(spec))
        }),
    )
    .unwrap();
    Harness {
        scheduler,
        stats,
        store,
        gate,
    }
}

/// Poll until `running` reaches `n` (deterministic outcome, bounded
/// wait).
fn wait_running(s: &Scheduler, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (_, running, _) = s.queue_counts();
        if running == n {
            return;
        }
        assert!(Instant::now() < deadline, "never reached {n} running jobs");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn concurrent_load_never_exceeds_the_thread_budget() {
    // 3 workers x 2 threads inside a budget of 6; every job's engine
    // demands exactly 2 threads.
    let h = start(SchedulerConfig {
        workers: 3,
        threads_per_job: 0,
        queue_depth: 16,
        budget: ThreadBudget::new(6),
        ..Default::default()
    });
    assert_eq!(h.scheduler.threads_per_job, 2);
    let engine = EngineDecl::Spatial {
        by: 2,
        bz: 2,
        threads: 2,
    };
    for i in 0..6 {
        let s = h.scheduler.submit(spec(500.0 + i as f64, engine)).unwrap();
        assert!(matches!(s, Submission::Queued { .. }));
    }
    wait_running(&h.scheduler, 3);
    assert_eq!(
        h.stats.threads_in_use.load(Ordering::SeqCst),
        6,
        "3 running jobs lease 2 threads each"
    );
    h.gate.open();
    assert!(h.scheduler.wait_idle(Duration::from_secs(20)));
    let peak = h.stats.peak_threads_in_use.load(Ordering::SeqCst);
    assert_eq!(peak, 6, "pool saturated the budget exactly once-over");
    assert!(
        peak <= h.scheduler.budget_total,
        "peak {peak} exceeded the budget {}",
        h.scheduler.budget_total
    );
    assert_eq!(h.stats.completed.get(), 6);
    h.scheduler.shutdown();
}

#[test]
fn engines_demanding_more_than_the_share_are_rejected() {
    let h = start(SchedulerConfig {
        workers: 2,
        budget: ThreadBudget::new(4),
        ..Default::default()
    });
    let greedy = EngineDecl::Spatial {
        by: 2,
        bz: 2,
        threads: 3,
    };
    match h.scheduler.submit(spec(500.0, greedy)) {
        Err(SubmitError::Invalid(e)) => {
            assert!(e.contains("at most 2"), "{e}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    h.gate.open();
    h.scheduler.shutdown();
}

#[test]
fn multi_process_jobs_are_admitted_on_the_worker_thread_product() {
    // Budget 4 with one pool worker: each job may lease up to 4
    // threads. A 2-thread engine over 3 dist workers demands 6 — over
    // the share; the same engine over 2 workers demands exactly 4 —
    // admitted, and the lease accounts for the whole product.
    let h = start(SchedulerConfig {
        workers: 1,
        budget: ThreadBudget::new(4),
        ..Default::default()
    });
    assert_eq!(h.scheduler.threads_per_job, 4);
    let engine = EngineDecl::Spatial {
        by: 2,
        bz: 2,
        threads: 2,
    };
    let mut greedy = spec(600.0, engine);
    greedy.workers = 3;
    match h.scheduler.submit(greedy) {
        Err(SubmitError::Invalid(e)) => {
            assert!(e.contains("3 worker(s)") && e.contains("demands 6"), "{e}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    let mut fits = spec(601.0, engine);
    fits.workers = 2;
    assert!(matches!(
        h.scheduler.submit(fits),
        Ok(Submission::Queued { .. })
    ));
    wait_running(&h.scheduler, 1);
    assert_eq!(
        h.stats.threads_in_use.load(Ordering::SeqCst),
        4,
        "a 2-worker x 2-thread job leases the full product"
    );
    h.gate.open();
    assert!(h.scheduler.wait_idle(Duration::from_secs(20)));
    h.scheduler.shutdown();
}

#[test]
fn full_queue_rejects_with_overload() {
    let h = start(SchedulerConfig {
        workers: 1,
        queue_depth: 2,
        budget: ThreadBudget::new(1),
        ..Default::default()
    });
    // One running (holds the only worker at the gate) + two queued.
    // Wait for the worker to claim the first job before filling the
    // queue, otherwise the fill itself trips the depth limit.
    h.scheduler.submit(spec(500.0, EngineDecl::Naive)).unwrap();
    wait_running(&h.scheduler, 1);
    for i in 1..3 {
        h.scheduler
            .submit(spec(500.0 + i as f64, EngineDecl::Naive))
            .unwrap();
    }
    let (queued, _, _) = h.scheduler.queue_counts();
    assert_eq!(queued, 2, "queue at capacity");
    match h.scheduler.submit(spec(900.0, EngineDecl::Naive)) {
        Err(SubmitError::Overloaded { queue_depth }) => assert_eq!(queue_depth, 2),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(h.stats.rejected_overload.get(), 1);
    // An `auto` spec on a grid never seen before: a full queue answers
    // before any search, which is what bounds the searches admission
    // runs on the event loop's thread.
    let mut cold = spec(901.0, EngineDecl::Auto { threads: 0 });
    cold.grid = GridDims::new(8, 8, 24);
    match h.scheduler.submit(cold) {
        Err(SubmitError::Overloaded { queue_depth }) => assert_eq!(queue_depth, 2),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(h.stats.tune_misses.get(), 0, "a full queue never searches");
    h.gate.open();
    assert!(h.scheduler.wait_idle(Duration::from_secs(20)));
    // With room in the queue, an `auto` engine asking for more threads
    // than the job's share is refused on its declared count, before
    // resolving — no search is paid for a spec that cannot run.
    match h
        .scheduler
        .submit(spec(902.0, EngineDecl::Auto { threads: 2 }))
    {
        Err(SubmitError::Invalid(e)) => assert!(e.contains("at most 1"), "{e}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
    assert_eq!(
        h.stats.tune_misses.get(),
        0,
        "an unservable spec never searches"
    );
    // Capacity is back: the same spec is admitted now.
    assert!(h.scheduler.submit(spec(900.0, EngineDecl::Naive)).is_ok());
    h.gate.open();
    h.scheduler.wait_idle(Duration::from_secs(20));
    h.scheduler.shutdown();
}

#[test]
fn identical_submissions_coalesce_then_hit_the_store() {
    let h = start(SchedulerConfig {
        workers: 1,
        queue_depth: 8,
        budget: ThreadBudget::new(1),
        ..Default::default()
    });
    let s1 = h.scheduler.submit(spec(555.0, EngineDecl::Naive)).unwrap();
    let Submission::Queued { job, ref key } = s1 else {
        panic!("first submission queues, got {s1:?}");
    };
    // Identical spec while the job is in flight: coalesced onto it.
    let s2 = h.scheduler.submit(spec(555.0, EngineDecl::Naive)).unwrap();
    assert_eq!(
        s2,
        Submission::Coalesced {
            job,
            key: key.clone()
        }
    );
    // A different spec is its own job.
    let s3 = h.scheduler.submit(spec(556.0, EngineDecl::Naive)).unwrap();
    assert!(matches!(s3, Submission::Queued { .. }));
    assert_ne!(s3.key(), key.as_str());

    h.gate.open();
    assert!(h.scheduler.wait_idle(Duration::from_secs(20)));
    // Identical spec after completion: served from the store, no job.
    let s4 = h.scheduler.submit(spec(555.0, EngineDecl::Naive)).unwrap();
    assert_eq!(s4, Submission::Cached { key: key.clone() });
    assert_eq!(h.store.len(), 2);
    assert_eq!(h.stats.coalesced.get(), 1);
    assert_eq!(h.stats.store_hits.get(), 1);
    // Both coalesced requesters read the same artifact.
    let bytes = h.scheduler.result_bytes(job).unwrap();
    assert_eq!(h.store.get(key).unwrap(), bytes);
    h.scheduler.shutdown();
}

#[test]
fn shutdown_drains_running_work_and_cancels_the_queue() {
    let h = start(SchedulerConfig {
        workers: 1,
        queue_depth: 8,
        budget: ThreadBudget::new(1),
        ..Default::default()
    });
    let ids: Vec<u64> = (0..3)
        .map(|i| {
            match h
                .scheduler
                .submit(spec(600.0 + i as f64, EngineDecl::Naive))
                .unwrap()
            {
                Submission::Queued { job, .. } => job,
                other => panic!("{other:?}"),
            }
        })
        .collect();
    wait_running(&h.scheduler, 1);

    // Drain on a side thread (it blocks until the running job ends),
    // then open the gate so the in-flight job can finish.
    let sched = h.scheduler.clone();
    let drainer = std::thread::spawn(move || sched.shutdown());
    // The drain cancels queued jobs before the running one completes.
    let deadline = Instant::now() + Duration::from_secs(20);
    while h.scheduler.queue_counts().0 > 0 {
        assert!(
            Instant::now() < deadline,
            "queued jobs were never cancelled"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    h.gate.open();
    drainer.join().unwrap();

    let state_of = |id: u64| {
        h.scheduler
            .job_json(id)
            .unwrap()
            .get("state")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    assert_eq!(state_of(ids[0]), "done", "in-flight job drained");
    assert_eq!(state_of(ids[1]), "cancelled");
    assert_eq!(state_of(ids[2]), "cancelled");
    assert_eq!(h.stats.cancelled.get(), 2);
    match h.scheduler.result_bytes(ids[1]) {
        Err(ResultError::JobFailed(e)) => assert!(e.starts_with("cancelled:"), "{e}"),
        other => panic!("{other:?}"),
    }
    // New submissions are turned away while (and after) draining.
    assert_eq!(
        h.scheduler.submit(spec(700.0, EngineDecl::Naive)),
        Err(SubmitError::ShuttingDown)
    );
    // Idempotent.
    h.scheduler.shutdown();
}

#[test]
fn failed_jobs_report_and_are_not_stored() {
    let stats = Arc::new(ServiceStats::default());
    let store = Arc::new(ResultStore::in_memory());
    let scheduler = Scheduler::start(
        SchedulerConfig {
            workers: 1,
            budget: ThreadBudget::new(1),
            ..Default::default()
        },
        store.clone(),
        autotune::TuneCache::in_memory(),
        stats.clone(),
        Box::new(|spec, _, _| {
            if spec.physics.lambda_nm < 600.0 {
                Err("solver exploded".to_string().into())
            } else {
                panic!("runner panicked");
            }
        }),
    )
    .unwrap();
    let a = match scheduler.submit(spec(500.0, EngineDecl::Naive)).unwrap() {
        Submission::Queued { job, .. } => job,
        other => panic!("{other:?}"),
    };
    let b = match scheduler.submit(spec(700.0, EngineDecl::Naive)).unwrap() {
        Submission::Queued { job, .. } => job,
        other => panic!("{other:?}"),
    };
    assert!(scheduler.wait_idle(Duration::from_secs(20)));
    match scheduler.result_bytes(a) {
        Err(ResultError::JobFailed(e)) => assert!(e.contains("solver exploded"), "{e}"),
        other => panic!("{other:?}"),
    }
    match scheduler.result_bytes(b) {
        Err(ResultError::JobFailed(e)) => assert!(e.contains("panicked"), "{e}"),
        other => panic!("{other:?}"),
    }
    assert!(store.is_empty(), "failures are never cached");
    assert_eq!(stats.failed.get(), 2);
    // A retry of a failed spec is admitted as a fresh job (no dedupe
    // against failures).
    assert!(matches!(
        scheduler.submit(spec(500.0, EngineDecl::Naive)).unwrap(),
        Submission::Queued { .. }
    ));
    scheduler.wait_idle(Duration::from_secs(20));
    scheduler.shutdown();
}

#[test]
fn targeted_cancel_hits_queued_and_running_jobs() {
    let h = start(SchedulerConfig {
        workers: 1,
        queue_depth: 8,
        budget: ThreadBudget::new(1),
        ..Default::default()
    });
    let a = match h.scheduler.submit(spec(610.0, EngineDecl::Naive)).unwrap() {
        Submission::Queued { job, .. } => job,
        other => panic!("{other:?}"),
    };
    wait_running(&h.scheduler, 1);
    let b = match h.scheduler.submit(spec(611.0, EngineDecl::Naive)).unwrap() {
        Submission::Queued { job, .. } => job,
        other => panic!("{other:?}"),
    };

    assert_eq!(h.scheduler.cancel_job(9999), Err(CancelError::UnknownJob));
    // Queued: terminal right away, without ever consuming the worker.
    assert_eq!(h.scheduler.cancel_job(b), Ok(CancelOutcome::Cancelled));
    let state_of = |id: u64| {
        h.scheduler
            .job_json(id)
            .unwrap()
            .get("state")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    assert_eq!(state_of(b), "cancelled");
    assert_eq!(
        h.scheduler.cancel_job(b),
        Err(CancelError::AlreadyFinished(JobState::Cancelled))
    );
    // Running: the token trips now, the job halts at its next
    // checkpoint (here: right after the gate opens).
    assert_eq!(h.scheduler.cancel_job(a), Ok(CancelOutcome::Cancelling));
    h.gate.open();
    assert!(h.scheduler.wait_idle(Duration::from_secs(20)));
    assert_eq!(state_of(a), "cancelled");
    match h.scheduler.result_bytes(a) {
        Err(ResultError::JobFailed(e)) => assert!(e.starts_with("cancelled:"), "{e}"),
        other => panic!("{other:?}"),
    }
    assert_eq!(h.stats.cancelled.get(), 2);
    assert_eq!(h.stats.completed.get(), 0, "neither job produced work");
    assert!(h.store.is_empty());
    // The cancelled-while-queued id is still in the queue's backlog;
    // the claim loop must shed it silently (this used to panic).
    h.scheduler.shutdown();
}

#[test]
fn expired_deadlines_shed_queued_jobs_as_timeouts() {
    let h = start(SchedulerConfig {
        workers: 1,
        queue_depth: 8,
        budget: ThreadBudget::new(1),
        ..Default::default()
    });
    // Occupy the only worker, then queue a job with a deadline shorter
    // than its queue wait.
    h.scheduler.submit(spec(620.0, EngineDecl::Naive)).unwrap();
    wait_running(&h.scheduler, 1);
    let b = match h
        .scheduler
        .submit_with_deadline(spec(621.0, EngineDecl::Naive), Some(30))
        .unwrap()
    {
        Submission::Queued { job, .. } => job,
        other => panic!("{other:?}"),
    };
    std::thread::sleep(Duration::from_millis(60));
    h.gate.open();
    assert!(h.scheduler.wait_idle(Duration::from_secs(20)));
    let doc = h.scheduler.job_json(b).unwrap();
    assert_eq!(doc.get("state").unwrap().as_str(), Some("timeout"));
    let err = doc.get("error").unwrap().as_str().unwrap().to_string();
    assert!(
        err.starts_with("timeout:") && err.contains("while queued"),
        "{err}"
    );
    assert_eq!(h.stats.timeout.get(), 1);
    assert_eq!(h.stats.completed.get(), 1, "the first job still finished");
    h.scheduler.shutdown();
}

#[test]
fn deadline_halts_a_running_job_as_a_timeout() {
    let stats = Arc::new(ServiceStats::default());
    let store = Arc::new(ResultStore::in_memory());
    // A runner that (like the real solver loop) polls the token between
    // work quanta and halts with its prefixed error.
    let scheduler = Scheduler::start(
        SchedulerConfig {
            workers: 1,
            budget: ThreadBudget::new(1),
            ..Default::default()
        },
        store.clone(),
        autotune::TuneCache::in_memory(),
        stats.clone(),
        Box::new(|_, _, cancel| {
            let give_up = Instant::now() + Duration::from_secs(20);
            loop {
                if let Some(e) = cancel.halt_error() {
                    return Err(e);
                }
                assert!(Instant::now() < give_up, "deadline never tripped");
                std::thread::sleep(Duration::from_millis(5));
            }
        }),
    )
    .unwrap();
    let t0 = Instant::now();
    let id = match scheduler
        .submit_with_deadline(spec(630.0, EngineDecl::Naive), Some(50))
        .unwrap()
    {
        Submission::Queued { job, .. } => job,
        other => panic!("{other:?}"),
    };
    assert!(scheduler.wait_idle(Duration::from_secs(20)));
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "halted promptly, not at the runner's give-up horizon"
    );
    let doc = scheduler.job_json(id).unwrap();
    assert_eq!(doc.get("state").unwrap().as_str(), Some("timeout"));
    match scheduler.result_bytes(id) {
        Err(ResultError::JobFailed(e)) => assert!(e.starts_with("timeout:"), "{e}"),
        other => panic!("{other:?}"),
    }
    assert_eq!(stats.timeout.get(), 1);
    assert!(store.is_empty(), "timeouts are never cached");
    scheduler.shutdown();
}
