//! Admission control and job execution.
//!
//! The serving layer's contract mirrors the batch runner's: concurrent
//! jobs and their intra-solve thread groups share one
//! [`ThreadBudget`], so the daemon never oversubscribes the host no
//! matter how requests pile up. Three mechanisms enforce it:
//!
//! - **admission**: a submission is rejected up front when the queue is
//!   full (HTTP 429), the spec is invalid (400), or its engine demands
//!   more threads than a worker's budget share (400) — nothing
//!   unbounded ever reaches a worker;
//! - **dedupe**: a submission whose content key is already in the
//!   result store is answered without a job at all, and one whose key
//!   is already queued/running coalesces onto that job — identical
//!   work is paid once;
//! - **execution**: a fixed pool of `workers` threads leases exactly
//!   its job's engine-thread demand from the shared budget while
//!   running (`workers x threads_per_job <= budget` by construction,
//!   watermarked in [`ServiceStats::peak_threads_in_use`]).
//!
//! `engine = "auto"` resolves through the process-wide
//! [`SharedTuneCache`] at admission time, with the model only, so the
//! tuned configuration is part of the job's content key and stays warm
//! across all requests.

use crate::stats::ServiceStats;
use crate::store::ResultStore;
use autotune::SharedTuneCache;
use em_json::hash::content_hash;
use em_json::Json;
use em_scenarios::runner::{run_batch, BatchOptions};
use em_scenarios::{EngineResolver, JobOutcome, ScenarioSpec};
use mwd_core::{CancelToken, SolveError, ThreadBudget};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Capacity and tuning knobs for [`Scheduler::start`].
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Worker-pool size; 0 derives `min(2, budget)` (serving favors
    /// deep jobs over wide pools — the engine scales with threads, and
    /// fewer concurrent grids fight less over shared bandwidth).
    pub workers: usize,
    /// Engine threads granted to each job; 0 derives `budget / workers`.
    pub threads_per_job: usize,
    /// Maximum jobs waiting to run; beyond this, submissions get 429.
    pub queue_depth: usize,
    /// The thread budget shared by all concurrent jobs.
    pub budget: ThreadBudget,
    /// Finished job records retained for `GET /jobs/:id` (oldest are
    /// pruned beyond this; results stay in the store regardless).
    pub max_records: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 0,
            threads_per_job: 0,
            queue_depth: 32,
            budget: ThreadBudget::host(),
            max_records: 4096,
        }
    }
}

/// Lifecycle of one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
    /// The job's deadline expired — while queued (shed before
    /// dispatch) or mid-solve (halted at the next solver checkpoint).
    Timeout,
}

impl JobState {
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Timeout => "timeout",
        }
    }

    fn finished(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled | JobState::Timeout
        )
    }
}

/// One job's bookkeeping record.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub id: u64,
    pub scenario: String,
    /// Content key of the (future) artifact.
    pub key: String,
    pub engine_label: String,
    pub threads: usize,
    pub state: JobState,
    pub error: Option<String>,
    submitted: Instant,
    pub wait_secs: f64,
    pub run_secs: f64,
    spec: ScenarioSpec,
    /// This job's cancellation handle: carries the admission deadline
    /// (if any) and is tripped by `POST /jobs/:id/cancel`; the clone
    /// handed to the runner is polled inside the solver.
    cancel: CancelToken,
}

impl JobRecord {
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("job", Json::str(job_name(self.id))),
            ("scenario", Json::str(&self.scenario)),
            ("state", Json::str(self.state.as_str())),
            ("key", Json::str(&self.key)),
            ("engine", Json::str(&self.engine_label)),
            ("threads", Json::Int(self.threads as i64)),
            ("wait_secs", Json::Num(self.wait_secs)),
            ("run_secs", Json::Num(self.run_secs)),
        ];
        if self.state == JobState::Done {
            pairs.push(("result", Json::str(format!("/results/{}", self.key))));
        }
        match &self.error {
            Some(e) => pairs.push(("error", Json::str(e))),
            None => pairs.push(("error", Json::Null)),
        }
        Json::obj(pairs)
    }
}

/// Render / parse the public `j-<n>` job names.
pub fn job_name(id: u64) -> String {
    format!("j-{id}")
}

pub fn parse_job_name(name: &str) -> Option<u64> {
    name.strip_prefix("j-")?.parse().ok()
}

/// The outcome of an accepted submission.
#[derive(Clone, Debug, PartialEq)]
pub enum Submission {
    /// The artifact already exists; no job was created.
    Cached { key: String },
    /// An identical job is already queued/running; this submission
    /// rides along on it.
    Coalesced { job: u64, key: String },
    /// A new job was queued.
    Queued { job: u64, key: String },
}

impl Submission {
    pub fn key(&self) -> &str {
        match self {
            Submission::Cached { key }
            | Submission::Coalesced { key, .. }
            | Submission::Queued { key, .. } => key,
        }
    }
}

/// Why a submission was turned away.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// 400: the spec (or its engine demand) is unservable.
    Invalid(String),
    /// 429: the queue is at capacity.
    Overloaded { queue_depth: usize },
    /// 503: the daemon is draining.
    ShuttingDown,
    /// 500: tuning or another internal step failed.
    Internal(String),
}

/// How a fetched result can be unavailable.
#[derive(Clone, Debug, PartialEq)]
pub enum ResultError {
    UnknownJob,
    /// The job exists but has no artifact yet (state inside).
    NotReady(JobState),
    /// The job failed; message inside.
    JobFailed(String),
    /// The store lost the artifact (should not happen).
    Missing,
}

/// What `POST /jobs/:id/cancel` achieved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: it is now terminally `cancelled`.
    Cancelled,
    /// The job is running: its token is tripped and the solver will
    /// halt at its next checkpoint (within one solver period).
    Cancelling,
}

/// Why `POST /jobs/:id/cancel` could not act.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelError {
    UnknownJob,
    /// Already in a terminal state (inside) — nothing left to cancel.
    AlreadyFinished(JobState),
}

struct SchedState {
    jobs: HashMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    /// Content key -> queued/running job, for coalescing.
    active_by_key: HashMap<String, u64>,
    next_id: u64,
    draining: bool,
    running: usize,
}

/// The function that actually executes one admitted spec with a thread
/// allowance and this job's cancellation token. Production uses
/// [`solve_runner`]; tests inject stubs to control timing
/// deterministically.
pub type RunFn =
    dyn Fn(&ScenarioSpec, usize, &CancelToken) -> Result<Vec<JobOutcome>, SolveError> + Send + Sync;

/// The production runner: one spec through the batch runner's code path
/// (validation, panic isolation, deterministic outcome) on a budget of
/// exactly `threads`, observing `cancel` at every solver checkpoint.
pub fn solve_runner(
    spec: &ScenarioSpec,
    threads: usize,
    cancel: &CancelToken,
) -> Result<Vec<JobOutcome>, SolveError> {
    let opts = BatchOptions {
        workers: 1,
        threads: Some(threads),
        budget: ThreadBudget::new(threads),
        quiet: true,
        out_dir: None,
        cancel: Some(cancel.clone()),
        ..Default::default()
    };
    run_batch(std::slice::from_ref(spec), &opts)
        .map(|r| r.outcomes)
        .map_err(SolveError::Failed)
}

pub struct Scheduler {
    pub workers: usize,
    pub threads_per_job: usize,
    pub queue_depth: usize,
    pub budget_total: usize,
    max_records: usize,
    fingerprint: String,
    state: Mutex<SchedState>,
    /// Signalled when work is queued or draining begins.
    work: Condvar,
    /// Signalled when a running job finishes.
    idle: Condvar,
    store: Arc<ResultStore>,
    /// Declared engine -> what will run, through the process-wide
    /// tuning cache.
    resolver: EngineResolver,
    stats: Arc<ServiceStats>,
    run: Box<RunFn>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Scheduler {
    /// Resolve the configuration, spawn the worker pool, and hand back
    /// the shared handle. `workers x threads_per_job` is checked
    /// against the budget here, so the invariant holds by construction.
    pub fn start(
        cfg: SchedulerConfig,
        store: Arc<ResultStore>,
        tune: SharedTuneCache,
        stats: Arc<ServiceStats>,
        run: Box<RunFn>,
    ) -> Result<Arc<Scheduler>, String> {
        let total = cfg.budget.total();
        let workers = if cfg.workers == 0 {
            total.min(2)
        } else {
            cfg.workers.min(total)
        };
        let threads_per_job = if cfg.threads_per_job == 0 {
            (total / workers).max(1)
        } else {
            cfg.threads_per_job
        };
        if workers * threads_per_job > total {
            return Err(format!(
                "{workers} worker(s) x {threads_per_job} thread(s) exceeds the budget of {total}"
            ));
        }
        if cfg.queue_depth == 0 {
            return Err("queue depth must be at least 1".to_string());
        }
        let resolver = EngineResolver::for_service(tune);
        let scheduler = Arc::new(Scheduler {
            workers,
            threads_per_job,
            queue_depth: cfg.queue_depth,
            budget_total: total,
            max_records: cfg.max_records.max(1),
            fingerprint: resolver.fingerprint(),
            state: Mutex::new(SchedState {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                active_by_key: HashMap::new(),
                next_id: 1,
                draining: false,
                running: 0,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            store,
            resolver,
            stats,
            run,
            handles: Mutex::new(Vec::new()),
        });
        let mut handles = relock(scheduler.handles.lock());
        for w in 0..workers {
            let s = scheduler.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("em-service-worker-{w}"))
                    .spawn(move || s.worker_loop())
                    .map_err(|e| format!("cannot spawn worker: {e}"))?,
            );
        }
        drop(handles);
        Ok(scheduler)
    }

    /// The host/ISA fingerprint folded into every content key.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// [`Self::submit_with_deadline`] without a deadline.
    pub fn submit(&self, spec: ScenarioSpec) -> Result<Submission, SubmitError> {
        self.submit_with_deadline(spec, None)
    }

    /// Admit one validated spec: dedupe against the store, coalesce
    /// against in-flight work, or queue a new job. A deadline (already
    /// admission-capped by the parser) starts counting *now* — queue
    /// wait spends it, an expired queued job is shed before dispatch,
    /// and an expired running job halts at its next solver checkpoint;
    /// either way it lands as the `timeout` terminal state.
    pub fn submit_with_deadline(
        &self,
        spec: ScenarioSpec,
        deadline_ms: Option<u64>,
    ) -> Result<Submission, SubmitError> {
        // Fast-fail before any search: a draining daemon answers 503,
        // and a full queue answers 429 unless resolution is a cache
        // lookup (the request may still be a store hit or coalesce,
        // neither of which needs a queue slot). This is what bounds the
        // searches admission runs on the event loop's one thread: a
        // full queue never searches.
        {
            let st = relock(self.state.lock());
            if st.draining {
                return Err(SubmitError::ShuttingDown);
            }
            if st.queue.len() >= self.queue_depth
                && !self
                    .resolver
                    .is_lookup(spec.engine, spec.dims(), self.threads_per_job)
            {
                ServiceStats::bump(&self.stats.rejected_overload);
                return Err(SubmitError::Overloaded {
                    queue_depth: self.queue_depth,
                });
            }
        }
        // A multi-process job (workers > 1) leases threads for *every*
        // worker slab at once, so admission budgets the product. The
        // demand is known before resolving (tuned configurations are
        // thread-exact), so an unservable spec never searches either.
        let workers = spec.workers.max(1);
        let demand = self
            .resolver
            .threads(spec.engine, self.threads_per_job)
            .saturating_mul(workers);
        if demand > self.threads_per_job {
            return Err(SubmitError::Invalid(format!(
                "engine `{}` across {workers} worker(s) demands {demand} thread(s); this server grants at most {} per job",
                spec.engine.label(),
                self.threads_per_job
            )));
        }
        // The declaration this job will run under: `auto` goes through
        // the shared tuning cache, and a cold key costs one model-only
        // search, so every job pays at most one.
        let resolved = self
            .resolver
            .resolve(spec.engine, spec.dims(), self.threads_per_job)
            .map_err(SubmitError::Internal)?;
        if let Some(t) = &resolved.tuned {
            ServiceStats::bump(if t.cache_hit {
                &self.stats.tune_hits
            } else {
                &self.stats.tune_misses
            });
        }
        let decl = resolved.decl;
        debug_assert_eq!(decl.threads() * workers, demand, "tuning is thread-exact");
        // The canonical identity: the resolved spec (declared engine
        // replaced by what will actually run), the engine label again
        // (cheap belt-and-braces), and the host/ISA fingerprint.
        let mut resolved = spec;
        resolved.engine = decl;
        let canonical = resolved.to_toml_string();
        let key = content_hash(&[&canonical, &decl.label(), &self.fingerprint]);

        if self.store.contains(&key) {
            ServiceStats::bump(&self.stats.store_hits);
            return Ok(Submission::Cached { key });
        }

        let mut st = relock(self.state.lock());
        if st.draining {
            return Err(SubmitError::ShuttingDown);
        }
        // Re-check the store under the state lock: a worker finishing
        // this exact key stores the artifact before clearing it from
        // `active_by_key` (both before flipping the record to Done), so
        // this recheck closes the window in which the unlocked check
        // above missed and the coalesce check below would too —
        // without it, a submission racing a completing identical job
        // would queue a full duplicate solve.
        if self.store.contains(&key) {
            ServiceStats::bump(&self.stats.store_hits);
            return Ok(Submission::Cached { key });
        }
        if let Some(&job) = st.active_by_key.get(&key) {
            ServiceStats::bump(&self.stats.coalesced);
            return Ok(Submission::Coalesced { job, key });
        }
        if st.queue.len() >= self.queue_depth {
            ServiceStats::bump(&self.stats.rejected_overload);
            return Err(SubmitError::Overloaded {
                queue_depth: self.queue_depth,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        let cancel = match deadline_ms {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::none(),
        };
        let record = JobRecord {
            id,
            scenario: resolved.name.clone(),
            key: key.clone(),
            engine_label: decl.label(),
            threads: demand,
            state: JobState::Queued,
            error: None,
            submitted: Instant::now(),
            wait_secs: 0.0,
            run_secs: 0.0,
            spec: resolved,
            cancel,
        };
        st.jobs.insert(id, record);
        st.queue.push_back(id);
        st.active_by_key.insert(key.clone(), id);
        Self::prune_records(&mut st, self.max_records);
        drop(st);
        self.work.notify_one();
        ServiceStats::bump(&self.stats.submitted);
        Ok(Submission::Queued { job: id, key })
    }

    /// Drop the oldest *finished* records beyond the retention cap.
    fn prune_records(st: &mut SchedState, max_records: usize) {
        if st.jobs.len() <= max_records {
            return;
        }
        let mut finished: Vec<u64> = st
            .jobs
            .values()
            .filter(|r| r.state.finished())
            .map(|r| r.id)
            .collect();
        finished.sort_unstable();
        let excess = st.jobs.len() - max_records;
        for id in finished.into_iter().take(excess) {
            st.jobs.remove(&id);
        }
    }

    /// End job `id` as `end` says: `Ok` is done (its artifact already
    /// stored), an error the state its variant names, with the rendered
    /// text the record serves. Frees the job's content key and bumps the
    /// state's counter; every path that ends a job comes through here.
    fn end_job(&self, st: &mut SchedState, id: u64, end: Result<(), SolveError>) {
        let (state, counter) = match &end {
            Ok(()) => (JobState::Done, &self.stats.completed),
            Err(SolveError::Cancelled(_)) => (JobState::Cancelled, &self.stats.cancelled),
            Err(SolveError::Timeout(_)) => (JobState::Timeout, &self.stats.timeout),
            Err(SolveError::Failed(_)) => (JobState::Failed, &self.stats.failed),
        };
        if let Some(r) = st.jobs.get_mut(&id) {
            r.state = state;
            r.error = end.err().map(|e| e.to_string());
            if st.active_by_key.get(&r.key) == Some(&id) {
                st.active_by_key.remove(&r.key);
            }
        }
        ServiceStats::bump(counter);
        self.idle.notify_all();
    }

    fn worker_loop(self: Arc<Scheduler>) {
        loop {
            let (id, spec, threads, key, cancel) = {
                let mut st = relock(self.state.lock());
                'claim: loop {
                    let id = loop {
                        if let Some(id) = st.queue.pop_front() {
                            break id;
                        }
                        if st.draining {
                            return;
                        }
                        st = relock(self.work.wait(st));
                    };
                    // A cancel or expiry can race this claim: the
                    // record may already be finished (lazy queue
                    // removal) or even pruned. Shed such ids instead of
                    // dispatching (or panicking) on them.
                    let Some(r) = st.jobs.get_mut(&id) else {
                        continue 'claim;
                    };
                    if r.state.finished() {
                        continue 'claim;
                    }
                    // Shed expired (or just-cancelled) queued jobs
                    // before spending a worker on them.
                    r.wait_secs = r.submitted.elapsed().as_secs_f64();
                    if let Some(halt) = r.cancel.halt_error() {
                        self.end_job(&mut st, id, Err(halt.map(|d| format!("{d} while queued"))));
                        continue 'claim;
                    }
                    r.state = JobState::Running;
                    let claimed = (
                        id,
                        r.spec.clone(),
                        r.threads,
                        r.key.clone(),
                        r.cancel.clone(),
                    );
                    st.running += 1;
                    break 'claim claimed;
                }
            };

            self.stats.lease_threads(threads);
            let t0 = Instant::now();
            // The production runner isolates solver panics per outcome;
            // this guard catches panics in injected test runners (and
            // any future runner) so a worker thread never dies silently.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (self.run)(&spec, threads, &cancel)
            }))
            .unwrap_or_else(|_| Err(SolveError::Failed("job runner panicked".to_string())));
            let run_secs = t0.elapsed().as_secs_f64();
            self.stats.release_threads(threads);

            // The artifact (including its disk write for backed stores)
            // is published *before* the state lock is taken: holding
            // the scheduler lock across file I/O would stall every API
            // request, and store-before-Done both preserves the "Done
            // implies stored" contract and lets submit()'s under-lock
            // store recheck close the dedupe race with this completion.
            let end = result.and_then(|outcomes| {
                if let Some(e) = outcomes.iter().find_map(|o| o.error.clone()) {
                    return Err(e);
                }
                let bytes = artifact_bytes(&key, &outcomes);
                self.store.put(&key, bytes).map_err(SolveError::Failed)
            });
            let mut st = relock(self.state.lock());
            if let Some(r) = st.jobs.get_mut(&id) {
                r.run_secs = run_secs;
            }
            st.running -= 1;
            self.end_job(&mut st, id, end);
        }
    }

    /// Cancel one specific job. A queued job flips to `cancelled` right
    /// here (its queue slot is shed lazily by the claim loop); a
    /// running job gets its token tripped and halts at the solver's
    /// next checkpoint. Finished jobs are left alone.
    pub fn cancel_job(&self, id: u64) -> Result<CancelOutcome, CancelError> {
        let mut st = relock(self.state.lock());
        let Some(r) = st.jobs.get_mut(&id) else {
            return Err(CancelError::UnknownJob);
        };
        if r.state.finished() {
            return Err(CancelError::AlreadyFinished(r.state));
        }
        // A running job halts at its next checkpoint; a queued one ends
        // here, and its tripped token sheds it from a racing claim too.
        r.cancel.cancel();
        if r.state == JobState::Running {
            return Ok(CancelOutcome::Cancelling);
        }
        r.wait_secs = r.submitted.elapsed().as_secs_f64();
        let why = "cancelled by request while queued".to_string();
        self.end_job(&mut st, id, Err(SolveError::Cancelled(why)));
        Ok(CancelOutcome::Cancelled)
    }

    /// Stop admitting, cancel queued jobs, drain running ones, and join
    /// the worker pool. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = relock(self.state.lock());
            st.draining = true;
            while let Some(id) = st.queue.pop_front() {
                // Skip ids whose record already finished (e.g. a
                // targeted cancel left them for lazy queue removal).
                if st.jobs.get(&id).is_some_and(|r| !r.state.finished()) {
                    let why = "daemon shut down before this job started".to_string();
                    self.end_job(&mut st, id, Err(SolveError::Cancelled(why)));
                }
            }
            self.work.notify_all();
            while st.running > 0 {
                st = relock(self.idle.wait(st));
            }
        }
        let handles: Vec<_> = relock(self.handles.lock()).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// A job's public status document.
    pub fn job_json(&self, id: u64) -> Option<Json> {
        relock(self.state.lock())
            .jobs
            .get(&id)
            .map(JobRecord::to_json)
    }

    /// A finished job's artifact bytes.
    pub fn result_bytes(&self, id: u64) -> Result<Arc<Vec<u8>>, ResultError> {
        let (state, key, error) = {
            let st = relock(self.state.lock());
            let Some(r) = st.jobs.get(&id) else {
                return Err(ResultError::UnknownJob);
            };
            (r.state, r.key.clone(), r.error.clone())
        };
        match state {
            JobState::Done => self.store.get(&key).ok_or(ResultError::Missing),
            JobState::Failed | JobState::Cancelled | JobState::Timeout => Err(
                ResultError::JobFailed(error.unwrap_or_else(|| "job failed".to_string())),
            ),
            other => Err(ResultError::NotReady(other)),
        }
    }

    /// `(queued, running, total records)` right now.
    pub fn queue_counts(&self) -> (usize, usize, usize) {
        let st = relock(self.state.lock());
        (st.queue.len(), st.running, st.jobs.len())
    }

    /// Block until no job is queued or running (test helper; returns
    /// false on timeout).
    pub fn wait_idle(&self, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = relock(self.state.lock());
        while !st.queue.is_empty() || st.running > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .idle
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        true
    }
}

/// The canonical artifact document for one job's outcomes.
pub fn artifact_bytes(key: &str, outcomes: &[JobOutcome]) -> Vec<u8> {
    let doc = Json::obj(vec![
        ("key", Json::str(key)),
        (
            "outcomes",
            Json::Arr(outcomes.iter().map(JobOutcome::to_json_canonical).collect()),
        ),
    ]);
    doc.pretty().into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_names_roundtrip() {
        assert_eq!(job_name(7), "j-7");
        assert_eq!(parse_job_name("j-7"), Some(7));
        assert_eq!(parse_job_name("x-7"), None);
        assert_eq!(parse_job_name("j-"), None);
        assert_eq!(parse_job_name("j-1x"), None);
    }

    #[test]
    fn config_resolution_rejects_overcommit() {
        let cfg = SchedulerConfig {
            workers: 3,
            threads_per_job: 3,
            budget: ThreadBudget::new(4),
            ..Default::default()
        };
        let r = Scheduler::start(
            cfg,
            Arc::new(ResultStore::in_memory()),
            SharedTuneCache::in_memory(),
            Arc::new(ServiceStats::default()),
            Box::new(|_, _, _| Ok(Vec::new())),
        );
        let err = r.err().expect("overcommitted config is rejected");
        assert!(err.contains("exceeds the budget"), "{err}");
    }
}
