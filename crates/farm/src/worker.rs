//! Supervised job execution: the shared daemon state, the worker loop,
//! and the per-attempt supervisor that contains panics, enforces
//! deadlines, retries with bounded exponential backoff, and writes a
//! flight-recorder dump when a job finally fails.
//!
//! The execution engine is abstracted behind [`JobRunner`] so the
//! containment logic is unit-testable with runners that panic, hang, or
//! reject their payload on demand; the real engine
//! ([`ScenarioRunner`]) runs the scenario sweep through the same
//! checkpoint journal as `gen-figures --checkpoint`, which is what makes
//! an interrupted job resume byte-identically.

use crate::config::FarmConfig;
use crate::job::{JobEvent, JobId, JobSnapshot, JobSpec, JobState};
use crate::journal::{self, Journal};
use crate::queue::{AdmissionQueue, Pop, PushError};
use adaptnoc_bench::jsonrows::{rows_json, ToJson};
use adaptnoc_bench::parallel::{panic_message, read_journal};
use adaptnoc_bench::prelude::{
    atomic_write, campaign_loads, load_scenario, run_checkpointed_observed, scenario_point,
    ScenarioRow,
};
use adaptnoc_bench::scenarios::scenario_row_from_json;
use adaptnoc_scenario::prelude::{CancelToken, RunError};
use adaptnoc_sim::json::Value;
use adaptnoc_telemetry::{json_lines, CounterId, Registry, TelemetryMode};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Flight-recorder ring capacity per job.
const EVENT_RING: usize = 256;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a job's cancel token fired. Decides the terminal state when an
/// attempt comes back stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CancelCause {
    /// Token has not fired.
    #[default]
    None,
    /// A client asked (`farmctl cancel`) — terminal `cancelled`.
    User,
    /// The per-attempt deadline reaper fired — retried, then `failed`.
    Deadline,
    /// Graceful shutdown — journaled `interrupted`, requeued on restart.
    Shutdown,
}

/// One job's live record.
#[derive(Debug)]
pub struct JobRecord {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Human-readable detail (failure reason etc.).
    pub detail: String,
    /// Current attempt, 1-based.
    pub attempt: u32,
    /// Fires to stop the current attempt.
    pub cancel: CancelToken,
    /// Why the token fired (if it did).
    pub cause: CancelCause,
    /// Sweep points finished (checkpointed included).
    pub points_done: usize,
    /// Total sweep points (0 until the plan is loaded).
    pub points_total: usize,
    /// When the current attempt started.
    pub attempt_started: Option<Instant>,
    /// Flight recorder: the last `EVENT_RING` events.
    pub events: VecDeque<JobEvent>,
    /// Per-job telemetry registry.
    pub registry: Registry,
}

impl JobRecord {
    fn new(spec: JobSpec, state: JobState, detail: String) -> JobRecord {
        JobRecord {
            spec,
            state,
            detail,
            attempt: 0,
            cancel: CancelToken::new(),
            cause: CancelCause::None,
            points_done: 0,
            points_total: 0,
            attempt_started: None,
            events: VecDeque::new(),
            registry: Registry::new(TelemetryMode::Strict),
        }
    }

    fn snapshot(&self, id: JobId) -> JobSnapshot {
        JobSnapshot {
            id,
            name: self.spec.name.clone(),
            priority: self.spec.priority,
            state: self.state,
            attempt: self.attempt,
            points_done: self.points_done,
            points_total: self.points_total,
            detail: self.detail.clone(),
        }
    }
}

/// Daemon-level counter ids in the shared registry.
#[derive(Debug, Clone, Copy)]
struct DaemonCounters {
    submitted: CounterId,
    rejected: CounterId,
    completed: CounterId,
    failed: CounterId,
    cancelled: CounterId,
    requeued: CounterId,
    retries: CounterId,
    panics: CounterId,
    deadlines: CounterId,
}

/// Everything the daemon's threads share.
#[derive(Debug)]
pub struct FarmState {
    /// Typed configuration.
    pub cfg: FarmConfig,
    /// The bounded admission queue.
    pub queue: AdmissionQueue,
    /// Set by signal handlers / tests: stop everything, persist, exit.
    pub shutdown: AtomicBool,
    /// Set by `drain`: stop admitting, let the backlog finish.
    pub draining: AtomicBool,
    jobs: Mutex<BTreeMap<JobId, JobRecord>>,
    journal: Mutex<Journal>,
    watchers: Mutex<Vec<(JobId, mpsc::Sender<Value>)>>,
    registry: Mutex<Registry>,
    counters: DaemonCounters,
    next_id: AtomicU64,
}

impl FarmState {
    /// Creates the data directory, replays the job journal, and requeues
    /// every non-terminal job it finds (the crash/SIGTERM recovery
    /// path).
    ///
    /// # Errors
    ///
    /// I/O errors creating the data directory or opening the journal.
    pub fn new(cfg: FarmConfig) -> io::Result<Arc<FarmState>> {
        std::fs::create_dir_all(cfg.data_dir.join("jobs"))?;
        let replayed = journal::replay(&cfg.data_dir)?;
        let journal = Journal::open(&cfg.data_dir)?;

        let mut registry = Registry::new(TelemetryMode::Strict);
        let c = |r: &mut Registry, name: &str, help: &str| {
            r.counter(
                &format!("adaptnoc_farm_jobs_{name}_total"),
                help,
                "jobs",
                &[],
            )
        };
        let counters = DaemonCounters {
            submitted: c(&mut registry, "submitted", "jobs admitted"),
            rejected: c(
                &mut registry,
                "rejected",
                "submissions shed by the bounded queue",
            ),
            completed: c(&mut registry, "completed", "jobs finished with results"),
            failed: c(
                &mut registry,
                "failed",
                "jobs failed after retries or bad payloads",
            ),
            cancelled: c(&mut registry, "cancelled", "jobs cancelled by clients"),
            requeued: c(
                &mut registry,
                "requeued",
                "jobs recovered from the journal at startup",
            ),
            retries: c(&mut registry, "retries", "attempt retries across all jobs"),
            panics: c(
                &mut registry,
                "panics",
                "attempts contained by catch_unwind",
            ),
            deadlines: c(
                &mut registry,
                "deadlines",
                "attempts stopped by the deadline reaper",
            ),
        };

        let state = Arc::new(FarmState {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            jobs: Mutex::new(BTreeMap::new()),
            journal: Mutex::new(journal),
            watchers: Mutex::new(Vec::new()),
            registry: Mutex::new(registry),
            counters,
            next_id: AtomicU64::new(replayed.next_id),
            cfg,
        });

        for job in replayed.jobs {
            if job.state.is_terminal() {
                let mut rec = JobRecord::new(job.spec, job.state, job.detail);
                rec.attempt = job.attempt;
                lock(&state.jobs).insert(job.id, rec);
                continue;
            }
            // queued / running / interrupted: back into the queue. The
            // per-job checkpoint journal turns the re-run into a resume.
            let detail = format!("requeued after restart (was {})", job.state.as_str());
            let priority = job.spec.priority;
            lock(&state.jobs).insert(
                job.id,
                JobRecord::new(job.spec, JobState::Queued, detail.clone()),
            );
            let _ = lock(&state.journal).state(job.id, JobState::Queued, 0, &detail);
            // Capacity cannot be exceeded here unless the config shrank
            // across the restart; shed the overflow like any other load.
            if state.queue.push(job.id, priority).is_err() {
                state.finalize(
                    job.id,
                    JobState::Failed,
                    0,
                    "requeue overflowed the admission queue",
                );
                continue;
            }
            state.count(state.counters.requeued);
        }
        Ok(state)
    }

    fn count(&self, id: CounterId) {
        lock(&self.registry).inc(id);
    }

    /// Allocates ids monotonically across restarts.
    fn allocate_id(&self) -> JobId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The per-job scratch directory (checkpoints, results, dumps).
    #[must_use]
    pub fn job_dir(&self, id: JobId) -> PathBuf {
        self.cfg.data_dir.join("jobs").join(id.to_string())
    }

    /// Admits a job: record, journal, queue — in an order that never
    /// acknowledges unpersisted work (the journal line is written before
    /// the caller sees the id).
    ///
    /// # Errors
    ///
    /// A `(reason, retry_after_ms)` rejection when draining, at
    /// capacity, or when the journal cannot be written.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, (String, u64)> {
        let retry = self.cfg.retry_after_ms;
        if self.shutdown.load(Ordering::Acquire) || self.draining.load(Ordering::Acquire) {
            self.count(self.counters.rejected);
            return Err(("daemon is draining".to_string(), retry));
        }
        let id = self.allocate_id();
        let priority = spec.priority;
        lock(&self.jobs).insert(
            id,
            JobRecord::new(spec.clone(), JobState::Queued, String::new()),
        );
        match self.queue.push(id, priority) {
            Ok(()) => {}
            Err(e) => {
                lock(&self.jobs).remove(&id);
                self.count(self.counters.rejected);
                let reason = match e {
                    PushError::Full => "queue is full",
                    PushError::Closed => "daemon is draining",
                };
                return Err((reason.to_string(), retry));
            }
        }
        if let Err(e) = lock(&self.journal).submit(id, &spec) {
            lock(&self.jobs).remove(&id);
            self.queue.remove(id);
            return Err((format!("job journal write failed: {e}"), retry));
        }
        self.count(self.counters.submitted);
        self.emit(id, "state", &[("state", "queued")]);
        Ok(id)
    }

    /// Cancels a queued or running job.
    ///
    /// # Errors
    ///
    /// A diagnostic for unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> Result<(), String> {
        let mut jobs = lock(&self.jobs);
        let Some(rec) = jobs.get_mut(&id) else {
            return Err(format!("no such job {id}"));
        };
        match rec.state {
            JobState::Queued => {
                drop(jobs);
                self.queue.remove(id);
                self.finalize(id, JobState::Cancelled, 0, "cancelled while queued");
                Ok(())
            }
            JobState::Running => {
                rec.cause = CancelCause::User;
                rec.cancel.cancel();
                drop(jobs);
                self.emit(id, "cancel_requested", &[]);
                Ok(())
            }
            s => Err(format!("job {id} is already {}", s.as_str())),
        }
    }

    /// Snapshot of one job.
    #[must_use]
    pub fn snapshot(&self, id: JobId) -> Option<JobSnapshot> {
        lock(&self.jobs).get(&id).map(|r| r.snapshot(id))
    }

    /// Snapshots of every known job, ascending id.
    #[must_use]
    pub fn snapshot_all(&self) -> Vec<JobSnapshot> {
        lock(&self.jobs)
            .iter()
            .map(|(&id, r)| r.snapshot(id))
            .collect()
    }

    /// Whether no job is queued or running (the drain condition).
    #[must_use]
    pub fn settled(&self) -> bool {
        self.queue.is_empty()
            && lock(&self.jobs)
                .values()
                .all(|r| !matches!(r.state, JobState::Queued | JobState::Running))
    }

    /// Subscribes to a job's event stream. Returns the receiver and
    /// whether the job is already terminal (in which case no more events
    /// will arrive).
    ///
    /// # Errors
    ///
    /// A diagnostic for unknown jobs.
    pub fn subscribe(&self, id: JobId) -> Result<(mpsc::Receiver<Value>, bool), String> {
        let jobs = lock(&self.jobs);
        let Some(rec) = jobs.get(&id) else {
            return Err(format!("no such job {id}"));
        };
        let terminal = rec.state.is_terminal();
        drop(jobs);
        let (tx, rx) = mpsc::channel();
        lock(&self.watchers).push((id, tx));
        Ok((rx, terminal))
    }

    /// Emits a job event: flight recorder, per-job registry, watchers.
    pub fn emit(&self, id: JobId, kind: &str, fields: &[(&str, &str)]) {
        let ev = JobEvent::new(id, kind, fields);
        {
            let mut jobs = lock(&self.jobs);
            if let Some(rec) = jobs.get_mut(&id) {
                if rec.events.len() >= EVENT_RING {
                    rec.events.pop_front();
                }
                rec.events.push_back(ev.clone());
                rec.registry.event(kind, 0, fields);
            }
        }
        let frame = crate::proto::event(&ev.to_json());
        let mut watchers = lock(&self.watchers);
        watchers.retain(|(wid, tx)| *wid != id || tx.send(frame.clone()).is_ok());
    }

    /// Journals and broadcasts a state transition.
    fn set_state(&self, id: JobId, state: JobState, attempt: u32, detail: &str) {
        {
            let mut jobs = lock(&self.jobs);
            if let Some(rec) = jobs.get_mut(&id) {
                rec.state = state;
                rec.attempt = attempt;
                rec.detail = detail.to_string();
            }
        }
        let _ = lock(&self.journal).state(id, state, attempt, detail);
        let attempt_s = attempt.to_string();
        self.emit(
            id,
            "state",
            &[
                ("state", state.as_str()),
                ("attempt", &attempt_s),
                ("detail", detail),
            ],
        );
    }

    /// Moves a job to its final (or, for `Interrupted`, persisted) state
    /// and flushes its telemetry.
    pub fn finalize(&self, id: JobId, state: JobState, attempt: u32, detail: &str) {
        self.set_state(id, state, attempt, detail);
        match state {
            JobState::Completed => self.count(self.counters.completed),
            JobState::Failed => self.count(self.counters.failed),
            JobState::Cancelled => self.count(self.counters.cancelled),
            _ => {}
        }
        if state == JobState::Failed {
            self.write_dump(id, detail);
        }
        self.write_job_telemetry(id);
        self.write_daemon_telemetry();
    }

    /// Writes the flight-recorder dump for a failed job.
    fn write_dump(&self, id: JobId, reason: &str) {
        let jobs = lock(&self.jobs);
        let Some(rec) = jobs.get(&id) else { return };
        let dump = Value::Object(vec![
            ("id".to_string(), Value::Number(id as f64)),
            ("name".to_string(), Value::String(rec.spec.name.clone())),
            ("reason".to_string(), Value::String(reason.to_string())),
            (
                "attempts".to_string(),
                Value::Number(f64::from(rec.attempt)),
            ),
            (
                "events".to_string(),
                Value::Array(rec.events.iter().map(JobEvent::to_json).collect()),
            ),
        ]);
        drop(jobs);
        let dir = self.job_dir(id);
        let _ = std::fs::create_dir_all(&dir);
        let _ = atomic_write(&dir.join("dump.json"), &dump.to_string_pretty());
    }

    fn write_job_telemetry(&self, id: JobId) {
        let jobs = lock(&self.jobs);
        let Some(rec) = jobs.get(&id) else { return };
        let text = json_lines(&rec.registry);
        drop(jobs);
        let dir = self.job_dir(id);
        let _ = std::fs::create_dir_all(&dir);
        let _ = atomic_write(&dir.join("telemetry.jsonl"), &text);
    }

    /// Flushes the daemon-level registry (atomic, so scrapers never see
    /// a torn file).
    pub fn write_daemon_telemetry(&self) {
        let text = json_lines(&lock(&self.registry));
        let _ = atomic_write(&self.cfg.data_dir.join("telemetry.jsonl"), &text);
    }

    /// Daemon stats for `ping` responses.
    #[must_use]
    pub fn stats(&self) -> Vec<(String, Value)> {
        let jobs = lock(&self.jobs);
        let running = jobs
            .values()
            .filter(|r| r.state == JobState::Running)
            .count();
        let total = jobs.len();
        drop(jobs);
        vec![
            ("queued".to_string(), Value::Number(self.queue.len() as f64)),
            ("running".to_string(), Value::Number(running as f64)),
            ("jobs".to_string(), Value::Number(total as f64)),
            (
                "draining".to_string(),
                Value::Bool(self.draining.load(Ordering::Acquire)),
            ),
        ]
    }

    /// One deadline-reaper sweep: fires the cancel token of any running
    /// job whose current attempt has outlived its wall-clock budget.
    /// Returns how many tokens fired.
    pub fn reap_deadlines(&self) -> usize {
        let default = self.cfg.default_deadline_secs;
        let mut fired = Vec::new();
        {
            let mut jobs = lock(&self.jobs);
            for (&id, rec) in jobs.iter_mut() {
                if rec.state != JobState::Running || rec.cause != CancelCause::None {
                    continue;
                }
                let budget =
                    rec.spec
                        .deadline_secs
                        .or(if default > 0 { Some(default) } else { None });
                let (Some(budget), Some(started)) = (budget, rec.attempt_started) else {
                    continue;
                };
                if started.elapsed() >= Duration::from_secs(budget) {
                    rec.cause = CancelCause::Deadline;
                    rec.cancel.cancel();
                    fired.push((id, budget));
                }
            }
        }
        for &(id, budget) in &fired {
            self.count(self.counters.deadlines);
            let budget_s = budget.to_string();
            self.emit(id, "deadline", &[("budget_secs", &budget_s)]);
        }
        fired.len()
    }

    /// Flips into shutdown: stop admitting, close the queue, and fire
    /// every running job's token with [`CancelCause::Shutdown`] so
    /// workers checkpoint and journal `interrupted`.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.draining.store(true, Ordering::Release);
        self.queue.close();
        let mut jobs = lock(&self.jobs);
        for rec in jobs.values_mut() {
            if rec.state == JobState::Running && rec.cause == CancelCause::None {
                rec.cause = CancelCause::Shutdown;
                rec.cancel.cancel();
            }
        }
    }
}

/// Campaign progress reported by a [`JobRunner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Progress {
    /// The plan loaded: total points, and how many the checkpoint
    /// journal already holds (resume).
    Campaign {
        /// Sweep points in the plan.
        total: usize,
        /// Points replayed from the checkpoint journal.
        resumed: usize,
    },
    /// One fresh point finished (and was journaled).
    Point {
        /// Sweep index.
        index: usize,
        /// The point's load.
        load: f64,
        /// The point's mean packet latency.
        avg_latency: f64,
    },
}

/// Everything one attempt may touch.
pub struct AttemptCtx<'a> {
    /// The job's spec.
    pub spec: &'a JobSpec,
    /// Fires when the attempt must stop (cancel/deadline/shutdown).
    pub cancel: &'a CancelToken,
    /// The job's scratch directory.
    pub dir: &'a Path,
    /// Sweep fan-out threads.
    pub threads: usize,
    /// Progress sink (updates the record, feeds watchers).
    pub observe: &'a (dyn Fn(Progress) + Sync),
}

impl std::fmt::Debug for AttemptCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttemptCtx")
            .field("spec", &self.spec)
            .field("dir", &self.dir)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// Why an attempt did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptError {
    /// The payload can never run (parse/compile error): fail
    /// immediately, no retries.
    BadPayload(String),
    /// Infrastructure or runtime failure: retry with backoff.
    Retryable(String),
}

/// An execution engine the supervisor can drive.
pub trait JobRunner: Sync {
    /// Runs one attempt. `Ok(Some(rows))` = completed with a JSON rows
    /// array; `Ok(None)` = stopped by the cancel token (the supervisor
    /// classifies by cause). Panics are caught and treated as
    /// [`AttemptError::Retryable`].
    ///
    /// # Errors
    ///
    /// [`AttemptError`] as above.
    fn run_attempt(&self, ctx: &AttemptCtx<'_>) -> Result<Option<Value>, AttemptError>;
}

/// The real engine: checkpointed scenario sweeps.
#[derive(Debug, Default)]
pub struct ScenarioRunner;

impl JobRunner for ScenarioRunner {
    fn run_attempt(&self, ctx: &AttemptCtx<'_>) -> Result<Option<Value>, AttemptError> {
        let plan = load_scenario(&ctx.spec.scenario)
            .map_err(|e| AttemptError::BadPayload(e.to_string()))?;
        let loads = campaign_loads(&plan);
        let path = ctx.dir.join("points.jsonl");
        // The distinct points whose journaled row decodes: exactly the
        // ones the sweep below replays instead of running.
        let resumed: BTreeSet<u64> = read_journal(&path)
            .unwrap_or_default()
            .iter()
            .filter(|entry| entry.get("v").and_then(scenario_row_from_json).is_some())
            .filter_map(|entry| entry.get("i").and_then(Value::as_u64))
            .filter(|&i| i < loads.len() as u64)
            .collect();
        (ctx.observe)(Progress::Campaign {
            total: loads.len(),
            resumed: resumed.len(),
        });

        // A runtime error inside a point cannot cross the closure
        // boundary (holes mean "stopped"), so the first one is parked
        // here and re-raised as a retryable attempt error.
        let first_err: Mutex<Option<String>> = Mutex::new(None);
        let partial = run_checkpointed_observed(
            loads.len(),
            ctx.threads.max(1),
            &path,
            ScenarioRow::to_json,
            scenario_row_from_json,
            |i, row: &ScenarioRow| {
                (ctx.observe)(Progress::Point {
                    index: i,
                    load: row.load,
                    avg_latency: row.avg_latency,
                });
            },
            |i| {
                if ctx.cancel.is_cancelled() {
                    return None;
                }
                match scenario_point(&ctx.spec.name, &plan, loads[i], ctx.cancel) {
                    Ok(row) => Some(row),
                    Err(RunError::Cancelled) => None,
                    Err(e) => {
                        lock(&first_err).get_or_insert_with(|| format!("point {i}: {e}"));
                        None
                    }
                }
            },
        )
        .map_err(|e| AttemptError::Retryable(format!("points journal: {e}")))?;

        if let Some(msg) = lock(&first_err).take() {
            return Err(AttemptError::Retryable(msg));
        }
        Ok(partial.into_complete().map(|rows| rows_json(&rows)))
    }
}

/// The worker thread body: pop, run, repeat — until shutdown or the
/// queue closes.
pub fn worker_loop(state: &Arc<FarmState>, runner: &dyn JobRunner) {
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        match state.queue.pop_timeout(Duration::from_millis(200)) {
            Pop::Job(id) => run_job(state, runner, id),
            Pop::Empty => {}
            Pop::Closed => return,
        }
    }
}

/// Runs one job to a persisted state: completed, failed (with dump),
/// cancelled, or interrupted. Every attempt runs under `catch_unwind`,
/// so a panicking scenario never takes the worker (or a neighbor's job)
/// down with it.
pub fn run_job(state: &Arc<FarmState>, runner: &dyn JobRunner, id: JobId) {
    // Claim: the job may have been cancelled while queued.
    let spec = {
        let mut jobs = lock(&state.jobs);
        let Some(rec) = jobs.get_mut(&id) else { return };
        if rec.state != JobState::Queued {
            return;
        }
        rec.state = JobState::Running;
        rec.spec.clone()
    };
    let threads = spec.threads.unwrap_or(state.cfg.threads_per_job);
    let dir = state.job_dir(id);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        state.finalize(id, JobState::Failed, 1, &format!("job dir: {e}"));
        return;
    }

    let mut attempt: u32 = 1;
    loop {
        // Fresh token + clock per attempt; deadlines are per attempt.
        let cancel = {
            let mut jobs = lock(&state.jobs);
            let Some(rec) = jobs.get_mut(&id) else { return };
            rec.cancel = CancelToken::new();
            rec.cause = CancelCause::None;
            rec.attempt_started = Some(Instant::now());
            rec.cancel.clone()
        };
        state.set_state(id, JobState::Running, attempt, "");

        let observe = |p: Progress| match p {
            Progress::Campaign { total, resumed } => {
                {
                    let mut jobs = lock(&state.jobs);
                    if let Some(rec) = jobs.get_mut(&id) {
                        rec.points_total = total;
                        rec.points_done = resumed;
                    }
                }
                let (t, r) = (total.to_string(), resumed.to_string());
                state.emit(id, "campaign", &[("total", &t), ("resumed", &r)]);
            }
            Progress::Point {
                index,
                load,
                avg_latency,
            } => {
                {
                    let mut jobs = lock(&state.jobs);
                    if let Some(rec) = jobs.get_mut(&id) {
                        rec.points_done += 1;
                    }
                }
                let (i, l, a) = (
                    index.to_string(),
                    format!("{load:.4}"),
                    format!("{avg_latency:.2}"),
                );
                state.emit(
                    id,
                    "point",
                    &[("index", &i), ("load", &l), ("avg_latency", &a)],
                );
            }
        };
        let ctx = AttemptCtx {
            spec: &spec,
            cancel: &cancel,
            dir: &dir,
            threads,
            observe: &observe,
        };

        let outcome = catch_unwind(AssertUnwindSafe(|| runner.run_attempt(&ctx)));

        let cause = lock(&state.jobs)
            .get(&id)
            .map_or(CancelCause::None, |r| r.cause);
        let failure = match outcome {
            Ok(Ok(Some(rows))) => {
                let result = Value::Object(vec![
                    ("id".to_string(), Value::Number(id as f64)),
                    ("name".to_string(), Value::String(spec.name.clone())),
                    ("rows".to_string(), rows),
                ]);
                match atomic_write(&dir.join("result.json"), &result.to_string_pretty()) {
                    Ok(()) => {
                        state.finalize(id, JobState::Completed, attempt, "");
                        return;
                    }
                    Err(e) => format!("writing result.json: {e}"),
                }
            }
            Ok(Ok(None)) => match cause {
                CancelCause::User => {
                    state.finalize(id, JobState::Cancelled, attempt, "cancelled by client");
                    return;
                }
                CancelCause::Shutdown => {
                    state.finalize(
                        id,
                        JobState::Interrupted,
                        attempt,
                        "checkpointed for shutdown",
                    );
                    return;
                }
                CancelCause::Deadline => "attempt deadline exceeded".to_string(),
                CancelCause::None => "attempt stopped without a cause".to_string(),
            },
            Ok(Err(AttemptError::BadPayload(msg))) => {
                state.finalize(
                    id,
                    JobState::Failed,
                    attempt,
                    &format!("bad payload: {msg}"),
                );
                return;
            }
            Ok(Err(AttemptError::Retryable(msg))) => msg,
            Err(panic) => {
                state.count(state.counters.panics);
                format!("attempt panicked: {}", panic_message(panic.as_ref()))
            }
        };

        // Retry path: bounded exponential backoff, then fail with dump.
        if attempt >= state.cfg.max_attempts {
            state.finalize(
                id,
                JobState::Failed,
                attempt,
                &format!("{failure} (gave up after {attempt} attempts)"),
            );
            return;
        }
        let backoff = state
            .cfg
            .backoff_cap_ms
            .min(state.cfg.backoff_base_ms.saturating_mul(1 << (attempt - 1)));
        state.count(state.counters.retries);
        let backoff_s = backoff.to_string();
        state.emit(
            id,
            "retry",
            &[("reason", &failure), ("backoff_ms", &backoff_s)],
        );
        attempt += 1;

        // Interruptible backoff sleep.
        let wake = Instant::now() + Duration::from_millis(backoff);
        while Instant::now() < wake {
            if state.shutdown.load(Ordering::Acquire) {
                state.finalize(
                    id,
                    JobState::Interrupted,
                    attempt,
                    "shutdown during backoff",
                );
                return;
            }
            let cause = lock(&state.jobs)
                .get(&id)
                .map_or(CancelCause::None, |r| r.cause);
            if cause == CancelCause::User {
                state.finalize(id, JobState::Cancelled, attempt, "cancelled by client");
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;

    fn test_cfg(tag: &str) -> FarmConfig {
        let dir =
            std::env::temp_dir().join(format!("adaptnoc-farm-worker-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        FarmConfig {
            data_dir: dir,
            max_attempts: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            ..FarmConfig::default()
        }
    }

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            scenario: "grid 4 4; seed 1; warmup 1K; duration 2K; t=0 uniform load 0.05 poisson;"
                .to_string(),
            priority: Priority::Normal,
            deadline_secs: None,
            threads: None,
        }
    }

    /// Panics `fuse` times, then completes.
    struct FlakyRunner {
        fuse: std::sync::atomic::AtomicU32,
    }
    impl JobRunner for FlakyRunner {
        fn run_attempt(&self, _ctx: &AttemptCtx<'_>) -> Result<Option<Value>, AttemptError> {
            if self
                .fuse
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |f| f.checked_sub(1))
                .is_ok()
            {
                panic!("transient explosion");
            }
            Ok(Some(Value::Array(vec![])))
        }
    }

    /// Spins until its token fires, then reports stopped.
    struct ObedientRunner;
    impl JobRunner for ObedientRunner {
        fn run_attempt(&self, ctx: &AttemptCtx<'_>) -> Result<Option<Value>, AttemptError> {
            while !ctx.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(None)
        }
    }

    struct BadPayloadRunner;
    impl JobRunner for BadPayloadRunner {
        fn run_attempt(&self, _ctx: &AttemptCtx<'_>) -> Result<Option<Value>, AttemptError> {
            Err(AttemptError::BadPayload("no such directive".to_string()))
        }
    }

    fn submit_and_run(state: &Arc<FarmState>, runner: &dyn JobRunner, name: &str) -> JobId {
        let id = state.submit(spec(name)).unwrap();
        assert_eq!(
            state.queue.pop_timeout(Duration::from_millis(50)),
            Pop::Job(id)
        );
        run_job(state, runner, id);
        id
    }

    #[test]
    fn panicking_attempts_retry_then_succeed() {
        let state = FarmState::new(test_cfg("flaky")).unwrap();
        let runner = FlakyRunner {
            fuse: std::sync::atomic::AtomicU32::new(2),
        };
        let id = submit_and_run(&state, &runner, "flaky");
        let snap = state.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Completed);
        assert_eq!(snap.attempt, 3, "two panics contained, third attempt won");
        assert!(state.job_dir(id).join("result.json").exists());
        let _ = std::fs::remove_dir_all(&state.cfg.data_dir);
    }

    #[test]
    fn exhausted_retries_fail_with_a_flight_recorder_dump() {
        let state = FarmState::new(test_cfg("dump")).unwrap();
        let runner = FlakyRunner {
            fuse: std::sync::atomic::AtomicU32::new(u32::MAX),
        };
        let id = submit_and_run(&state, &runner, "doomed");
        let snap = state.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Failed);
        assert!(
            snap.detail.contains("gave up after 3 attempts"),
            "{}",
            snap.detail
        );
        let dump = std::fs::read_to_string(state.job_dir(id).join("dump.json")).unwrap();
        assert!(
            dump.contains("transient explosion"),
            "dump carries the panic"
        );
        assert!(dump.contains("retry"), "dump carries the retry events");
        let _ = std::fs::remove_dir_all(&state.cfg.data_dir);
    }

    #[test]
    fn bad_payloads_fail_immediately_without_retries() {
        let state = FarmState::new(test_cfg("payload")).unwrap();
        let id = submit_and_run(&state, &BadPayloadRunner, "bad");
        let snap = state.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Failed);
        assert_eq!(
            snap.attempt, 1,
            "no retries for a payload that can never run"
        );
        assert!(snap.detail.contains("bad payload"));
        let _ = std::fs::remove_dir_all(&state.cfg.data_dir);
    }

    #[test]
    fn deadline_reaper_stops_runaway_attempts_until_they_fail() {
        let state = FarmState::new(test_cfg("deadline")).unwrap();
        let mut s = spec("runaway");
        s.deadline_secs = Some(0); // every attempt is instantly over budget
        let id = state.submit(s).unwrap();
        assert_eq!(
            state.queue.pop_timeout(Duration::from_millis(50)),
            Pop::Job(id)
        );
        let reaper_state = state.clone();
        let reaper = std::thread::spawn(move || {
            while reaper_state
                .snapshot(id)
                .is_some_and(|s| !s.state.is_terminal())
            {
                reaper_state.reap_deadlines();
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        run_job(&state, &ObedientRunner, id);
        reaper.join().unwrap();
        let snap = state.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Failed);
        assert!(snap.detail.contains("deadline exceeded"), "{}", snap.detail);
        assert!(state.job_dir(id).join("dump.json").exists());
        let _ = std::fs::remove_dir_all(&state.cfg.data_dir);
    }

    #[test]
    fn user_cancel_is_terminal_and_shutdown_is_not() {
        let state = FarmState::new(test_cfg("cancel")).unwrap();

        // Cancelled mid-run.
        let a = state.submit(spec("a")).unwrap();
        assert_eq!(
            state.queue.pop_timeout(Duration::from_millis(50)),
            Pop::Job(a)
        );
        let st = state.clone();
        let canceller = std::thread::spawn(move || {
            while st.snapshot(a).is_some_and(|s| s.state != JobState::Running) {
                std::thread::sleep(Duration::from_millis(2));
            }
            st.cancel(a).unwrap();
        });
        run_job(&state, &ObedientRunner, a);
        canceller.join().unwrap();
        assert_eq!(state.snapshot(a).unwrap().state, JobState::Cancelled);

        // Interrupted by shutdown.
        let b = state.submit(spec("b")).unwrap();
        assert_eq!(
            state.queue.pop_timeout(Duration::from_millis(50)),
            Pop::Job(b)
        );
        let st = state.clone();
        let stopper = std::thread::spawn(move || {
            while st.snapshot(b).is_some_and(|s| s.state != JobState::Running) {
                std::thread::sleep(Duration::from_millis(2));
            }
            st.begin_shutdown();
        });
        run_job(&state, &ObedientRunner, b);
        stopper.join().unwrap();
        assert_eq!(state.snapshot(b).unwrap().state, JobState::Interrupted);

        // A restarted daemon requeues b (and only b).
        let state2 = FarmState::new(FarmConfig {
            data_dir: state.cfg.data_dir.clone(),
            ..FarmConfig::default()
        })
        .unwrap();
        assert_eq!(state2.snapshot(a).unwrap().state, JobState::Cancelled);
        assert_eq!(state2.snapshot(b).unwrap().state, JobState::Queued);
        assert_eq!(state2.queue.len(), 1);
        let _ = std::fs::remove_dir_all(&state.cfg.data_dir);
    }

    #[test]
    fn a_panicking_job_does_not_disturb_a_concurrent_neighbor() {
        let state = FarmState::new(test_cfg("isolation")).unwrap();
        let doomed = state.submit(spec("doomed")).unwrap();
        let fine = state.submit(spec("fine")).unwrap();
        let st = state.clone();
        let chaos = std::thread::spawn(move || {
            let runner = FlakyRunner {
                fuse: std::sync::atomic::AtomicU32::new(u32::MAX),
            };
            run_job(&st, &runner, doomed);
        });
        run_job(&state, &ScenarioRunner, fine);
        chaos.join().unwrap();
        assert_eq!(state.snapshot(doomed).unwrap().state, JobState::Failed);
        let snap = state.snapshot(fine).unwrap();
        assert_eq!(snap.state, JobState::Completed, "{}", snap.detail);
        assert!(snap.points_done >= 1);
        let _ = std::fs::remove_dir_all(&state.cfg.data_dir);
    }

    #[test]
    fn bounded_queue_sheds_and_draining_rejects() {
        let state = FarmState::new(FarmConfig {
            queue_capacity: 2,
            ..test_cfg("shed")
        })
        .unwrap();
        state.submit(spec("a")).unwrap();
        state.submit(spec("b")).unwrap();
        let (reason, retry) = state.submit(spec("c")).unwrap_err();
        assert!(reason.contains("full"), "{reason}");
        assert_eq!(retry, state.cfg.retry_after_ms);
        state.draining.store(true, Ordering::Release);
        let (reason, _) = state.submit(spec("d")).unwrap_err();
        assert!(reason.contains("draining"), "{reason}");
        let _ = std::fs::remove_dir_all(&state.cfg.data_dir);
    }
}
