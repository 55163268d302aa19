//! Shared server state: the job table, the bounded FIFO queue, and the
//! store-backed result cache.
//!
//! One `Mutex<Inner>` coordinates the HTTP connection threads (submit /
//! snapshot / cancel / SSE) with the worker pool (pop / finish), through
//! two condition variables: `work` wakes a worker when a job is queued,
//! `changed` wakes every SSE stream when any job changes phase (see
//! [`ServerState::wait_change`]). Locks are held only for table mutation
//! — never across a job run or an I/O call — and every acquisition goes
//! through [`PoisonError::into_inner`]: a panic while holding the lock
//! must not wedge the whole server.
//!
//! ## Per-job supervision
//!
//! Every entry holds its job's [`SupervisionScope`], a child of the
//! process root scope: `DELETE /jobs/:id` cancels that scope and nothing
//! else, and a snapshot's `epochs`/`queries`/`peak_bytes` come from that
//! scope alone. Its `counters` do not: they are the obs live mirror,
//! which is process-wide, so with several workers they sum every running
//! job. Nothing here touches the root, so concurrent jobs cannot stop or
//! account for one another, and a SIGINT (which cancels the root) still
//! drains the whole server.
//!
//! ## Admission
//!
//! The queue is bounded ([`ServerState::new`] takes the capacity):
//! submissions beyond it are rejected with `429` *before* any work is
//! done, so a flooded server degrades to fast rejections instead of
//! unbounded memory growth. A draining server (`shutdown requested`)
//! rejects everything with `503`.
//!
//! ## Result sharing
//!
//! Completed results are published to the content-addressed store under
//! the spec's [`fingerprint`](JobSpec::fingerprint) (when the store is
//! enabled), so a duplicate submission — same graph, config, and seed —
//! replays the recorded value instead of re-training. Replay rules guard
//! the §7 contract (see [`JobRecord::replayable_for`]): `ok`/`retried`
//! results replay for anyone; a `degraded` result only replays for a spec
//! that is itself budget-bounded (an unbounded submission is entitled to
//! the full run); `failed` results are never recorded.

use bbgnn_scenario::job::{CellResult, Job, JobSpec};
use bbgnn_scenario::json::Json;
use bbgnn_store::format::{Artifact, Reader, Writer};
use bbgnn_store::Key;
use bbgnn_supervise::SupervisionScope;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Where a submitted job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted, waiting in the FIFO queue.
    Queued,
    /// Picked up by the worker; supervision counters describe it.
    Running,
    /// Finished with a result (`ok`/`retried`/`degraded`/`failed`).
    Done,
    /// Cancelled — dequeued before running, or stopped mid-run by
    /// `DELETE /jobs/:id`.
    Cancelled,
}

impl JobPhase {
    /// Wire name, lowercase.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
        }
    }
}

/// One submitted job as the table tracks it.
struct JobEntry {
    spec: JobSpec,
    key: String,
    fingerprint: String,
    phase: JobPhase,
    /// The resolved job, parked here until a worker takes it.
    job: Option<Job>,
    /// The job's own supervision scope (shared with the [`Job`]):
    /// `DELETE` cancels it, progress snapshots read its counters. Scoped,
    /// so neither ever touches a sibling job.
    scope: Arc<SupervisionScope>,
    /// Result, once finished (also set for mid-run cancellations, whose
    /// outcome is `skipped`).
    result: Option<CellResult>,
    /// The result was replayed from the store, no training run.
    warm: bool,
}

struct Inner {
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobEntry>,
    stopping: bool,
}

/// What the worker gets from [`ServerState::next_job`].
pub enum Popped {
    /// Run this: id, spec, and the resolved job.
    Work(u64, Box<Job>),
    /// Nothing queued within the wait window.
    Idle,
    /// The server is draining; the worker should exit.
    Stop,
}

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Refused {
    /// Queue at capacity → `429`.
    QueueFull,
    /// Server draining → `503`.
    Stopping,
    /// Spec failed resolution (unknown names, bad ranges) → `400`.
    Invalid(String),
}

/// The shared server state. One instance per server, behind an `Arc`.
pub struct ServerState {
    inner: Mutex<Inner>,
    work: Condvar,
    /// Notified (all waiters) on every phase transition and on drain.
    changed: Condvar,
    capacity: usize,
    workers: usize,
}

fn lock(m: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn running_count(inner: &Inner) -> usize {
    inner
        .jobs
        .values()
        .filter(|e| e.phase == JobPhase::Running)
        .count()
}

fn job_json_locked(inner: &Inner, id: u64) -> Option<Json> {
    let entry = inner.jobs.get(&id)?;
    let mut pairs = vec![
        ("id".to_string(), Json::number_u64(id)),
        ("state".to_string(), Json::string(entry.phase.as_str())),
        ("key".to_string(), Json::string(&entry.key)),
        ("fingerprint".to_string(), Json::string(&entry.fingerprint)),
        ("spec".to_string(), entry.spec.to_json()),
    ];
    if entry.phase == JobPhase::Queued {
        let position = inner.queue.iter().position(|&q| q == id);
        if let Some(p) = position {
            pairs.push(("queue_position".to_string(), Json::number_usize(p)));
        }
    }
    if let Some(result) = &entry.result {
        let mut r = vec![
            ("value".to_string(), Json::string(&result.value)),
            ("outcome".to_string(), Json::string(result.outcome.as_str())),
            ("attempts".to_string(), Json::number_usize(result.attempts)),
            ("warm".to_string(), Json::Bool(entry.warm)),
            (
                "artifacts".to_string(),
                Json::Array(result.artifacts.iter().map(Json::string).collect()),
            ),
        ];
        if let Some(detail) = &result.detail {
            r.push(("detail".to_string(), Json::string(detail)));
        }
        pairs.push(("result".to_string(), Json::object(r)));
    }
    if entry.phase == JobPhase::Running {
        let counters = bbgnn_obs::live::snapshot();
        pairs.push((
            "progress".to_string(),
            Json::object([
                (
                    "epochs".to_string(),
                    Json::number_u64(entry.scope.epochs_used()),
                ),
                (
                    "queries".to_string(),
                    Json::number_u64(entry.scope.queries_used()),
                ),
                (
                    "peak_bytes".to_string(),
                    Json::number_u64(entry.scope.peak_bytes()),
                ),
                (
                    "counters".to_string(),
                    Json::object(
                        counters
                            .into_iter()
                            .map(|(k, v)| (k.to_string(), Json::number_u64(v))),
                    ),
                ),
            ]),
        ));
    }
    Some(Json::object(pairs))
}

impl ServerState {
    /// Fresh state with a queue bounded at `capacity` pending jobs,
    /// serviced by a pool of `workers` worker threads.
    pub fn new(capacity: usize, workers: usize) -> ServerState {
        ServerState {
            inner: Mutex::new(Inner {
                next_id: 1,
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                stopping: false,
            }),
            work: Condvar::new(),
            changed: Condvar::new(),
            capacity,
            workers: workers.max(1),
        }
    }

    /// The queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The worker pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs currently in the `running` phase (≤ the pool size).
    pub fn running(&self) -> usize {
        running_count(&lock(&self.inner))
    }

    /// Pending (queued, not yet running) jobs.
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner).queue.len()
    }

    /// Admission control + enqueue. Resolves the spec eagerly so unknown
    /// attacker/defender names bounce at submission, not at run time.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, Refused> {
        let job = Job::new(spec.clone()).map_err(|e| Refused::Invalid(e.to_string()))?;
        let mut inner = lock(&self.inner);
        if inner.stopping {
            return Err(Refused::Stopping);
        }
        if inner.queue.len() >= self.capacity {
            return Err(Refused::QueueFull);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let scope = job.scope();
        // Activate accounting up front: progress counters populate even
        // for an unbudgeted job (there is nothing to trip — activation
        // installs no cap).
        scope.activate();
        let entry = JobEntry {
            key: job.key().to_string(),
            fingerprint: spec.fingerprint(),
            spec,
            phase: JobPhase::Queued,
            scope,
            job: Some(job),
            result: None,
            warm: false,
        };
        inner.jobs.insert(id, entry);
        inner.queue.push_back(id);
        let depth = inner.queue.len();
        drop(inner);
        bbgnn_obs::counter("serve/jobs_accepted", 1);
        bbgnn_obs::event!("serve/queue_depth", depth = depth);
        bbgnn_obs::event!("serve/job_state", id = id, state = "queued");
        self.work.notify_one();
        Ok(id)
    }

    /// Worker side: waits up to `wait` for a queued job. Cancelled-while-
    /// queued entries are skipped here (their phase already says so).
    pub fn next_job(&self, wait: Duration) -> Popped {
        let mut inner = lock(&self.inner);
        loop {
            if inner.stopping {
                return Popped::Stop;
            }
            while let Some(id) = inner.queue.pop_front() {
                let Some(entry) = inner.jobs.get_mut(&id) else {
                    continue;
                };
                if entry.phase != JobPhase::Queued {
                    continue; // cancelled while queued
                }
                entry.phase = JobPhase::Running;
                let Some(job) = entry.job.take() else {
                    continue;
                };
                let busy = running_count(&inner);
                drop(inner);
                self.changed.notify_all();
                bbgnn_obs::event!("serve/job_state", id = id, state = "running");
                bbgnn_obs::event!("serve/workers_busy", busy = busy, workers = self.workers);
                return Popped::Work(id, Box::new(job));
            }
            let (guard, timeout) = self
                .work
                .wait_timeout(inner, wait)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            if timeout.timed_out() {
                return Popped::Idle;
            }
        }
    }

    /// Worker side: records the finished result and classifies the final
    /// phase (`skipped` outcome → `cancelled`, everything else → `done`).
    pub fn finish(&self, id: u64, result: CellResult, warm: bool) {
        let mut inner = lock(&self.inner);
        let Some(entry) = inner.jobs.get_mut(&id) else {
            return;
        };
        let cancelled = result.outcome == bbgnn_scenario::job::CellOutcome::Skipped;
        entry.phase = if cancelled {
            JobPhase::Cancelled
        } else {
            JobPhase::Done
        };
        entry.result = Some(result);
        entry.warm = warm;
        let state = entry.phase.as_str();
        let busy = running_count(&inner);
        drop(inner);
        self.changed.notify_all();
        let ctr = if cancelled {
            "serve/jobs_cancelled"
        } else {
            "serve/jobs_completed"
        };
        bbgnn_obs::counter(ctr, 1);
        bbgnn_obs::event!("serve/job_state", id = id, state = state);
        bbgnn_obs::event!("serve/workers_busy", busy = busy, workers = self.workers);
    }

    /// `DELETE /jobs/:id`. Queued jobs flip straight to `cancelled`;
    /// running jobs get their *scope* cancelled — which every check site
    /// the job reaches observes, and no sibling job does — and report
    /// `cancelling` until their worker winds them down. Returns the
    /// resulting state name, or `None` for an unknown id.
    pub fn cancel(&self, id: u64) -> Option<&'static str> {
        let mut inner = lock(&self.inner);
        let entry = inner.jobs.get_mut(&id)?;
        match entry.phase {
            JobPhase::Queued => {
                entry.phase = JobPhase::Cancelled;
                entry.scope.cancel();
                entry.job = None;
                drop(inner);
                self.changed.notify_all();
                bbgnn_obs::counter("serve/jobs_cancelled", 1);
                bbgnn_obs::event!("serve/job_state", id = id, state = "cancelled");
                Some("cancelled")
            }
            JobPhase::Running => {
                entry.scope.cancel();
                drop(inner);
                bbgnn_obs::event!("serve/job_state", id = id, state = "cancelling");
                Some("cancelling")
            }
            JobPhase::Done => Some("done"),
            JobPhase::Cancelled => Some("cancelled"),
        }
    }

    /// Marks the server as draining and wakes the workers and every SSE
    /// stream. Subsequent submissions are refused with `503`.
    pub fn stop(&self) {
        lock(&self.inner).stopping = true;
        self.work.notify_all();
        self.changed.notify_all();
    }

    /// Whether [`stop`](Self::stop) has been called.
    pub fn stopping(&self) -> bool {
        lock(&self.inner).stopping
    }

    /// The `GET /jobs/:id` snapshot. Progress numbers come from the
    /// job's own [`SupervisionScope`] — isolated per job even with a
    /// concurrent worker pool — plus the obs live-mirror counters (which
    /// are process-wide and so describe the whole pool).
    pub fn job_json(&self, id: u64) -> Option<Json> {
        let inner = lock(&self.inner);
        job_json_locked(&inner, id)
    }

    /// The phase of a job, or `None` for an unknown id.
    pub fn job_phase(&self, id: u64) -> Option<JobPhase> {
        lock(&self.inner).jobs.get(&id).map(|e| e.phase)
    }

    /// One SSE tick's view of a job: its phase and its snapshot document,
    /// read under a single lock so they cannot disagree.
    pub fn job_event(&self, id: u64) -> Option<(JobPhase, Json)> {
        let inner = lock(&self.inner);
        let phase = inner.jobs.get(&id)?.phase;
        let doc = job_json_locked(&inner, id)?;
        Some((phase, doc))
    }

    /// SSE side: blocks until job `id` is no longer in phase `seen`, the
    /// server drains, or `tick` elapses, whichever comes first. Returns at
    /// once when one of the first two already holds, so a transition
    /// between the caller's last snapshot and this call is never missed.
    pub fn wait_change(&self, id: u64, seen: JobPhase, tick: Duration) {
        let inner = lock(&self.inner);
        let unchanged = |inner: &mut Inner| {
            !inner.stopping && inner.jobs.get(&id).map(|e| e.phase) == Some(seen)
        };
        let _ = self
            .changed
            .wait_timeout_while(inner, tick, unchanged)
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// The `GET /jobs` index: id, state, and key per job, in id order.
    pub fn jobs_json(&self) -> Json {
        let inner = lock(&self.inner);
        Json::Array(
            inner
                .jobs
                .iter()
                .map(|(&id, e)| {
                    Json::object([
                        ("id".to_string(), Json::number_u64(id)),
                        ("state".to_string(), Json::string(e.phase.as_str())),
                        ("key".to_string(), Json::string(&e.key)),
                    ])
                })
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Store-backed result records
// ---------------------------------------------------------------------------

/// A completed job result as persisted to the content-addressed store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// Formatted cell value.
    pub value: String,
    /// Outcome name (`ok`/`retried`/`degraded`).
    pub outcome: String,
    /// Attempts the original run consumed.
    pub attempts: u64,
    /// Store keys the original run touched (gc liveness pinning).
    pub artifacts: Vec<String>,
}

impl JobRecord {
    /// The store key a spec's result lives under. The full fingerprint
    /// text is folded through the key's hash field *and* embedded in the
    /// artifact header (store contract: a hash collision degrades to a
    /// miss, it can never alias another tenant's result).
    pub fn key_for(spec: &JobSpec) -> Key {
        Key::new("job/result").hashed_str_field("spec", &spec.fingerprint())
    }

    /// Whether this recorded result may be served to `spec` without a
    /// run. Clean results replay for anyone with a matching fingerprint;
    /// a `degraded` (budget-truncated) result replays only for a spec
    /// that is itself bounded — an unbounded submission must get the
    /// full computation.
    pub fn replayable_for(&self, spec: &JobSpec) -> bool {
        match self.outcome.as_str() {
            "ok" | "retried" => true,
            "degraded" => spec.budget.is_some(),
            _ => false,
        }
    }

    /// The recorded outcome as the enum (unknown text degrades to `Ok`;
    /// the store only ever holds the three cacheable outcomes).
    pub fn outcome_enum(&self) -> bbgnn_scenario::job::CellOutcome {
        use bbgnn_scenario::job::CellOutcome;
        match self.outcome.as_str() {
            "retried" => CellOutcome::Retried,
            "degraded" => CellOutcome::Degraded,
            _ => CellOutcome::Ok,
        }
    }

    /// Builds the record a finished result should persist as, or `None`
    /// when the outcome must not be cached (`failed`, `skipped`).
    pub fn from_result(result: &CellResult) -> Option<JobRecord> {
        use bbgnn_scenario::job::CellOutcome;
        match result.outcome {
            CellOutcome::Ok | CellOutcome::Retried | CellOutcome::Degraded => Some(JobRecord {
                value: result.value.clone(),
                outcome: result.outcome.as_str().to_string(),
                attempts: result.attempts as u64,
                artifacts: result.artifacts.clone(),
            }),
            CellOutcome::Failed | CellOutcome::Skipped => None,
        }
    }
}

impl Artifact for JobRecord {
    const TAG: u8 = 6;
    const KIND: &'static str = "job/result";

    fn encode(&self, w: &mut Writer) {
        w.str(&self.value);
        w.str(&self.outcome);
        w.u64(self.attempts);
        w.usize(self.artifacts.len());
        for a in &self.artifacts {
            w.str(a);
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, String> {
        let value = r.str()?;
        let outcome = r.str()?;
        let attempts = r.u64()?;
        let n = r.len_prefix(8)?;
        let mut artifacts = Vec::with_capacity(n);
        for _ in 0..n {
            artifacts.push(r.str()?);
        }
        Ok(JobRecord {
            value,
            outcome,
            attempts,
            artifacts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_scenario::job::{CellOutcome, EvalSpec};

    fn spec() -> JobSpec {
        JobSpec {
            eval: EvalSpec {
                runs: 1,
                scale: 0.05,
                ..EvalSpec::default()
            },
            ..JobSpec::default()
        }
    }

    #[test]
    fn submit_is_fifo_and_bounded() {
        let state = ServerState::new(2, 1);
        let a = state.submit(spec()).unwrap();
        let b = state.submit(spec()).unwrap();
        assert_eq!(state.submit(spec()), Err(Refused::QueueFull));
        assert_eq!(state.queue_depth(), 2);
        match state.next_job(Duration::from_millis(1)) {
            Popped::Work(id, job) => {
                assert_eq!(id, a);
                assert_eq!(job.key(), "cora/Clean/GCN");
            }
            _ => panic!("expected the first job"),
        }
        // One slot freed: admission is by queue depth, not table size.
        let c = state.submit(spec()).unwrap();
        assert!(c > b);
    }

    #[test]
    fn unknown_names_bounce_at_submission() {
        let state = ServerState::new(4, 1);
        let mut bad = spec();
        bad.defense = Some("Vaccine".to_string());
        match state.submit(bad) {
            Err(Refused::Invalid(msg)) => assert!(msg.contains("defense"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn queued_cancel_skips_the_worker_entirely() {
        let state = ServerState::new(4, 1);
        let id = state.submit(spec()).unwrap();
        assert_eq!(state.cancel(id), Some("cancelled"));
        assert!(matches!(
            state.next_job(Duration::from_millis(1)),
            Popped::Idle
        ));
        let snap = state.job_json(id).unwrap().to_pretty();
        assert!(snap.contains("\"state\": \"cancelled\""), "{snap}");
        assert_eq!(state.cancel(id), Some("cancelled"), "idempotent");
        assert_eq!(state.cancel(999), None, "unknown id");
    }

    #[test]
    fn finish_classifies_and_snapshots_report_results() {
        let state = ServerState::new(4, 1);
        let id = state.submit(spec()).unwrap();
        let Popped::Work(wid, job) = state.next_job(Duration::from_millis(1)) else {
            panic!("expected work");
        };
        assert_eq!(wid, id);
        state.finish(
            id,
            CellResult {
                key: job.key().to_string(),
                value: "0.80±0.01".to_string(),
                outcome: CellOutcome::Ok,
                attempts: 1,
                detail: None,
                artifacts: vec!["model|v1|x".to_string()],
            },
            false,
        );
        let snap = state.job_json(id).unwrap().to_pretty();
        assert!(snap.contains("\"state\": \"done\""), "{snap}");
        assert!(snap.contains("0.80±0.01"), "{snap}");
        assert!(snap.contains("\"warm\": false"), "{snap}");
    }

    fn result(outcome: CellOutcome) -> CellResult {
        CellResult {
            key: "cora/Clean/GCN".to_string(),
            value: "0.80±0.01".to_string(),
            outcome,
            attempts: 1,
            detail: None,
            artifacts: Vec::new(),
        }
    }

    fn running_job(state: &ServerState) -> u64 {
        let id = state.submit(spec()).unwrap();
        assert!(matches!(
            state.next_job(Duration::from_millis(1)),
            Popped::Work(w, _) if w == id
        ));
        id
    }

    /// Parks a `wait_change(id, seen)` with a 60 s tick, checks that it
    /// stays parked while nothing changes, fires `trigger`, and asserts
    /// the waiter returns long before the tick would have ended it.
    fn assert_woken_by(state: &ServerState, id: u64, seen: JobPhase, trigger: impl FnOnce()) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                state.wait_change(id, seen, Duration::from_secs(60));
                let _ = tx.send(());
            });
            assert!(
                rx.recv_timeout(Duration::from_millis(100)).is_err(),
                "returned with nothing changed"
            );
            trigger();
            assert!(
                rx.recv_timeout(Duration::from_secs(10)).is_ok(),
                "the transition did not wake the waiter"
            );
        });
    }

    #[test]
    fn phase_changes_wake_waiters_on_queued_jobs() {
        let state = ServerState::new(4, 1);
        let picked = state.submit(spec()).unwrap();
        assert_woken_by(&state, picked, JobPhase::Queued, || {
            assert!(matches!(
                state.next_job(Duration::from_millis(1)),
                Popped::Work(..)
            ));
        });
        let cancelled = state.submit(spec()).unwrap();
        assert_woken_by(&state, cancelled, JobPhase::Queued, || {
            assert_eq!(state.cancel(cancelled), Some("cancelled"));
        });
        let drained = state.submit(spec()).unwrap();
        assert_woken_by(&state, drained, JobPhase::Queued, || state.stop());
    }

    #[test]
    fn phase_changes_wake_waiters_on_running_jobs() {
        let state = ServerState::new(4, 2);
        let done = running_job(&state);
        // The tick still bounds the wait: a running job's heartbeat.
        state.wait_change(done, JobPhase::Running, Duration::from_millis(1));
        assert_woken_by(&state, done, JobPhase::Running, || {
            state.finish(done, result(CellOutcome::Ok), false);
        });
        assert_eq!(state.job_phase(done), Some(JobPhase::Done));

        let cancelled = running_job(&state);
        assert_woken_by(&state, cancelled, JobPhase::Running, || {
            // DELETE only cancels the scope; the worker's `finish` with a
            // skipped outcome is the transition.
            assert_eq!(state.cancel(cancelled), Some("cancelling"));
            state.finish(cancelled, result(CellOutcome::Skipped), false);
        });
        assert_eq!(state.job_phase(cancelled), Some(JobPhase::Cancelled));

        let drained = running_job(&state);
        assert_woken_by(&state, drained, JobPhase::Running, || state.stop());
    }

    #[test]
    fn stopping_refuses_submissions_and_stops_the_worker() {
        let state = ServerState::new(4, 1);
        state.stop();
        assert_eq!(state.submit(spec()), Err(Refused::Stopping));
        assert!(matches!(
            state.next_job(Duration::from_millis(1)),
            Popped::Stop
        ));
    }

    #[test]
    fn job_record_round_trips_and_gates_replay() {
        let record = JobRecord {
            value: "0.81±0.02".to_string(),
            outcome: "ok".to_string(),
            attempts: 1,
            artifacts: vec!["a".to_string(), "b".to_string()],
        };
        let mut w = Writer::new();
        record.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = JobRecord::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, record);

        let unbounded = spec();
        let bounded = JobSpec {
            budget: Some("epochs=50".to_string()),
            ..spec()
        };
        assert!(record.replayable_for(&unbounded));
        let degraded = JobRecord {
            outcome: "degraded".to_string(),
            ..record
        };
        assert!(!degraded.replayable_for(&unbounded));
        assert!(degraded.replayable_for(&bounded));
        // Same fingerprint → same key; budget does not split the cache.
        assert_eq!(
            JobRecord::key_for(&unbounded).text(),
            JobRecord::key_for(&bounded).text()
        );
    }
}
