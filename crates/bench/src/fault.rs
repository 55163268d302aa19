//! Fault-isolated execution of experiment cells.
//!
//! [`FaultRunner`] wraps every table/figure cell in a panic boundary
//! ([`std::panic::catch_unwind`]) and the workspace
//! [`RetryPolicy`]: a cell that panics or returns a retryable
//! [`BbgnnError`] is re-run with a deterministically perturbed seed; a cell
//! that exhausts its budget is recorded as `failed` with its cause and the
//! sweep continues — one pathological cell can no longer take down an
//! entire table run. Completed cells go straight into the
//! [`Checkpoint`], so a killed sweep resumes where it stopped.
//!
//! Outcome vocabulary (per cell, persisted in the checkpoint):
//!
//! * `ok` — first attempt succeeded;
//! * `retried` — a later attempt succeeded after panic/divergence;
//! * `degraded` — the cell produced a value but on a fallback path (e.g.
//!   training rolled back through divergence recoveries, or a budget
//!   stop truncated it to a partial value);
//! * `failed` — every attempt failed; the cell renders as `n/a`.
//!
//! Supervision stops (`Cancelled` / `BudgetExceeded`, DESIGN.md §11) are
//! deliberately outside that vocabulary: they are never retried, and a
//! cell skipped by a stop is **not** checkpointed — a resumed run
//! recomputes it. The two stop kinds diverge on *partial values*:
//!
//! * a **cancel** (SIGINT/SIGTERM, `request_cancel`) arriving mid-cell
//!   can surface as an `Ok` value truncated by the stop (training's
//!   best-so-far snapshot, flagged degraded). That value is discarded
//!   and the cell counted `skipped`, which is what keeps an
//!   interrupted-then-resumed sweep byte-identical to an uninterrupted
//!   one;
//! * a **budget** stop (deadline/epochs/queries/memory) keeps the
//!   partial value: a bounded run's degraded cells are its intended
//!   output, so they persist through the normal `degraded` path — and a
//!   budget-bounded checkpoint is consequently *not* resume-equivalent
//!   to an unbounded one.

use crate::checkpoint::{CellRecord, Checkpoint};
use crate::config::ExpConfig;
use bbgnn_errors::{BbgnnError, RetryPolicy};
use bbgnn_scenario::job::{CellOutcome, Job};
use std::panic::{catch_unwind, AssertUnwindSafe};

// The cell-value vocabulary moved to the scenario layer (PR 7) so jobs
// and the server share it; re-exported here to keep the historical paths.
pub use bbgnn_scenario::job::{CellValue, FAILED_CELL};

/// Running outcome counters for one sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CellStats {
    /// Cells replayed from the checkpoint.
    pub cached: usize,
    /// Cells that succeeded first try.
    pub ok: usize,
    /// Cells that needed at least one retry.
    pub retried: usize,
    /// Cells that returned a degraded value.
    pub degraded: usize,
    /// Cells that exhausted their retry budget.
    pub failed: usize,
    /// Cells skipped by a supervision stop (not checkpointed; a resumed
    /// run recomputes them).
    pub skipped: usize,
}

impl CellStats {
    /// Total cells seen.
    pub fn total(&self) -> usize {
        self.cached + self.ok + self.retried + self.degraded + self.failed + self.skipped
    }
}

/// Fault-isolating, checkpointing cell executor for one experiment binary.
pub struct FaultRunner {
    checkpoint: Checkpoint,
    policy: RetryPolicy,
    stats: CellStats,
    sleeper: fn(std::time::Duration),
}

impl FaultRunner {
    /// Standard construction for an experiment binary: checkpoint under
    /// `cfg.out_dir`, fingerprinted by `cfg` + `experiment`, default retry
    /// policy.
    pub fn new(cfg: &ExpConfig, experiment: &str) -> Self {
        Self::with_policy(cfg, experiment, RetryPolicy::default())
    }

    /// Construction with an explicit retry policy (tests, time-sensitive
    /// tables).
    pub fn with_policy(cfg: &ExpConfig, experiment: &str, policy: RetryPolicy) -> Self {
        let checkpoint = Checkpoint::open(&cfg.out_dir, experiment, &cfg.fingerprint(experiment));
        if checkpoint.resumed_cells() > 0 {
            eprintln!(
                "resuming {} completed cell(s) from {}",
                checkpoint.resumed_cells(),
                checkpoint.path().display()
            );
        }
        FaultRunner {
            checkpoint,
            policy,
            stats: CellStats::default(),
            // lint: allow(clock) reason=the one real backoff sleeper; tests inject a virtual clock via with_sleeper
            sleeper: std::thread::sleep,
        }
    }

    /// Replaces the backoff sleeper (tests: a recording no-op instead of
    /// burning wall-clock time).
    pub fn with_sleeper(mut self, sleeper: fn(std::time::Duration)) -> Self {
        self.sleeper = sleeper;
        self
    }

    /// Whether `key` already completed (useful to skip expensive shared
    /// setup — e.g. re-poisoning a graph — when every dependent cell is
    /// already checkpointed).
    pub fn is_done(&self, key: &str) -> bool {
        self.checkpoint.contains(key)
    }

    /// Outcome counters so far.
    pub fn stats(&self) -> CellStats {
        self.stats
    }

    /// Runs one cell and returns its formatted value.
    ///
    /// If the cell is already checkpointed its stored value is returned
    /// verbatim (byte-identical resume). Otherwise `f` is invoked with the
    /// attempt's seed — attempt 0 uses `base_seed` unchanged, so an
    /// untroubled run is identical to one without the harness — inside a
    /// panic boundary. Panics and retryable errors consume retry budget;
    /// non-retryable errors and an exhausted budget record the cell as
    /// `failed` and return [`FAILED_CELL`].
    pub fn cell(
        &mut self,
        key: &str,
        base_seed: u64,
        mut f: impl FnMut(u64) -> Result<CellValue, BbgnnError>,
    ) -> String {
        if let Some(done) = self.checkpoint.get(key) {
            self.stats.cached += 1;
            return done.value.clone();
        }
        // Record which store artifacts this cell touches (hits and writes
        // alike) so the checkpoint pins them against `bbgnn-store gc`.
        // Recording is thread-local: cells run on the caller's thread, so
        // pool workers spawned inside `f` are intentionally not captured.
        bbgnn::store::start_recording();
        let mut last_cause = String::new();
        for attempt in 0..=self.policy.max_retries {
            // Supervision stop at an attempt boundary: skip without touching
            // the checkpoint, so a resumed run recomputes this cell. Checked
            // per attempt, not just at cell entry — a stop arriving mid-cell
            // can surface as a panic from an infallible numeric façade, and
            // retrying it would burn the retry budget into a persisted
            // `failed` cell that a resume could never heal.
            if bbgnn_supervise::stop_reason("bench/cell").is_some() {
                self.stats.skipped += 1;
                bbgnn::store::take_recording();
                return FAILED_CELL.to_string();
            }
            let seed = RetryPolicy::seed_for_attempt(base_seed, attempt);
            let _span = bbgnn_obs::span!("bench/cell", key = key, attempt = attempt, seed = seed);
            let outcome = catch_unwind(AssertUnwindSafe(|| f(seed)));
            let error = match outcome {
                Ok(Ok(value)) => {
                    // A cancel landing mid-cell surfaces as an Ok value
                    // truncated by the stop (training's best-so-far
                    // snapshot, flagged degraded). Persisting it would make
                    // a resumed run replay the truncated value verbatim, so
                    // under a cancel a degraded value is a skip, not a
                    // result. Budget stops keep it: a bounded run's partial
                    // cells are its intended output (DESIGN.md §11).
                    if value.degraded
                        && matches!(
                            bbgnn_supervise::stop_reason("bench/cell"),
                            Some(bbgnn_supervise::Stop::Cancelled)
                        )
                    {
                        eprintln!(
                            "cell {key}: skipped (cancelled mid-cell; partial value discarded)"
                        );
                        self.stats.skipped += 1;
                        bbgnn::store::take_recording();
                        return FAILED_CELL.to_string();
                    }
                    let tag = if value.degraded {
                        self.stats.degraded += 1;
                        "degraded"
                    } else if attempt > 0 {
                        self.stats.retried += 1;
                        "retried"
                    } else {
                        self.stats.ok += 1;
                        "ok"
                    };
                    let artifacts = bbgnn::store::take_recording();
                    self.persist(key, &value.text, tag, attempt + 1, None, artifacts);
                    return value.text;
                }
                Ok(Err(e)) => e,
                // A panic is treated like a retryable fault: most panics
                // under adversarial perturbation are numerical blowups, and
                // the perturbed-seed retry is cheap and deterministic.
                Err(payload) => BbgnnError::ExperimentAborted {
                    cell: key.to_string(),
                    cause: format!("panic: {}", panic_message(&*payload)),
                },
            };
            // A supervision stop surfacing as an error is not a failure of
            // the cell: never retried, never checkpointed — the run is
            // winding down and a resume will recompute this cell.
            if error.is_supervision_stop() {
                eprintln!("cell {key}: skipped ({error})");
                self.stats.skipped += 1;
                bbgnn::store::take_recording();
                return FAILED_CELL.to_string();
            }
            last_cause = error.to_string();
            let retryable =
                error.is_retryable() || matches!(error, BbgnnError::ExperimentAborted { .. });
            if !retryable || attempt == self.policy.max_retries {
                break;
            }
            if error.wants_backoff() {
                (self.sleeper)(self.policy.backoff_for_attempt(attempt + 1));
            }
            eprintln!(
                "cell {key}: attempt {} failed ({last_cause}); retrying",
                attempt + 1
            );
        }
        eprintln!("cell {key}: giving up ({last_cause})");
        self.stats.failed += 1;
        let artifacts = bbgnn::store::take_recording();
        self.persist(
            key,
            FAILED_CELL,
            "failed",
            self.policy.max_retries + 1,
            Some(&last_cause),
            artifacts,
        );
        FAILED_CELL.to_string()
    }

    /// Runs a scenario [`Job`] as one cell of this sweep: checkpoint
    /// replay first, then [`Job::run_with_graph`] under this runner's
    /// retry policy and sleeper, then the same outcome accounting and
    /// persistence as [`cell`](Self::cell) (`Skipped` is never
    /// persisted, so a resumed run recomputes it).
    ///
    /// The job's own key is overridden by `key`-bearing construction
    /// upstream; this method trusts [`Job::key`]. `prepared` carries a
    /// shared input graph (e.g. one poisoned graph reused across a whole
    /// table row).
    pub fn job(
        &mut self,
        job: Job,
        ctx: &bbgnn::linalg::ExecContext,
        prepared: Option<&bbgnn::graph::Graph>,
    ) -> String {
        if let Some(done) = self.checkpoint.get(job.key()) {
            self.stats.cached += 1;
            return done.value.clone();
        }
        let job = job
            .with_policy(self.policy.clone())
            .with_sleeper(self.sleeper);
        let res = job.run_with_graph(ctx, prepared);
        match res.outcome {
            CellOutcome::Skipped => {
                if let Some(detail) = &res.detail {
                    eprintln!("cell {}: skipped ({detail})", res.key);
                }
                self.stats.skipped += 1;
            }
            CellOutcome::Failed => {
                let cause = res.detail.as_deref().unwrap_or("unknown");
                eprintln!("cell {}: giving up ({cause})", res.key);
                self.stats.failed += 1;
                self.persist(
                    &res.key,
                    FAILED_CELL,
                    "failed",
                    res.attempts,
                    res.detail.as_deref(),
                    res.artifacts,
                );
            }
            outcome => {
                match outcome {
                    CellOutcome::Degraded => self.stats.degraded += 1,
                    CellOutcome::Retried => self.stats.retried += 1,
                    _ => self.stats.ok += 1,
                }
                self.persist(
                    &res.key,
                    &res.value,
                    outcome.as_str(),
                    res.attempts,
                    None,
                    res.artifacts,
                );
                return res.value;
            }
        }
        FAILED_CELL.to_string()
    }

    /// Runs the shared setup of a table row (e.g. poisoning the graph
    /// every cell of the row trains on) inside the same panic boundary a
    /// cell gets. On success returns `Ok(setup())`. On a panic the row
    /// cannot run, so each cell in `keys` resolves without its closure: a
    /// checkpointed cell replays its value, any other is recorded `failed`
    /// with the panic as its cause (or `skipped`, not persisted, under a
    /// supervision stop). `Err` holds those rendered values, in `keys`
    /// order, and the sweep goes on with the next row.
    pub fn row_setup<T>(
        &mut self,
        keys: &[String],
        setup: impl FnOnce() -> T,
    ) -> Result<T, Vec<String>> {
        let payload = match catch_unwind(AssertUnwindSafe(setup)) {
            Ok(value) => return Ok(value),
            Err(payload) => payload,
        };
        let cause = format!("row setup panicked: {}", panic_message(&*payload));
        let stopped = bbgnn_supervise::stop_reason("bench/cell").is_some();
        let cells = keys
            .iter()
            .map(|key| {
                if let Some(done) = self.checkpoint.get(key) {
                    self.stats.cached += 1;
                    return done.value.clone();
                }
                if stopped {
                    self.stats.skipped += 1;
                } else {
                    eprintln!("cell {key}: giving up ({cause})");
                    self.stats.failed += 1;
                    self.persist(key, FAILED_CELL, "failed", 1, Some(&cause), Vec::new());
                }
                FAILED_CELL.to_string()
            })
            .collect();
        Err(cells)
    }

    /// One-line outcome summary for the end of a sweep, e.g.
    /// `cells: 12 (3 cached, 8 ok, 1 retried, 0 degraded, 0 failed,
    /// 0 skipped)`.
    pub fn summary(&self) -> String {
        let s = self.stats;
        format!(
            "cells: {} ({} cached, {} ok, {} retried, {} degraded, {} failed, {} skipped)",
            s.total(),
            s.cached,
            s.ok,
            s.retried,
            s.degraded,
            s.failed,
            s.skipped
        )
    }

    fn persist(
        &mut self,
        key: &str,
        value: &str,
        outcome: &str,
        attempts: usize,
        detail: Option<&str>,
        // Drained from the cell's store recording; artifacts written on
        // failed attempts are still pinned, which lets a retry or a
        // resumed run warm-start from them.
        artifacts: Vec<String>,
    ) {
        let record = CellRecord {
            value: value.to_string(),
            outcome: outcome.to_string(),
            attempts,
            detail: detail.map(str::to_string),
            artifacts,
        };
        // Checkpointing is best-effort: an unwritable results dir should
        // not kill the sweep, only the ability to resume it.
        if let Err(e) = self.checkpoint.record(key, record) {
            eprintln!("warning: could not checkpoint cell {key}: {e}");
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Serializes every test in this module: `cell` consults the
    /// process-global supervision state, so a test that requests
    /// cancellation would otherwise skip a concurrently running test's
    /// cells.
    static SUPERVISE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let guard = SUPERVISE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        bbgnn_supervise::shutdown();
        guard
    }

    fn test_cfg(tag: &str) -> ExpConfig {
        let out = std::env::temp_dir().join(format!("bbgnn_fault_{tag}"));
        let _ = std::fs::remove_dir_all(&out);
        ExpConfig {
            out_dir: out.display().to_string(),
            ..ExpConfig::default()
        }
    }

    fn fast_policy(retries: usize) -> RetryPolicy {
        RetryPolicy {
            max_retries: retries,
            backoff_base: Duration::ZERO,
            backoff_max: Duration::ZERO,
        }
    }

    #[test]
    fn panicking_cell_is_retried_with_perturbed_seed() {
        let _guard = locked();
        let cfg = test_cfg("panic");
        let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(2));
        let mut seeds = Vec::new();
        let v = r.cell("cell", 7, |seed| {
            seeds.push(seed);
            if seeds.len() == 1 {
                panic!("synthetic numerical blowup");
            }
            Ok(CellValue::clean("42.0"))
        });
        assert_eq!(v, "42.0");
        assert_eq!(seeds[0], 7, "first attempt must use the base seed");
        assert_eq!(seeds[1], RetryPolicy::seed_for_attempt(7, 1));
        assert_eq!(r.stats().retried, 1);
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn panicking_row_setup_fails_its_cells_and_the_next_row_runs() {
        let _guard = locked();
        let cfg = test_cfg("row_setup");
        let mut r = FaultRunner::new(&cfg, "t");
        let keys = |row: &str| -> Vec<String> {
            ["GCN", "GNAT"]
                .iter()
                .map(|col| format!("cora/{row}/{col}"))
                .collect()
        };
        let poison = || -> u32 { panic!("lanczos_topk failed to converge") };
        let cells = r.row_setup(&keys("GF-Attack"), poison).unwrap_err();
        assert_eq!(cells, [FAILED_CELL, FAILED_CELL]);
        assert_eq!(r.stats().failed, 2);
        assert!(r.summary().contains("2 failed"), "{}", r.summary());
        let detail = r
            .checkpoint
            .get("cora/GF-Attack/GCN")
            .unwrap()
            .detail
            .clone();
        assert!(
            detail
                .unwrap_or_default()
                .contains("lanczos_topk failed to converge"),
            "failed cells are persisted with the panic as their cause"
        );

        // The next row's setup and cells run normally.
        let next = keys("PEEGA");
        assert_eq!(r.row_setup(&next, || 7u32), Ok(7));
        assert_eq!(r.cell(&next[0], 0, |_| Ok(CellValue::clean("0.8"))), "0.8");
        assert_eq!(r.stats().ok, 1);

        // A resumed run replays the failed row from the checkpoint.
        let mut resumed = FaultRunner::new(&cfg, "t");
        let cells = resumed.row_setup(&keys("GF-Attack"), poison).unwrap_err();
        assert_eq!(cells, [FAILED_CELL, FAILED_CELL]);
        assert_eq!((resumed.stats().cached, resumed.stats().failed), (2, 0));
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn a_failed_cell_records_the_panic_message() {
        let _guard = locked();
        let cfg = test_cfg("panic_cause");
        let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(0));
        let v = r.cell("boom", 0, |_| -> Result<CellValue, BbgnnError> {
            panic!("synthetic blowup {}", 42)
        });
        assert_eq!(v, FAILED_CELL);
        let detail = r.checkpoint.get("boom").unwrap().detail.clone();
        assert!(
            detail.unwrap_or_default().contains("synthetic blowup 42"),
            "{:?}",
            r.checkpoint.get("boom")
        );
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn exhausted_budget_records_failed_and_continues() {
        let _guard = locked();
        let cfg = test_cfg("exhaust");
        let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(1));
        let v = r.cell("doomed", 0, |_| -> Result<CellValue, BbgnnError> {
            Err(BbgnnError::NumericalDivergence {
                what: "loss".into(),
                value: f64::NAN,
            })
        });
        assert_eq!(v, FAILED_CELL);
        assert_eq!(r.stats().failed, 1);
        // The sweep keeps going: a later cell still runs normally.
        let v2 = r.cell("fine", 0, |_| Ok(CellValue::clean("1.0")));
        assert_eq!(v2, "1.0");
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn non_retryable_error_fails_without_retry() {
        let _guard = locked();
        let cfg = test_cfg("nonretry");
        let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(5));
        let mut calls = 0;
        let v = r.cell("cfgbad", 0, |_| -> Result<CellValue, BbgnnError> {
            calls += 1;
            Err(BbgnnError::InvalidConfig {
                what: "--rate".into(),
                message: "negative".into(),
            })
        });
        assert_eq!(v, FAILED_CELL);
        assert_eq!(calls, 1, "caller errors must not burn retry budget");
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn resume_replays_checkpointed_cells_without_rerunning() {
        let _guard = locked();
        let cfg = test_cfg("resume");
        {
            let mut r = FaultRunner::new(&cfg, "t");
            r.cell("a", 1, |_| Ok(CellValue::clean("0.81±0.02")));
        }
        // Second process: same config, the closure must never run.
        let mut r = FaultRunner::new(&cfg, "t");
        assert!(r.is_done("a"));
        let v = r.cell("a", 1, |_| -> Result<CellValue, BbgnnError> {
            panic!("cached cell must not be re-evaluated")
        });
        assert_eq!(v, "0.81±0.02");
        assert_eq!(r.stats().cached, 1);
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn degraded_values_are_tagged() {
        let _guard = locked();
        let cfg = test_cfg("degraded");
        let mut r = FaultRunner::new(&cfg, "t");
        let v = r.cell("d", 0, |_| Ok(CellValue::degraded("0.5")));
        assert_eq!(v, "0.5");
        assert_eq!(r.stats().degraded, 1);
        assert!(r.summary().contains("1 degraded"));
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn cancellation_skips_cells_without_checkpointing_them() {
        let _guard = locked();
        let cfg = test_cfg("cancel_skip");
        {
            let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(3));
            bbgnn_supervise::request_cancel();
            let mut calls = 0;
            let v = r.cell("late", 0, |_| {
                calls += 1;
                Ok(CellValue::clean("0.9"))
            });
            assert_eq!(v, FAILED_CELL, "skipped cells render as n/a");
            assert_eq!(calls, 0, "the closure must not run after a cancel");
            assert_eq!(r.stats().skipped, 1);
            assert!(r.summary().contains("1 skipped"));
        }
        bbgnn_supervise::shutdown();
        // Resume without the cancel: the cell was never checkpointed, so it
        // is recomputed — the resumed sweep matches an uninterrupted one.
        let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(3));
        assert!(!r.is_done("late"));
        let v = r.cell("late", 0, |_| Ok(CellValue::clean("0.9")));
        assert_eq!(v, "0.9");
        assert_eq!(r.stats().skipped, 0);
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn cancel_mid_cell_discards_partial_value_and_resume_recomputes() {
        let _guard = locked();
        let cfg = test_cfg("cancel_mid");
        {
            let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(3));
            let v = r.cell("cut", 0, |_| {
                // The cancel lands while the cell is in flight: training
                // hands back its best-so-far snapshot flagged degraded.
                bbgnn_supervise::request_cancel();
                Ok(CellValue::degraded("0.4"))
            });
            assert_eq!(v, FAILED_CELL, "a truncated value must not be returned");
            assert_eq!(r.stats().skipped, 1);
            assert_eq!(r.stats().degraded, 0);
            assert!(!r.is_done("cut"), "truncated values are never checkpointed");
        }
        bbgnn_supervise::shutdown();
        // Resume without the cancel: the cell recomputes in full, so the
        // resumed sweep matches an uninterrupted one.
        let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(3));
        let v = r.cell("cut", 0, |_| Ok(CellValue::clean("0.9")));
        assert_eq!(v, "0.9");
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn budget_stop_mid_cell_keeps_the_degraded_value() {
        let _guard = locked();
        let cfg = test_cfg("budget_mid");
        let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(3));
        let v = r.cell("bounded", 0, |_| {
            // The epoch budget trips while the cell is in flight: the
            // partial value is the bounded run's intended output.
            bbgnn_supervise::install_budget(&bbgnn_supervise::RunBudget {
                epochs: Some(1),
                ..Default::default()
            });
            bbgnn_supervise::note_epochs(1);
            Ok(CellValue::degraded("0.4"))
        });
        assert_eq!(v, "0.4");
        assert_eq!(r.stats().degraded, 1);
        assert_eq!(r.stats().skipped, 0);
        assert!(
            r.is_done("bounded"),
            "budget-degraded cells are checkpointed"
        );
        bbgnn_supervise::shutdown();
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn supervision_stop_error_is_never_retried() {
        let _guard = locked();
        let cfg = test_cfg("stop_noretry");
        let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(5));
        let mut calls = 0;
        let v = r.cell("budgeted", 0, |_| -> Result<CellValue, BbgnnError> {
            calls += 1;
            Err(BbgnnError::BudgetExceeded {
                resource: "queries".into(),
                limit: 10,
                at: "attack/peega/perturb".into(),
            })
        });
        assert_eq!(v, FAILED_CELL);
        assert_eq!(calls, 1, "supervision stops must not burn retry budget");
        assert_eq!(r.stats().skipped, 1);
        assert_eq!(r.stats().failed, 0, "a stop is a skip, not a failure");
        assert!(!r.is_done("budgeted"), "skipped cells are not checkpointed");
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn job_cells_checkpoint_and_replay() {
        let _guard = locked();
        use bbgnn_scenario::job::{EvalSpec, JobSpec};
        let cfg = test_cfg("job_replay");
        let ctx = bbgnn::linalg::ExecContext::from_env();
        let spec = JobSpec {
            dataset: "cora".to_string(),
            eval: EvalSpec {
                runs: 1,
                scale: 0.05,
                ..EvalSpec::default()
            },
            ..JobSpec::default()
        };
        let first = {
            let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(1));
            let v = r.job(Job::new(spec.clone()).unwrap(), &ctx, None);
            assert_eq!(r.stats().ok, 1);
            v
        };
        assert_ne!(first, FAILED_CELL);
        // Second process: same config, the cell replays from the
        // checkpoint without recomputing.
        let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(1));
        assert!(r.is_done("cora/Clean/GCN"));
        let v = r.job(Job::new(spec).unwrap(), &ctx, None);
        assert_eq!(v, first);
        assert_eq!(r.stats().cached, 1);
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn job_skipped_by_cancel_is_not_checkpointed() {
        let _guard = locked();
        use bbgnn_scenario::job::{EvalSpec, JobSpec};
        let cfg = test_cfg("job_cancel");
        let ctx = bbgnn::linalg::ExecContext::from_env();
        let spec = JobSpec {
            dataset: "cora".to_string(),
            eval: EvalSpec {
                runs: 1,
                scale: 0.05,
                ..EvalSpec::default()
            },
            ..JobSpec::default()
        };
        let mut r = FaultRunner::with_policy(&cfg, "t", fast_policy(1));
        bbgnn_supervise::request_cancel();
        let v = r.job(Job::new(spec).unwrap(), &ctx, None);
        assert_eq!(v, FAILED_CELL);
        assert_eq!(r.stats().skipped, 1);
        assert!(!r.is_done("cora/Clean/GCN"));
        bbgnn_supervise::shutdown();
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn injected_sleeper_replaces_wall_clock_backoff() {
        let _guard = locked();
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SLEEPS: AtomicUsize = AtomicUsize::new(0);
        fn counting_sleep(_d: Duration) {
            SLEEPS.fetch_add(1, Ordering::Relaxed);
        }
        let cfg = test_cfg("sleeper");
        let policy = RetryPolicy {
            max_retries: 1,
            backoff_base: Duration::from_secs(3600),
            backoff_max: Duration::from_secs(3600),
        };
        SLEEPS.store(0, Ordering::Relaxed);
        let mut r = FaultRunner::with_policy(&cfg, "t", policy).with_sleeper(counting_sleep);
        let mut calls = 0;
        let v = r.cell("flaky_io", 0, |_| -> Result<CellValue, BbgnnError> {
            calls += 1;
            if calls == 1 {
                Err(BbgnnError::DatasetIo {
                    path: "/tmp/x".into(),
                    message: "transient".into(),
                })
            } else {
                Ok(CellValue::clean("ok"))
            }
        });
        assert_eq!(v, "ok");
        assert_eq!(
            SLEEPS.load(Ordering::Relaxed),
            1,
            "the injected sleeper must absorb the hour-long backoff"
        );
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }
}
