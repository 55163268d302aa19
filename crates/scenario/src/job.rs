//! Typed job specs and fault-isolated job execution.
//!
//! [`JobSpec`] is the declarative description of one experiment cell —
//! dataset, model/defense column, optional attack, evaluation mode, seed —
//! and doubles as the JSON wire format `bbgnn-serve` accepts on
//! `POST /jobs`. [`Job`] is its resolved, runnable form:
//! [`Job::run`] drives the cell with exactly the bench `FaultRunner`
//! semantics (DESIGN.md §12):
//!
//! * a [`catch_unwind`] panic boundary per attempt;
//! * deterministic seed-perturbed retries under the workspace
//!   [`RetryPolicy`];
//! * supervision check sites per attempt, inside the job's own
//!   [`SupervisionScope`] (a child of the process root scope) — a cancel
//!   (SIGINT, or this job's scope) skips the cell and discards partial
//!   values, a budget stop keeps them as `degraded` (the bounded run's
//!   intended output);
//! * store recording, so the returned [`CellResult::artifacts`] pin
//!   whatever content-addressed artifacts the cell touched;
//! * an obs `job/run` span per attempt.
//!
//! Checkpointing stays in the bench crate: the binaries wrap `Job::run`
//! with their `FaultRunner`, which adds the resume-from-checkpoint layer
//! on top of the outcome this module reports.

use crate::dataset;
use crate::eval::{evaluate_defender_checked, evaluate_defender_timed};
use crate::json::Json;
use crate::registry::{attacker_by_name, defender_by_name, AttackerKind, DefenderKind};
use bbgnn_errors::{BbgnnError, BbgnnResult, RetryPolicy};
use bbgnn_gnn::eval::MeanStd;
use bbgnn_graph::Graph;
use bbgnn_linalg::ExecContext;
use bbgnn_supervise::{RunBudget, Stop, SupervisionScope};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Placeholder rendered for a cell whose every attempt failed (or that a
/// stop skipped).
pub const FAILED_CELL: &str = "n/a";

/// What one cell evaluation produced: the formatted value plus whether a
/// degraded/fallback path was taken to get it.
#[derive(Clone, Debug, PartialEq)]
pub struct CellValue {
    /// Formatted cell text (goes into the table verbatim).
    pub text: String,
    /// True when the value came from a recovery path (e.g. training needed
    /// divergence rollbacks) and should be flagged in the outcome summary.
    pub degraded: bool,
}

impl CellValue {
    /// A clean (non-degraded) value.
    pub fn clean(text: impl Into<String>) -> Self {
        CellValue {
            text: text.into(),
            degraded: false,
        }
    }

    /// A value obtained via a fallback/recovery path.
    pub fn degraded(text: impl Into<String>) -> Self {
        CellValue {
            text: text.into(),
            degraded: true,
        }
    }
}

impl From<String> for CellValue {
    fn from(text: String) -> Self {
        CellValue::clean(text)
    }
}

/// How a job evaluates its cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalKind {
    /// Test accuracy mean ± std over the repeated runs (Tables IV–VI).
    Accuracy,
    /// Attack wall-clock seconds mean ± std (Table VII).
    AttackTime,
    /// Defender training seconds mean ± std (Table VIII).
    DefenseTime,
}

impl EvalKind {
    /// Wire name (`accuracy` / `attack_time` / `defense_time`).
    pub fn as_str(&self) -> &'static str {
        match self {
            EvalKind::Accuracy => "accuracy",
            EvalKind::AttackTime => "attack_time",
            EvalKind::DefenseTime => "defense_time",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> BbgnnResult<EvalKind> {
        match s {
            "accuracy" => Ok(EvalKind::Accuracy),
            "attack_time" => Ok(EvalKind::AttackTime),
            "defense_time" => Ok(EvalKind::DefenseTime),
            other => Err(invalid(
                "eval.kind",
                format!("unknown eval kind {other:?}; use accuracy|attack_time|defense_time"),
            )),
        }
    }
}

/// Evaluation parameters of a [`JobSpec`].
#[derive(Clone, Debug, PartialEq)]
pub struct EvalSpec {
    /// Evaluation mode.
    pub kind: EvalKind,
    /// Repeated runs per cell.
    pub runs: usize,
    /// Dataset scale factor in `(0, 1]` (ignored for directory datasets).
    pub scale: f64,
    /// Perturbation rate for the attack, in `[0, 1]`.
    pub rate: f64,
}

impl Default for EvalSpec {
    fn default() -> Self {
        EvalSpec {
            kind: EvalKind::Accuracy,
            runs: 3,
            scale: 0.12,
            rate: 0.1,
        }
    }
}

/// One experiment cell, declaratively: the JSON wire format of
/// `POST /jobs` and the input to [`Job::new`]. See DESIGN.md §12 for the
/// field-by-field wire description.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Dataset name (`cora|citeseer|polblogs`) or dataset directory path.
    pub dataset: String,
    /// Raw model column (defaults to `"GCN"`); ignored when `defense` is
    /// set — models and defenders share the column namespace.
    pub model: Option<String>,
    /// Attacker name; `None` evaluates the clean graph.
    pub attack: Option<String>,
    /// Defender name; takes precedence over `model`.
    pub defense: Option<String>,
    /// Evaluation mode and parameters.
    pub eval: EvalSpec,
    /// Base RNG seed.
    pub seed: u64,
    /// Per-job supervision budget spec (e.g. `epochs=500,queries=2M`);
    /// validated at resolution, installed by the executor.
    pub budget: Option<String>,
    /// Requested kernel worker threads (`0` = server/process default).
    /// Results are bitwise-identical for every value (DESIGN.md §7), so
    /// this only trades wall-clock.
    pub threads: usize,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            dataset: "cora".to_string(),
            model: None,
            attack: None,
            defense: None,
            eval: EvalSpec::default(),
            seed: 7,
            budget: None,
            threads: 0,
        }
    }
}

fn invalid(what: &str, message: impl Into<String>) -> BbgnnError {
    BbgnnError::InvalidConfig {
        what: what.to_string(),
        message: message.into(),
    }
}

fn get_str(map: &std::collections::BTreeMap<String, Json>, key: &str) -> BbgnnResult<String> {
    match map.get(key) {
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| invalid(key, "expected a string")),
        None => Err(invalid(key, "missing required field")),
    }
}

fn get_opt_str(
    map: &std::collections::BTreeMap<String, Json>,
    key: &str,
) -> BbgnnResult<Option<String>> {
    match map.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| invalid(key, "expected a string or null")),
    }
}

impl JobSpec {
    /// Parses the JSON wire format. Every malformed field is an
    /// [`InvalidConfig`](BbgnnError::InvalidConfig) naming it.
    pub fn parse(text: &str) -> BbgnnResult<JobSpec> {
        let doc = Json::parse(text).map_err(|e| invalid("job spec", e))?;
        Self::from_json(&doc)
    }

    /// Builds a spec from a parsed JSON document.
    pub fn from_json(doc: &Json) -> BbgnnResult<JobSpec> {
        let map = doc
            .as_object()
            .ok_or_else(|| invalid("job spec", "expected a JSON object"))?;
        let defaults = JobSpec::default();
        let mut spec = JobSpec {
            dataset: get_str(map, "dataset")?,
            model: get_opt_str(map, "model")?,
            attack: get_opt_str(map, "attack")?,
            defense: get_opt_str(map, "defense")?,
            budget: get_opt_str(map, "budget")?,
            ..defaults
        };
        if let Some(v) = map.get("seed") {
            spec.seed = v
                .as_u64()
                .ok_or_else(|| invalid("seed", "expected an integer"))?;
        }
        if let Some(v) = map.get("threads") {
            spec.threads = v
                .as_usize()
                .ok_or_else(|| invalid("threads", "expected an integer (0 = auto)"))?;
        }
        if let Some(ev) = map.get("eval") {
            let emap = ev
                .as_object()
                .ok_or_else(|| invalid("eval", "expected an object"))?;
            if let Some(k) = emap.get("kind") {
                let k = k
                    .as_str()
                    .ok_or_else(|| invalid("eval.kind", "expected a string"))?;
                spec.eval.kind = EvalKind::parse(k)?;
            }
            if let Some(r) = emap.get("runs") {
                spec.eval.runs = r
                    .as_usize()
                    .ok_or_else(|| invalid("eval.runs", "expected an integer"))?;
            }
            if let Some(s) = emap.get("scale") {
                spec.eval.scale = s
                    .as_f64()
                    .ok_or_else(|| invalid("eval.scale", "expected a float"))?;
            }
            if let Some(r) = emap.get("rate") {
                spec.eval.rate = r
                    .as_f64()
                    .ok_or_else(|| invalid("eval.rate", "expected a float"))?;
            }
        }
        // Reject unknown top-level fields loudly: a typo'd "defence" must
        // not silently evaluate the raw model instead.
        for key in map.keys() {
            if !matches!(
                key.as_str(),
                "dataset" | "model" | "attack" | "defense" | "eval" | "seed" | "budget" | "threads"
            ) {
                return Err(invalid(key, "unknown job spec field"));
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Range-checks the numeric fields (same bounds as the CLI flags).
    pub fn validate(&self) -> BbgnnResult<()> {
        if !(self.eval.scale > 0.0 && self.eval.scale <= 1.0) {
            return Err(invalid(
                "eval.scale",
                format!("must be in (0, 1], got {}", self.eval.scale),
            ));
        }
        if self.eval.runs < 1 {
            return Err(invalid("eval.runs", "need at least one run"));
        }
        if !(self.eval.rate >= 0.0 && self.eval.rate <= 1.0) {
            return Err(invalid(
                "eval.rate",
                format!("must be in [0, 1], got {}", self.eval.rate),
            ));
        }
        if let Some(spec) = &self.budget {
            RunBudget::parse_spec(spec).map_err(|e| invalid("budget", e))?;
        }
        Ok(())
    }

    /// Serializes back to the wire format (round-trips through
    /// [`parse`](Self::parse)).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("dataset".to_string(), Json::string(&self.dataset)),
            (
                "eval".to_string(),
                Json::object([
                    ("kind".to_string(), Json::string(self.eval.kind.as_str())),
                    ("runs".to_string(), Json::number_usize(self.eval.runs)),
                    ("scale".to_string(), Json::number_f64(self.eval.scale)),
                    ("rate".to_string(), Json::number_f64(self.eval.rate)),
                ]),
            ),
            ("seed".to_string(), Json::number_u64(self.seed)),
            ("threads".to_string(), Json::number_usize(self.threads)),
        ];
        if let Some(m) = &self.model {
            pairs.push(("model".to_string(), Json::string(m)));
        }
        if let Some(a) = &self.attack {
            pairs.push(("attack".to_string(), Json::string(a)));
        }
        if let Some(d) = &self.defense {
            pairs.push(("defense".to_string(), Json::string(d)));
        }
        if let Some(b) = &self.budget {
            pairs.push(("budget".to_string(), Json::string(b)));
        }
        Json::object(pairs)
    }

    /// The column name this spec evaluates (`defense` over `model` over
    /// the `"GCN"` default).
    pub fn column_name(&self) -> &str {
        self.defense
            .as_deref()
            .or(self.model.as_deref())
            .unwrap_or("GCN")
    }

    /// Canonical cell key, matching the `tables_main` checkpoint format:
    /// `{dataset}/{attack-or-Clean}/{column}`.
    // lint: allow(key_fields) reason=table cell coordinate, not a result identity; the store key is fingerprint() below
    pub fn cell_key(&self) -> String {
        format!(
            "{}/{}/{}",
            self.dataset,
            self.attack.as_deref().unwrap_or("Clean"),
            self.column_name()
        )
    }

    /// Identity of the *result* this spec computes: two specs with equal
    /// fingerprints produce bitwise-identical values, so an executor may
    /// serve one's result for the other. Excludes `threads` (bitwise
    /// determinism, DESIGN.md §7) and `budget` (changes how far a run
    /// gets, not what a completed run computes — but a *degraded* result
    /// must not be replayed for an unbounded spec, which the server checks
    /// via the recorded outcome).
    // lint: key_fields exclude(threads, budget) reason=threads is results-invariant (§7); budget bounds progress, not values — degraded replay is gated on the recorded outcome
    pub fn fingerprint(&self) -> String {
        format!(
            "dataset={}|attack={}|column={}|eval={}|runs={}|scale={}|rate={}|seed={}",
            self.dataset,
            self.attack.as_deref().unwrap_or("Clean"),
            self.column_name(),
            self.eval.kind.as_str(),
            self.eval.runs,
            self.eval.scale,
            self.eval.rate,
            self.seed
        )
    }
}

/// How one finished cell is reported (the `FaultRunner` outcome
/// vocabulary, DESIGN.md §11/§12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellOutcome {
    /// First attempt succeeded.
    Ok,
    /// A later attempt succeeded after a panic or retryable error.
    Retried,
    /// A value was produced on a fallback path (divergence rollback,
    /// budget-truncated training).
    Degraded,
    /// Every attempt failed; the value renders as [`FAILED_CELL`].
    Failed,
    /// A supervision stop (cancel, or budget at the attempt boundary)
    /// skipped the cell; partial values were discarded and the cell must
    /// not be checkpointed — a resumed run recomputes it.
    Skipped,
}

impl CellOutcome {
    /// Checkpoint/wire name (`ok`, `retried`, ...).
    pub fn as_str(&self) -> &'static str {
        match self {
            CellOutcome::Ok => "ok",
            CellOutcome::Retried => "retried",
            CellOutcome::Degraded => "degraded",
            CellOutcome::Failed => "failed",
            CellOutcome::Skipped => "skipped",
        }
    }
}

/// What [`Job::run`] hands back: everything the bench checkpoint layer or
/// the server needs to persist and report one cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell key the job ran under.
    pub key: String,
    /// Formatted value ([`FAILED_CELL`] for `Failed`/`Skipped`).
    pub value: String,
    /// Outcome classification.
    pub outcome: CellOutcome,
    /// Attempts consumed (including the successful one).
    pub attempts: usize,
    /// Terminal cause for `Failed` (and the observed stop for `Skipped`).
    pub detail: Option<String>,
    /// Content-addressed store keys this cell touched (hits and writes),
    /// for liveness pinning against `bbgnn-store gc`.
    pub artifacts: Vec<String>,
}

/// A resolved, runnable job: validated names, its own
/// [`SupervisionScope`], and the retry policy its cell runs under.
pub struct Job {
    key: String,
    spec: JobSpec,
    attack: Option<AttackerKind>,
    column: DefenderKind,
    scope: Arc<SupervisionScope>,
    policy: RetryPolicy,
    sleeper: fn(std::time::Duration),
}

impl Job {
    /// Resolves `spec` into a runnable job. Unknown attacker/defender
    /// names, out-of-range numerics, and malformed budget specs all
    /// surface here as [`InvalidConfig`](BbgnnError::InvalidConfig) — a
    /// job that constructs will not fail on its own configuration.
    pub fn new(spec: JobSpec) -> BbgnnResult<Job> {
        spec.validate()?;
        let attack = match spec.attack.as_deref() {
            None => None,
            Some(name) => Some(attacker_by_name(name, spec.eval.rate)?),
        };
        let identity = dataset::identity_features(&spec.dataset);
        let column = defender_by_name(spec.column_name(), identity)?;
        Ok(Job {
            key: spec.cell_key(),
            spec,
            attack,
            column,
            scope: SupervisionScope::new(),
            policy: RetryPolicy::default(),
            sleeper: default_sleeper(),
        })
    }

    /// A job the binaries assemble directly from registry kinds — the
    /// row/column tuning of the tables (e.g. Pro-GNN's reduced Fig. 6
    /// budget) is not name-resolvable, and the checkpoint key formats
    /// predate [`JobSpec::cell_key`].
    pub fn from_parts(
        key: impl Into<String>,
        spec: JobSpec,
        attack: Option<AttackerKind>,
        column: DefenderKind,
    ) -> Job {
        Job {
            key: key.into(),
            spec,
            attack,
            column,
            scope: SupervisionScope::new(),
            policy: RetryPolicy::default(),
            sleeper: default_sleeper(),
        }
    }

    /// Replaces the retry policy (tests, time-sensitive tables).
    pub fn with_policy(mut self, policy: RetryPolicy) -> Job {
        self.policy = policy;
        self
    }

    /// Replaces the backoff sleeper (tests: a recording no-op instead of
    /// burning wall-clock time).
    pub fn with_sleeper(mut self, sleeper: fn(std::time::Duration)) -> Job {
        self.sleeper = sleeper;
        self
    }

    /// The cell key this job runs under.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The spec this job was resolved from.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The per-job budget, parsed (`None` when the spec set none).
    pub fn budget(&self) -> Option<RunBudget> {
        let spec = self.spec.budget.as_deref()?;
        RunBudget::parse_spec(spec).ok()
    }

    /// This job's own supervision scope. [`run`](Self::run) enters it for
    /// the duration of the cell, so every check site the cell reaches —
    /// training epochs, attacker scans, eigensolver sweeps — observes it.
    /// Cancelling it stops this job and only this job; its counters
    /// describe this job and only this job.
    pub fn scope(&self) -> Arc<SupervisionScope> {
        Arc::clone(&self.scope)
    }

    /// Runs the cell to completion: load (or reuse) the input graph,
    /// poison it if the job has an attacker, evaluate, all inside the
    /// panic/retry/supervision boundary described at module level.
    pub fn run(&self, ctx: &ExecContext) -> CellResult {
        self.run_with_graph(ctx, None)
    }

    /// [`run`](Self::run) over an already-prepared input graph — the
    /// binaries share one poisoned graph across a whole table row, so the
    /// per-cell job must not re-poison it. `prepared` is used as the
    /// evaluation input verbatim (the job's own attack, if any, is *not*
    /// re-applied), except for `attack_time` evaluations, which measure
    /// the attack against it.
    pub fn run_with_graph(&self, ctx: &ExecContext, prepared: Option<&Graph>) -> CellResult {
        // The cell runs inside this job's supervision scope: check sites
        // it reaches consult the root scope, then this one, and the job's
        // own budget — if the spec set one — bounds this job alone. With
        // an inactive scope and no spec budget (the CLI path) this changes
        // nothing observable.
        let _scope = bbgnn_supervise::enter(&self.scope);
        if let Some(budget) = self.budget() {
            self.scope.install_budget(&budget);
        }
        // Record which store artifacts this cell touches (hits and writes
        // alike) so the caller can pin them against `bbgnn-store gc`.
        // Recording is thread-local: the cell runs on this thread, pool
        // workers spawned inside are intentionally not captured.
        bbgnn_store::start_recording();
        let mut last_cause = String::new();
        for attempt in 0..=self.policy.max_retries {
            // Supervision stop at an attempt boundary: skip, discarding
            // partials. Checked per attempt, not just at entry — a stop
            // arriving mid-cell can surface as a panic from an infallible
            // numeric façade, and retrying it would burn the retry budget
            // into a `failed` outcome that a resume could never heal.
            if let Some(stop) = bbgnn_supervise::stop_reason("job/run") {
                return self.skipped(format!("{stop:?}"));
            }
            let seed = RetryPolicy::seed_for_attempt(self.spec.seed, attempt);
            let _span = bbgnn_obs::span!(
                "job/run",
                key = self.key.as_str(),
                attempt = attempt,
                seed = seed,
                threads = ctx.threads()
            );
            let outcome = catch_unwind(AssertUnwindSafe(|| self.attempt(prepared, seed)));
            let error = match outcome {
                Ok(Ok(value)) => {
                    // A cancel landing mid-cell surfaces as an Ok value
                    // truncated by the stop (training's best-so-far
                    // snapshot, flagged degraded). Returning it would let
                    // a checkpoint replay the truncated value verbatim,
                    // so under a cancel a degraded value is a skip, not a
                    // result. Budget stops keep it: a bounded run's
                    // partial cells are its intended output (§11).
                    if value.degraded
                        && matches!(
                            bbgnn_supervise::stop_reason("job/run"),
                            Some(Stop::Cancelled)
                        )
                    {
                        return self.skipped("cancelled mid-cell; partial value discarded");
                    }
                    let outcome = if value.degraded {
                        CellOutcome::Degraded
                    } else if attempt > 0 {
                        CellOutcome::Retried
                    } else {
                        CellOutcome::Ok
                    };
                    return CellResult {
                        key: self.key.clone(),
                        value: value.text,
                        outcome,
                        attempts: attempt + 1,
                        detail: None,
                        artifacts: bbgnn_store::take_recording(),
                    };
                }
                Ok(Err(e)) => e,
                // A panic is treated like a retryable fault: most panics
                // under adversarial perturbation are numerical blowups,
                // and the perturbed-seed retry is cheap and deterministic.
                Err(payload) => BbgnnError::ExperimentAborted {
                    cell: self.key.clone(),
                    cause: format!("panic: {}", panic_message(&*payload)),
                },
            };
            // A supervision stop surfacing as an error is not a failure of
            // the cell: never retried, never persisted — the run is
            // winding down and a resume will recompute this cell.
            if error.is_supervision_stop() {
                return self.skipped(error.to_string());
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
        }
        CellResult {
            key: self.key.clone(),
            value: FAILED_CELL.to_string(),
            outcome: CellOutcome::Failed,
            attempts: self.policy.max_retries + 1,
            detail: Some(last_cause),
            artifacts: bbgnn_store::take_recording(),
        }
    }

    fn skipped(&self, detail: impl Into<String>) -> CellResult {
        let _ = bbgnn_store::take_recording();
        CellResult {
            key: self.key.clone(),
            value: FAILED_CELL.to_string(),
            outcome: CellOutcome::Skipped,
            attempts: 0,
            detail: Some(detail.into()),
            artifacts: Vec::new(),
        }
    }

    /// One attempt: resolve the input graph, then evaluate.
    fn attempt(&self, prepared: Option<&Graph>, seed: u64) -> BbgnnResult<CellValue> {
        match self.spec.eval.kind {
            EvalKind::Accuracy => {
                let owned;
                let input = match prepared {
                    Some(g) => g,
                    None => {
                        let clean = dataset::load_dataset(
                            &self.spec.dataset,
                            self.spec.eval.scale,
                            self.spec.seed,
                        )?;
                        owned = match &self.attack {
                            Some(kind) => kind.build().attack(&clean).poisoned,
                            None => clean,
                        };
                        &owned
                    }
                };
                let (stats, health) =
                    evaluate_defender_checked(&self.column, input, self.spec.eval.runs, seed);
                let text = stats.to_string();
                Ok(if health.is_degraded() {
                    CellValue::degraded(text)
                } else {
                    CellValue::clean(text)
                })
            }
            EvalKind::AttackTime => {
                let kind = self.attack.as_ref().ok_or_else(|| {
                    invalid("attack", "attack_time evaluation requires an attacker")
                })?;
                let owned;
                let input = match prepared {
                    Some(g) => g,
                    None => {
                        owned = dataset::load_dataset(
                            &self.spec.dataset,
                            self.spec.eval.scale,
                            self.spec.seed,
                        )?;
                        &owned
                    }
                };
                let mut secs = Vec::with_capacity(self.spec.eval.runs);
                for _ in 0..self.spec.eval.runs {
                    let mut attacker = kind.build();
                    secs.push(attacker.attack(input).elapsed.as_secs_f64());
                }
                let stats = MeanStd::of(&secs);
                Ok(CellValue::clean(format!(
                    "{:.2}±{:.2}",
                    stats.mean, stats.std
                )))
            }
            EvalKind::DefenseTime => {
                let owned;
                let input = match prepared {
                    Some(g) => g,
                    None => {
                        owned = dataset::load_dataset(
                            &self.spec.dataset,
                            self.spec.eval.scale,
                            self.spec.seed,
                        )?;
                        &owned
                    }
                };
                let (_, secs) =
                    evaluate_defender_timed(&self.column, input, self.spec.eval.runs, seed);
                Ok(CellValue::clean(format!(
                    "{:.2}±{:.2}",
                    secs.mean, secs.std
                )))
            }
        }
    }
}

fn default_sleeper() -> fn(std::time::Duration) {
    // lint: allow(clock) reason=the one real backoff sleeper; tests inject a virtual clock via with_sleeper
    std::thread::sleep
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

    /// Serializes tests that touch the process-global supervision state.
    static SUPERVISE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let guard = SUPERVISE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        bbgnn_supervise::shutdown();
        guard
    }

    fn quiet_sleep(_d: std::time::Duration) {}

    fn small_spec() -> JobSpec {
        JobSpec {
            dataset: "cora".to_string(),
            eval: EvalSpec {
                runs: 1,
                scale: 0.05,
                ..EvalSpec::default()
            },
            ..JobSpec::default()
        }
    }

    #[test]
    fn wire_format_round_trips() {
        let spec = JobSpec {
            dataset: "citeseer".to_string(),
            attack: Some("PEEGA".to_string()),
            defense: Some("GNAT".to_string()),
            eval: EvalSpec {
                kind: EvalKind::Accuracy,
                runs: 2,
                scale: 0.1,
                rate: 0.15,
            },
            seed: 11,
            budget: Some("epochs=500".to_string()),
            threads: 2,
            ..JobSpec::default()
        };
        let text = spec.to_json().to_pretty();
        let back = JobSpec::parse(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.cell_key(), "citeseer/PEEGA/GNAT");
    }

    #[test]
    fn parse_rejects_malformed_fields_by_name() {
        for (body, what) in [
            (r#"[1,2]"#, "job spec"),
            (r#"{"eval": {}}"#, "dataset"),
            (r#"{"dataset": 5}"#, "dataset"),
            (r#"{"dataset": "cora", "seed": "x"}"#, "seed"),
            (
                r#"{"dataset": "cora", "eval": {"kind": "speed"}}"#,
                "eval.kind",
            ),
            (
                r#"{"dataset": "cora", "eval": {"scale": 2.0}}"#,
                "eval.scale",
            ),
            (r#"{"dataset": "cora", "budget": "steps=3"}"#, "budget"),
            (r#"{"dataset": "cora", "defence": "GNAT"}"#, "defence"),
        ] {
            match JobSpec::parse(body) {
                Err(BbgnnError::InvalidConfig { what: got, .. }) => {
                    assert_eq!(got, what, "for body {body}")
                }
                other => panic!("expected InvalidConfig({what}) for {body}, got {other:?}"),
            }
        }
    }

    #[test]
    fn job_resolution_rejects_unknown_names() {
        let mut spec = small_spec();
        spec.attack = Some("Nettack".to_string());
        assert!(matches!(
            Job::new(spec),
            Err(BbgnnError::InvalidConfig { ref what, .. }) if what == "attack"
        ));
        let mut spec = small_spec();
        spec.defense = Some("Vaccine".to_string());
        assert!(matches!(
            Job::new(spec),
            Err(BbgnnError::InvalidConfig { ref what, .. }) if what == "defense"
        ));
    }

    #[test]
    fn fingerprint_ignores_threads_but_not_seed() {
        let a = JobSpec {
            threads: 1,
            ..small_spec()
        };
        let b = JobSpec {
            threads: 8,
            ..small_spec()
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = JobSpec {
            seed: 8,
            ..small_spec()
        };
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn clean_accuracy_job_runs_and_is_deterministic() {
        let _guard = locked();
        let ctx = ExecContext::from_env();
        let job = Job::new(small_spec()).unwrap().with_sleeper(quiet_sleep);
        let first = job.run(&ctx);
        assert_eq!(first.outcome, CellOutcome::Ok, "detail: {:?}", first.detail);
        assert_eq!(first.key, "cora/Clean/GCN");
        assert_eq!(first.attempts, 1);
        let again = Job::new(small_spec())
            .unwrap()
            .with_sleeper(quiet_sleep)
            .run(&ctx);
        assert_eq!(again.value, first.value, "same spec, same bytes");
    }

    #[test]
    fn cancelled_scope_skips_without_running() {
        let _guard = locked();
        let ctx = ExecContext::from_env();
        let job = Job::new(small_spec()).unwrap().with_sleeper(quiet_sleep);
        job.scope().cancel();
        let res = job.run(&ctx);
        assert_eq!(res.outcome, CellOutcome::Skipped);
        assert_eq!(res.value, FAILED_CELL);
        assert_eq!(res.attempts, 0, "the cell body must not have run");
        bbgnn_supervise::shutdown();
    }

    #[test]
    fn global_cancel_skips_too() {
        let _guard = locked();
        let ctx = ExecContext::from_env();
        bbgnn_supervise::request_cancel();
        let res = Job::new(small_spec())
            .unwrap()
            .with_sleeper(quiet_sleep)
            .run(&ctx);
        assert_eq!(res.outcome, CellOutcome::Skipped);
        bbgnn_supervise::shutdown();
    }

    #[test]
    fn budget_spec_is_parsed_and_exposed() {
        let spec = JobSpec {
            budget: Some("epochs=5".to_string()),
            ..small_spec()
        };
        let job = Job::new(spec).unwrap();
        assert_eq!(job.budget().and_then(|b| b.epochs), Some(5));
    }

    #[test]
    fn attack_time_requires_an_attacker() {
        let _guard = locked();
        let ctx = ExecContext::from_env();
        let spec = JobSpec {
            eval: EvalSpec {
                kind: EvalKind::AttackTime,
                runs: 1,
                scale: 0.05,
                ..EvalSpec::default()
            },
            ..small_spec()
        };
        let res = Job::new(spec).unwrap().with_sleeper(quiet_sleep).run(&ctx);
        assert_eq!(res.outcome, CellOutcome::Failed);
        assert!(res.detail.unwrap_or_default().contains("attack_time"));
    }
}
