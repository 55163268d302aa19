//! Supervision scopes: per-scope cancellation, deadlines, and budget
//! accounting (DESIGN.md §11).
//!
//! A [`SupervisionScope`] is one logical run's cancel flag, deadline,
//! epoch/query/memory caps and used counters. The process owns one root
//! scope (the crate root's `ROOT`, configured by the free functions and
//! the signal handler); everything else is a child scope made with
//! [`SupervisionScope::new`]. A thread **enters** a child ([`enter`]);
//! while entered, every free function in the crate root
//! ([`stop_reason`](crate::stop_reason), [`check`](crate::check), the
//! `note_*` accounting hooks) consults the root first and then the
//! entered child, so:
//!
//! * with no child entered, only the root applies;
//! * SIGINT/SIGTERM ([`request_cancel`](crate::request_cancel)) cancels
//!   the root and so reaches every child — a scoped job cannot outlive
//!   the process's will to die;
//! * a process-wide budget (`--deadline` / `--budget`) bounds children
//!   too, while a *child's* budget or cancel never reaches a sibling or
//!   the root;
//! * a child's accounting also counts toward the root totals.
//!
//! Scope entry is thread-local. Kernel regions propagate the submitting
//! thread's scope into their pool workers (see
//! `ThreadPool::for_each_row_band`), so check sites reached from inside
//! a parallel region — the GF-Attack eigensolver exception of §11 —
//! observe the same scope as the thread that launched the region.

use crate::{RunBudget, Stop};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Sentinel for "no cap configured" in the budget atomics.
const UNSET: u64 = u64::MAX;

/// Monotonic time origin for the deadline arithmetic. The clock is read
/// only while a deadline is configured; with supervision off (or with
/// only epoch/query/memory caps) no check site ever reads a clock, which
/// is what keeps the off path byte-identical and the `clock` lint story
/// honest: time gates loop *continuation* here, it never enters numerics.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Per-scope supervision state: one logical run's cancel flag, budget
/// caps, and accounting counters.
///
/// Child scopes are constructed with [`SupervisionScope::new`] (an `Arc`,
/// because the scope is shared between the thread running the work and
/// whoever may cancel or observe it — in `bbgnn-serve`, the HTTP
/// threads). All operations are atomic loads/stores; a scope is safe to
/// poke from any thread, and cancelling one is async-signal-safe.
pub struct SupervisionScope {
    /// Scope gate: accounting and stop checks are live. Set by
    /// [`activate`](Self::activate), [`install_budget`](Self::install_budget),
    /// and [`cancel`](Self::cancel).
    active: AtomicBool,
    cancelled: AtomicBool,
    /// Deadline as nanoseconds since [`anchor`]; `UNSET` = none.
    deadline_nanos: AtomicU64,
    /// The *configured* deadline in whole seconds — what a deadline stop
    /// reports as its limit (`deadline_nanos` is an absolute instant).
    deadline_limit_secs: AtomicU64,
    epoch_cap: AtomicU64,
    query_cap: AtomicU64,
    mem_cap: AtomicU64,
    epochs_used: AtomicU64,
    queries_used: AtomicU64,
    peak_bytes: AtomicU64,
    /// Whether this scope's stop was already announced on the obs stream
    /// (once, at the first check site that observes it).
    stop_announced: AtomicBool,
}

impl SupervisionScope {
    /// An inactive scope with no caps; `const` so the root can be a
    /// plain `static`.
    pub(crate) const fn inactive() -> SupervisionScope {
        SupervisionScope {
            active: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            deadline_nanos: AtomicU64::new(UNSET),
            deadline_limit_secs: AtomicU64::new(UNSET),
            epoch_cap: AtomicU64::new(UNSET),
            query_cap: AtomicU64::new(UNSET),
            mem_cap: AtomicU64::new(UNSET),
            epochs_used: AtomicU64::new(0),
            queries_used: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
            stop_announced: AtomicBool::new(false),
        }
    }

    /// A fresh, inactive child scope. Until it is activated, cancelled,
    /// or given a budget, entering it changes nothing observable.
    pub fn new() -> Arc<SupervisionScope> {
        Arc::new(SupervisionScope::inactive())
    }

    /// Returns every field to its [`inactive`](Self::inactive) value,
    /// deactivating last.
    pub(crate) fn reset(&self) {
        self.cancelled.store(false, Ordering::Relaxed);
        for cap in [
            &self.deadline_nanos,
            &self.deadline_limit_secs,
            &self.epoch_cap,
            &self.query_cap,
            &self.mem_cap,
        ] {
            cap.store(UNSET, Ordering::Relaxed);
        }
        for used in [&self.epochs_used, &self.queries_used, &self.peak_bytes] {
            used.store(0, Ordering::Relaxed);
        }
        self.stop_announced.store(false, Ordering::Relaxed);
        self.active.store(false, Ordering::Relaxed);
    }

    /// Turns accounting on without installing any cap: the `note_*`
    /// hooks record into this scope from here on, so progress counters
    /// (`bbgnn-serve`'s `GET /jobs/:id` and SSE snapshots) are populated
    /// even for an unbudgeted job. Stop checks stay vacuous (nothing to
    /// trip).
    pub fn activate(&self) {
        self.active.store(true, Ordering::Relaxed);
    }

    /// Whether this scope participates in checks/accounting at all.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Requests cooperative cancellation of this scope only. Siblings
    /// and the root are untouched (cancelling the root reaches every
    /// child). Idempotent; atomic stores only.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
        self.active.store(true, Ordering::Relaxed);
    }

    /// Whether this scope or the root (the whole process) was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed) || crate::ROOT.cancelled.load(Ordering::Relaxed)
    }

    /// Installs `budget` into this scope. An empty budget is a no-op.
    /// The deadline clock starts now.
    pub fn install_budget(&self, budget: &RunBudget) {
        if budget.is_empty() {
            return;
        }
        if let Some(d) = budget.deadline {
            let at = anchor().elapsed() + d;
            self.deadline_nanos.store(
                u64::try_from(at.as_nanos()).unwrap_or(UNSET - 1),
                Ordering::Relaxed,
            );
            self.deadline_limit_secs
                .store(d.as_secs(), Ordering::Relaxed);
        }
        if let Some(e) = budget.epochs {
            self.epoch_cap.store(e, Ordering::Relaxed);
        }
        if let Some(q) = budget.queries {
            self.query_cap.store(q, Ordering::Relaxed);
        }
        if let Some(m) = budget.mem_bytes {
            self.mem_cap.store(m, Ordering::Relaxed);
        }
        self.active.store(true, Ordering::Relaxed);
    }

    /// This scope's half of [`stop_reason`](crate::stop_reason): `None`
    /// (one relaxed load) while inactive, else its own stop state,
    /// announced once on the obs stream.
    pub(crate) fn stop(&self, site: &str) -> Option<Stop> {
        if !self.is_active() {
            return None;
        }
        let stop = self.local_stop()?;
        if !self.stop_announced.swap(true, Ordering::Relaxed) {
            match &stop {
                Stop::Cancelled => {
                    bbgnn_obs::event!("supervise/stop", site = site, why = "cancelled")
                }
                Stop::Budget { resource, .. } => {
                    bbgnn_obs::event!("supervise/stop", site = site, why = *resource)
                }
            }
        }
        Some(stop)
    }

    /// This scope's own stop state (no root, no announce): cancel first,
    /// then each cap against this scope's counters.
    pub(crate) fn local_stop(&self) -> Option<Stop> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Some(Stop::Cancelled);
        }
        let deadline = self.deadline_nanos.load(Ordering::Relaxed);
        if deadline != UNSET {
            let now = u64::try_from(anchor().elapsed().as_nanos()).unwrap_or(u64::MAX);
            if now >= deadline {
                return Some(Stop::Budget {
                    resource: "deadline",
                    limit: self.deadline_limit_secs.load(Ordering::Relaxed),
                });
            }
        }
        let epoch_cap = self.epoch_cap.load(Ordering::Relaxed);
        if epoch_cap != UNSET && self.epochs_used.load(Ordering::Relaxed) >= epoch_cap {
            return Some(Stop::Budget {
                resource: "epochs",
                limit: epoch_cap,
            });
        }
        let query_cap = self.query_cap.load(Ordering::Relaxed);
        if query_cap != UNSET && self.queries_used.load(Ordering::Relaxed) >= query_cap {
            return Some(Stop::Budget {
                resource: "queries",
                limit: query_cap,
            });
        }
        let mem_cap = self.mem_cap.load(Ordering::Relaxed);
        if mem_cap != UNSET && self.peak_bytes.load(Ordering::Relaxed) > mem_cap {
            return Some(Stop::Budget {
                resource: "memory",
                limit: mem_cap,
            });
        }
        None
    }

    pub(crate) fn add_epochs(&self, n: u64) {
        self.epochs_used.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_queries(&self, n: u64) {
        self.queries_used.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn max_mem(&self, peak: u64) {
        self.peak_bytes.fetch_max(peak, Ordering::Relaxed);
    }

    /// Training epochs recorded into this scope.
    pub fn epochs_used(&self) -> u64 {
        self.epochs_used.load(Ordering::Relaxed)
    }

    /// Attack queries recorded into this scope.
    pub fn queries_used(&self) -> u64 {
        self.queries_used.load(Ordering::Relaxed)
    }

    /// Largest `Workspace` high-water mark recorded into this scope.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for SupervisionScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisionScope")
            .field("active", &self.is_active())
            .field("cancelled", &self.cancelled.load(Ordering::Relaxed))
            .field("epochs_used", &self.epochs_used())
            .field("queries_used", &self.queries_used())
            .finish()
    }
}

thread_local! {
    /// The scope the current thread has entered, if any.
    static CURRENT: RefCell<Option<Arc<SupervisionScope>>> = const { RefCell::new(None) };
}

/// Restores the previously-entered scope (or none) on drop.
#[must_use = "the scope is exited when the guard drops; bind it (`let _scope = ...`)"]
pub struct ScopeGuard {
    prev: Option<Arc<SupervisionScope>>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        let _ = CURRENT.try_with(|c| *c.borrow_mut() = prev);
    }
}

/// Enters `scope` on the current thread until the returned guard drops.
/// Nested entries restore the outer scope on exit.
pub fn enter(scope: &Arc<SupervisionScope>) -> ScopeGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(scope)));
    ScopeGuard { prev }
}

/// The scope the current thread has entered, if any. Kernel regions use
/// this to propagate the submitting thread's scope into pool workers.
pub fn current_scope() -> Option<Arc<SupervisionScope>> {
    CURRENT.try_with(|c| c.borrow().clone()).ok().flatten()
}

/// Runs `f` against the current thread's entered scope; `None` when no
/// scope is entered. One thread-local probe.
pub(crate) fn with_current<R>(f: impl FnOnce(&SupervisionScope) -> R) -> Option<R> {
    CURRENT
        .try_with(|c| c.borrow().as_deref().map(f))
        .ok()
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;
    use crate::{check, note_epochs, request_cancel, shutdown, stop_reason};

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        shutdown();
        guard
    }

    #[test]
    fn inactive_scope_changes_nothing() {
        let _g = locked();
        let scope = SupervisionScope::new();
        let _e = enter(&scope);
        assert!(!crate::enabled());
        assert!(stop_reason("test/site").is_none());
        assert!(check("test/site").is_ok());
    }

    #[test]
    fn scope_cancel_stops_only_the_entered_scope() {
        let _g = locked();
        let a = SupervisionScope::new();
        let b = SupervisionScope::new();
        a.cancel();
        {
            let _e = enter(&a);
            assert_eq!(stop_reason("test/site"), Some(Stop::Cancelled));
        }
        {
            let _e = enter(&b);
            assert!(stop_reason("test/site").is_none(), "sibling unaffected");
        }
        // No scope entered: the root never saw the cancel.
        assert!(stop_reason("test/site").is_none());
        assert!(!crate::cancel_requested());
    }

    #[test]
    fn scope_budget_counts_only_scoped_work() {
        let _g = locked();
        let scope = SupervisionScope::new();
        scope.install_budget(&RunBudget {
            epochs: Some(5),
            ..Default::default()
        });
        {
            let _e = enter(&scope);
            note_epochs(5);
            assert!(matches!(
                stop_reason("train/epoch"),
                Some(Stop::Budget {
                    resource: "epochs",
                    ..
                })
            ));
        }
        assert_eq!(scope.epochs_used(), 5);
        // Outside the scope the root has no cap to trip.
        assert!(stop_reason("train/epoch").is_none());
    }

    #[test]
    fn global_cancel_reaches_entered_scopes() {
        let _g = locked();
        let scope = SupervisionScope::new();
        let _e = enter(&scope);
        request_cancel();
        assert_eq!(stop_reason("test/site"), Some(Stop::Cancelled));
        assert!(scope.is_cancelled(), "SIGINT must reach scoped work");
        shutdown();
    }

    #[test]
    fn nested_enter_restores_the_outer_scope() {
        let _g = locked();
        let outer = SupervisionScope::new();
        let inner = SupervisionScope::new();
        let _o = enter(&outer);
        {
            let _i = enter(&inner);
            assert!(Arc::ptr_eq(&current_scope().unwrap(), &inner));
        }
        assert!(Arc::ptr_eq(&current_scope().unwrap(), &outer));
    }

    #[test]
    fn scoped_check_surfaces_taxonomy_errors() {
        let _g = locked();
        let scope = SupervisionScope::new();
        scope.cancel();
        let _e = enter(&scope);
        let err = check("job/run").unwrap_err();
        assert!(err.is_supervision_stop());
        assert!(stop_reason("job/run").is_some());
    }

    #[test]
    fn root_budget_trips_inside_an_entered_scope() {
        let _g = locked();
        crate::install_budget(&RunBudget {
            epochs: Some(3),
            ..Default::default()
        });
        let scope = SupervisionScope::new();
        let _e = enter(&scope);
        note_epochs(2);
        assert!(stop_reason("train/epoch").is_none());
        note_epochs(1);
        assert_eq!(
            stop_reason("train/epoch"),
            Some(Stop::Budget {
                resource: "epochs",
                limit: 3
            }),
            "a process budget bounds work inside a child scope"
        );
        assert_eq!(scope.epochs_used(), 3);
        assert_eq!(crate::epochs_used(), 3);
        shutdown();
    }

    #[test]
    fn sibling_scopes_count_apart_and_sum_into_the_root() {
        let _g = locked();
        let a = SupervisionScope::new();
        let b = SupervisionScope::new();
        std::thread::scope(|s| {
            for (scope, epochs) in [(&a, 3), (&b, 5)] {
                s.spawn(move || {
                    scope.activate();
                    let _e = enter(scope);
                    for _ in 0..epochs {
                        note_epochs(1);
                    }
                });
            }
        });
        assert_eq!(a.epochs_used(), 3);
        assert_eq!(b.epochs_used(), 5);
        assert_eq!(crate::epochs_used(), 8, "the root totals every child");
        assert!(!crate::enabled(), "child activity never activates the root");
        shutdown();
    }
}
