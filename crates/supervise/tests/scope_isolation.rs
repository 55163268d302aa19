//! Per-scope isolation under real concurrency (DESIGN.md §11): a scope's
//! cancel or exhausted budget must never stop a sibling scope, and scope
//! budget counters must never bleed between concurrently-running scopes.
//!
//! This file is also the nightly ThreadSanitizer target for the scope
//! type (see `.github/workflows/sanitizers.yml`): every test genuinely
//! races scope reads/writes across threads.

use bbgnn_supervise::{
    enter, note_epochs, note_queries, stop_reason, RunBudget, Stop, SupervisionScope,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

#[test]
fn cancelling_one_scope_never_stops_a_sibling() {
    let victim = SupervisionScope::new();
    let sibling = SupervisionScope::new();
    victim.activate();
    sibling.activate();
    let barrier = Arc::new(Barrier::new(3));
    let stop_victim = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        {
            let scope = Arc::clone(&victim);
            let barrier = Arc::clone(&barrier);
            let stop = Arc::clone(&stop_victim);
            s.spawn(move || {
                let _e = enter(&scope);
                barrier.wait();
                // Spin at a check site until the cancel lands.
                loop {
                    match stop_reason("test/victim") {
                        Some(Stop::Cancelled) => break,
                        Some(other) => panic!("expected a cancel, got {other:?}"),
                        None => std::hint::spin_loop(),
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        {
            let scope = Arc::clone(&sibling);
            let barrier = Arc::clone(&barrier);
            let stop = Arc::clone(&stop_victim);
            s.spawn(move || {
                let _e = enter(&scope);
                barrier.wait();
                // Keep checking until the victim has stopped; the sibling
                // must never observe a stop of its own.
                while !stop.load(Ordering::Relaxed) {
                    assert!(
                        stop_reason("test/sibling").is_none(),
                        "sibling scope observed a foreign stop"
                    );
                }
                assert!(stop_reason("test/sibling").is_none());
            });
        }
        barrier.wait();
        victim.cancel();
    });
    assert!(victim.is_cancelled());
    assert!(!sibling.is_cancelled());
}

#[test]
fn scope_counters_never_bleed_across_concurrent_scopes() {
    const N: u64 = 10_000;
    let a = SupervisionScope::new();
    let b = SupervisionScope::new();
    a.activate();
    b.activate();
    let barrier = Arc::new(Barrier::new(2));

    std::thread::scope(|s| {
        {
            let scope = Arc::clone(&a);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let _e = enter(&scope);
                barrier.wait();
                for _ in 0..N {
                    note_epochs(1);
                }
            });
        }
        {
            let scope = Arc::clone(&b);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let _e = enter(&scope);
                barrier.wait();
                for _ in 0..N {
                    note_queries(2);
                }
            });
        }
    });

    assert_eq!(a.epochs_used(), N);
    assert_eq!(a.queries_used(), 0, "queries bled into scope a");
    assert_eq!(b.queries_used(), 2 * N);
    assert_eq!(b.epochs_used(), 0, "epochs bled into scope b");
}

#[test]
fn exhausting_one_scopes_budget_leaves_the_sibling_running() {
    let bounded = SupervisionScope::new();
    let unbounded = SupervisionScope::new();
    bounded.install_budget(&RunBudget {
        epochs: Some(100),
        ..Default::default()
    });
    unbounded.activate();
    let barrier = Arc::new(Barrier::new(2));

    std::thread::scope(|s| {
        {
            let scope = Arc::clone(&bounded);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let _e = enter(&scope);
                barrier.wait();
                let mut stopped = None;
                for _ in 0..1_000 {
                    if let Some(stop) = stop_reason("train/epoch") {
                        stopped = Some(stop);
                        break;
                    }
                    note_epochs(1);
                }
                match stopped {
                    Some(Stop::Budget {
                        resource: "epochs",
                        limit: 100,
                    }) => {}
                    other => panic!("expected the epochs budget to trip, got {other:?}"),
                }
            });
        }
        {
            let scope = Arc::clone(&unbounded);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let _e = enter(&scope);
                barrier.wait();
                for _ in 0..1_000 {
                    assert!(
                        stop_reason("train/epoch").is_none(),
                        "unbounded sibling observed a foreign budget stop"
                    );
                    note_epochs(1);
                }
            });
        }
    });

    assert_eq!(bounded.epochs_used(), 100);
    assert_eq!(unbounded.epochs_used(), 1_000);
}

#[test]
fn default_domain_is_untouched_by_scoped_activity() {
    let scope = SupervisionScope::new();
    scope.install_budget(&RunBudget {
        queries: Some(1),
        ..Default::default()
    });
    {
        let _e = enter(&scope);
        note_queries(1);
        assert!(stop_reason("attack/scan").is_some());
    }
    // Off the scope's thread-local entry, supervision is off again: the
    // scope's budget and counters must not have activated the root scope.
    assert!(!bbgnn_supervise::enabled());
    assert!(stop_reason("attack/scan").is_none());
}
