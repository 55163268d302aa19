//! SIGINT/SIGTERM → cooperative cancellation.
//!
//! The experiment binaries install this once at startup (via
//! `ExpConfig::init_from`). The handler does exactly one async-signal-safe
//! thing: cancel the root scope with relaxed atomic stores
//! ([`crate::request_cancel`]). Every supervised loop then winds
//! down at its next deterministic check site, the harness flushes the
//! current checkpoint, and the binary exits cleanly with a
//! degraded-summary line instead of dying mid-write. A second signal does
//! not escalate; a genuinely hung process still answers to SIGKILL.
//!
//! The binding is hand-rolled (`signal(2)` from libc, which every
//! supported unix links anyway) because the workspace vendors no FFI
//! crates. Non-unix builds compile [`install`] to a no-op.

/// Installs the SIGINT/SIGTERM cancellation handlers. Idempotent;
/// best-effort (a failed installation leaves default signal behavior,
/// which is no worse than before this layer existed).
#[cfg(unix)]
pub fn install() {
    /// `SIGINT` on every unix the workspace targets.
    const SIGINT: i32 = 2;
    /// `SIGTERM` likewise.
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: relaxed atomic stores only.
        crate::request_cancel();
    }

    extern "C" {
        /// `signal(2)`. The true return type is the previous handler
        /// (`void (*)(int)`); it is received as `usize` here and ignored,
        /// which is ABI-compatible on every supported unix (function
        /// pointers and `usize` share a return register).
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    // SAFETY: `signal` is the C standard library's handler registration.
    // The handler we register only performs relaxed atomic stores on the
    // `AtomicBool` fields of the `static` root scope (async-signal-safe:
    // no allocation, no locks, no reentrancy into Rust runtime
    // machinery), and it stays valid for the life of the process because
    // it is a plain `extern "C" fn` item.
    unsafe {
        let _ = signal(SIGINT, on_signal);
        let _ = signal(SIGTERM, on_signal);
    }
}

/// No-op on non-unix targets (cancellation is still reachable through
/// [`crate::request_cancel`]).
#[cfg(not(unix))]
pub fn install() {}

#[cfg(test)]
mod tests {
    // The handler itself is exercised end-to-end by the chaos suite
    // (bench/tests) against a child process; installing handlers inside
    // the unit-test harness would swallow the harness's own Ctrl-C.
    #[test]
    fn install_is_callable_shape() {
        // Type-check only: taking the function pointer proves the symbol
        // exists on this target without mutating process signal state.
        let _f: fn() = super::install;
    }
}
