//! Zero-dependency observability: hierarchical spans, monotonically-timed
//! events, and typed counters, drained to a JSONL trace file.
//!
//! The paper's evaluation is a grid of long-running train/attack/defend
//! loops; when a cell stalls or converges to garbage, final numbers alone
//! cannot say *where* the time or the divergence came from. This crate is
//! the substrate every layer hangs its instrumentation on:
//!
//! * **Spans** ([`span!`]) — RAII guards with per-thread parent tracking.
//!   A span emits an `open` record on creation and a `close` record on
//!   drop; nesting is the thread's lexical guard nesting.
//! * **Events** ([`event!`]) — point-in-time records with typed fields
//!   (the per-epoch training timeline, per-perturbation attack steps).
//! * **Counters** ([`counter`]) — monotone named totals (edges flipped,
//!   SpMM calls, retries, early-stops), aggregated per-thread and drained
//!   as `ctr` records when a thread's outermost span closes, the thread
//!   exits, or [`flush`] is called.
//! * **Kernel timers** ([`kernel_timer`]) — per-kernel call-count and
//!   wall-time aggregates cheap enough for the matmul/SpMM hot paths
//!   (one `HashMap` bump per call; no record per call).
//! * **Live mirror** ([`live`]) — an opt-in process-wide mirror of
//!   counter totals for in-process progress snapshots (`bbgnn-serve`
//!   polls it); works with or without a trace sink and never changes
//!   what the sink receives.
//!
//! ## Overhead contract
//!
//! Tracing is **disabled by default** and every entry point first performs
//! a single relaxed atomic load. Disabled, a span is a no-op struct, an
//! event macro short-circuits before evaluating its fields, and a kernel
//! timer never reads the clock — the instrumented kernels regress by well
//! under the 3% budget (CI enforces this against `BENCH_kernels.json`).
//! Tracing **observes only**: enabling it never changes a result byte.
//!
//! ## Enabling
//!
//! Set `BBGNN_TRACE=/path/to/trace.jsonl` (honored by
//! [`init_from_env`], which every experiment binary calls via its config
//! parser) or pass `--trace path` to a bench binary. The `trace_report`
//! binary aggregates a trace into per-phase self/total-time tables and
//! per-epoch training curves.
//!
//! ## Schema (one JSON object per line, hand-rolled like the checkpoint
//! format — no serde)
//!
//! | record | fields |
//! |---|---|
//! | `{"t":"open", "id":N, "par":P, "tid":T, "us":U, "name":"...", "f":{...}}` | span start; `par` 0 = root |
//! | `{"t":"close","id":N, "tid":T, "us":U}` | span end |
//! | `{"t":"ev",  "name":"...", "span":N, "tid":T, "us":U, "f":{...}}` | event inside span `N` (0 = none) |
//! | `{"t":"ctr", "name":"...", "tid":T, "add":D}` | counter increment total |
//! | `{"t":"ctr", "name":"...", "tid":T, "calls":C, "ns":W}` | kernel timer aggregate |
//!
//! Timestamps `us` are microseconds since trace init (monotonic,
//! `Instant`-based). Span ids are process-unique; parents are tracked per
//! thread (a span opened on a worker thread roots at `par: 0`).

#![deny(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Fast-path gate: one relaxed load decides every entry point. Derived —
/// true iff sink-backed tracing ([`TRACE_ON`]) or the live mirror
/// ([`LIVE`]) is on; [`recompute_gate`] keeps it in sync.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Sink-backed tracing requested ([`init_to_writer`] / [`shutdown`]).
static TRACE_ON: AtomicBool = AtomicBool::new(false);
/// Live-mirror requested ([`live::enable`] / [`live::disable`]).
static LIVE: AtomicBool = AtomicBool::new(false);
/// Process-wide counter totals mirrored for [`live::snapshot`].
static LIVE_TOTALS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

/// Re-derives the fast-path gate from the two opt-in switches.
fn recompute_gate() {
    ENABLED.store(
        TRACE_ON.load(Ordering::SeqCst) || LIVE.load(Ordering::SeqCst),
        Ordering::SeqCst,
    );
}
/// Bumped on every (re)init/shutdown so guards outliving a sink stay quiet.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// Process-unique span ids; 0 is reserved for "no span".
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
/// Small dense per-thread ids for the `tid` field.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// The active sink, if any.
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);
/// Monotonic time base shared by every record.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// A typed field value for span/event records.
///
/// JSON has no non-finite numbers; NaN/inf floats serialize as `null`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U(u64),
    /// Signed integer.
    I(i64),
    /// Float (non-finite renders as `null`).
    F(f64),
    /// String.
    S(String),
    /// Boolean.
    B(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::B(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::S(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::S(v)
    }
}

fn write_json_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::U(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::F(_) => out.push_str("null"),
        Value::S(s) => write_json_escaped(out, s),
        Value::B(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

fn write_fields(out: &mut String, fields: &[(&str, Value)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_escaped(out, k);
        out.push(':');
        write_value(out, v);
    }
    out.push('}');
}

/// Per-thread trace state: span stack, counter aggregates, thread id.
struct ThreadState {
    tid: u64,
    stack: Vec<u64>,
    counters: HashMap<&'static str, u64>,
    kernels: HashMap<&'static str, (u64, u64)>, // (calls, ns)
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            counters: HashMap::new(),
            kernels: HashMap::new(),
        }
    }

    /// Emits `ctr` records for every non-zero aggregate and clears them.
    /// When the live mirror is on, the counter totals are additionally
    /// folded into [`LIVE_TOTALS`] — the record bytes are unchanged.
    fn drain_counters(&mut self) {
        if self.counters.is_empty() && self.kernels.is_empty() {
            return;
        }
        if LIVE.load(Ordering::Relaxed) && !self.counters.is_empty() {
            if let Ok(mut totals) = LIVE_TOTALS.lock() {
                for (name, add) in &self.counters {
                    *totals.entry(name).or_insert(0) += add;
                }
            }
        }
        let mut lines = String::new();
        // Deterministic order keeps traces easy to diff.
        let mut names: Vec<&&'static str> = self.counters.keys().collect();
        names.sort_unstable();
        for name in names {
            let add = self.counters[name];
            let _ = write!(lines, "{{\"t\":\"ctr\",\"name\":");
            write_json_escaped(&mut lines, name);
            let _ = writeln!(lines, ",\"tid\":{},\"add\":{add}}}", self.tid);
        }
        let mut knames: Vec<&&'static str> = self.kernels.keys().collect();
        knames.sort_unstable();
        for name in knames {
            let (calls, ns) = self.kernels[name];
            let _ = write!(lines, "{{\"t\":\"ctr\",\"name\":");
            write_json_escaped(&mut lines, name);
            let _ = writeln!(
                lines,
                ",\"tid\":{},\"calls\":{calls},\"ns\":{ns}}}",
                self.tid
            );
        }
        self.counters.clear();
        self.kernels.clear();
        write_raw(&lines);
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        // Scoped worker threads die at the end of every parallel region;
        // their aggregates must reach the sink without an explicit flush.
        if enabled() {
            self.drain_counters();
        }
    }
}

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState::new());
}

/// Microseconds since trace init on the monotonic clock.
fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Appends pre-formatted record text (may hold several lines) to the sink.
fn write_raw(text: &str) {
    if text.is_empty() {
        return;
    }
    if let Ok(mut guard) = SINK.lock() {
        if let Some(out) = guard.as_mut() {
            // Best-effort: a full disk must not take the experiment down.
            let _ = out.write_all(text.as_bytes());
        }
    }
}

/// Whether tracing is currently enabled (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Routes the trace to an arbitrary writer (tests use an in-memory buffer).
pub fn init_to_writer(out: Box<dyn Write + Send>) {
    flush();
    if let Ok(mut guard) = SINK.lock() {
        *guard = Some(out);
    }
    EPOCH.get_or_init(Instant::now);
    GENERATION.fetch_add(1, Ordering::SeqCst);
    TRACE_ON.store(true, Ordering::SeqCst);
    recompute_gate();
}

/// Opens (truncating) `path` as the JSONL trace sink and enables tracing.
pub fn init_to_path(path: &str) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    init_to_writer(Box::new(file));
    Ok(())
}

/// Enables tracing when `BBGNN_TRACE` names a path; returns whether
/// tracing is now on. A path that cannot be created is reported on stderr
/// and tracing stays off (observability must never kill an experiment).
pub fn init_from_env() -> bool {
    match std::env::var("BBGNN_TRACE") {
        Ok(path) if !path.trim().is_empty() => match init_to_path(path.trim()) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("warning: BBGNN_TRACE={path}: {e}; tracing disabled");
                false
            }
        },
        _ => enabled(),
    }
}

/// Drains the calling thread's counter aggregates into the sink (and the
/// live mirror) without flushing the sink. Pool workers call this at the
/// end of their closure: the thread-exit drain runs in a TLS destructor,
/// which may run only after `thread::scope` has returned to the caller.
pub fn drain_thread() {
    if !enabled() {
        return;
    }
    let _ = TLS.try_with(|tls| {
        if let Ok(mut t) = tls.try_borrow_mut() {
            t.drain_counters();
        }
    });
}

/// Drains the calling thread's counter aggregates and flushes the sink.
pub fn flush() {
    if !enabled() {
        return;
    }
    drain_thread();
    if let Ok(mut guard) = SINK.lock() {
        if let Some(out) = guard.as_mut() {
            let _ = out.flush();
        }
    }
}

/// Flushes, disables sink-backed tracing, and closes the sink. The live
/// mirror (if on) stays on: a server can stop writing a trace file without
/// losing its progress counters.
pub fn shutdown() {
    flush();
    TRACE_ON.store(false, Ordering::SeqCst);
    recompute_gate();
    GENERATION.fetch_add(1, Ordering::SeqCst);
    if let Ok(mut guard) = SINK.lock() {
        *guard = None;
    }
}

/// Opt-in in-process mirror of counter totals, for live progress
/// snapshots (the `bbgnn-serve` `GET /jobs/:id` endpoint reads it).
///
/// While enabled, every counter drain additionally folds the drained
/// totals into a process-wide map; [`snapshot`](live::snapshot) returns
/// the accumulated totals sorted by name. The mirror works with or
/// without a trace sink — enabling it turns the counter entry points on
/// (spans/events stay byte-identical when a sink *is* attached; without
/// one their records are formatted and dropped). Off (the default) it
/// costs nothing: the fast-path gate stays a single relaxed load.
pub mod live {
    use super::*;

    /// Turns the mirror on. Totals accumulate from this point.
    pub fn enable() {
        LIVE.store(true, Ordering::SeqCst);
        recompute_gate();
    }

    /// Turns the mirror off and clears the accumulated totals.
    pub fn disable() {
        LIVE.store(false, Ordering::SeqCst);
        recompute_gate();
        reset();
    }

    /// Clears the accumulated totals (the mirror stays on if it was on).
    pub fn reset() {
        if let Ok(mut totals) = LIVE_TOTALS.lock() {
            totals.clear();
        }
    }

    /// Drains the calling thread's pending counter aggregates (exactly as
    /// [`flush`](super::flush) would) and returns every mirrored total,
    /// sorted by counter name. Counters bumped on *other* live threads
    /// appear once those threads drain — at their outermost span close,
    /// thread exit, or their own `flush`.
    pub fn snapshot() -> Vec<(&'static str, u64)> {
        if LIVE.load(Ordering::Relaxed) {
            drain_thread();
        }
        LIVE_TOTALS
            .lock()
            .map(|totals| totals.iter().map(|(&k, &v)| (k, v)).collect())
            .unwrap_or_default()
    }
}

/// RAII span guard: emits `open` on creation and `close` on drop.
///
/// Nesting is per thread: the span open at guard creation (on the same
/// thread) becomes the parent. Disabled tracing yields an inert guard.
#[must_use = "a span closes when dropped; bind it (`let _span = ...`)"]
pub struct Span {
    id: u64,
    generation: u64,
}

impl Span {
    /// An inert guard (tracing disabled).
    const INERT: Span = Span {
        id: 0,
        generation: 0,
    };

    /// The span's id, 0 when inert. Exposed for event correlation tests.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        if !enabled() || self.generation != GENERATION.load(Ordering::Relaxed) {
            return; // the sink this span opened on is gone
        }
        let us = now_us();
        TLS.with(|tls| {
            let Ok(mut t) = tls.try_borrow_mut() else {
                return;
            };
            // Guards drop LIFO within a thread; pop until this id is gone
            // to stay balanced even if an intermediate guard leaked.
            while let Some(top) = t.stack.pop() {
                if top == self.id {
                    break;
                }
            }
            let mut line = String::with_capacity(64);
            let _ = writeln!(
                line,
                "{{\"t\":\"close\",\"id\":{},\"tid\":{},\"us\":{us}}}",
                self.id, t.tid
            );
            let root_closed = t.stack.is_empty();
            if root_closed {
                // The outermost span just ended: piggyback the thread's
                // counter aggregates so traces are complete without an
                // explicit flush at process end.
                t.drain_counters();
            }
            write_raw(&line);
        });
    }
}

/// Opens a span with no fields. Prefer the [`span!`] macro.
pub fn span(name: &str) -> Span {
    span_fields(name, &[])
}

/// Opens a span with typed fields. Prefer the [`span!`] macro.
pub fn span_fields(name: &str, fields: &[(&str, Value)]) -> Span {
    if !enabled() {
        return Span::INERT;
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let us = now_us();
    TLS.with(|tls| {
        let Ok(mut t) = tls.try_borrow_mut() else {
            return;
        };
        let parent = t.stack.last().copied().unwrap_or(0);
        t.stack.push(id);
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"t\":\"open\",\"id\":{id},\"par\":{parent},\"tid\":{},\"us\":{us},\"name\":",
            t.tid
        );
        write_json_escaped(&mut line, name);
        if !fields.is_empty() {
            line.push_str(",\"f\":");
            write_fields(&mut line, fields);
        }
        line.push_str("}\n");
        write_raw(&line);
    });
    Span {
        id,
        generation: GENERATION.load(Ordering::Relaxed),
    }
}

/// Emits an event record inside the current span. Prefer the [`event!`]
/// macro, which skips field evaluation while tracing is disabled.
pub fn event(name: &str, fields: &[(&str, Value)]) {
    if !enabled() {
        return;
    }
    let us = now_us();
    TLS.with(|tls| {
        let Ok(t) = tls.try_borrow() else {
            return;
        };
        let span = t.stack.last().copied().unwrap_or(0);
        let mut line = String::with_capacity(96);
        let _ = write!(line, "{{\"t\":\"ev\",\"name\":");
        write_json_escaped(&mut line, name);
        let _ = write!(line, ",\"span\":{span},\"tid\":{},\"us\":{us}", t.tid);
        if !fields.is_empty() {
            line.push_str(",\"f\":");
            write_fields(&mut line, fields);
        }
        line.push_str("}\n");
        write_raw(&line);
    });
}

/// Adds `delta` to the named counter (aggregated per thread, drained as a
/// `ctr` record — see the module docs for when).
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    TLS.with(|tls| {
        if let Ok(mut t) = tls.try_borrow_mut() {
            *t.counters.entry(name).or_insert(0) += delta;
        }
    });
}

/// Wall-time guard for a kernel invocation: on drop, adds one call and the
/// elapsed nanoseconds to the named kernel aggregate. Inert (never reads
/// the clock) while tracing is disabled.
#[must_use = "the timer records on drop; bind it (`let _t = ...`)"]
pub struct KernelTimer {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for KernelTimer {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        if !enabled() {
            return;
        }
        let ns = start.elapsed().as_nanos() as u64;
        TLS.with(|tls| {
            if let Ok(mut t) = tls.try_borrow_mut() {
                let e = t.kernels.entry(self.name).or_insert((0, 0));
                e.0 += 1;
                e.1 += ns;
            }
        });
    }
}

/// Starts a kernel timer (see [`KernelTimer`]).
#[inline]
pub fn kernel_timer(name: &'static str) -> KernelTimer {
    KernelTimer {
        name,
        start: enabled().then(Instant::now),
    }
}

/// Opens a [`Span`]: `span!("peega/step")` or
/// `span!("bench/cell", key = "cora/PEEGA", attempt = 1u64)`.
///
/// Field values go through [`Value::from`]; field names are the bare
/// identifiers. Returns the guard — bind it to a local.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::span_fields($name, &[$((stringify!($k), $crate::Value::from($v))),+])
        } else {
            $crate::span($name) // inert: enabled() re-checked inside
        }
    };
}

/// Emits an event: `event!("train/epoch", epoch = e, loss = l)`. Field
/// expressions are not evaluated while tracing is disabled.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::event($name, &[$((stringify!($k), $crate::Value::from($v))),*]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Tests share one global sink; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Takes [`TEST_LOCK`], tolerating poison: one failing test must not
    /// cascade into every later one.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn capture(f: impl FnOnce()) -> String {
        let buf = SharedBuf::default();
        init_to_writer(Box::new(buf.clone()));
        f();
        shutdown();
        buf.text()
    }

    #[test]
    fn disabled_tracing_is_inert_and_emits_nothing() {
        let _g = locked();
        shutdown();
        assert!(!enabled());
        let s = span!("quiet", x = 1u64);
        assert_eq!(s.id(), 0);
        drop(s);
        event!("quiet/event", y = 2.0);
        counter("quiet/ctr", 5);
        let _t = kernel_timer("quiet/kernel");
    }

    #[test]
    fn spans_nest_and_balance_with_fields_and_counters() {
        let _g = locked();
        let text = capture(|| {
            let outer = span!("outer", kind = "test");
            assert_ne!(outer.id(), 0);
            {
                let _inner = span!("inner");
                event!("tick", step = 3usize, loss = 0.5, bad = f64::NAN);
                counter("edges_flipped", 2);
                counter("edges_flipped", 1);
                let _t = kernel_timer("kernel/matmul");
            }
            drop(outer);
        });
        let lines: Vec<&str> = text.lines().collect();
        let opens = lines
            .iter()
            .filter(|l| l.contains("\"t\":\"open\""))
            .count();
        let closes = lines
            .iter()
            .filter(|l| l.contains("\"t\":\"close\""))
            .count();
        assert_eq!(opens, 2);
        assert_eq!(closes, 2);
        // Nesting: the inner span's parent is the outer span's id.
        assert!(lines[0].contains("\"par\":0"));
        assert!(lines[1].contains("\"name\":\"inner\""));
        assert!(!lines[1].contains("\"par\":0"));
        // NaN fields render as null, not as invalid JSON.
        let ev = lines.iter().find(|l| l.contains("\"t\":\"ev\"")).unwrap();
        assert!(ev.contains("\"bad\":null"), "NaN must render null: {ev}");
        assert!(ev.contains("\"step\":3"));
        // Counters drained when the root span closed, with summed totals.
        let ctr = lines
            .iter()
            .find(|l| l.contains("edges_flipped"))
            .expect("counter drained at root close");
        assert!(ctr.contains("\"add\":3"), "2+1 must aggregate: {ctr}");
        assert!(
            lines
                .iter()
                .any(|l| l.contains("kernel/matmul") && l.contains("\"calls\":1")),
            "kernel aggregate missing: {text}"
        );
    }

    #[test]
    fn worker_threads_drain_counters_on_exit() {
        let _g = locked();
        let text = capture(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    counter("worker/work", 7);
                    drain_thread();
                });
            });
        });
        assert!(
            text.contains("worker/work") && text.contains("\"add\":7"),
            "worker-thread counters must reach the sink once drained: {text}"
        );
    }

    #[test]
    fn strings_are_json_escaped() {
        let _g = locked();
        let text = capture(|| {
            event!("weird", msg = "a\"b\\c\nd");
        });
        assert!(text.contains(r#""msg":"a\"b\\c\nd""#), "bad escape: {text}");
    }

    #[test]
    fn live_mirror_accumulates_without_a_sink() {
        let _g = locked();
        shutdown();
        live::enable();
        live::reset();
        counter("live/a", 2);
        counter("live/a", 3);
        counter("live/b", 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                counter("live/a", 10);
                drain_thread();
            });
        });
        let snap = live::snapshot();
        assert_eq!(snap, vec![("live/a", 15), ("live/b", 1)]);
        // Totals persist across snapshots and keep accumulating.
        counter("live/b", 4);
        assert_eq!(live::snapshot(), vec![("live/a", 15), ("live/b", 5)]);
        live::disable();
        assert!(!enabled(), "gate must drop once both switches are off");
        assert!(live::snapshot().is_empty(), "disable clears the mirror");
    }

    #[test]
    fn live_mirror_survives_trace_shutdown_and_keeps_bytes_identical() {
        let _g = locked();
        live::enable();
        live::reset();
        let with_live = capture(|| {
            counter("live/traced", 6);
        });
        // The mirror saw the total, and the trace record is the same as a
        // mirror-free run would write.
        assert_eq!(live::snapshot(), vec![("live/traced", 6)]);
        assert!(enabled(), "live keeps the gate on after sink shutdown");
        live::disable();
        let without_live = capture(|| {
            counter("live/traced", 6);
        });
        assert_eq!(
            with_live, without_live,
            "the live mirror must not change trace bytes"
        );
    }
}
