//! Blocked, multi-threaded execution kernels and the [`ExecContext`]
//! workspace arena.
//!
//! Every experiment in the paper — PEEGA's perturbation-effect scoring,
//! Metattack's meta-gradients, GNAT/Pro-GNN training — bottoms out in dense
//! matmul and SpMM. This module is the single place those products are
//! computed:
//!
//! * [`matmul_into`] / [`matmul_tn_into`] / [`matmul_nt_into`] — cache
//!   blocked (tiled) dense products, row-partitioned across a hand-rolled
//!   scoped [`ThreadPool`] built on `std::thread` only.
//! * [`spmm_into`] — row-partitioned sparse × dense product.
//! * [`Workspace`] — a buffer arena keyed by exact length so hot paths
//!   (autodiff tape epochs, attack candidate loops) reuse allocations
//!   instead of hitting the global allocator per op.
//! * [`ExecContext`] — bundles a pool and a workspace; shared via
//!   `Rc<ExecContext>` through the autodiff tape, GNN training loops, and
//!   attacker surrogate-gradient loops.
//!
//! # Determinism contract
//!
//! All kernels are **bitwise deterministic in the thread count**: an
//! `N`-thread run, a 1-thread run, and the naive reference loops
//! ([`matmul_ref`] and friends) produce bit-identical outputs. This holds
//! because threads partition only *disjoint output rows* and, for every
//! output element, the floating-point accumulation order over the inner
//! dimension is the same ascending-`k` order the reference kernels use.
//! No reduction ever crosses a thread boundary. Consequently
//! `BBGNN_THREADS=1` and `BBGNN_THREADS=64` runs of any experiment produce
//! byte-identical checkpoints, tables, and figures.
//!
//! `spmm_t` (the backward pass of SpMM) scatters into output rows indexed
//! by *column*, so disjoint row partitioning does not apply; it stays
//! sequential by design rather than trade determinism for atomics.
//!
//! # Thread count
//!
//! [`env_threads`] reads `BBGNN_THREADS` once per process (cached), falling
//! back to the machine's available parallelism. Invalid or zero values fall
//! back to the default; `bench::config` additionally validates the variable
//! strictly for experiment binaries.

use crate::{CsrMatrix, DenseMatrix};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::OnceLock;

/// k-dimension tile so a block of `b` rows stays in cache across the band.
pub const BLOCK_K: usize = 128;
/// j-dimension tile bounding the working set of wide right-hand sides.
pub const BLOCK_J: usize = 512;

/// Minimum flop count before a kernel fans out across threads; below this
/// the `thread::scope` spawn cost dominates.
const PAR_MIN_FLOPS: usize = 1 << 20;

/// Minimum items per worker chunk in [`ThreadPool::map_fold`]; smaller
/// scans run sequentially.
const MIN_CHUNK_ITEMS: usize = 1024;

/// Default thread count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Thread count from the `BBGNN_THREADS` env var, read once per process.
///
/// Unset, unparsable, or zero values fall back to [`default_threads`].
/// Because the value is cached, changing the variable mid-process has no
/// effect; pass an explicit count to [`ExecContext::new`] instead.
pub fn env_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("BBGNN_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(default_threads)
    })
}

/// Deterministic `fault/pool_panic` injection site (DESIGN.md §11): run as
/// the first statement of every spawned pool worker. When the installed
/// fault plan says this invocation fires, the worker panics — the panic
/// propagates through `thread::scope` to the calling thread, where the
/// harness's cell boundary converts it to `ExperimentAborted` (never a
/// hang). One relaxed load when no fault plan is installed.
#[inline]
fn maybe_injected_worker_panic() {
    if bbgnn_supervise::fault_at("fault/pool_panic").is_some() {
        // lint: allow(panic) reason=deterministic chaos-test injection site; fires only under an explicit BBGNN_FAULTS plan and must propagate as a worker panic
        panic!("injected fault: pool worker panic (fault/pool_panic)");
    }
}

/// A hand-rolled scoped thread pool.
///
/// Workers are spawned per parallel region with `std::thread::scope`, which
/// keeps the pool dependency-free and lifetime-safe (no `unsafe`, no
/// channels): borrowed inputs flow into worker closures directly. Spawn
/// cost is a few microseconds per region, negligible against the
/// megaflop-scale regions gated by the work thresholds.
///
/// Pool regions are *accounting* sites for the supervision layer
/// (fault injection, workspace memory high-water marks), not stop sites:
/// a region that has started always runs to completion, because stopping
/// mid-region would change which bits a completing kernel writes and
/// break the determinism contract. Cancellation and budget checks live at
/// the loop boundaries *around* kernel calls (epochs, sweeps, restarts).
#[derive(Clone, Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool running work on `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `out` — a row-major `rows × row_len` buffer — into contiguous
    /// per-worker row bands and runs `body(first_row, band)` on each band
    /// concurrently. With `parallel == false` (or one worker) the single
    /// band is the whole buffer, run on the calling thread.
    ///
    /// Bands are disjoint, so `body` needs no synchronization; output
    /// placement is identical for every worker count.
    pub fn for_each_row_band<F>(&self, out: &mut [f64], row_len: usize, parallel: bool, body: F)
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        let rows = out.len().checked_div(row_len).unwrap_or(0);
        let workers = if parallel {
            self.threads.min(rows.max(1))
        } else {
            1
        };
        if workers <= 1 {
            body(0, out);
            return;
        }
        // Worker utilization: per-worker busy time lands in each scoped
        // thread's counter aggregate, drained explicitly at the end of
        // the worker (a TLS-destructor drain may land after the region
        // returns); region wall time accrues on the calling thread.
        // Report-side, utilization = busy_ns / (region_ns * threads).
        let traced = bbgnn_obs::enabled();
        let region = bbgnn_obs::kernel_timer("pool/region");
        // Pool workers inherit the submitting thread's supervision scope,
        // so check sites reached from inside a region (the GF-Attack
        // eigensolver exception, §11) observe the right tenant.
        let supervision = bbgnn_supervise::current_scope();
        let band = rows.div_ceil(workers);
        std::thread::scope(|scope| {
            for (b, chunk) in out.chunks_mut(band * row_len).enumerate() {
                let body = &body;
                let supervision = supervision.as_ref();
                scope.spawn(move || {
                    maybe_injected_worker_panic();
                    let _scope = supervision.map(bbgnn_supervise::enter);
                    {
                        let _busy = traced.then(|| bbgnn_obs::kernel_timer("pool/worker_busy"));
                        body(b * band, chunk);
                    }
                    bbgnn_obs::drain_thread();
                });
            }
        });
        drop(region);
    }

    /// Deterministic parallel map-reduce over `0..items`.
    ///
    /// `map` runs on contiguous index ranges (one per worker); the partial
    /// results are folded **in ascending chunk order** on the calling
    /// thread, so any `fold` that is associative over adjacent ranges —
    /// e.g. a first-max argmax with strict `>` — yields the exact
    /// sequential result regardless of worker count. Scans smaller than a
    /// chunk threshold run sequentially. Returns `None` when `items == 0`.
    pub fn map_fold<T, M, F>(&self, items: usize, map: M, fold: F) -> Option<T>
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        F: FnMut(T, T) -> T,
    {
        self.map_fold_chunked(items, MIN_CHUNK_ITEMS, map, fold)
    }

    /// [`map_fold`](Self::map_fold) for heavyweight items: every worker
    /// gets a chunk regardless of the item count. Use when a single item
    /// is itself expensive (a spectral recomputation, a model retrain)
    /// so the per-spawn cost is negligible against the item cost. Same
    /// determinism contract as `map_fold`.
    pub fn map_fold_coarse<T, M, F>(&self, items: usize, map: M, fold: F) -> Option<T>
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        F: FnMut(T, T) -> T,
    {
        self.map_fold_chunked(items, 1, map, fold)
    }

    fn map_fold_chunked<T, M, F>(
        &self,
        items: usize,
        min_chunk: usize,
        map: M,
        mut fold: F,
    ) -> Option<T>
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        F: FnMut(T, T) -> T,
    {
        if items == 0 {
            return None;
        }
        let workers = self
            .threads
            .min(items.div_ceil(min_chunk.max(1)))
            .clamp(1, items);
        if workers == 1 {
            return Some(map(0..items));
        }
        let chunk = items.div_ceil(workers);
        let mut bounds = Vec::with_capacity(workers);
        let mut lo = 0;
        while lo < items {
            let hi = (lo + chunk).min(items);
            bounds.push(lo..hi);
            lo = hi;
        }
        let traced = bbgnn_obs::enabled();
        let _region = bbgnn_obs::kernel_timer("pool/region");
        // Same scope propagation as `for_each_row_band`: map closures may
        // reach supervised check sites (GF-Attack rescoring, §11).
        let supervision = bbgnn_supervise::current_scope();
        let parts: Vec<T> = std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .into_iter()
                .map(|range| {
                    let map = &map;
                    let supervision = supervision.as_ref();
                    scope.spawn(move || {
                        maybe_injected_worker_panic();
                        let _scope = supervision.map(bbgnn_supervise::enter);
                        let part = {
                            let _busy = traced.then(|| bbgnn_obs::kernel_timer("pool/worker_busy"));
                            map(range)
                        };
                        bbgnn_obs::drain_thread();
                        part
                    })
                })
                .collect();
            handles
                .into_iter()
                // lint: allow(panic) reason=a worker panic is already a bug in the map closure; re-raising on the caller thread is the only sound option (a default value would silently poison the deterministic fold)
                .map(|h| h.join().expect("kernel worker panicked"))
                .collect()
        });
        let mut it = parts.into_iter();
        let first = it.next()?;
        Some(it.fold(first, &mut fold))
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::new(env_threads())
    }
}

// ---------------------------------------------------------------------------
// Reference kernels (naive single-threaded loops).
// ---------------------------------------------------------------------------

/// Naive `ikj` reference matmul — the loop the blocked kernel must match
/// bitwise. Kept for parity tests and the kernel microbenchmark.
pub fn matmul_ref(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(ka, kb, "matmul dimension mismatch: {m}x{ka} * {kb}x{n}");
    let mut out = DenseMatrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (k, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            for j in 0..n {
                out_row[j] += aik * b_row[j];
            }
        }
    }
    out
}

/// Naive reference for `a^T * b`.
pub fn matmul_tn_ref(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, c) = a.shape();
    assert_eq!(m, b.rows(), "matmul_tn dimension mismatch");
    let n = b.cols();
    let mut out = DenseMatrix::zeros(c, n);
    for k in 0..m {
        let a_row = a.row(k);
        let b_row = b.row(k);
        for (i, &aki) in a_row.iter().enumerate() {
            if aki == 0.0 {
                continue;
            }
            let out_row = out.row_mut(i);
            for j in 0..n {
                out_row[j] += aki * b_row[j];
            }
        }
    }
    out
}

/// Naive reference for `a * b^T`.
pub fn matmul_nt_ref(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, c) = a.shape();
    assert_eq!(c, b.cols(), "matmul_nt dimension mismatch");
    let r = b.rows();
    let mut out = DenseMatrix::zeros(m, r);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = b.row(j);
            let mut acc = 0.0;
            for k in 0..c {
                acc += a_row[k] * b_row[k];
            }
            *o = acc;
        }
    }
    out
}

/// Naive reference for sparse × dense `s * b`.
pub fn spmm_ref(s: &CsrMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(s.cols(), b.rows(), "spmm dimension mismatch");
    let n = b.cols();
    let mut out = DenseMatrix::zeros(s.rows(), n);
    for i in 0..s.rows() {
        let out_row = out.row_mut(i);
        for (c, v) in s.row_iter(i) {
            let b_row = b.row(c);
            for j in 0..n {
                out_row[j] += v * b_row[j];
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Blocked / threaded kernels.
// ---------------------------------------------------------------------------

/// Width of the register tile: output elements held in local accumulators
/// across a whole `k` block, so the output row is loaded and stored once per
/// `(k` block, tile`)` instead of once per `k` step. 8 doubles = two AVX2
/// vectors of accumulators, leaving registers free for the `b` stream.
const TILE_J: usize = 8;

/// Register-tiled row update: `out_row[j0..j1] += a_blk · b_blk[.., j0..j1]`
/// where `a_blk` is a contiguous `k` segment of one `a` row and `b_blk`
/// holds the matching `b` rows (stride `n`, starting at the segment's first
/// row). A tile of [`TILE_J`] output elements stays in local accumulators
/// across the whole segment. Per output element the accumulation is still
/// ascending-`k` with the same `aik == 0.0` skip as [`matmul_ref`], so the
/// result is bitwise identical to the naive loop.
#[inline]
fn saxpy_row_block(
    a_blk: &[f64],
    b_blk: &[f64],
    out_row: &mut [f64],
    n: usize,
    j0: usize,
    j1: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just checked (std caches the CPUID
            // probe), which discharges the `#[target_feature]` obligation —
            // the callee body is safe code whose accesses are all
            // bounds-checked slice ops on the caller's disjoint output row.
            // The AVX2 build of the kernel only widens the lanes the
            // compiler may use across *different* output elements; the
            // per-element operation sequence is unchanged and rustc never
            // contracts mul+add into FMA, so the result is bitwise
            // identical to the scalar build.
            unsafe { saxpy_row_block_avx2(a_blk, b_blk, out_row, n, j0, j1) };
            return;
        }
    }
    saxpy_row_block_impl(a_blk, b_blk, out_row, n, j0, j1);
}

/// The tile kernel compiled with AVX2 codegen enabled, dispatched at
/// runtime by [`saxpy_row_block`]. Same source, wider vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe` only because of `#[target_feature]` — the body is the
// safe `saxpy_row_block_impl`, whose every access is slice-indexed
// (bounds-checked): `b_blk.chunks_exact(n)` never reads past `b_blk`, and
// `out_row[j..j + TILE_J]` panics rather than overruns if a caller passes
// an undersized row. The caller's only obligation is AVX2 support, checked
// at the single dispatch site.
unsafe fn saxpy_row_block_avx2(
    a_blk: &[f64],
    b_blk: &[f64],
    out_row: &mut [f64],
    n: usize,
    j0: usize,
    j1: usize,
) {
    saxpy_row_block_impl(a_blk, b_blk, out_row, n, j0, j1);
}

/// Rows processed together by the quad-row kernel. Four rows × [`TILE_J`]
/// columns gives eight independent vector accumulator chains — enough to
/// hide FP add latency on one core — and amortizes each `b` tile load over
/// four rows.
const TILE_R: usize = 4;

/// Quad-row register-tiled update: `out4` holds [`TILE_R`] consecutive
/// output rows (contiguous, stride `n`), `a_blks` the matching `k` segments
/// of the four `a` rows. Each output element still accumulates in
/// ascending-`k` order with the reference's zero skip — bitwise identical
/// to four successive [`saxpy_row_block`] calls.
#[inline]
fn saxpy_quad_block(
    a_blks: [&[f64]; TILE_R],
    b_blk: &[f64],
    out4: &mut [f64],
    n: usize,
    j0: usize,
    j1: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just checked (std caches the CPUID
            // probe), which discharges the `#[target_feature]` obligation —
            // the callee body is safe code indexing only the caller's four
            // disjoint-band output rows through bounds-checked slice ops;
            // see `saxpy_row_block` for why codegen width cannot change the
            // bits.
            unsafe { saxpy_quad_block_avx2(a_blks, b_blk, out4, n, j0, j1) };
            return;
        }
    }
    saxpy_quad_block_impl(a_blks, b_blk, out4, n, j0, j1);
}

/// The quad-row kernel compiled with AVX2 codegen enabled, dispatched at
/// runtime by [`saxpy_quad_block`]. Same source, wider vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe` only because of `#[target_feature]` — the body is the
// safe `saxpy_quad_block_impl`: `out4` is indexed with `q * n + j` for
// `q < TILE_R`, `j + TILE_J <= j1 <= n`, all through bounds-checked slice
// ops, and the four `a_blks` rows come from the caller's disjoint row
// band, so no access can alias another worker's rows. The caller's only
// obligation is AVX2 support, checked at the single dispatch site.
unsafe fn saxpy_quad_block_avx2(
    a_blks: [&[f64]; TILE_R],
    b_blk: &[f64],
    out4: &mut [f64],
    n: usize,
    j0: usize,
    j1: usize,
) {
    saxpy_quad_block_impl(a_blks, b_blk, out4, n, j0, j1);
}

#[inline(always)]
fn saxpy_quad_block_impl(
    a_blks: [&[f64]; TILE_R],
    b_blk: &[f64],
    out4: &mut [f64],
    n: usize,
    j0: usize,
    j1: usize,
) {
    let mut j = j0;
    while j + TILE_J <= j1 {
        let mut acc = [[0.0f64; TILE_J]; TILE_R];
        for (q, acc_q) in acc.iter_mut().enumerate() {
            acc_q.copy_from_slice(&out4[q * n + j..q * n + j + TILE_J]);
        }
        for (k, b_row) in b_blk.chunks_exact(n).enumerate() {
            // lint: allow(panic) reason=the loop guard pins j + TILE_J <= j1 <= n, so the slice is exactly TILE_J long and the conversion cannot fail
            let b: &[f64; TILE_J] = b_row[j..j + TILE_J].try_into().unwrap();
            for (q, acc_q) in acc.iter_mut().enumerate() {
                let aik = a_blks[q][k];
                if aik == 0.0 {
                    continue;
                }
                for t in 0..TILE_J {
                    acc_q[t] += aik * b[t];
                }
            }
        }
        for (q, acc_q) in acc.iter().enumerate() {
            out4[q * n + j..q * n + j + TILE_J].copy_from_slice(acc_q);
        }
        j += TILE_J;
    }
    if j < j1 {
        for (q, a_blk) in a_blks.iter().enumerate() {
            for (&aik, b_row) in a_blk.iter().zip(b_blk.chunks_exact(n)) {
                if aik == 0.0 {
                    continue;
                }
                for (o, &bv) in out4[q * n + j..q * n + j1].iter_mut().zip(&b_row[j..j1]) {
                    *o += aik * bv;
                }
            }
        }
    }
}

#[inline(always)]
fn saxpy_row_block_impl(
    a_blk: &[f64],
    b_blk: &[f64],
    out_row: &mut [f64],
    n: usize,
    j0: usize,
    j1: usize,
) {
    let mut j = j0;
    while j + TILE_J <= j1 {
        let mut acc = [0.0f64; TILE_J];
        acc.copy_from_slice(&out_row[j..j + TILE_J]);
        for (&aik, b_row) in a_blk.iter().zip(b_blk.chunks_exact(n)) {
            if aik == 0.0 {
                continue;
            }
            // Fixed-size view: one length check, then check-free indexing
            // the compiler keeps entirely in vector registers.
            // lint: allow(panic) reason=the loop guard pins j + TILE_J <= j1 <= n, so the slice is exactly TILE_J long and the conversion cannot fail
            let b: &[f64; TILE_J] = b_row[j..j + TILE_J].try_into().unwrap();
            for t in 0..TILE_J {
                acc[t] += aik * b[t];
            }
        }
        out_row[j..j + TILE_J].copy_from_slice(&acc);
        j += TILE_J;
    }
    if j < j1 {
        for (&aik, b_row) in a_blk.iter().zip(b_blk.chunks_exact(n)) {
            if aik == 0.0 {
                continue;
            }
            for (o, &bv) in out_row[j..j1].iter_mut().zip(&b_row[j..j1]) {
                *o += aik * bv;
            }
        }
    }
}

/// Deterministic `fault/kernel_nan` injection site (DESIGN.md §11): when
/// the installed fault plan fires, one seeded-deterministically-chosen
/// entry of the kernel output is poisoned to NaN after the kernel
/// completes, exactly as a numeric overflow would surface. The NaN then
/// travels the normal divergence-detection path
/// (`BbgnnError::NumericalDivergence`). One relaxed load when off.
#[inline]
fn maybe_poison_kernel_output(out: &mut DenseMatrix) {
    if let Some(shot) = bbgnn_supervise::fault_at("fault/kernel_nan") {
        let idx = shot.pick(out.as_slice().len());
        if let Some(v) = out.as_mut_slice().get_mut(idx) {
            *v = f64::NAN;
        }
    }
}

/// Blocked, row-partitioned `out = a * b`.
///
/// `out` is fully overwritten (no pre-zeroing needed). Bitwise identical to
/// [`matmul_ref`] for every thread count: per output element the `k`
/// accumulation runs in ascending order with the same `aik == 0.0` skip
/// (adding `aik * b` for `aik == 0` is a bitwise no-op on a `+0.0`-seeded
/// accumulator, so the skip never changes a bit).
///
/// # Panics
/// Panics on shape mismatch between `a`, `b`, and `out`.
pub fn matmul_into(a: &DenseMatrix, b: &DenseMatrix, out: &mut DenseMatrix, pool: &ThreadPool) {
    let _t = bbgnn_obs::kernel_timer("kernel/matmul");
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(ka, kb, "matmul dimension mismatch: {m}x{ka} * {kb}x{n}");
    assert_eq!(out.shape(), (m, n), "matmul output shape mismatch");
    let parallel = 2usize
        .saturating_mul(m)
        .saturating_mul(ka)
        .saturating_mul(n)
        >= PAR_MIN_FLOPS;
    let adata = a.as_slice();
    let bdata = b.as_slice();
    pool.for_each_row_band(out.as_mut_slice(), n, parallel, |row0, band| {
        band.fill(0.0);
        if n == 0 {
            return;
        }
        let rows_here = band.len() / n;
        let mut k0 = 0;
        while k0 < ka {
            let k1 = (k0 + BLOCK_K).min(ka);
            let b_blk = &bdata[k0 * n..k1 * n];
            let mut j0 = 0;
            while j0 < n.max(1) {
                let j1 = (j0 + BLOCK_J).min(n);
                let a_blk = |r: usize| &adata[(row0 + r) * ka + k0..(row0 + r) * ka + k1];
                let mut r = 0;
                while r + TILE_R <= rows_here {
                    let out4 = &mut band[r * n..(r + TILE_R) * n];
                    saxpy_quad_block(
                        [a_blk(r), a_blk(r + 1), a_blk(r + 2), a_blk(r + 3)],
                        b_blk,
                        out4,
                        n,
                        j0,
                        j1,
                    );
                    r += TILE_R;
                }
                while r < rows_here {
                    let out_row = &mut band[r * n..(r + 1) * n];
                    saxpy_row_block(a_blk(r), b_blk, out_row, n, j0, j1);
                    r += 1;
                }
                j0 = j1.max(j0 + 1);
            }
            k0 = k1;
        }
    });
    maybe_poison_kernel_output(out);
}

/// Row-partitioned `out = a^T * b` without materializing the transpose.
///
/// Each output row is a column of `a`; the column is gathered into a
/// contiguous per-block buffer and fed to the same register-tiled kernel as
/// [`matmul_into`]. Per output element accumulation stays ascending in `k`
/// (blocks ascend, `k` ascends within a block) with the reference's zero
/// skip, so results are bitwise identical to [`matmul_tn_ref`] for every
/// thread count.
///
/// # Panics
/// Panics on shape mismatch.
pub fn matmul_tn_into(a: &DenseMatrix, b: &DenseMatrix, out: &mut DenseMatrix, pool: &ThreadPool) {
    let _t = bbgnn_obs::kernel_timer("kernel/matmul_tn");
    let (m, c) = a.shape();
    assert_eq!(m, b.rows(), "matmul_tn dimension mismatch");
    let n = b.cols();
    assert_eq!(out.shape(), (c, n), "matmul_tn output shape mismatch");
    let parallel = 2usize.saturating_mul(m).saturating_mul(c).saturating_mul(n) >= PAR_MIN_FLOPS;
    let adata = a.as_slice();
    let bdata = b.as_slice();
    pool.for_each_row_band(out.as_mut_slice(), n, parallel, |row0, band| {
        band.fill(0.0);
        if n == 0 {
            return;
        }
        let rows_here = band.len() / n;
        let mut k0 = 0;
        while k0 < m {
            let k1 = (k0 + BLOCK_K).min(m);
            let kb = k1 - k0;
            let b_blk = &bdata[k0 * n..k1 * n];
            let mut r0 = 0;
            while r0 < rows_here {
                let r1 = (r0 + TILE_J).min(rows_here);
                // Gather columns `row0 + r0 .. row0 + r1` of the `a` block in
                // one stride-`c` sweep — consecutive columns share cache
                // lines, so the sweep costs the same line traffic as a
                // single column.
                let mut a_cols = [0.0f64; TILE_J * BLOCK_K];
                for k in 0..kb {
                    let base = (k0 + k) * c + row0;
                    for (t, &v) in adata[base + r0..base + r1].iter().enumerate() {
                        a_cols[t * BLOCK_K + k] = v;
                    }
                }
                let a_col = |r: usize| &a_cols[(r - r0) * BLOCK_K..(r - r0) * BLOCK_K + kb];
                let mut r = r0;
                while r + TILE_R <= r1 {
                    let out4 = &mut band[r * n..(r + TILE_R) * n];
                    let mut j0 = 0;
                    while j0 < n.max(1) {
                        let j1 = (j0 + BLOCK_J).min(n);
                        saxpy_quad_block(
                            [a_col(r), a_col(r + 1), a_col(r + 2), a_col(r + 3)],
                            b_blk,
                            out4,
                            n,
                            j0,
                            j1,
                        );
                        j0 = j1.max(j0 + 1);
                    }
                    r += TILE_R;
                }
                while r < r1 {
                    let out_row = &mut band[r * n..(r + 1) * n];
                    let mut j0 = 0;
                    while j0 < n.max(1) {
                        let j1 = (j0 + BLOCK_J).min(n);
                        saxpy_row_block(a_col(r), b_blk, out_row, n, j0, j1);
                        j0 = j1.max(j0 + 1);
                    }
                    r += 1;
                }
                r0 = r1;
            }
            k0 = k1;
        }
    });
}

/// Row-partitioned `out = a * b^T` without materializing the transpose.
///
/// Each output element is an independent ascending-`k` dot product exactly
/// as in [`matmul_nt_ref`], so results are bitwise identical for every
/// thread count.
///
/// # Panics
/// Panics on shape mismatch.
pub fn matmul_nt_into(a: &DenseMatrix, b: &DenseMatrix, out: &mut DenseMatrix, pool: &ThreadPool) {
    let _t = bbgnn_obs::kernel_timer("kernel/matmul_nt");
    let (m, c) = a.shape();
    assert_eq!(c, b.cols(), "matmul_nt dimension mismatch");
    let r2 = b.rows();
    assert_eq!(out.shape(), (m, r2), "matmul_nt output shape mismatch");
    let parallel = 2usize
        .saturating_mul(m)
        .saturating_mul(c)
        .saturating_mul(r2)
        >= PAR_MIN_FLOPS;
    let adata = a.as_slice();
    let bdata = b.as_slice();
    pool.for_each_row_band(out.as_mut_slice(), r2, parallel, |row0, band| {
        if r2 == 0 {
            return;
        }
        for (r, out_row) in band.chunks_mut(r2).enumerate() {
            let a_row = &adata[(row0 + r) * c..(row0 + r) * c + c];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &bdata[j * c..(j + 1) * c];
                let mut acc = 0.0;
                for k in 0..c {
                    acc += a_row[k] * b_row[k];
                }
                *o = acc;
            }
        }
    });
}

/// Row-partitioned sparse × dense `out = s * b`.
///
/// CSR rows map one-to-one onto output rows, so bands are disjoint and the
/// per-row accumulation order (CSR column order) matches [`spmm_ref`]
/// exactly — bitwise identical for every thread count.
///
/// # Panics
/// Panics on shape mismatch.
pub fn spmm_into(s: &CsrMatrix, b: &DenseMatrix, out: &mut DenseMatrix, pool: &ThreadPool) {
    let _t = bbgnn_obs::kernel_timer("kernel/spmm");
    assert_eq!(s.cols(), b.rows(), "spmm dimension mismatch");
    let n = b.cols();
    assert_eq!(out.shape(), (s.rows(), n), "spmm output shape mismatch");
    let parallel = 2usize.saturating_mul(s.nnz()).saturating_mul(n) >= PAR_MIN_FLOPS;
    let bdata = b.as_slice();
    pool.for_each_row_band(out.as_mut_slice(), n, parallel, |row0, band| {
        band.fill(0.0);
        if n == 0 {
            return;
        }
        let rows_here = band.len() / n;
        for r in 0..rows_here {
            let out_row = &mut band[r * n..(r + 1) * n];
            // Register-tiled: a tile of the output row stays in local
            // accumulators across the whole nnz sweep, so `out_row` is
            // stored once per tile instead of updated once per nonzero.
            // Accumulation order per element is the CSR column order of
            // [`spmm_ref`] — bitwise identical.
            let mut j = 0;
            while j + TILE_J <= n {
                let mut acc = [0.0f64; TILE_J];
                for (c, v) in s.row_iter(row0 + r) {
                    let b = &bdata[c * n + j..c * n + j + TILE_J];
                    for t in 0..TILE_J {
                        acc[t] += v * b[t];
                    }
                }
                out_row[j..j + TILE_J].copy_from_slice(&acc);
                j += TILE_J;
            }
            if j < n {
                for (c, v) in s.row_iter(row0 + r) {
                    let b_row = &bdata[c * n..(c + 1) * n];
                    for (o, &bv) in out_row[j..].iter_mut().zip(&b_row[j..]) {
                        *o += v * bv;
                    }
                }
            }
        }
    });
    maybe_poison_kernel_output(out);
}

/// Sequential `out = s^T * b` (backward pass of SpMM).
///
/// The transpose product scatters into output rows indexed by CSR *column*,
/// so disjoint output-row partitioning does not apply; parallelizing it
/// would need atomics or per-thread copies, both of which break the bitwise
/// determinism contract. It stays sequential by design — in GCN training it
/// touches the same nnz as the forward SpMM and is not the bottleneck.
///
/// # Panics
/// Panics on shape mismatch.
pub fn spmm_t_into(s: &CsrMatrix, b: &DenseMatrix, out: &mut DenseMatrix) {
    let _t = bbgnn_obs::kernel_timer("kernel/spmm_t");
    assert_eq!(s.rows(), b.rows(), "spmm_t dimension mismatch");
    let n = b.cols();
    assert_eq!(out.shape(), (s.cols(), n), "spmm_t output shape mismatch");
    out.as_mut_slice().fill(0.0);
    if n == 0 {
        return;
    }
    let rows = s.rows();
    for i in 0..rows {
        let b_row = b.row(i);
        for (c, v) in s.row_iter(i) {
            let out_row = out.row_mut(c);
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += v * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace arena.
// ---------------------------------------------------------------------------

/// Retention cap for the workspace arena, in `f64` elements (≈256 MB).
/// Buffers returned beyond the cap are dropped to the allocator.
const WORKSPACE_CAP_F64: usize = 32 << 20;

/// A buffer arena recycling `Vec<f64>` allocations between hot-path calls.
///
/// Buffers are keyed by **exact length**, which keeps every stored element
/// initialized (no `set_len`, no `unsafe`) — a recycled buffer is handed
/// back with stale-but-valid contents and the kernels overwrite it fully
/// (or [`ExecContext::alloc_zeroed`] clears it). Training loops that
/// allocate the same tensor shapes every epoch hit the arena from epoch 2
/// onward.
#[derive(Debug, Default)]
pub struct Workspace {
    pools: HashMap<usize, Vec<Vec<f64>>>,
    held: usize,
    /// Elements currently lent out (taken or freshly allocated, not yet
    /// given back). `held + lent` is the arena's total footprint.
    lent: usize,
    /// Monotonic high-water mark of `held + lent`, in elements. Survives
    /// [`clear`](Self::clear) so a run's peak is reportable at shutdown.
    peak: usize,
    reuse_hits: usize,
}

impl Workspace {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a recycled buffer of exactly `len` elements, if one is held.
    /// Contents are stale; the caller must overwrite or zero them.
    pub fn take(&mut self, len: usize) -> Option<Vec<f64>> {
        let buf = self.pools.get_mut(&len)?.pop()?;
        self.held -= len;
        self.lent += len;
        self.reuse_hits += 1;
        Some(buf)
    }

    /// Records a fresh allocation of `len` elements made on a
    /// [`take`](Self::take) miss, so the lent total (and peak) covers
    /// buffers the arena will later receive via [`give`](Self::give).
    /// This is the only site where the footprint can grow — a `take` hit
    /// just moves elements from held to lent — so the peak check lives
    /// here and in the obs/supervise bridge it calls.
    pub fn note_alloc(&mut self, len: usize) {
        self.lent += len;
        let total = self.held + self.lent;
        if total > self.peak {
            let delta_bytes = (total - self.peak) * std::mem::size_of::<f64>();
            self.peak = total;
            // The counter sums deltas, so its final value is the peak in
            // bytes; the supervise high-water mark lets a `mem` budget trip
            // at the next check site. Both are one relaxed load when off.
            bbgnn_obs::counter("exec/peak_bytes", delta_bytes as u64);
            if bbgnn_supervise::enabled() {
                bbgnn_supervise::note_mem(self.peak_bytes() as u64);
            }
        }
    }

    /// Returns a buffer to the arena; dropped instead if the retention cap
    /// would be exceeded or the buffer is empty. Either way the buffer is
    /// no longer lent.
    pub fn give(&mut self, buf: Vec<f64>) {
        let len = buf.len();
        self.lent = self.lent.saturating_sub(len);
        if len == 0 || self.held + len > WORKSPACE_CAP_F64 {
            return;
        }
        self.held += len;
        self.pools.entry(len).or_default().push(buf);
    }

    /// Total `f64` elements currently retained.
    pub fn held(&self) -> usize {
        self.held
    }

    /// High-water mark of the arena footprint (retained + lent) in bytes.
    /// Monotonic for the life of the workspace.
    pub fn peak_bytes(&self) -> usize {
        self.peak * std::mem::size_of::<f64>()
    }

    /// Number of allocations served from recycled buffers so far.
    pub fn reuse_hits(&self) -> usize {
        self.reuse_hits
    }

    /// Drops every retained buffer. The peak is deliberately kept: it
    /// reports the run's high-water mark, not the current footprint.
    pub fn clear(&mut self) {
        self.pools.clear();
        self.held = 0;
    }
}

// ---------------------------------------------------------------------------
// Execution context.
// ---------------------------------------------------------------------------

/// Thread pool + workspace bundle threaded through every compute layer.
///
/// One context is created per training/attack run (`Rc<ExecContext>`) and
/// shared by every [`crate::DenseMatrix`] product and autodiff tape in that
/// run, so gradient buffers are recycled across epochs instead of
/// reallocated. The context is deliberately `!Sync` (single-owner
/// workspace); the *kernels* spread work across threads internally.
#[derive(Debug)]
pub struct ExecContext {
    pool: ThreadPool,
    workspace: RefCell<Workspace>,
}

impl ExecContext {
    /// A context running kernels on `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self {
            pool: ThreadPool::new(threads),
            workspace: RefCell::new(Workspace::new()),
        }
    }

    /// A context with the process-wide [`env_threads`] worker count.
    pub fn from_env() -> Self {
        Self::new(env_threads())
    }

    /// Convenience: `Rc::new(Self::from_env())`.
    pub fn shared_from_env() -> Rc<Self> {
        Rc::new(Self::from_env())
    }

    /// A context with `threads` workers, falling back to [`env_threads`]
    /// when `threads == 0`. This is the conventional meaning of a
    /// `threads: usize` field on attacker / benchmark configs: `0` defers
    /// to `BBGNN_THREADS`, any other value pins the count explicitly
    /// (useful for thread-count-invariance tests).
    pub fn with_threads(threads: usize) -> Self {
        if threads == 0 {
            Self::from_env()
        } else {
            Self::new(threads)
        }
    }

    /// Worker count used by this context's kernels.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The underlying scoped thread pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Number of allocations served from the workspace so far.
    pub fn reuse_hits(&self) -> usize {
        self.workspace.borrow().reuse_hits()
    }

    /// High-water mark of this context's workspace footprint in bytes
    /// (see [`Workspace::peak_bytes`]).
    pub fn peak_bytes(&self) -> usize {
        self.workspace.borrow().peak_bytes()
    }

    /// Takes a `len` buffer from the workspace (stale contents) or
    /// allocates a zeroed one.
    fn take_buf(&self, len: usize) -> Vec<f64> {
        let mut ws = self.workspace.borrow_mut();
        if let Some(buf) = ws.take(len) {
            return buf;
        }
        ws.note_alloc(len);
        vec![0.0; len]
    }

    /// A `rows × cols` matrix backed by a recycled buffer, zeroed.
    pub fn alloc_zeroed(&self, rows: usize, cols: usize) -> DenseMatrix {
        let mut buf = self.take_buf(rows * cols);
        buf.fill(0.0);
        DenseMatrix::from_vec(rows, cols, buf)
    }

    /// A copy of `src` backed by a recycled buffer.
    pub fn alloc_copy(&self, src: &DenseMatrix) -> DenseMatrix {
        let mut buf = self.take_buf(src.rows() * src.cols());
        buf.copy_from_slice(src.as_slice());
        DenseMatrix::from_vec(src.rows(), src.cols(), buf)
    }

    /// Returns a matrix's buffer to the workspace for reuse.
    pub fn recycle(&self, m: DenseMatrix) {
        self.workspace.borrow_mut().give(m.into_vec());
    }

    /// `a * b` on the pool, output backed by a recycled buffer.
    pub fn matmul(&self, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::from_vec(a.rows(), b.cols(), self.take_buf(a.rows() * b.cols()));
        matmul_into(a, b, &mut out, &self.pool);
        out
    }

    /// `a^T * b` on the pool, output backed by a recycled buffer.
    pub fn matmul_tn(&self, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::from_vec(a.cols(), b.cols(), self.take_buf(a.cols() * b.cols()));
        matmul_tn_into(a, b, &mut out, &self.pool);
        out
    }

    /// `a * b^T` on the pool, output backed by a recycled buffer.
    pub fn matmul_nt(&self, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::from_vec(a.rows(), b.rows(), self.take_buf(a.rows() * b.rows()));
        matmul_nt_into(a, b, &mut out, &self.pool);
        out
    }

    /// Sparse × dense `s * b` on the pool, output backed by a recycled
    /// buffer.
    pub fn spmm(&self, s: &CsrMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::from_vec(s.rows(), b.cols(), self.take_buf(s.rows() * b.cols()));
        spmm_into(s, b, &mut out, &self.pool);
        out
    }

    /// Sequential `s^T * b` (see [`spmm_t_into`]), output backed by a
    /// recycled buffer.
    pub fn spmm_t(&self, s: &CsrMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::from_vec(s.cols(), b.cols(), self.take_buf(s.cols() * b.cols()));
        spmm_t_into(s, b, &mut out);
        out
    }

    /// Elementwise map of `a`, output backed by a recycled buffer.
    pub fn unary(&self, a: &DenseMatrix, f: impl Fn(f64) -> f64) -> DenseMatrix {
        let mut buf = self.take_buf(a.rows() * a.cols());
        for (o, &v) in buf.iter_mut().zip(a.as_slice()) {
            *o = f(v);
        }
        DenseMatrix::from_vec(a.rows(), a.cols(), buf)
    }

    /// Elementwise zip of `a` and `b`, output backed by a recycled buffer.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn binary(
        &self,
        a: &DenseMatrix,
        b: &DenseMatrix,
        f: impl Fn(f64, f64) -> f64,
    ) -> DenseMatrix {
        assert_eq!(a.shape(), b.shape(), "binary op shape mismatch");
        let mut buf = self.take_buf(a.rows() * a.cols());
        for ((o, &x), &y) in buf.iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
            *o = f(x, y);
        }
        DenseMatrix::from_vec(a.rows(), a.cols(), buf)
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        DenseMatrix::uniform(rows, cols, 1.0, seed)
    }

    #[test]
    fn blocked_matmul_matches_reference_bitwise() {
        for &(m, k, n) in &[(3, 4, 5), (17, 129, 33), (1, 300, 1), (130, 130, 130)] {
            let a = dense(m, k, 1);
            let b = dense(k, n, 2);
            let pool = ThreadPool::new(4);
            let mut out = DenseMatrix::zeros(m, n);
            matmul_into(&a, &b, &mut out, &pool);
            assert_eq!(out, matmul_ref(&a, &b), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn workspace_recycles_exact_lengths() {
        let ws = ExecContext::new(1);
        let m = ws.alloc_zeroed(4, 5);
        ws.recycle(m);
        let hits_before = ws.reuse_hits();
        let m2 = ws.alloc_zeroed(4, 5);
        assert_eq!(ws.reuse_hits(), hits_before + 1);
        assert!(m2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn workspace_tracks_peak_footprint_monotonically() {
        let cx = ExecContext::new(1);
        let a = cx.alloc_zeroed(10, 10);
        assert_eq!(cx.peak_bytes(), 800, "one fresh 100-element buffer");
        cx.recycle(a);
        let b = cx.alloc_zeroed(10, 10);
        assert_eq!(cx.peak_bytes(), 800, "a reuse hit adds no footprint");
        let c = cx.alloc_zeroed(10, 10);
        assert_eq!(cx.peak_bytes(), 1600, "two live buffers grow the peak");
        cx.recycle(b);
        cx.recycle(c);
        assert_eq!(cx.peak_bytes(), 1600, "peak is monotonic");
    }

    #[test]
    fn map_fold_matches_sequential_argmax() {
        let scores: Vec<f64> = (0..5000).map(|i| ((i * 37) % 101) as f64).collect();
        let mut seq: Option<(f64, usize)> = None;
        for (i, &s) in scores.iter().enumerate() {
            if seq.map_or(true, |(bs, _)| s > bs) {
                seq = Some((s, i));
            }
        }
        let pool = ThreadPool::new(8);
        let par = pool
            .map_fold(
                scores.len(),
                |range| {
                    let mut best: Option<(f64, usize)> = None;
                    for i in range {
                        if best.map_or(true, |(bs, _)| scores[i] > bs) {
                            best = Some((scores[i], i));
                        }
                    }
                    best
                },
                |acc, item| match (acc, item) {
                    (Some((a, ai)), Some((b, bi))) => {
                        if b > a {
                            Some((b, bi))
                        } else {
                            Some((a, ai))
                        }
                    }
                    (x, None) => x,
                    (None, y) => y,
                },
            )
            .flatten();
        assert_eq!(par, seq);
    }

    #[test]
    fn pool_workers_inherit_the_submitting_threads_supervision_scope() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let scope = bbgnn_supervise::SupervisionScope::new();
        scope.activate();
        let _entered = bbgnn_supervise::enter(&scope);
        let pool = ThreadPool::new(4);

        // for_each_row_band: every worker must see the entered scope.
        let seen = AtomicUsize::new(0);
        let mut out = vec![0.0; 64];
        pool.for_each_row_band(&mut out, 8, true, |_, band| {
            if bbgnn_supervise::current_scope().is_some_and(|s| Arc::ptr_eq(&s, &scope)) {
                seen.fetch_add(1, Ordering::Relaxed);
            }
            for v in band {
                *v = 1.0;
            }
        });
        assert!(seen.load(Ordering::Relaxed) >= 1, "no worker saw the scope");

        // map_fold_coarse: scoped accounting from inside workers lands in
        // the scope (the GF-Attack rescoring shape).
        let total = pool.map_fold_coarse(
            16,
            |range| {
                bbgnn_supervise::note_queries(range.len() as u64);
                range.len()
            },
            |a, b| a + b,
        );
        assert_eq!(total, Some(16));
        assert_eq!(
            scope.queries_used(),
            16,
            "scoped accounting lost in workers"
        );
    }
}
