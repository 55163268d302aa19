//! Per-layer metrics read from a validated `bbgnn_obs` trace summary.

use crate::report::Metrics;
use bbgnn_bench::trace::TraceSummary;

/// Dense and sparse kernels with a §8 kernel timer.
const KERNELS: [&str; 5] = ["matmul", "matmul_nt", "matmul_tn", "spmm", "spmm_t"];

fn kernel(s: &TraceSummary, name: &str) -> (u64, f64) {
    s.kernels
        .iter()
        .find(|k| k.name == name)
        .map_or((0, 0.0), |k| (k.calls, k.ns as f64 / 1e6))
}

fn counter(s: &TraceSummary, name: &str) -> u64 {
    s.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.total)
}

/// Fills the obs-derived layers. `units` is how many passes (or jobs) the
/// trace covers, so counts and times are reported per unit; `wall_s` is the
/// traced wall time and `threads` the kernel threads of the workers.
pub fn from_obs(m: &mut Metrics, s: &TraceSummary, units: usize, wall_s: f64, threads: usize) {
    let per = units.max(1) as f64;
    let mut kernel_ms = 0.0;
    for k in KERNELS {
        let (calls, ms) = kernel(s, &format!("kernel/{k}"));
        kernel_ms += ms;
        m.set(&format!("linalg.{k}.calls"), calls as f64 / per, units);
        m.set(&format!("linalg.{k}.ms"), ms / per, units);
    }
    let wall_ms = wall_s * 1e3;
    if wall_ms > 0.0 {
        m.set_note(
            "linalg.kernel_share",
            kernel_ms / wall_ms,
            units,
            format!("kernel {kernel_ms:.1} ms / traced wall {wall_ms:.1} ms"),
        );
    }
    let (regions, region_ms) = kernel(s, "pool/region");
    let (_, busy_ms) = kernel(s, "pool/worker_busy");
    m.set("linalg.pool.regions", regions as f64 / per, units);
    if region_ms > 0.0 {
        m.set_note(
            "linalg.pool.busy_share",
            busy_ms / (region_ms * threads as f64),
            units,
            format!("worker busy {busy_ms:.1} ms / (region {region_ms:.1} ms x {threads} threads)"),
        );
    }

    let epochs = counter(s, "train/epochs");
    let fit_ms = s
        .spans
        .iter()
        .find(|sp| sp.name == "train/fit")
        .map_or(0.0, |sp| sp.total_us as f64 / 1e3);
    m.set("gnn.epochs_run", epochs as f64 / per, units);
    if epochs > 0 {
        m.set_note(
            "gnn.epoch_ms",
            fit_ms / epochs as f64,
            epochs as usize,
            format!("train/fit {fit_ms:.1} ms / {epochs} epochs"),
        );
    }
    m.set(
        "gnn.divergence_recoveries",
        counter(s, "train/divergence_rollbacks") as f64,
        units,
    );
    // Time attack spans spend in child spans is surrogate training.
    let surrogate_us: u64 = s
        .spans
        .iter()
        .filter(|sp| sp.name.starts_with("attack/"))
        .map(|sp| sp.total_us - sp.self_us)
        .sum();
    m.set(
        "attack.surrogate_fit_s",
        surrogate_us as f64 / 1e6 / per,
        units,
    );

    m.set("store.hit", counter(s, "store/hit") as f64, units);
    m.set("store.miss", counter(s, "store/miss") as f64, units);
    m.set("store.write", counter(s, "store/write") as f64, units);
    let (loads, load_ms) = kernel(s, "store/load");
    m.set_note(
        "store.load_ms",
        load_ms,
        loads as usize,
        format!("{loads} artifact loads"),
    );
    m.set("obs.trace_records", s.records as f64, 1);
}

/// `obs.trace_overhead_ratio`: traced over untraced median, with its base.
pub fn trace_overhead(m: &mut Metrics, what: &str, untraced: &[f64], traced: &[f64]) {
    let (Some(u), Some(t)) = (crate::stats::median(untraced), crate::stats::median(traced)) else {
        return;
    };
    if u > 0.0 {
        m.set_note(
            "obs.trace_overhead_ratio",
            t / u,
            traced.len().min(untraced.len()),
            format!("traced {what} {t:.4} s / untraced {u:.4} s"),
        );
    }
}
