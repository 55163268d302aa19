//! End-to-end benchmark of `bbgnn`: a Table VII attack pass, a Table VIII
//! defense pass, and a `bbgnn-serve` job stream.
//!
//! ```text
//! bbgnn-e2ebench --workload attack_table|defense_table|serve_mixed
//!                --seed N --seconds S --trace 0|1
//!                [--serve-bin PATH] [--scratch DIR]
//! ```
//!
//! The last line of standard output is the result: a JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics,
//! or with `--trace 1` the per-layer metrics). Exit codes: 0 done, 1 an
//! output did not match (the result line says `"correct": false`), 2 bad
//! usage, 3 the run could not complete (no result line). See README.md.

mod http;
mod layers;
mod reference;
mod report;
mod serve;
mod spans;
mod stats;
mod tables;

use report::{Metrics, END_TO_END, PER_LAYER};
use stats::Tally;
use std::path::PathBuf;

/// Everything a workload needs from the command line.
pub struct Cx {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// This run's private scratch directory.
    pub dir: PathBuf,
    /// The `bbgnn-serve` binary.
    pub serve_bin: PathBuf,
    /// The benchmark's own spans.
    pub rec: spans::Recorder,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Run {
    /// Every metric set so far.
    pub metrics: Metrics,
    /// Operations of the untraced window (the result line's counts).
    pub tally: Tally,
    /// Every operation, probes and traced ones included (`scenario.*`).
    pub layer_tally: Tally,
    /// Output-correctness mismatches.
    pub mismatches: Vec<String>,
}

impl Run {
    /// Records an output-correctness mismatch.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.mismatches.push(what.into());
    }

    /// Sets the `scenario.*` layer from `layer_tally` and the attempts the
    /// jobs reported.
    pub fn set_scenario(&mut self, attempts: usize) {
        let t = self.layer_tally;
        let n = t.attempted;
        self.metrics.set("scenario.attempts", attempts as f64, n);
        self.metrics
            .set("scenario.failed", t.failed_total() as f64, n);
        self.metrics.set("scenario.degraded", t.degraded as f64, n);
        self.metrics.set_note(
            "scenario.failed_ratio",
            t.failed_ratio(),
            n,
            format!("{} of {n} operations", t.failed_total()),
        );
    }
}

/// `pass_s` (median pass wall time), `pass_cpu_s` (median CPU seconds of
/// the working process per pass) and `jobs_per_s` (operations per pass over
/// the median wall time) from the untraced passes.
pub fn set_pass_metrics(m: &mut Metrics, passes: &[f64], cpu: &[f64], ops: usize) {
    let Some(pass) = stats::median(passes) else {
        return;
    };
    m.set("pass_s", pass, passes.len());
    m.set_median("pass_cpu_s", cpu);
    let per_pass = ops as f64 / passes.len() as f64;
    m.set_note(
        "jobs_per_s",
        per_pass / pass,
        ops,
        format!("{per_pass} operations per pass / median pass {pass:.4} s"),
    );
}

/// `/proc/<pid>/stat` (or this process's) fields by 1-based number, counted
/// after the parenthesised command name.
fn proc_stat(pid: Option<u32>) -> Result<Vec<String>, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: malformed"))?;
    Ok(rest.split_whitespace().map(str::to_string).collect())
}

/// Linux reports `utime`/`stime` in USER_HZ ticks, which is 100 on every
/// architecture the kernel exposes to user space.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, all threads, live and exited) used so far
/// by `pid`, or by this process. Time the hypervisor steals from the
/// virtual CPU is not charged, so this reads the work done even on a host
/// that is short of CPU.
pub fn cpu_s(pid: Option<u32>) -> Result<f64, String> {
    let f = proc_stat(pid)?;
    // Fields 14 and 15 of stat(5); the slice starts at field 3 (state).
    let tick = |i: usize| f.get(i - 3).and_then(|v| v.parse::<f64>().ok());
    match (tick(14), tick(15)) {
        (Some(u), Some(s)) => Ok((u + s) / USER_HZ),
        _ => Err("stat has no utime/stime".to_string()),
    }
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

const WORKLOADS: [&str; 3] = ["attack_table", "defense_table", "serve_mixed"];

/// Kernel threads of the in-process workloads (the serve child gets its own).
fn threads_for(workload: &str) -> &'static str {
    match workload {
        "attack_table" => "1",
        _ => "2",
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    scratch: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = PathBuf::from(".bench_build/release/bbgnn-serve");
    let mut scratch = PathBuf::from(".bench_build/e2ebench");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?}; use {}",
                    WORKLOADS.join("|")
                ))
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed {value:?} is not an integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds {value:?} is not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                }
            }
            "--serve-bin" => serve_bin = PathBuf::from(value),
            "--scratch" => scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        serve_bin,
        scratch,
    })
}

/// Exit code for a finished run: 0, or 1 when any output mismatched.
fn exit_code(mismatches: &[String]) -> i32 {
    i32::from(!mismatches.is_empty())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Run isolation: the ambient environment must not change what is
    // measured (store, trace, faults, incremental engine, deadlines,
    // budgets, threads), so every BBGNN_* variable is cleared and the
    // thread count pinned before any kernel reads it.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BBGNN_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("BBGNN_THREADS", threads_for(&args.workload));

    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(3);
        }
    }
}

fn run(args: &Args) -> Result<i32, String> {
    let dir = args
        .scratch
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cx = Cx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: dir.clone(),
        serve_bin: args.serve_bin.clone(),
        rec: spans::Recorder::new(args.trace),
    };
    let outcome = match args.workload.as_str() {
        "attack_table" => tables::attack_table(&cx),
        "defense_table" => tables::defense_table(&cx),
        _ => serve::serve_mixed(&cx),
    };
    let run = match outcome {
        Ok(run) => run,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(e);
        }
    };

    let t = run.tally;
    println!(
        "workload {} seed {} ({} s window, {} cores): {} operations, {} failed, {} refused, {} errored, failed_ratio {:.4}",
        args.workload,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
        t.attempted,
        t.failed,
        t.refused,
        t.errored,
        t.failed_ratio()
    );
    let catalog: &[(&str, &str)] = if args.trace {
        let kept = args.scratch.join(format!("trace-{}", args.workload));
        let spans_path = dir.join("spans.jsonl");
        cx.rec
            .write_jsonl(&spans_path)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        let text = std::fs::read_to_string(&spans_path).map_err(|e| e.to_string())?;
        let recs = spans::read_jsonl(&text)?;
        println!("benchmark spans ({}):", spans_path.display());
        println!(
            "{:<28} {:>6} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, s) in spans::by_name(&recs) {
            println!(
                "{name:<28} {:>6} {:>12.4} {:>12.4}",
                s.count, s.total_s, s.self_s
            );
        }
        print!(
            "{}",
            report::table("per-layer metrics", &PER_LAYER, &run.metrics)
        );
        let _ = std::fs::remove_dir_all(&kept);
        if std::fs::rename(&dir, &kept).is_ok() {
            println!("trace files kept in {}", kept.display());
        }
        &PER_LAYER
    } else {
        print!(
            "{}",
            report::table("end-to-end metrics", &END_TO_END, &run.metrics)
        );
        // The per-cell medians are per-layer metrics, but untraced timings.
        let cells: Vec<(&str, &str)> = PER_LAYER
            .iter()
            .copied()
            .filter(|(k, _)| k.starts_with("attack_s.") || k.contains("fit_s."))
            .filter(|(k, _)| run.metrics.0.contains_key(k))
            .collect();
        if !cells.is_empty() {
            print!(
                "{}",
                report::table(
                    "per-cell medians (per_layer, unbounded)",
                    &cells,
                    &run.metrics
                )
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        &END_TO_END
    };
    for m in &run.mismatches {
        eprintln!("MISMATCH: {m}");
    }
    let correct = run.mismatches.is_empty();
    println!(
        "{}",
        report::result_line(
            correct,
            t.attempted,
            t.failed_total(),
            catalog,
            &run.metrics
        )
    );
    Ok(exit_code(&run.mismatches))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_mixed --seed 3 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 3, 12.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload attack_table --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload attack_table --seconds 1").is_err());
        assert!(args("--workload attack_table --seed 1 --seconds 0 --trace 0").is_err());
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_s(None).unwrap();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 120 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let after = cpu_s(None).unwrap();
        assert!(after - before >= 0.05, "{before} -> {after}");
    }

    #[test]
    fn a_mismatch_is_a_nonzero_exit() {
        assert_eq!(exit_code(&[]), 0);
        assert_eq!(
            exit_code(&["PEEGA: poisoned graph hash differs".to_string()]),
            1
        );
    }
}
