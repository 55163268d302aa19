//! The two in-process workloads: the Table VII attack pass and the
//! Table VIII defense pass.

use crate::layers;
use crate::reference;
use crate::{cpu_s, peak_rss_mb, Cx, Run};
use bbgnn::prelude::*;
use bbgnn::scenario::dataset::load_dataset;
use bbgnn::scenario::job::{EvalKind, EvalSpec, Job, JobSpec};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Table VII / VIII documented default: the cora-like graph at scale 0.12.
pub const SCALE: f64 = 0.12;
/// Perturbation rate of every attack.
pub const RATE: f64 = 0.1;
/// Longest the traced run waits for its GF-Attack probe.
const GF_PROBE_WAIT: std::time::Duration = std::time::Duration::from_secs(10);
/// Graph generations per `attack_table` run; `setup_s` is their median.
const GENERATE_REPS: usize = 15;
/// Generate-and-poison set-ups per `defense_table` run; `setup_s` is their
/// median.
const POISON_REPS: usize = 3;

/// Per-layer metric name of a Table VII row.
fn attack_metric(kind: &AttackerKind) -> &'static str {
    match kind {
        AttackerKind::Pgd(_) => "pgd",
        AttackerKind::MinMax(_) => "minmax",
        AttackerKind::Metattack(_) => "metattack",
        AttackerKind::GfAttack(_) => "gfattack",
        _ => "peega",
    }
}

/// Per-layer metric name of a Table VIII column.
fn fit_metric(kind: &DefenderKind) -> &'static str {
    match kind {
        DefenderKind::Gcn => "fit_s.gcn",
        DefenderKind::Gat => "fit_s.gat",
        DefenderKind::GcnJaccard(_) => "defense.fit_s.gcn-jaccard",
        DefenderKind::GcnSvd(_) => "defense.fit_s.gcn-svd",
        DefenderKind::Rgcn(_) => "defense.fit_s.rgcn",
        DefenderKind::ProGnn(_) => "fit_s.prognn",
        DefenderKind::SimPGcn(_) => "defense.fit_s.simpgcn",
        DefenderKind::Gnat(_) => "fit_s.gnat",
    }
}

/// Committed perturbation cost in budget units: PEEGA charges `β` per
/// feature flip, every other attacker flips edges only.
fn committed_cost(kind: &AttackerKind, r: &AttackResult) -> f64 {
    let beta = match kind {
        AttackerKind::Peega(c) => c.beta,
        _ => 1.0,
    };
    r.edge_flips as f64 + beta * r.feature_flips as f64
}

/// Timed phases of a run: the whole window untraced, or an untraced half
/// followed by a traced half (so the trace overhead can be read off).
fn phases(cx: &Cx) -> Vec<(bool, f64)> {
    if cx.trace {
        vec![(false, cx.seconds / 2.0), (true, cx.seconds / 2.0)]
    } else {
        vec![(false, cx.seconds)]
    }
}

/// Generates the clean input graph `GENERATE_REPS` times, checking that every
/// generation is identical. Returns the graph and the per-rep seconds.
fn generate(cx: &Cx, run: &mut Run) -> Result<(Graph, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut graph: Option<Graph> = None;
    for _ in 0..GENERATE_REPS {
        let (g, s) = cx.rec.time("setup/generate", 0, "cora", || {
            load_dataset("cora", SCALE, cx.seed)
        });
        let g = g.map_err(|e| format!("generating the input graph: {e}"))?;
        if let Some(prev) = &graph {
            if prev.content_hash() != g.content_hash() {
                run.mismatch("input graph differs between two generations");
            }
        }
        secs.push(s);
        graph = Some(g);
    }
    let g = graph.ok_or("no set-up repetition ran")?;
    run.metrics.set_median("graph.generate_s", &secs);
    run.metrics.set("graph.nodes", g.num_nodes() as f64, 1);
    run.metrics.set("graph.edges", g.num_edges() as f64, 1);
    Ok((g, secs))
}

fn obs_on(cx: &Cx) -> Result<std::path::PathBuf, String> {
    let path = cx.dir.join("obs.jsonl");
    bbgnn::obs::init_to_path(&path.display().to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn obs_summary(path: &std::path::Path) -> Result<bbgnn_bench::trace::TraceSummary, String> {
    bbgnn::obs::shutdown();
    bbgnn_bench::trace::read_trace(&path.display().to_string())
        .map_err(|e| format!("obs trace failed validation: {e}"))
}

/// One direct run of every row: `(hash of the poisoned graph, flips)`
/// per row. Every attack must stay within `budget_for`; the greedy
/// one-flip-per-step attackers (PEEGA, Metattack) must spend it exactly.
/// PGD and MinMax sample their flips from a relaxed solution and may
/// commit fewer, which `attack.budget_fill` shows.
fn verify_attacks(
    g: &Graph,
    rows: &[AttackerKind],
    run: &mut Run,
) -> BTreeMap<&'static str, (u64, usize)> {
    let budget = budget_for(g, RATE) as f64;
    let mut out = BTreeMap::new();
    let (mut spent, mut owed) = (0.0, 0.0);
    for kind in rows {
        let name = attack_metric(kind);
        match catch_unwind(AssertUnwindSafe(|| kind.build().attack(g))) {
            Ok(r) => {
                let cost = committed_cost(kind, &r);
                let exact = matches!(kind, AttackerKind::Peega(_) | AttackerKind::Metattack(_));
                if cost > budget + 1e-9 || (exact && (cost - budget).abs() > 1e-9) {
                    run.mismatch(format!("{name}: committed cost {cost}, budget {budget}"));
                }
                spent += cost;
                owed += budget;
                out.insert(
                    name,
                    (r.poisoned.content_hash(), r.edge_flips + r.feature_flips),
                );
            }
            Err(_) => run.mismatch(format!("{name}: direct attack panicked")),
        }
    }
    if owed > 0.0 {
        run.metrics.set_note(
            "attack.budget_fill",
            spent / owed,
            out.len(),
            format!("committed {spent} / budget_for {owed}"),
        );
    }
    out
}

/// Runs the GF-Attack cell once through `Job::run` on a thread of its own
/// and waits at most `GF_PROBE_WAIT`. At scale 0.12 exact GF-Attack fails
/// after 3 attempts on some seeds (7, for one), but on others (11) it runs
/// for minutes without failing. Such a probe is cancelled, left behind (the process exits after
/// the report) and counted as failed.
/// Returns the attempts it reported.
fn gf_probe(cx: &Cx, job: Job, key: &str, g: &Graph, run: &mut Run) -> usize {
    let scope = job.scope();
    let graph = g.clone();
    let (tx, rx) = std::sync::mpsc::channel();
    let span = cx.rec.open("probe/GF-Attack", 0, key);
    let worker = std::thread::spawn(move || {
        let res = job.run_with_graph(&ExecContext::with_threads(1), Some(&graph));
        let _ = tx.send(res);
    });
    let finished = rx.recv_timeout(GF_PROBE_WAIT).ok();
    let secs = cx.rec.end(span);
    let (outcome, attempts, note) = match finished {
        Some(res) => {
            let _ = worker.join();
            let note = format!(
                "outcome {} after {} attempt(s)",
                res.outcome.as_str(),
                res.attempts
            );
            (res.outcome.as_str(), res.attempts, note)
        }
        None => {
            scope.cancel();
            let note = format!("unfinished after {} s", GF_PROBE_WAIT.as_secs());
            ("failed", 0, note)
        }
    };
    run.layer_tally.outcome(outcome);
    run.metrics.set_note("attack.gfattack_s", secs, 1, note);
    attempts
}

/// `attack_table`: the Table VII cells PGD, MinMax, Metattack and PEEGA,
/// each a `Job` with an `attack_time` evaluation on one clean graph, at one
/// kernel thread. GF-Attack runs once per traced run as a probe
/// ([`gf_probe`]).
pub fn attack_table(cx: &Cx) -> Result<Run, String> {
    let mut run = Run::default();
    let (g, setup) = generate(cx, &mut run)?;
    run.metrics.set_median("setup_s", &setup);
    let ctx = ExecContext::with_threads(1);
    let (rows, gf): (Vec<AttackerKind>, Vec<AttackerKind>) = AttackerKind::paper_rows(RATE)
        .into_iter()
        .partition(|k| !matches!(k, AttackerKind::GfAttack(_)));
    let job = |kind: &AttackerKind| {
        let spec = JobSpec {
            dataset: "cora".to_string(),
            eval: EvalSpec {
                kind: EvalKind::AttackTime,
                runs: 1,
                scale: SCALE,
                rate: RATE,
            },
            seed: cx.seed,
            ..JobSpec::default()
        };
        let key = format!("cora/{}", kind.name());
        (
            Job::from_parts(key.clone(), spec, Some(kind.clone()), DefenderKind::Gcn),
            key,
        )
    };

    // Direct attacks before the window: warm-up, and the first half of the
    // cross-pass determinism check.
    let before = verify_attacks(&g, &rows, &mut run);
    for (name, (_, flips)) in &before {
        run.metrics
            .set(&format!("attack.{name}.flips"), *flips as f64, 1);
    }

    let mut passes: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut pass_cpu = Vec::new();
    let mut cells: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut ops = 0usize;
    let mut attempts = 0usize;
    let mut traced_wall = 0.0;
    let mut obs_path = None;
    for (traced, budget) in phases(cx) {
        if traced {
            obs_path = Some(obs_on(cx)?);
        }
        let start = Instant::now();
        while passes[usize::from(traced)].is_empty() || start.elapsed().as_secs_f64() < budget {
            let cpu = cpu_s(None)?;
            let pass = cx.rec.open("pass", 0, "");
            for kind in &rows {
                let (j, key) = job(kind);
                let name = attack_metric(kind);
                let (res, secs) =
                    cx.rec
                        .time(&format!("cell/{}", kind.name()), pass.id, &key, || {
                            j.run_with_graph(&ctx, Some(&g))
                        });
                attempts += res.attempts;
                if !traced {
                    run.tally.outcome(res.outcome.as_str());
                }
                run.layer_tally.outcome(res.outcome.as_str());
                if matches!(res.outcome.as_str(), "failed" | "skipped") {
                    continue;
                }
                if !traced {
                    cells.entry(name).or_default().push(secs);
                    ops += 1;
                }
            }
            passes[usize::from(traced)].push(cx.rec.end(pass));
            if !traced {
                pass_cpu.push(cpu_s(None)? - cpu);
            }
        }
        if traced {
            traced_wall = start.elapsed().as_secs_f64();
        }
    }

    // Close the obs trace before the second direct pass, so the trace
    // covers the traced passes only.
    let summary = obs_path.map(|p| obs_summary(&p)).transpose()?;
    let after = verify_attacks(&g, &rows, &mut run);
    if cx.trace {
        for kind in &gf {
            let (j, key) = job(kind);
            attempts += gf_probe(cx, j, &key, &g, &mut run);
        }
    }
    for (name, (hash, _)) in &after {
        if before.get(name).map(|b| b.0) != Some(*hash) {
            run.mismatch(format!(
                "{name}: poisoned graph hash differs between passes"
            ));
        }
        if cx.seed == reference::DEFAULT_SEED {
            let want = reference::ATTACK_HASHES
                .iter()
                .find(|(n, _)| n == name)
                .map(|r| r.1);
            if want != Some(*hash) {
                run.mismatch(format!(
                    "{name}: poisoned graph hash {hash:#018x}, reference {want:x?}"
                ));
            }
        }
    }

    crate::set_pass_metrics(&mut run.metrics, &passes[0], &pass_cpu, ops);
    for (name, secs) in &cells {
        run.metrics.set_median(&format!("attack_s.{name}"), secs);
    }
    run.metrics.set("peak_rss_mb", peak_rss_mb(None)?, 1);
    run.set_scenario(attempts);
    if let Some(summary) = summary {
        layers::from_obs(&mut run.metrics, &summary, passes[1].len(), traced_wall, 1);
        layers::trace_overhead(&mut run.metrics, "pass_s", &passes[0], &passes[1]);
    }
    Ok(run)
}

/// `defense_table`: all eight Table VIII columns fitted with one seed on
/// the PEEGA-poisoned graph, at two kernel threads.
pub fn defense_table(cx: &Cx) -> Result<Run, String> {
    let mut run = Run::default();
    let peega = AttackerKind::paper_rows(RATE)
        .into_iter()
        .find(|k| matches!(k, AttackerKind::Peega(_)))
        .ok_or("PEEGA is not a paper row")?;
    let mut setup = Vec::new();
    let mut gen = Vec::new();
    let mut poison = Vec::new();
    let mut graph: Option<Graph> = None;
    for _ in 0..POISON_REPS {
        let span = cx.rec.open("setup", 0, "cora/PEEGA");
        let (g, s) = cx.rec.time("setup/generate", span.id, "cora", || {
            load_dataset("cora", SCALE, cx.seed)
        });
        let g = g.map_err(|e| format!("generating the input graph: {e}"))?;
        gen.push(s);
        run.metrics.set("graph.nodes", g.num_nodes() as f64, 1);
        run.metrics.set("graph.edges", g.num_edges() as f64, 1);
        let (r, s) = cx.rec.time("setup/poison", span.id, "cora/PEEGA", || {
            catch_unwind(AssertUnwindSafe(|| peega.build().attack(&g)))
        });
        let r = r.map_err(|_| "PEEGA panicked while poisoning the input graph".to_string())?;
        poison.push(s);
        setup.push(cx.rec.end(span));
        if let Some(prev) = &graph {
            if prev.content_hash() != r.poisoned.content_hash() {
                run.mismatch("poisoned graph differs between two set-ups");
            }
        }
        run.metrics.set(
            "attack.peega.flips",
            (r.edge_flips + r.feature_flips) as f64,
            1,
        );
        graph = Some(r.poisoned);
    }
    let g = graph.ok_or("no set-up repetition ran")?;
    if cx.seed == reference::DEFAULT_SEED && g.content_hash() != reference::DEFENSE_POISONED_HASH {
        run.mismatch(format!(
            "poisoned graph hash {:#018x}, reference {:#018x}",
            g.content_hash(),
            reference::DEFENSE_POISONED_HASH
        ));
    }
    run.metrics.set_median("setup_s", &setup);
    run.metrics.set_median("graph.generate_s", &gen);
    run.metrics.set_median("setup.poison_s", &poison);

    let columns = DefenderKind::paper_columns(false);
    let mut passes: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut pass_cpu = Vec::new();
    let mut fits: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut accs: BTreeMap<&'static str, String> = BTreeMap::new();
    let mut ops = 0usize;
    let mut traced_wall = 0.0;
    let mut obs_path = None;
    let train = TrainConfig {
        seed: cx.seed,
        ..TrainConfig::default()
    };
    for (traced, budget) in phases(cx) {
        if traced {
            obs_path = Some(obs_on(cx)?);
        }
        let start = Instant::now();
        while passes[usize::from(traced)].is_empty() || start.elapsed().as_secs_f64() < budget {
            let cpu = cpu_s(None)?;
            let pass = cx.rec.open("pass", 0, "");
            for kind in &columns {
                let name = fit_metric(kind);
                let (out, secs) =
                    cx.rec
                        .time(&format!("fit/{}", kind.name()), pass.id, name, || {
                            catch_unwind(AssertUnwindSafe(|| {
                                let mut model = kind.build(train.clone());
                                let report = model.fit(&g);
                                (report, model.test_accuracy(&g))
                            }))
                        });
                let outcome = match &out {
                    Err(_) => "failed",
                    Ok((r, _)) if r.divergence_recoveries > 0 || r.diverged || r.interrupted => {
                        "degraded"
                    }
                    Ok(_) => "ok",
                };
                if !traced {
                    run.tally.outcome(outcome);
                }
                run.layer_tally.outcome(outcome);
                let Ok((_, acc)) = out else { continue };
                let text = format!("{acc}");
                if !(acc > 0.0 && acc <= 1.0) {
                    run.mismatch(format!("{name}: accuracy {text} outside (0, 1]"));
                }
                match accs.get(name) {
                    Some(prev) if *prev != text => {
                        run.mismatch(format!(
                            "{name}: accuracy {text} != {prev} of an earlier pass"
                        ));
                    }
                    _ => {
                        accs.insert(name, text);
                    }
                }
                if !traced {
                    fits.entry(name).or_default().push(secs);
                    ops += 1;
                }
            }
            passes[usize::from(traced)].push(cx.rec.end(pass));
            if !traced {
                pass_cpu.push(cpu_s(None)? - cpu);
            }
        }
        if traced {
            traced_wall = start.elapsed().as_secs_f64();
        }
    }
    if cx.seed == reference::DEFAULT_SEED {
        for (name, want) in reference::DEFENSE_ACCURACY {
            let got = accs.get(name).map(String::as_str);
            if got != Some(want) {
                run.mismatch(format!("{name}: accuracy {got:?}, reference {want}"));
            }
        }
    }

    crate::set_pass_metrics(&mut run.metrics, &passes[0], &pass_cpu, ops);
    for (name, secs) in &fits {
        run.metrics.set_median(name, secs);
    }
    run.metrics.set("peak_rss_mb", peak_rss_mb(None)?, 1);
    if let Some(path) = obs_path {
        let summary = obs_summary(&path)?;
        layers::from_obs(&mut run.metrics, &summary, passes[1].len(), traced_wall, 2);
        layers::trace_overhead(&mut run.metrics, "pass_s", &passes[0], &passes[1]);
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;

    /// A dataset-IO fault on one cell fails that cell (counted, not a
    /// crash) while the next cell still runs.
    #[test]
    fn dataset_io_fault_counts_as_failed() {
        let dir = std::env::temp_dir().join(format!("e2ebench-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = DatasetSpec::CoraLike.generate(0.05, 3);
        bbgnn::graph::datasets::io::save(&g, &dir).unwrap();
        let spec = |dataset: String| JobSpec {
            dataset,
            eval: EvalSpec {
                runs: 1,
                scale: 0.05,
                ..EvalSpec::default()
            },
            ..JobSpec::default()
        };
        let ctx = ExecContext::with_threads(1);
        let mut tally = Tally::default();
        // Every retry of the first cell hits the fault.
        bbgnn::supervise::fault::install(
            "1:fault/dataset_io@1,fault/dataset_io@2,fault/dataset_io@3,fault/dataset_io@4",
        )
        .unwrap();
        let faulted = Job::new(spec(dir.display().to_string()))
            .unwrap()
            .with_sleeper(|_| {})
            .run(&ctx);
        tally.outcome(faulted.outcome.as_str());
        bbgnn::supervise::fault::install("1:fault/dataset_io@1000000").unwrap();
        let clean = Job::new(spec("cora".to_string())).unwrap().run(&ctx);
        tally.outcome(clean.outcome.as_str());
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(faulted.outcome.as_str(), "failed", "{:?}", faulted.detail);
        assert_eq!(clean.outcome.as_str(), "ok");
        assert_eq!((tally.attempted, tally.failed_total()), (2, 1));
    }
}
