//! Tables IV, V, VI — node classification accuracy (mean ± std) of every
//! model column under every attacker row at perturbation rate 0.1.
//!
//! Run one dataset with `--dataset cora|citeseer|polblogs`, or all three
//! without the flag. The best model per row is marked `(...)` like the
//! paper; the strongest attacker per column is implicit in the numbers.
//!
//! Every cell is a scenario [`Job`] run through the fault-isolated,
//! checkpointing harness (panic boundary + deterministic seed retries,
//! `results/tables_main.checkpoint.json`): kill this binary mid-sweep and
//! re-invoke it with the same flags to resume where it stopped, with
//! byte-identical output. The same jobs are reachable over HTTP through
//! `bbgnn-serve` (DESIGN.md §12).
//!
//! Reproduction targets (shape, not absolute numbers):
//! * every attacker reduces raw-GNN accuracy; GF-Attack barely does;
//! * Metattack and PEEGA are the strongest rows;
//! * GNAT takes the `(...)` mark on all (or nearly all) rows.

use bbgnn::prelude::*;
use bbgnn::scenario::dataset::paper_specs;
use bbgnn::scenario::eval::AttackRow;
use bbgnn::scenario::job::{EvalKind, EvalSpec, Job, JobSpec};
use bbgnn_bench::{
    config::ExpConfig,
    fault::FaultRunner,
    report::{mark_extreme, Table},
};

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("tables_main (IV/V/VI)"));
    let specs = match paper_specs(cfg.dataset.as_deref()) {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let ctx = ExecContext::from_env();
    let mut harness = FaultRunner::new(&cfg, "tables_main");

    for spec in specs {
        let g = spec.generate(cfg.scale, cfg.seed);
        println!(
            "\n### {} — {} nodes, {} edges, budget δ = {} ###\n",
            spec.name(),
            g.num_nodes(),
            g.num_edges(),
            budget_for(&g, cfg.rate)
        );
        let columns = DefenderKind::paper_columns(spec.identity_features());
        let mut headers: Vec<String> = vec!["Attacker".to_string()];
        headers.extend(columns.iter().map(|c| c.name()));
        let mut table = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());

        for row in AttackRow::paper_rows(cfg.rate) {
            let keys: Vec<String> = columns
                .iter()
                .map(|c| format!("{}/{}/{}", spec.name(), row.name(), c.name()))
                .collect();
            // Poisoning is the expensive shared setup of a row; skip it
            // entirely when resuming past a fully checkpointed row. An
            // attacker that panics fails its own row, not the binary.
            let row_done = keys.iter().all(|k| harness.is_done(k));
            let setup = if row_done {
                Ok((g.clone(), None))
            } else {
                harness.row_setup(&keys, || row.poison(&g))
            };
            let mut cells = vec![row.name()];
            let (poisoned, result) = match setup {
                Ok(setup) => setup,
                Err(failed) => {
                    cells.extend(failed);
                    table.push_row(cells);
                    continue;
                }
            };
            if let Some(r) = &result {
                eprintln!(
                    "[{}: {} edge flips, {} feature flips, {:.1}s]",
                    row.name(),
                    r.edge_flips,
                    r.feature_flips,
                    r.elapsed.as_secs_f64()
                );
            }
            for (col, key) in columns.iter().zip(&keys) {
                let job_spec = JobSpec {
                    dataset: spec.name().to_string(),
                    eval: EvalSpec {
                        kind: EvalKind::Accuracy,
                        runs: cfg.runs,
                        scale: cfg.scale,
                        rate: cfg.rate,
                    },
                    seed: cfg.seed,
                    ..JobSpec::default()
                };
                // The row's poison is shared across columns, so the job
                // gets the prepared graph (and no attacker of its own);
                // the key override preserves the historical checkpoint
                // format.
                let job = Job::from_parts(key.as_str(), job_spec, None, col.clone());
                let value = harness.job(job, &ctx, Some(&poisoned));
                eprintln!("  {} x {} = {value}", row.name(), col.name());
                cells.push(value);
            }
            table.push_row(cells);
        }
        let value_cols: Vec<usize> = (1..=columns.len()).collect();
        mark_extreme(&mut table, &value_cols, true, ("(", ")"));
        table.emit(&cfg.out_dir, &format!("table_main_{}", spec.name()));
    }
    println!("\n{}", harness.summary());
    if let Some(stop) = bbgnn_supervise::stop_summary() {
        println!("{stop}");
    }
    println!("paper: GNAT holds the highest accuracy on clean and poisoned graphs;");
    println!("Metattack and PEEGA are the strongest attack rows, GF-Attack the weakest.");
}
