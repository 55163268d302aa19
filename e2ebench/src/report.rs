//! Metric catalogs, the human-readable tables and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them
/// in an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("pass_cpu_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of them in
/// a traced run; a layer the workload does not exercise reads 0 with 0
/// samples.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("graph.generate_s", "s"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("scenario.attempts", "count"),
    ("scenario.failed", "count"),
    ("scenario.degraded", "count"),
    ("scenario.failed_ratio", "ratio"),
    ("attack_s.pgd", "s"),
    ("attack_s.minmax", "s"),
    ("attack_s.metattack", "s"),
    ("attack_s.peega", "s"),
    ("attack.pgd.flips", "count"),
    ("attack.minmax.flips", "count"),
    ("attack.metattack.flips", "count"),
    ("attack.peega.flips", "count"),
    ("attack.budget_fill", "ratio"),
    ("attack.gfattack_s", "s"),
    ("attack.surrogate_fit_s", "s"),
    ("setup.poison_s", "s"),
    ("gnn.epochs_run", "count"),
    ("gnn.epoch_ms", "ms"),
    ("gnn.divergence_recoveries", "count"),
    ("fit_s.gcn", "s"),
    ("fit_s.gat", "s"),
    ("fit_s.prognn", "s"),
    ("fit_s.gnat", "s"),
    ("defense.fit_s.gcn-jaccard", "s"),
    ("defense.fit_s.gcn-svd", "s"),
    ("defense.fit_s.rgcn", "s"),
    ("defense.fit_s.simpgcn", "s"),
    ("linalg.matmul.calls", "count"),
    ("linalg.matmul.ms", "ms"),
    ("linalg.matmul_nt.calls", "count"),
    ("linalg.matmul_nt.ms", "ms"),
    ("linalg.matmul_tn.calls", "count"),
    ("linalg.matmul_tn.ms", "ms"),
    ("linalg.spmm.calls", "count"),
    ("linalg.spmm.ms", "ms"),
    ("linalg.spmm_t.calls", "count"),
    ("linalg.spmm_t.ms", "ms"),
    ("linalg.kernel_share", "ratio"),
    ("linalg.pool.regions", "count"),
    ("linalg.pool.busy_share", "ratio"),
    ("store.warm_ratio", "ratio"),
    ("store.hit", "count"),
    ("store.miss", "count"),
    ("store.write", "count"),
    ("store.load_ms", "ms"),
    ("store.bytes", "bytes"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.job_p50_s", "s"),
    ("serve.cold_job_s", "s"),
    ("serve.warm_job_s", "s"),
    ("serve.job_tail_s", "s"),
    ("serve.refused", "count"),
    ("setup.server_start_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.trace_records", "count"),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The value.
    pub value: f64,
    /// Samples behind it (0 = the layer was not exercised).
    pub n: usize,
    /// Free text printed beside it: the base of a ratio, a percentile.
    pub note: String,
}

/// Metrics of one run, keyed by catalog name.
#[derive(Default, Debug)]
pub struct Metrics(pub BTreeMap<&'static str, Metric>);

impl Metrics {
    /// Sets `name`, which must be in one of the catalogs.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        self.set_note(name, value, n, String::new());
    }

    /// Sets `name` with a note printed beside it.
    pub fn set_note(&mut self, name: &str, value: f64, n: usize, note: String) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(k, _)| *k)
            .find(|k| *k == name);
        match key {
            Some(k) => {
                self.0.insert(k, Metric { value, n, note });
            }
            None => unreachable!("metric {name:?} is in no catalog"),
        }
    }

    /// Sets `name` to the median of `samples` (nothing when empty).
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        if let Some(m) = crate::stats::median(samples) {
            self.set(name, m, samples.len());
        }
    }
}

/// Formats a value with all its digits; non-finite values become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The table printed above the result line: name, value, unit, samples.
pub fn table(title: &str, catalog: &[(&str, &str)], metrics: &Metrics) -> String {
    let mut out = format!(
        "{title}\n{:<28} {:>16} {:<6} {:>6}  note\n",
        "metric", "value", "unit", "n"
    );
    for (name, unit) in catalog {
        let m = metrics.0.get(name);
        let (value, n, note) = match m {
            Some(m) => (format!("{:.6}", m.value), m.n.to_string(), m.note.as_str()),
            None => ("0".to_string(), "0".to_string(), "not exercised"),
        };
        out.push_str(&format!(
            "{name:<28} {value:>16} {unit:<6} {n:>6}  {note}\n"
        ));
    }
    out
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every metric of `catalog`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    catalog: &[(&str, &str)],
    metrics: &Metrics,
) -> String {
    let body: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let value = metrics.0.get(name).map_or(0.0, |m| m.value);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn::scenario::json::Json;

    /// The catalogs here and in BENCHMARK.json must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let obj = doc.as_object().unwrap();
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = obj[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_object().unwrap();
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_has_every_metric_and_exact_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25, 3);
        m.set("pass_s", f64::NAN, 1);
        let line = result_line(true, 0, 0, &END_TO_END, &m);
        let doc = Json::parse(&line).unwrap();
        let obj = doc.as_object().unwrap();
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            obj["attempted"].as_u64(),
            Some(1),
            "attempted is at least 1"
        );
        let metrics = obj["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["setup_s"].as_object().unwrap()["value"].as_f64(),
            Some(0.25)
        );
        assert_eq!(
            metrics["pass_s"].as_object().unwrap()["value"].as_f64(),
            Some(0.0)
        );
    }
}
