//! Metric names, units and the run's output.
//!
//! Every run prints one human-readable line per metric (name, value, unit,
//! sample count), the outcome of every correctness check and the failure
//! share, and then, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run's
//! metrics are exactly [`END_TO_END`]; a traced run's are exactly
//! [`PER_LAYER`]. Both lists must match `BENCHMARK.json`.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. A job is one case (case
/// workloads) or one request (serving workloads).
pub const END_TO_END: [(&str, &str); 4] = [
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("case.ttc_s", "s"),
    ("case.self_report_s", "s"),
    ("case.untimed_s", "s"),
    ("cfd.solve_iters", "count"),
    ("cfd.ns_per_cell_iter", "ns"),
    ("cfd.mesh_build_s", "s"),
    ("cfd.lr_solve_s", "s"),
    ("cfd.physics_solve_s", "s"),
    ("cfd.final_residual_max", "residual"),
    ("amr.rounds", "count"),
    ("amr.active_cells_final", "count"),
    ("amr.solve_s", "s"),
    ("amr.indicator_s", "s"),
    ("amr.project_s", "s"),
    ("amr.mark_s", "s"),
    ("core.plan_ms", "ms"),
    ("core.decode_ms.bin0", "ms"),
    ("core.decode_ms.bin1", "ms"),
    ("core.decode_ms.bin2", "ms"),
    ("core.decode_ms.bin3", "ms"),
    ("core.prepack_ms", "ms"),
    ("core.state_assembly_ms", "ms"),
    ("core.patches.bin0", "count"),
    ("core.patches.bin1", "count"),
    ("core.patches.bin2", "count"),
    ("core.patches.bin3", "count"),
    ("core.active_cells", "count"),
    ("nn.decoder_gflop", "GFLOP"),
    ("nn.decoder_gflop_per_s", "GFLOP/s"),
    ("tensor.pool_allocs_per_request", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_depth_mean", "count"),
    ("serve.shed_frac", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.server_p50_ms", "ms"),
    ("serve.gen_lag_ms_max", "ms"),
    ("net.overhead_p50_ms", "ms"),
    ("net.bytes_per_request", "bytes"),
    ("net.codec_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The figure.
    pub value: f64,
    /// Samples it summarizes (1 for a single measurement or a count).
    pub n: usize,
}

/// A named set of metric values.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Figure>);

impl Metrics {
    /// Set `name` to `value` over `n` samples.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        // `+ 0.0` turns the `-0.0` of an empty float sum into `0.0`.
        self.0.insert(
            name,
            Figure {
                value: value + 0.0,
                n,
            },
        );
    }

    /// Fill every name of `names` that is still unset with 0 (a layer
    /// the workload bypasses).
    pub fn zero_missing(&mut self, names: &[(&'static str, &str)]) {
        for (name, _) in names {
            self.0.entry(name).or_insert(Figure { value: 0.0, n: 0 });
        }
    }
}

/// The outcome of one correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs attempted (cases or requests).
    pub attempted: u64,
    /// Jobs that failed: an unconverged case, a degraded, shed or
    /// errored response, or a response that failed its check.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Metrics of this run.
    pub metrics: Metrics,
    /// Informational lines (self-reports, environment, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push(Check {
            what: what.into(),
            ok,
        });
    }

    /// Record an informational line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A JSON number with every digit; non-finite values (a diverged
/// residual) print as the largest finite double so the line stays JSON.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

/// Print the human-readable report, then the JSON result line. Fails if
/// the metrics are not exactly `names`.
pub fn print(workload: &str, out: &Outcome, names: &[(&'static str, &'static str)]) -> bool {
    let declared: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
    let produced: Vec<&str> = out.metrics.0.keys().copied().collect();
    let mut sorted = declared.clone();
    sorted.sort_unstable();
    if sorted != produced {
        eprintln!("perfbench: metrics {produced:?} differ from the declared {declared:?}");
        return false;
    }
    for line in &out.notes {
        println!("# {workload}: {line}");
    }
    for c in &out.checks {
        println!(
            "# {workload}: check {} {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.what
        );
    }
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "# {workload}: failures {}/{} = {:.3}",
        out.failed, out.attempted, share
    );
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let v = out.metrics.0[name];
        println!(
            "# {workload}: metric {name:<32} {:>16.6} {unit:<8} n={}",
            v.value, v.n
        );
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v.value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let root = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let get = |v: &'_ Value, key: &str| -> Value {
            v.as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == key))
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        };
        let text_of = |v: Value| match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {}", other.kind()),
        };
        get(&root, section)
            .as_array()
            .expect(section)
            .iter()
            .map(|m| (text_of(get(m, "name")), text_of(get(m, "unit"))))
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), format!("{:?}", f64::MAX));
    }
}
