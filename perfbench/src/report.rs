//! Metric names, units and the result line.

use crate::stats::{highest_percentile, Tally};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run of every workload:
/// `(name, unit)`. Definitions per workload are in perfbench/README.md.
/// The median operation time is printed in each run's header lines
/// but left out here: on a shared host it moves with the fraction of the
/// run spent under contention, far more than the p90 does.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("makespan_ratio", "ratio"),
    ("evals_per_s", "evals/s"),
    ("op_p90_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload never calls reports 0 for its counts.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("engine.run_ms", "ms"),
    ("engine.evals", "count"),
    ("engine.generations", "count"),
    ("engine.accept_ratio", "ratio"),
    ("engine.overshoot", "count"),
    ("engine.speedup_t2", "ratio"),
    ("sched.batch_eval_ns_per_row.512x16", "ns"),
    ("sched.batch_eval_ns_per_row.4096x64", "ns"),
    ("sched.from_assignment_us", "us"),
    ("heur.min_min_ms", "ms"),
    ("heur.cohort_ms", "ms"),
    ("runner.overhead_ms", "ms"),
    ("ckpt.save_ms", "ms"),
    ("ckpt.load_ms", "ms"),
    ("ckpt.bytes", "bytes"),
    ("crc.ns_per_kib", "ns"),
    ("fsx.write_ms", "ms"),
    ("etc.generate_ms.512x16", "ms"),
    ("etc.generate_ms.4096x64", "ms"),
    ("etc.text_write_ms", "ms"),
    ("etc.text_parse_ms", "ms"),
    ("etc.binary_decode_ms", "ms"),
    ("grid.apply_us", "us"),
    ("grid.repair_ms", "ms"),
    ("grid.sub_instance_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.resolve_us", "us"),
    ("proto.digest_us", "us"),
    ("proto.encode_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("server.batches", "count"),
    ("server.max_batch", "count"),
    ("server.coalesced", "count"),
    ("server.busy", "count"),
    ("server.errors", "count"),
    ("server.residual_ms", "ms"),
    ("server.hit_p50_ms", "ms"),
    ("server.hit_p90_ms", "ms"),
    ("server.miss_p50_ms", "ms"),
    ("server.miss_p90_ms", "ms"),
    ("server.drain_ms", "ms"),
    ("store.open_us", "us"),
    ("store.bests_ms", "ms"),
    ("store.records", "count"),
    ("store.to_builder_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.bytes", "bytes"),
    ("stream.open_ms", "ms"),
    ("stream.event_ms", "ms"),
    ("stream.recovery_evals", "count"),
    ("stream.warm_wins", "count"),
    ("stream.warm_losses", "count"),
    ("stream.unattributed_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.replay_ms", "ms"),
    ("trace.untraced_replay_ms", "ms"),
    ("trace.e2e_ms", "ms"),
];

/// The most a traced replay's top-level spans may leave of its wall time
/// uncovered (benchmark loop overhead between calls).
pub const COVERAGE_EPSILON: f64 = 0.05;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation accounting.
    pub tally: Tally,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts of percentile metrics, by name.
    pub samples: BTreeMap<&'static str, usize>,
    /// Header lines (host facts, input digest, design counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a percentile metric with its sample count.
    pub fn set_pct(&mut self, name: &'static str, value: Option<f64>, n: usize) {
        self.samples.insert(name, n);
        match value {
            Some(v) => self.set(name, v),
            None => {
                self.tally.record(Some(format!("{name}: {n} samples break the tail rule")));
            }
        }
    }

    /// Adds a header line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed check outside any single operation (a design
    /// count that did not match, a bad drain).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.tally.record(Some(why.into()));
    }
}

/// Renders the run: header, a metric table, failures, and the result
/// JSON as the last line. Returns whether the run is correct.
/// A traced run prints [`PER_LAYER`], an untraced one [`END_TO_END`].
pub fn print(workload: &str, traced: bool, out: &Outcome) -> bool {
    let metrics: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    println!("workload {workload}");
    for line in &out.notes {
        println!("  {line}");
    }
    let mut fields = Vec::new();
    let mut all_finite = true;
    for (name, unit) in metrics {
        let value = out.values.get(name).copied();
        let shown = match value {
            Some(v) if v.is_finite() => v,
            Some(_) => {
                all_finite = false;
                println!("  {name:<40} NOT FINITE");
                continue;
            }
            None if traced => 0.0,
            None => {
                all_finite = false;
                println!("  {name:<40} MISSING");
                continue;
            }
        };
        let mut line = format!("  {name:<40} {shown:>16.4} {unit}");
        if let Some(&n) = out.samples.get(name) {
            let top = highest_percentile(n).map_or("none".into(), |p| format!("p{p}"));
            line.push_str(&format!("  (n={n}; highest percentile with >=10 beyond: {top})"));
        }
        if value.is_none() {
            line.push_str("  (layer not called by this workload)");
        }
        println!("{line}");
        fields
            .push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(shown)));
    }
    for (why, n) in &out.tally.failures {
        println!("  FAILED {n}x: {why}");
    }
    let correct = all_finite && out.tally.failed() == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted.max(1),
        out.tally.failed(),
        fields.join(", ")
    );
    correct
}

/// A finite f64 with every digit it has.
fn json_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to perfbench/");
        let json = pa_cga_service::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s =
                        |k| m.get(k).and_then(|v| v.as_str()).expect("string field").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(0.123456789012), "0.123456789012");
    }
}
