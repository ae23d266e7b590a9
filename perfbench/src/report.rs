//! What one leg of a workload measured, and the metric catalogue that
//! `BENCHMARK.json` mirrors.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json` order,
/// measured with the benchmark's spans off. Every workload reports each
/// of them; README.md defines each per workload.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("p50_us", "us"), ("check_s", "s")];

/// Per-layer metrics `(name, unit)`, in `BENCHMARK.json` order, from
/// the traced run.
/// `bench.*` figures come from the run's untraced leg; the rest from
/// its traced leg. A layer a workload leaves idle reports 0. The
/// `dist.*` figures of the by-hand `dist-3pc` workload are not declared
/// and print as extra lines.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("bench.trace_overhead", "ratio"),
    ("bench.tput_tps", "1/s"),
    ("bench.fail_ratio", "ratio"),
    ("bench.samples", "count"),
    ("bench.p99_us", "us"),
    ("bench.ro_p50_us", "us"),
    ("bench.ro_p99_us", "us"),
    ("bench.recover_s", "s"),
    ("bench.verify_s", "s"),
    ("pool.submit_p50_us", "us"),
    ("pool.submit_p99_us", "us"),
    ("pool.queue_wait_p50_us", "us"),
    ("pool.queue_wait_p99_us", "us"),
    ("engine.begin_p50_us", "us"),
    ("engine.begin_p99_us", "us"),
    ("engine.read_p50_us", "us"),
    ("engine.read_p99_us", "us"),
    ("engine.write_p50_us", "us"),
    ("engine.write_p99_us", "us"),
    ("engine.commit_ro_p50_us", "us"),
    ("engine.commit_ro_p99_us", "us"),
    ("engine.commit_rw_p50_us", "us"),
    ("engine.commit_rw_p99_us", "us"),
    ("engine.retry_ratio", "ratio"),
    ("engine.wal.forces_per_commit", "ratio"),
    ("engine.wal.bytes_per_commit", "B"),
    ("txn.serializable_check_s", "s"),
    ("txn.sampled_ops", "count"),
    ("core.load_s", "s"),
    ("logic.replay_s", "s"),
    ("blocks.scripts_s", "s"),
    ("logic.audit_s", "s"),
    ("logic.clauses_generated.p1", "count"),
    ("logic.clauses_generated.p2", "count"),
    ("logic.clauses_generated.p3", "count"),
    ("logic.audit_calls", "count"),
    ("logic.audit_distinct", "count"),
    ("logic.audit_contradictions", "count"),
    ("logic.prove_p50_us", "us"),
    ("logic.prove_p99_us", "us"),
    ("logic.prove_max_s", "s"),
    ("logic.timeouts", "count"),
];

/// One measured figure with its unit and how it was taken.
#[derive(Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, percentile actually reported, or provenance.
    pub note: String,
}

/// A correctness check the benchmark made on the program's outputs.
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

/// Everything one execution of a workload produced.
#[derive(Debug, Default)]
pub struct Leg {
    pub metrics: BTreeMap<&'static str, Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
}

impl Leg {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.put_note(name, value, unit, String::new());
    }

    pub fn put_note(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.insert(name, Metric { value, unit, note });
    }

    /// Records the median of `samples` (µs) under `p50` and their
    /// supported tail under `p99`, noting the sample count and the
    /// percentile the tail really is. Without enough samples for a
    /// tail, the `p99` figure is the maximum and says so.
    pub fn put_latency(&mut self, p50: &'static str, p99: &'static str, samples: &[f64]) {
        let n = samples.len();
        let med = crate::stats::median(samples).unwrap_or(0.0);
        self.put_note(p50, med, "us", format!("n={n}"));
        let (note, value) = match crate::stats::tail(samples) {
            Some((q, v)) if q >= 99.0 => (format!("p99 n={n}"), v),
            Some((q, v)) => (format!("p{q:.2} n={n}"), v),
            None => (format!("max n={n}"), crate::stats::percentile(samples, 100.0).unwrap_or(0.0)),
        };
        self.put_note(p99, value, "us", note);
    }

    pub fn check(&mut self, name: &'static str, pass: bool, detail: String) {
        self.checks.push(Check { name, pass, detail });
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the binary name the same metrics, in the
    /// same order, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let pairs = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("key present");
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
        };
        assert_eq!(pairs("end_to_end"), owned(&END_TO_END));
        assert_eq!(pairs("per_layer"), owned(&PER_LAYER));
    }
}
