//! What a run measured and how it was set up, printed at the end.

use std::fmt::Write as _;

use serde::Deserialize;

use crate::server::Tally;
use crate::trace::Tracer;

/// The frozen per-workload settings from `workloads.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadConfig {
    pub name: String,
    /// Open-loop rate of the `*_light` latency metrics, ops/s.
    pub light_rps: f64,
    /// Open-loop rate of the `*_heavy` latency metrics, ops/s.
    pub heavy_rps: f64,
    /// p99 latency limit of `capacity_rps`, µs.
    pub slo_p99_us: f64,
    /// Operations of the traced in-process replay.
    pub replay_ops: usize,
}

#[derive(Debug, Clone, Deserialize)]
struct ConfigFile {
    workloads: Vec<WorkloadConfig>,
}

/// The settings of `name`, from the `workloads.json` compiled in.
pub fn workload_config(name: &str) -> Option<WorkloadConfig> {
    let file: ConfigFile =
        serde_json::from_str(include_str!("../workloads.json")).expect("workloads.json is valid");
    file.workloads.into_iter().find(|w| w.name == name)
}

/// Operations of one phase.
#[derive(Debug, Clone)]
pub struct PhaseLine {
    pub name: String,
    pub sent: u64,
    pub failed: u64,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<(String, f64, String)>,
    pub provenance: Vec<(String, String)>,
    pub phases: Vec<PhaseLine>,
    pub problems: Vec<String>,
    pub samples: Vec<(String, u64)>,
    /// Failures found outside any phase (e.g. replay disagreement).
    pub extra_failed: u64,
    /// `(label, csv)` span dumps written out after the run.
    pub span_dumps: Vec<(String, String)>,
    /// `(label, name, count, mean_us, mean_self_us)` span summaries.
    pub span_totals: Vec<(String, String, u64, f64, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    pub fn prov(&mut self, key: &str, value: impl Into<String>) {
        self.provenance.push((key.to_owned(), value.into()));
    }

    /// Records a metric's per-round values as provenance.
    pub fn rounds(&mut self, name: &str, values: &[f64]) {
        let list: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
        self.prov(&format!("rounds {name}"), list.join(" "));
    }

    pub fn samples(&mut self, label: &str, n: u64) {
        self.samples.push((label.to_owned(), n));
    }

    pub fn fail(&mut self, problem: String) {
        self.extra_failed += 1;
        self.problems.push(problem);
    }

    /// Records a phase's operation counts and any problems it found.
    pub fn phase(&mut self, name: &str, tally: &Tally) {
        self.phase_counts(name, tally.ops, tally.failed, &tally.problems);
    }

    pub fn phase_counts(&mut self, name: &str, sent: u64, failed: u64, problems: &[String]) {
        self.phases.push(PhaseLine {
            name: name.to_owned(),
            sent,
            failed,
        });
        self.problems.extend(problems.iter().cloned());
    }

    /// Keeps a tracer's spans for writing out, and their per-name totals.
    pub fn spans(&mut self, tracer: &Tracer, label: &str) {
        for (name, t) in tracer.totals() {
            self.span_totals.push((
                label.to_owned(),
                name.to_owned(),
                t.count,
                t.mean_us(),
                t.mean_self_us(),
            ));
        }
        self.span_dumps
            .push((label.to_owned(), tracer.to_csv(50_000)));
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum::<u64>().max(1)
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum::<u64>() + self.extra_failed
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// A human-readable account: provenance, phases, samples, spans,
    /// every metric and every problem.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.provenance {
            let _ = writeln!(s, "# {k}: {v}");
        }
        for p in &self.phases {
            let _ = writeln!(
                s,
                "# phase {}: sent {} succeeded {} failed {}",
                p.name,
                p.sent,
                p.sent - p.failed.min(p.sent),
                p.failed
            );
        }
        for (label, n) in &self.samples {
            let _ = writeln!(s, "# samples {label}: {n}");
        }
        for (label, name, count, mean, self_us) in &self.span_totals {
            let _ = writeln!(
                s,
                "# span {label}/{name}: count {count} mean {mean:.3} us self {self_us:.3} us"
            );
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(s, "{name} = {value} {unit}");
        }
        for p in &self.problems {
            let _ = writeln!(s, "# PROBLEM: {p}");
        }
        s
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust keeps; a non-finite value reads
/// as 1e300, far worse than any measurement.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_owned()
    }
}
