//! Run output: the human report, the final JSON line and the per-run
//! record `compare` reads.

use std::io::Write;
use std::path::Path;

use fades_telemetry::json::{self, JsonObject};

use crate::setup::Error;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured (full precision).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (rounds, jobs, builds, experiments).
    pub samples: usize,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Everything one `run` produced.
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Experiments attempted in the timed phase.
    pub attempted: usize,
    /// Of those, lost to quarantine, failed jobs or mismatches.
    pub failed: usize,
    /// End-to-end metrics (always computed).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics `BENCHMARK.json` lists (traced run only).
    pub per_layer: Vec<Metric>,
    /// Wall seconds of every timed round, in order.
    pub round_walls: Vec<f64>,
    /// Layer metrics only this workload has, which `BENCHMARK.json`
    /// cannot list (every listed metric is printed on every workload).
    pub extra: Vec<Metric>,
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut obj = JsonObject::new();
    for m in metrics {
        obj = obj.raw(
            &m.name,
            &JsonObject::new()
                .f64("value", m.value)
                .str("unit", m.unit)
                .finish(),
        );
    }
    obj.finish()
}

fn samples_json(metrics: &[&Metric]) -> String {
    let mut obj = JsonObject::new();
    for m in metrics {
        obj = obj.u64(&m.name, m.samples as u64);
    }
    obj.finish()
}

impl Outcome {
    /// The metrics the final line carries: end-to-end untraced,
    /// per-layer traced.
    pub fn emitted(&self) -> &[Metric] {
        if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The final stdout line.
    pub fn result_json(&self) -> String {
        JsonObject::new()
            .raw("correct", if self.correct { "true" } else { "false" })
            .u64("attempted", self.attempted as u64)
            .u64("failed", self.failed as u64)
            .raw("metrics", &metrics_json(self.emitted()))
            .finish()
    }

    /// The record appended to `--out`: the final line plus sample counts
    /// and the workload-only layer metrics.
    pub fn record_json(&self) -> String {
        let all: Vec<&Metric> = self
            .end_to_end
            .iter()
            .chain(&self.per_layer)
            .chain(&self.extra)
            .collect();
        JsonObject::new()
            .str("workload", &self.workload)
            .u64("seed", self.seed)
            .raw("trace", if self.traced { "true" } else { "false" })
            .raw("result", &self.result_json())
            .raw("extra", &metrics_json(&self.extra))
            .raw("samples", &samples_json(&all))
            .raw(
                "round_walls_s",
                &json::array(
                    &self
                        .round_walls
                        .iter()
                        .map(|w| json::number(*w))
                        .collect::<Vec<_>>(),
                ),
            )
            .finish()
    }

    /// Prints the human-readable report.
    pub fn print(&self) {
        let section = |title: &str, metrics: &[Metric]| {
            if metrics.is_empty() {
                return;
            }
            println!("  {title}");
            for m in metrics {
                println!(
                    "    {:<44} {:>14.4} {:<9} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        };
        let e2e_title = if self.traced {
            "end to end (untraced rounds; the untraced run is authoritative)"
        } else {
            "end to end"
        };
        section(e2e_title, &self.end_to_end);
        section("per layer", &self.per_layer);
        section("workload-only layers (not in BENCHMARK.json)", &self.extra);
        println!(
            "  correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
    }

    /// Appends the record to `path`.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn append_record(&self, path: &Path) -> Result<(), Error> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.record_json())?;
        Ok(())
    }
}
