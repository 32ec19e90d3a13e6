//! The `compare` subcommand: two sets of run records, judged against the
//! bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use fades_telemetry::json::{self, JsonValue};

use crate::setup::Error;
use crate::stats;

/// One end-to-end metric's contract.
struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_bounds(benchmark: &str) -> Result<Vec<Bound>, Error> {
    let doc = json::parse(benchmark)?;
    let Some(JsonValue::Array(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            Ok(Bound {
                name: s("name"),
                unit: s("unit"),
                higher_is_better: s("better") == "higher",
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("end_to_end metric without bound")?,
            })
        })
        .collect()
}

/// Values per (workload, metric) from the untraced records in `path`.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn read_records(path: &Path) -> Result<Samples, Error> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Samples::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = json::parse(line)?;
        if matches!(rec.get("trace"), Some(JsonValue::Bool(true))) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("record without workload")?;
        let Some(JsonValue::Object(metrics)) = rec.get("result").and_then(|r| r.get("metrics"))
        else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Interquartile range over the median.
fn spread(q: [f64; 3]) -> f64 {
    if q[1] == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / q[1]
    }
}

/// Prints, for each workload × end-to-end metric, both sides' median,
/// quartiles and spread, the change and the verdict. Returns whether no
/// pairing reads worse. `benchmark` is the text of `BENCHMARK.json`.
///
/// # Errors
///
/// Unreadable or malformed inputs.
pub fn compare(a: &Path, b: &Path, benchmark: &str) -> Result<bool, Error> {
    let bounds = read_bounds(benchmark)?;
    let (sa, sb) = (read_records(a)?, read_records(b)?);
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = sa.keys().map(|k| &k.0).collect();
        w.dedup();
        w
    };
    println!(
        "{:<15} {:<12} {:>5} {:>12} {:>22} {:>6} {:>12} {:>22} {:>6} {:>8}  verdict",
        "workload",
        "metric",
        "bound",
        "A median",
        "A q1..q3",
        "A sprd",
        "B median",
        "B q1..q3",
        "B sprd",
        "change"
    );
    let mut no_worse = true;
    for w in workloads {
        for bound in &bounds {
            let key = (w.clone(), bound.name.clone());
            let (Some(va), Some(vb)) = (sa.get(&key), sb.get(&key)) else {
                continue;
            };
            let (Some(qa), Some(qb)) = (stats::quartiles(va), stats::quartiles(vb)) else {
                continue;
            };
            let (ma, mb) = (qa[1], qb[1]);
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            // Positive = better, whichever way the metric points.
            let gain = if bound.higher_is_better {
                change
            } else {
                -change
            };
            let (sp_a, sp_b) = (spread(qa), spread(qb));
            let b_beats_every_a = if bound.higher_is_better {
                va.iter().cloned().fold(f64::MIN, f64::max)
                    < vb.iter().cloned().fold(f64::MAX, f64::min)
            } else {
                va.iter().cloned().fold(f64::MAX, f64::min)
                    > vb.iter().cloned().fold(f64::MIN, f64::max)
            };
            let verdict = if (sp_a > bound.bound || sp_b > bound.bound) && !b_beats_every_a {
                "unresolved"
            } else if gain < -bound.bound {
                "worse"
            } else if gain > bound.bound {
                "better"
            } else {
                "within bound"
            };
            no_worse &= verdict != "worse";
            println!(
                "{:<15} {:<12} {:>5.2} {:>12.4} {:>22} {:>6.3} {:>12.4} {:>22} {:>6.3} {:>+7.1}%  {verdict} ({} vs {} runs, {})",
                w,
                bound.name,
                bound.bound,
                ma,
                format!("{:.4}..{:.4}", qa[0], qa[2]),
                sp_a,
                mb,
                format!("{:.4}..{:.4}", qb[0], qb[2]),
                sp_b,
                change * 100.0,
                va.len(),
                vb.len(),
                bound.unit,
            );
        }
    }
    Ok(no_worse)
}
