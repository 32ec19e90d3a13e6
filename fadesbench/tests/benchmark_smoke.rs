//! Runs every workload at `--smoke` size, untraced and traced, and checks
//! the output against `BENCHMARK.json`: every listed metric is emitted
//! with its unit and a sample count, the correctness gates pass, and the
//! trace's spans nest.

use std::path::{Path, PathBuf};
use std::process::Command;

use fades_telemetry::json::{self, JsonValue};

fn benchmark() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `kind`.
fn listed(kind: &str) -> Vec<(String, String)> {
    let Some(JsonValue::Array(metrics)) = benchmark().get(kind).cloned() else {
        panic!("BENCHMARK.json has no `{kind}` list");
    };
    metrics
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs one workload in a fresh directory; returns the final line, the
/// record appended to `--out`, and the directory.
fn run(workload: &str, trace: bool) -> (JsonValue, JsonValue, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_fades-bench"))
        .current_dir(&dir)
        .args(["run", "--workload", workload, "--seed", "7", "--smoke"])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--out",
            "records.jsonl",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = json::parse(stdout.lines().last().unwrap()).unwrap();
    let record = json::parse(
        std::fs::read_to_string(dir.join("records.jsonl"))
            .unwrap()
            .trim(),
    )
    .unwrap();
    (last, record, dir)
}

fn check(workload: &str) {
    for trace in [false, true] {
        let (last, record, dir) = run(workload, trace);
        let Some(JsonValue::Object(top)) = Some(&last) else {
            panic!("final line is not an object");
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(last.get("failed").and_then(JsonValue::as_u64), Some(0));
        assert!(last.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);

        let kind = if trace { "per_layer" } else { "end_to_end" };
        let want = listed(kind);
        let Some(JsonValue::Object(metrics)) = last.get("metrics") else {
            panic!("no metrics object");
        };
        assert_eq!(
            metrics.len(),
            want.len(),
            "{workload}: exactly the {kind} metrics"
        );
        for (name, unit) in &want {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
            assert_eq!(
                m.get("unit").and_then(JsonValue::as_str),
                Some(unit.as_str())
            );
            let value = m.get("value").and_then(JsonValue::as_f64).unwrap();
            assert!(value.is_finite(), "{workload}: `{name}` = {value}");
            let samples = record
                .get("samples")
                .and_then(|s| s.get(name))
                .and_then(JsonValue::as_u64)
                .unwrap_or_else(|| panic!("{workload}: no sample count for `{name}`"));
            if !trace {
                assert!(samples >= 1, "{workload}: `{name}` has no samples");
            }
        }

        let out_dir = dir.join("target/fades-bench");
        let leftovers: Vec<_> = std::fs::read_dir(&out_dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "scratch directories left behind");
        if trace {
            check_trace(&out_dir.join(format!("{workload}.trace.json")));
        }
    }
}

/// Every span lies inside its parent (or the request span it is linked
/// to), and no self time is negative.
fn check_trace(path: &Path) {
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(JsonValue::Array(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents");
    };
    assert!(!events.is_empty());
    let num = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_f64).unwrap();
    let arg = |e: &JsonValue, k: &str| {
        e.get("args")
            .and_then(|a| a.get(k))
            .and_then(JsonValue::as_f64)
    };
    let by_id: std::collections::HashMap<u64, &JsonValue> = events
        .iter()
        .map(|e| (arg(e, "id").unwrap() as u64, e))
        .collect();
    for e in events {
        let (start, end) = (num(e, "ts"), num(e, "ts") + num(e, "dur"));
        assert!(arg(e, "self_us").unwrap() >= -1.0, "negative self time");
        if let Some(outer) = arg(e, "parent").or_else(|| arg(e, "link")) {
            let p = by_id[&(outer as u64)];
            let (ps, pe) = (num(p, "ts"), num(p, "ts") + num(p, "dur"));
            assert!(
                start >= ps - 1.0 && end <= pe + 1.0,
                "span outside its parent"
            );
        }
    }
}

#[test]
fn paper_lane() {
    check("paper-lane");
}

#[test]
fn delay_scalar() {
    check("delay-scalar");
}

#[test]
fn sharded_resume() {
    check("sharded-resume");
}

#[test]
fn service_jobs() {
    check("service-jobs");
}
