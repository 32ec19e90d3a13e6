//! End-to-end smoke test for the live observability layer: a real
//! sharded campaign run through the `fades-experiments` binary with
//! tracing and the metrics endpoint enabled.
//!
//! Phase A runs a tiny two-shard campaign to completion and validates
//! the artifacts: the Chrome trace parses as JSON with monotonic `ts`,
//! `campaign_status` and the `status` subcommand agree with the
//! journals, and `status --watch` flags a stalled shard. Phase B spawns
//! a deliberately huge shard, scrapes its live `/metrics` and `/status`
//! endpoints mid-run with the crate's own HTTP client, then kills it.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use fades_telemetry::json::{parse, JsonValue};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_fades-experiments")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fades-smoke-{}-{name}", std::process::id()))
}

fn base_cmd(faults: &str) -> Command {
    let mut cmd = Command::new(bin());
    // A hermetic environment: no inherited run log / metrics / trace
    // settings from the invoking shell.
    cmd.env_remove("FADES_RUN_LOG")
        .env_remove("FADES_METRICS_ADDR")
        .env_remove("FADES_METRICS_ADDR_FILE")
        .env_remove("FADES_TRACE_OUT")
        .env_remove("FADES_WATCHDOG_MS")
        .env_remove("FADES_NO_BATCH")
        .env("FADES_FAULTS", faults)
        .env("FADES_THREADS", "2")
        .env("FADES_PROGRESS", "0");
    cmd
}

#[test]
fn sharded_campaign_observability_end_to_end() {
    let j0 = tmp("s0.jsonl");
    let j1 = tmp("s1.jsonl");
    let trace = tmp("trace.json");
    for p in [&j0, &j1, &trace] {
        let _ = std::fs::remove_file(p);
    }

    // Phase A: run both shards of a 20-fault campaign to completion,
    // with span tracing on for shard 0.
    let out = base_cmd("20")
        .args(["shard", "0/2"])
        .arg(&j0)
        .env("FADES_TRACE_OUT", &trace)
        .output()
        .expect("run shard 0");
    assert!(out.status.success(), "shard 0 failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("chrome trace:"),
        "trace export announced: {stderr}"
    );
    let out = base_cmd("20")
        .args(["shard", "1/2"])
        .arg(&j1)
        .output()
        .expect("run shard 1");
    assert!(out.status.success(), "shard 1 failed: {out:?}");

    validate_chrome_trace(&trace);

    // The journals alone yield the merged cross-shard view.
    let report = fades_dispatch::campaign_status(&[&j0, &j1]).expect("campaign_status");
    assert_eq!(report.expected, 20);
    assert_eq!(report.settled(), 20);
    assert!(report.all_complete());
    assert!(report.missing_shards.is_empty());
    assert!(report.rate.is_some(), "timestamped journals produce a rate");
    assert!(report.eta_s.is_none(), "nothing remains, no ETA");

    // The status subcommand renders the same numbers.
    let out = Command::new(bin())
        .arg("status")
        .args([&j0, &j1])
        .output()
        .expect("status");
    assert!(out.status.success(), "status failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("20/20 settled"), "merged total: {stdout}");
    assert!(stdout.contains("shard 0:"), "per-shard lines: {stdout}");
    assert!(stdout.contains("complete"), "completion state: {stdout}");

    // ... and --json round-trips through the parser.
    let out = Command::new(bin())
        .args(["status", "--json"])
        .args([&j0, &j1])
        .output()
        .expect("status --json");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = parse(stdout.trim()).expect("status --json parses");
    assert_eq!(v.get("completed").and_then(JsonValue::as_u64), Some(20));
    assert_eq!(v.get("expected").and_then(JsonValue::as_u64), Some(20));

    // A shard whose journal stops moving mid-campaign is a stall:
    // truncate shard 1's journal to look abandoned (header + one
    // record, no shard_complete), then watch with a zero deadline.
    let j_stall = tmp("stall.jsonl");
    let full = std::fs::read_to_string(&j1).unwrap();
    let head: Vec<&str> = full.lines().take(2).collect();
    std::fs::write(&j_stall, format!("{}\n", head.join("\n"))).unwrap();
    let out = Command::new(bin())
        .args([
            "status",
            "--watch",
            "--deadline",
            "0",
            "--interval",
            "0.05",
            "--polls",
            "2",
        ])
        .arg(&j_stall)
        .output()
        .expect("status --watch");
    assert!(out.status.success(), "watch failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("anomaly stall"),
        "stalled shard flagged: {stderr}"
    );

    // Phase B: a shard big enough to still be running while we scrape
    // its live endpoints.
    let j_live = tmp("live.jsonl");
    let addr_file = tmp("addr.txt");
    let _ = std::fs::remove_file(&addr_file);
    let mut child = base_cmd("100000")
        .args(["shard", "0/1"])
        .arg(&j_live)
        .env("FADES_METRICS_ADDR", "127.0.0.1:0")
        .env("FADES_METRICS_ADDR_FILE", &addr_file)
        .spawn()
        .expect("spawn live shard");

    let addr = wait_for_addr(&addr_file, &mut child);
    // /metrics speaks Prometheus and includes the campaign gauges.
    let metrics = scrape_until(&addr, "/metrics", &mut child, |body| {
        body.contains("fades_experiments_total")
    });
    assert!(metrics.contains("# TYPE fades_anomalies_total counter"));
    assert!(metrics.contains("fades_dispatch_quarantines_total"));
    // /status is JSON whose done counter eventually moves.
    let status = scrape_until(&addr, "/status", &mut child, |body| {
        parse(body.trim())
            .ok()
            .and_then(|v| v.get("experiments_done").and_then(JsonValue::as_u64))
            .is_some_and(|done| done > 0)
    });
    let v = parse(status.trim()).expect("status parses");
    assert_eq!(
        v.get("experiments_total").and_then(JsonValue::as_u64),
        Some(100_000)
    );
    assert!(v
        .get("faults_per_sec")
        .and_then(JsonValue::as_f64)
        .is_some());

    // The default batched path must be visibly warm-starting: cohorts
    // skip replayed golden-prefix cycles, and that surfaces on /metrics.
    scrape_until(&addr, "/metrics", &mut child, |body| {
        counter_value(body, "fades_sim_warm_skipped_cycles_total").is_some_and(|v| v > 0)
    });

    child.kill().expect("kill live shard");
    let _ = child.wait();

    for p in [&j0, &j1, &trace, &j_stall, &j_live, &addr_file] {
        let _ = std::fs::remove_file(p);
    }
}

/// Extracts `name value` from a Prometheus exposition body.
fn counter_value(body: &str, name: &str) -> Option<u64> {
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// The emitted Chrome trace must parse as JSON, contain only complete
/// (`"ph":"X"`) events with monotonically non-decreasing `ts`, and
/// carry the experiment spans the campaign ran.
fn validate_chrome_trace(path: &Path) {
    let text = std::fs::read_to_string(path).expect("trace file exists");
    let doc = parse(text.trim()).expect("trace parses as JSON");
    let events = match doc.get("traceEvents") {
        Some(JsonValue::Array(events)) => events,
        other => panic!("traceEvents array missing: {other:?}"),
    };
    assert!(!events.is_empty(), "trace has events");
    let mut last_ts = f64::MIN;
    let mut experiment_spans = 0;
    for ev in events {
        assert_eq!(ev.get("ph").and_then(JsonValue::as_str), Some("X"));
        let ts = ev.get("ts").and_then(JsonValue::as_f64).expect("ts");
        assert!(ts >= last_ts, "ts monotonic: {ts} after {last_ts}");
        last_ts = ts;
        assert!(ev.get("dur").and_then(JsonValue::as_f64).is_some());
        assert!(ev.get("tid").and_then(JsonValue::as_u64).is_some());
        if ev.get("name").and_then(JsonValue::as_str) == Some("experiment") {
            experiment_spans += 1;
            assert!(
                ev.get("args")
                    .and_then(|a| a.get("experiment"))
                    .and_then(JsonValue::as_u64)
                    .is_some(),
                "experiment spans carry their plan index"
            );
        }
    }
    assert!(
        experiment_spans >= 10,
        "shard 0 of 20 faults ran {experiment_spans} experiment spans"
    );
}

fn wait_for_addr(addr_file: &Path, child: &mut std::process::Child) -> String {
    let t0 = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        assert!(
            child.try_wait().expect("probe child").is_none(),
            "live shard exited before serving metrics"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "metrics address never appeared"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Polls `path` until `ready` accepts the body (the server is up before
/// the campaign starts ticking, so early scrapes can see zeros).
fn scrape_until(
    addr: &str,
    path: &str,
    child: &mut std::process::Child,
    ready: impl Fn(&str) -> bool,
) -> String {
    let t0 = Instant::now();
    loop {
        if let Ok((code, body)) = fades_telemetry::http_get(addr, path) {
            assert_eq!(code, 200, "GET {path}");
            if ready(&body) {
                return body;
            }
        }
        assert!(
            child.try_wait().expect("probe child").is_none(),
            "live shard exited while scraping {path}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "GET {path} never became ready"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}
