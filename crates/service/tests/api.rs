//! The HTTP/JSON API end to end against a mock backend: submit over
//! POST, observe status, fetch merged results, cancel, shut down.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fades_core::Outcome;
use fades_dispatch::{CancelToken, Journal, JournalHeader, JournalRecord};
use fades_service::{api, CampaignBackend, JobSpec, Service, ServiceConfig, ShardRun};
use fades_telemetry::json::parse;
use fades_telemetry::{http_get, http_post};

struct InstantBackend;

impl CampaignBackend for InstantBackend {
    fn validate(&self, spec: &JobSpec) -> Result<(), String> {
        (spec.load == "mock")
            .then_some(())
            .ok_or_else(|| format!("unknown fault load `{}`", spec.load))
    }

    fn run_shard(
        &self,
        spec: &JobSpec,
        shard: u32,
        journal_path: &Path,
        _cancel: &CancelToken,
    ) -> Result<ShardRun, String> {
        let header = JournalHeader {
            campaign: "mock".into(),
            load: spec.load.clone(),
            n_total: spec.faults,
            seed: spec.seed,
            shard,
            of: spec.shards,
            run_cycles: 1,
        };
        let mut journal = Journal::create(journal_path, &header).map_err(|e| e.to_string())?;
        let mine: Vec<u64> = (0..spec.faults)
            .filter(|i| i % spec.shards as u64 == shard as u64)
            .collect();
        for index in &mine {
            journal
                .append(&JournalRecord::Completed {
                    index: *index,
                    outcome: Outcome::Latent,
                    modelled_seconds: (*index as f64) * 0.25,
                    attempts: 1,
                })
                .map_err(|e| e.to_string())?;
        }
        journal
            .append(&JournalRecord::ShardComplete {
                completed: mine.len() as u64,
                quarantined: 0,
            })
            .map_err(|e| e.to_string())?;
        Ok(ShardRun { cancelled: false })
    }
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fades-api-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn http_submit_status_results_cancel_shutdown() {
    let dir = scratch("full");
    let service = Service::start(
        &ServiceConfig {
            queue_dir: dir.clone(),
            workers: 2,
            max_jobs: 2,
        },
        Box::new(InstantBackend),
    )
    .unwrap();
    let server = api::start_http("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.addr().to_string();

    // Bad submissions are 400s.
    let (code, _) = http_post(&addr, "/campaigns", "not json").unwrap();
    assert_eq!(code, 400);
    let (code, body) = http_post(&addr, "/campaigns", r#"{"load":"no-such"}"#).unwrap();
    assert_eq!(code, 400, "{body}");

    // Present numbers must be exact non-negative integers: no silent
    // fallback to the default, no rounding through f64.
    for bad in [
        r#"{"load":"mock","seed":1.5}"#,
        r#"{"load":"mock","seed":-1}"#,
        r#"{"load":"mock","seed":"7"}"#,
        r#"{"load":"mock","faults":1e19}"#,
        r#"{"load":"mock","faults":2.5}"#,
        r#"{"load":"mock","shards":-1}"#,
        r#"{"load":"mock","shards":0}"#,
        r#"{"load":"mock","shards":4097}"#,
    ] {
        let (code, body) = http_post(&addr, "/campaigns", bad).unwrap();
        assert_eq!(code, 400, "{bad} -> {body}");
    }
    assert!(service.list().is_empty(), "nothing invalid was queued");

    // A seed above 2^53 runs exactly as sent.
    let exact_seed = (1u64 << 53) + 1;
    let (code, body) = http_post(
        &addr,
        "/campaigns",
        &format!(r#"{{"load":"mock","faults":4,"seed":{exact_seed}}}"#),
    )
    .unwrap();
    assert_eq!(code, 200, "{body}");
    let job = parse(body.trim()).unwrap();
    assert_eq!(
        job.get("seed")
            .and_then(fades_telemetry::json::JsonValue::as_u64),
        Some(exact_seed),
        "{body}"
    );
    let exact_id = job.get("id").and_then(|v| v.as_str()).unwrap().to_string();
    assert_eq!(service.job(&exact_id).unwrap().spec.seed, exact_seed);

    // A good submission returns the allocated job document.
    let (code, body) = http_post(
        &addr,
        "/campaigns",
        r#"{"load":"mock","faults":12,"seed":3,"shards":3,"label":"smoke"}"#,
    )
    .unwrap();
    assert_eq!(code, 200, "{body}");
    let job = parse(body.trim()).unwrap();
    let id = job.get("id").and_then(|v| v.as_str()).unwrap().to_string();
    assert_eq!(job.get("label").and_then(|v| v.as_str()), Some("smoke"));

    wait_until("job completed over HTTP", || {
        let (code, body) = http_get(&addr, &format!("/campaigns/{id}")).unwrap();
        assert_eq!(code, 200, "{body}");
        let v = parse(body.trim()).unwrap();
        v.get("job")
            .and_then(|j| j.get("state"))
            .and_then(|s| s.as_str())
            == Some("completed")
    });

    // Detail embeds campaign_status progress once journals exist.
    let (_, body) = http_get(&addr, &format!("/campaigns/{id}")).unwrap();
    let detail = parse(body.trim()).unwrap();
    let progress = detail.get("progress").expect("progress embedded");
    assert_eq!(
        progress
            .get("expected")
            .and_then(fades_telemetry::json::JsonValue::as_u64),
        Some(12),
        "{body}"
    );

    // Results: complete merge with exact stats bits.
    let (code, body) = http_get(&addr, &format!("/campaigns/{id}/results")).unwrap();
    assert_eq!(code, 200, "{body}");
    let results = parse(body.trim()).unwrap();
    assert_eq!(results.get("complete").and_then(|v| v.as_str()), None); // bool, not str
    assert_eq!(
        results
            .get("completed")
            .and_then(fades_telemetry::json::JsonValue::as_u64),
        Some(12)
    );
    let stats = results.get("stats").unwrap();
    assert_eq!(
        stats
            .get("latents")
            .and_then(fades_telemetry::json::JsonValue::as_u64),
        Some(12)
    );
    let expected: f64 = (0..12u64).map(|i| i as f64 * 0.25).sum();
    assert_eq!(
        stats.get("emulation_seconds_bits").and_then(|v| v.as_str()),
        Some(format!("{:016x}", expected.to_bits()).as_str()),
        "merged bits must equal in-order fold"
    );

    // Listing shows the job; unknown ids are 404.
    let (code, body) = http_get(&addr, "/campaigns").unwrap();
    assert_eq!(code, 200);
    assert!(body.contains(&id));
    let (code, _) = http_get(&addr, "/campaigns/job-999999").unwrap();
    assert_eq!(code, 404);

    // Cancelling a terminal job is a 409.
    let (code, _) = http_post(&addr, &format!("/campaigns/{id}/cancel"), "").unwrap();
    assert_eq!(code, 409);

    // /metrics carries the service gauges.
    let (code, body) = http_get(&addr, "/metrics").unwrap();
    assert_eq!(code, 200);
    assert!(body.contains("fades_service_queue_depth"), "{body}");
    assert!(body.contains("fades_service_jobs_running"));
    assert!(body.contains("fades_service_jobs_completed"));

    // Shutdown: wakes the waiter, further submits are 503.
    let (code, _) = http_post(&addr, "/shutdown", "").unwrap();
    assert_eq!(code, 200);
    service.wait_for_shutdown();
    let (code, _) = http_post(&addr, "/campaigns", r#"{"load":"mock"}"#).unwrap();
    assert_eq!(code, 503);

    service.join();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_submit_is_a_400_and_the_server_keeps_serving() {
    // A body-budget's worth of `[` used to recurse the JSON parser off
    // the end of the serving thread's stack, aborting the whole process.
    let dir = scratch("nesting");
    let service = Service::start(
        &ServiceConfig {
            queue_dir: dir.clone(),
            workers: 1,
            max_jobs: 1,
        },
        Box::new(InstantBackend),
    )
    .unwrap();
    let server = api::start_http("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.addr().to_string();

    let body = "[".repeat(fades_telemetry::serve::BODY_BUDGET);
    let (code, reply) = http_post(&addr, "/campaigns", &body).unwrap();
    assert_eq!(code, 400, "{reply}");
    assert!(reply.contains("nesting"), "{reply}");

    let (code, reply) = http_get(&addr, "/campaigns").unwrap();
    assert_eq!(code, 200, "{reply}");

    service.join();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn body_budget_string_submit_is_a_400_and_the_server_keeps_serving() {
    // A body-budget's worth of string used to hold the only HTTP thread
    // for seconds: the JSON parser re-validated the rest of the body for
    // every character of the string.
    let dir = scratch("long-string");
    let service = Service::start(
        &ServiceConfig {
            queue_dir: dir.clone(),
            workers: 1,
            max_jobs: 1,
        },
        Box::new(InstantBackend),
    )
    .unwrap();
    let server = api::start_http("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.addr().to_string();

    let frame = "{\"load\":\"\"}";
    let load = "a".repeat(fades_telemetry::serve::BODY_BUDGET - frame.len());
    let body = format!("{{\"load\":\"{load}\"}}");
    assert_eq!(body.len(), fades_telemetry::serve::BODY_BUDGET);
    let (code, reply) = http_post(&addr, "/campaigns", &body).unwrap();
    let head = &reply[..reply.len().min(200)];
    assert_eq!(code, 400, "{head}");
    // The message echoes the load name; the reply cuts it to 4 KiB
    // instead of echoing the whole body back.
    let error = parse(reply.trim()).unwrap();
    let error = error.get("error").and_then(|e| e.as_str()).unwrap();
    assert!(error.len() <= 4 * 1024, "{} bytes: {head}", error.len());
    assert!(error.starts_with("unknown fault load"), "{head}");
    assert!(error.ends_with("… [cut]"), "{head}");

    let (code, reply) = http_get(&addr, "/campaigns").unwrap();
    assert_eq!(code, 200, "{reply}");

    service.join();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
