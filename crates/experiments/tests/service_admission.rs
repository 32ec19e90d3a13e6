//! Admission of hostile job specs by the real service backend: an
//! oversized fault count is refused over HTTP without disturbing the
//! server, and one already persisted in the queue (an older build, a
//! hand edit) is failed on restart instead of being planned.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fades_experiments::service_cli::{ExperimentBackend, MAX_JOB_FAULTS};
use fades_service::{api, JobSpec, JobState, JobStore, Service, ServiceConfig};
use fades_telemetry::json::{parse, JsonValue};
use fades_telemetry::{http_get, http_post};

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fades-admission-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(queue: &std::path::Path) -> Arc<Service> {
    Service::start(
        &ServiceConfig {
            queue_dir: queue.to_path_buf(),
            workers: 1,
            max_jobs: 1,
        },
        Box::new(ExperimentBackend::new().expect("backend")),
    )
    .expect("service")
}

#[test]
fn oversized_submit_is_a_400_and_the_server_keeps_serving() {
    let queue = scratch("submit");
    let service = start(&queue);
    let server = api::start_http("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.addr().to_string();

    for faults in ["1e15".to_string(), (MAX_JOB_FAULTS + 1).to_string()] {
        let body = format!(r#"{{"load":"pulse-luts","faults":{faults}}}"#);
        let (code, reply) = http_post(&addr, "/campaigns", &body).unwrap();
        assert_eq!(code, 400, "{body} -> {reply}");
    }
    assert!(service.list().is_empty(), "nothing was queued");

    // Still serving: a small job runs to completion.
    let (code, reply) = http_post(
        &addr,
        "/campaigns",
        r#"{"load":"pulse-luts","faults":8,"seed":3}"#,
    )
    .unwrap();
    assert_eq!(code, 200, "{reply}");
    let id = parse(reply.trim())
        .unwrap()
        .get("id")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    while service.job(&id).unwrap().state != JobState::Completed {
        assert!(Instant::now() < deadline, "{id} never completed");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (code, reply) = http_get(&addr, &format!("/campaigns/{id}/results")).unwrap();
    assert_eq!(code, 200, "{reply}");

    service.request_shutdown();
    service.join();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&queue);
}

#[test]
fn persisted_oversized_spec_is_failed_on_restart() {
    let queue = scratch("restart");
    let store = JobStore::open(&queue).unwrap();
    store
        .persist(&JobSpec {
            id: JobStore::id_for_seq(1),
            label: "hostile".into(),
            load: "pulse-luts".into(),
            faults: 1_000_000_000_000_000,
            seed: 1,
            shards: 1,
            submitted_at_ms: 0,
        })
        .unwrap();

    let service = start(&queue);
    let job = service.job("job-000001").expect("job rescanned");
    assert_eq!(job.state, JobState::Failed);
    let marker = std::fs::read_to_string(queue.join("job-000001").join("error")).unwrap();
    assert!(marker.contains("at most"), "{marker}");
    assert_eq!(job.error.as_deref().map(str::trim), Some(marker.trim()));
    assert!(service.journals(&job.spec).is_empty(), "nothing was run");
    service.join();
    let _ = std::fs::remove_dir_all(&queue);
}
