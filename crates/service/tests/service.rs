//! Scheduler, queue and durability behaviour of the campaign service,
//! exercised through a mock backend that writes *real* dispatch
//! journals (so restart recovery sees exactly what production sees).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fades_core::Outcome;
use fades_dispatch::{CancelToken, Journal, JournalHeader, JournalRecord};
use fades_service::{
    CampaignBackend, JobSpec, JobState, Service, ServiceConfig, ShardRun, SubmitError,
};

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fades-service-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, workers: usize, max_jobs: usize) -> ServiceConfig {
    ServiceConfig {
        queue_dir: dir.to_path_buf(),
        workers,
        max_jobs,
    }
}

/// Blocks until `pred` holds (200 ms granularity is far below the 30 s
/// ceiling; failures panic with `what`).
fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A shared open/closed latch the mock backend parks on.
#[derive(Clone, Default)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn open(&self) {
        let (lock, cv) = &*self.0;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    fn close(&self) {
        let (lock, _) = &*self.0;
        *lock.lock().unwrap() = false;
    }

    /// Waits until the gate opens or `cancel` fires; true = cancelled.
    fn wait_or_cancelled(&self, cancel: &CancelToken) -> bool {
        let (lock, cv) = &*self.0;
        let mut open = lock.lock().unwrap();
        loop {
            if cancel.is_cancelled() {
                return true;
            }
            if *open {
                return false;
            }
            let (guard, _) = cv.wait_timeout(open, Duration::from_millis(10)).unwrap();
            open = guard;
        }
    }
}

/// Mock backend: journals every experiment of its stride immediately
/// (Silent outcomes, deterministic modelled seconds), optionally
/// parking on a gate first. Only the load name `"mock"` validates.
struct MockBackend {
    gate: Option<Gate>,
    /// Shard runs currently inside `run_shard`.
    running: Arc<AtomicUsize>,
    /// High-water mark of `running`.
    peak: Arc<AtomicUsize>,
    /// Job ids in the order shards started.
    order: Arc<Mutex<Vec<String>>>,
}

impl MockBackend {
    fn new(gate: Option<Gate>) -> MockBackend {
        MockBackend {
            gate,
            running: Arc::new(AtomicUsize::new(0)),
            peak: Arc::new(AtomicUsize::new(0)),
            order: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl CampaignBackend for MockBackend {
    fn validate(&self, spec: &JobSpec) -> Result<(), String> {
        if spec.load == "mock" {
            Ok(())
        } else {
            Err(format!("unknown fault load `{}`", spec.load))
        }
    }

    fn run_shard(
        &self,
        spec: &JobSpec,
        shard: u32,
        journal: &Path,
        cancel: &CancelToken,
    ) -> Result<ShardRun, String> {
        let n = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(n, Ordering::SeqCst);
        self.order.lock().unwrap().push(spec.id.clone());
        let run = self.run_inner(spec, shard, journal, cancel);
        self.running.fetch_sub(1, Ordering::SeqCst);
        run
    }
}

impl MockBackend {
    fn run_inner(
        &self,
        spec: &JobSpec,
        shard: u32,
        journal_path: &Path,
        cancel: &CancelToken,
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
        let (mut journal, done) = if journal_path.exists() {
            let replay = Journal::load(journal_path).map_err(|e| e.to_string())?;
            let done = replay.settled_indices();
            (
                Journal::append_to(journal_path).map_err(|e| e.to_string())?,
                done,
            )
        } else {
            (
                Journal::create(journal_path, &header).map_err(|e| e.to_string())?,
                Default::default(),
            )
        };
        if let Some(gate) = &self.gate {
            if gate.wait_or_cancelled(cancel) {
                return Ok(ShardRun { cancelled: true });
            }
        }
        let mine: Vec<u64> = (0..spec.faults)
            .filter(|i| i % spec.shards as u64 == shard as u64)
            .collect();
        let mut completed = 0;
        for index in &mine {
            if !done.contains(index) {
                journal
                    .append(&JournalRecord::Completed {
                        index: *index,
                        outcome: Outcome::Silent,
                        modelled_seconds: (*index as f64) * 0.125,
                        attempts: 1,
                    })
                    .map_err(|e| e.to_string())?;
            }
            completed += 1;
        }
        journal
            .append(&JournalRecord::ShardComplete {
                completed,
                quarantined: 0,
            })
            .map_err(|e| e.to_string())?;
        Ok(ShardRun { cancelled: false })
    }
}

fn submit_mock(service: &Service, faults: u64, shards: u32) -> JobSpec {
    service
        .submit(None, "mock", faults, 7, shards)
        .expect("submit accepted")
}

fn state_of(service: &Service, id: &str) -> JobState {
    service.job(id).expect("job exists").state
}

#[test]
fn jobs_run_fifo_to_completion_and_results_merge() {
    let dir = scratch("fifo");
    let backend = MockBackend::new(None);
    let order = Arc::clone(&backend.order);
    let service = Service::start(&config(&dir, 2, 1), Box::new(backend)).unwrap();

    let ids: Vec<String> = (0..3).map(|_| submit_mock(&service, 8, 2).id).collect();
    wait_until("all jobs completed", || {
        ids.iter()
            .all(|id| state_of(&service, id) == JobState::Completed)
    });

    // With a single job slot, shards start strictly in submission order.
    let started = order.lock().unwrap().clone();
    let mut expected = Vec::new();
    for id in &ids {
        expected.extend([id.clone(), id.clone()]);
    }
    assert_eq!(started, expected, "FIFO admission, one job at a time");

    // Journals merge to a complete campaign for each job.
    for id in &ids {
        let job = service.job(id).unwrap();
        let journals = service.journals(&job.spec);
        assert_eq!(journals.len(), 2);
        let report = fades_dispatch::merge(&journals).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.completed, 8);
    }

    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrency_cap_bounds_running_jobs() {
    let dir = scratch("cap");
    let gate = Gate::default();
    let backend = MockBackend::new(Some(gate.clone()));
    let running = Arc::clone(&backend.running);
    let peak = Arc::clone(&backend.peak);
    let service = Service::start(&config(&dir, 4, 2), Box::new(backend)).unwrap();

    let ids: Vec<String> = (0..4).map(|_| submit_mock(&service, 4, 1).id).collect();
    // Two single-shard jobs admitted, two parked in the queue.
    wait_until("two jobs running", || running.load(Ordering::SeqCst) == 2);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        peak.load(Ordering::SeqCst),
        2,
        "cap of 2 jobs must never be exceeded (4 workers available)"
    );
    assert!(ids
        .iter()
        .any(|id| state_of(&service, id) == JobState::Queued));

    gate.open();
    wait_until("all jobs completed", || {
        ids.iter()
            .all(|id| state_of(&service, id) == JobState::Completed)
    });
    assert_eq!(peak.load(Ordering::SeqCst), 2);

    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_submits_get_distinct_queued_ids() {
    let dir = scratch("parallel-submit");
    let gate = Gate::default();
    let service = Service::start(
        &config(&dir, 2, 1),
        Box::new(MockBackend::new(Some(gate.clone()))),
    )
    .unwrap();

    let mut handles = Vec::new();
    for _ in 0..8 {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || submit_mock(&service, 2, 1).id));
    }
    let mut ids: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(
        ids.len(),
        8,
        "concurrent submits must allocate distinct ids"
    );
    for id in &ids {
        assert!(dir.join(id).join("spec.json").exists(), "{id} persisted");
    }

    gate.open();
    wait_until("all jobs completed", || {
        ids.iter()
            .all(|id| state_of(&service, id) == JobState::Completed)
    });
    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_loads_are_rejected_before_queueing() {
    let dir = scratch("invalid");
    let service = Service::start(&config(&dir, 1, 1), Box::new(MockBackend::new(None))).unwrap();
    match service.submit(None, "no-such-load", 4, 1, 1) {
        Err(SubmitError::Invalid(msg)) => assert!(msg.contains("no-such-load"), "{msg}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
    assert!(service.list().is_empty(), "rejected jobs are not queued");
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "rejected jobs leave nothing on disk"
    );
    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_works_for_queued_and_running_jobs() {
    let dir = scratch("cancel");
    let gate = Gate::default();
    let service = Service::start(
        &config(&dir, 2, 1),
        Box::new(MockBackend::new(Some(gate.clone()))),
    )
    .unwrap();

    let first = submit_mock(&service, 4, 1).id;
    let second = submit_mock(&service, 4, 1).id;
    wait_until("first job running", || {
        state_of(&service, &first) == JobState::Running
    });

    // Cancelling a queued job is immediate and leaves a marker.
    service.cancel(&second).unwrap();
    assert_eq!(state_of(&service, &second), JobState::Cancelled);
    assert!(dir.join(&second).join("cancelled").exists());

    // Cancelling the running job fires its token; the parked backend
    // observes it and retires.
    service.cancel(&first).unwrap();
    wait_until("first job cancelled", || {
        state_of(&service, &first) == JobState::Cancelled
    });
    assert!(dir.join(&first).join("cancelled").exists());

    // Cancelling a terminal job is an error.
    assert!(service.cancel(&first).is_err());

    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_requeues_incomplete_jobs_and_skips_done_work() {
    let dir = scratch("restart");

    // First life: job 1 completes, job 2 is parked mid-run when the
    // service shuts down gracefully (no cancel marker!).
    let gate = Gate::default();
    let (done_id, parked_id) = {
        let backend = MockBackend::new(Some(gate.clone()));
        let service = Service::start(&config(&dir, 1, 1), Box::new(backend)).unwrap();
        let done = submit_mock(&service, 6, 1).id;
        gate.open();
        wait_until("first job completed", || {
            state_of(&service, &done) == JobState::Completed
        });

        // Park job 2 mid-run, then shut down gracefully: the backend
        // observes the cancel token and retires; no marker is written.
        gate.close();
        let parked = submit_mock(&service, 6, 2).id;
        wait_until("second job running", || {
            state_of(&service, &parked) == JobState::Running
        });
        service.request_shutdown();
        service.join();
        (done, parked)
    };

    // Second life: the incomplete job is re-queued and finishes; the
    // completed one is not re-run.
    let backend = MockBackend::new(None);
    let order = Arc::clone(&backend.order);
    let service = Service::start(&config(&dir, 2, 2), Box::new(backend)).unwrap();
    assert_eq!(state_of(&service, &done_id), JobState::Completed);
    wait_until("parked job completed after restart", || {
        state_of(&service, &parked_id) == JobState::Completed
    });
    let ran = order.lock().unwrap().clone();
    assert!(
        ran.iter().all(|id| *id == parked_id),
        "only the incomplete job is re-run after restart: {ran:?}"
    );
    let job = service.job(&parked_id).unwrap();
    let report = fades_dispatch::merge(&service.journals(&job.spec)).unwrap();
    assert!(report.is_complete());
    assert_eq!(report.completed, 6);

    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_stops_admission_and_leaves_no_markers() {
    let dir = scratch("shutdown");
    let gate = Gate::default();
    let service = Service::start(
        &config(&dir, 1, 1),
        Box::new(MockBackend::new(Some(gate.clone()))),
    )
    .unwrap();
    let running = submit_mock(&service, 4, 1).id;
    let queued = submit_mock(&service, 4, 1).id;
    wait_until("job running", || {
        state_of(&service, &running) == JobState::Running
    });

    service.request_shutdown();
    match service.submit(None, "mock", 4, 1, 1) {
        Err(SubmitError::NotAccepting) => {}
        other => panic!("expected NotAccepting, got {other:?}"),
    }
    service.join();

    // Neither job got a cancelled/error marker: both must be re-queued
    // (and resumable) by the next start.
    for id in [&running, &queued] {
        assert!(!dir.join(id).join("cancelled").exists(), "{id}");
        assert!(!dir.join(id).join("error").exists(), "{id}");
    }

    let service = Service::start(&config(&dir, 2, 2), Box::new(MockBackend::new(None))).unwrap();
    wait_until("both jobs complete after restart", || {
        [&running, &queued]
            .iter()
            .all(|id| state_of(&service, id) == JobState::Completed)
    });
    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submits_skip_a_job_directory_dropped_in_by_hand() {
    let dir = scratch("hand-dropped");
    let gate = Gate::default();
    let service = Service::start(
        &config(&dir, 1, 1),
        Box::new(MockBackend::new(Some(gate.clone()))),
    )
    .unwrap();
    assert_eq!(submit_mock(&service, 2, 1).id, "job-000001");
    // An operator drops a directory under the next number while the
    // service runs: its number is never handed out.
    std::fs::create_dir(dir.join("job-000002")).unwrap();
    assert_eq!(submit_mock(&service, 2, 1).id, "job-000003");
    assert!(!dir.join("job-000002").join("spec.json").exists());
    assert_eq!(submit_mock(&service, 2, 1).id, "job-000004");
    gate.open();
    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn numbering_continues_across_a_restart() {
    let dir = scratch("renumber");
    let service = Service::start(&config(&dir, 1, 1), Box::new(MockBackend::new(None))).unwrap();
    let first: Vec<String> = (0..2).map(|_| submit_mock(&service, 2, 1).id).collect();
    assert_eq!(first, ["job-000001", "job-000002"]);
    service.join();
    // A directory dropped in by hand while the service was down counts
    // at the next start, spec or not.
    std::fs::create_dir(dir.join("job-000007")).unwrap();
    let service = Service::start(&config(&dir, 1, 1), Box::new(MockBackend::new(None))).unwrap();
    assert_eq!(submit_mock(&service, 2, 1).id, "job-000008");
    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_fails_persisted_specs_the_backend_rejects() {
    let dir = scratch("revalidate");
    let store = fades_service::JobStore::open(&dir).unwrap();
    let spec = |seq: u64, load: &str| JobSpec {
        id: fades_service::JobStore::id_for_seq(seq),
        label: load.into(),
        load: load.into(),
        faults: 4,
        seed: 7,
        shards: 1,
        submitted_at_ms: 0,
    };
    // A spec that slipped past admission (an older build, a hand edit)
    // sits next to a valid one.
    store.persist(&spec(1, "no-such")).unwrap();
    store.persist(&spec(2, "mock")).unwrap();

    let backend = MockBackend::new(None);
    let order = Arc::clone(&backend.order);
    let service = Service::start(&config(&dir, 1, 1), Box::new(backend)).unwrap();
    let bad = service.job("job-000001").unwrap();
    assert_eq!(bad.state, JobState::Failed);
    assert!(
        bad.error.as_deref().unwrap_or("").contains("no-such"),
        "{:?}",
        bad.error
    );
    wait_until("valid job completed", || {
        state_of(&service, "job-000002") == JobState::Completed
    });
    assert_eq!(
        *order.lock().unwrap(),
        ["job-000002"],
        "the rejected spec never ran"
    );
    service.join();

    // The failure is durable: the next start sees the marker.
    let err = std::fs::read_to_string(dir.join("job-000001").join("error")).unwrap();
    assert!(err.contains("no-such"), "{err}");
    let service = Service::start(&config(&dir, 1, 1), Box::new(MockBackend::new(None))).unwrap();
    assert_eq!(state_of(&service, "job-000001"), JobState::Failed);
    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}
