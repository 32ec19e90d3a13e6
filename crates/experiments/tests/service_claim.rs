//! The service backend's job claim: the shard-0 call of a job whose
//! journals carry the service's names settles every shard of the job in
//! one lane pass, and the calls for its other shards return at once. Journals, merges
//! and the job's lifecycle (cancel, shutdown, restart) must not tell the
//! difference from one campaign per shard.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use fades_dispatch::{CancelToken, Journal, ShardOptions};
use fades_experiments::dispatch_cli::named_load;
use fades_experiments::service_cli::ExperimentBackend;
use fades_experiments::ExperimentContext;
use fades_service::{
    shard_journal_name, CampaignBackend, JobSpec, JobState, Service, ServiceConfig,
};
use fades_telemetry::json::{parse, JsonValue};

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fades-claim-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn job(id: &str, load: &str, faults: u64, seed: u64, shards: u32) -> JobSpec {
    JobSpec {
        id: id.into(),
        label: load.into(),
        load: load.into(),
        faults,
        seed,
        shards,
        submitted_at_ms: 0,
    }
}

fn start(queue: &Path) -> Arc<Service> {
    Service::start(
        &ServiceConfig {
            queue_dir: queue.to_path_buf(),
            workers: 2,
            max_jobs: 2,
        },
        Box::new(ExperimentBackend::new().expect("backend")),
    )
    .expect("service")
}

fn wait_for(service: &Service, id: &str, what: &str, done: impl Fn(&Service) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(300);
    while !done(service) {
        assert!(Instant::now() < deadline, "{id}: never {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn state(service: &Service, id: &str) -> JobState {
    service.job(id).expect("job exists").state
}

/// Every experiment index a journal records, once per record line, in
/// file order (a torn tail is skipped).
fn journaled_indices(path: &Path) -> Vec<u64> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter_map(|line| parse(line).ok())
        .filter(|v| {
            matches!(
                v.get("type").and_then(JsonValue::as_str),
                Some("experiment" | "quarantined")
            )
        })
        .filter_map(|v| v.get("index").and_then(JsonValue::as_u64))
        .collect()
}

/// Asserts that the journal of shard `shard` of `count` records only
/// that shard's indices, each at most once, and returns them.
fn assert_own_indices_once(path: &Path, shard: u32, count: u32) -> BTreeSet<u64> {
    let indices = journaled_indices(path);
    let unique: BTreeSet<u64> = indices.iter().copied().collect();
    assert_eq!(
        unique.len(),
        indices.len(),
        "{}: an index journaled twice",
        path.display()
    );
    assert!(
        unique
            .iter()
            .all(|i| i % u64::from(count) == u64::from(shard)),
        "{}: an index of another shard",
        path.display()
    );
    unique
}

/// Merged tallies of a journal set, `emulation_seconds` as bits.
fn merged(journals: &[PathBuf]) -> (fades_core::OutcomeStats, u64, u64) {
    let report = fades_dispatch::merge(journals).expect("merge");
    assert!(report.is_complete(), "{report:?}");
    (
        report.stats.outcomes,
        report.completed,
        report.stats.emulation_seconds.to_bits(),
    )
}

/// Runs every shard of `spec` with one `run_shard` call each, on a
/// freshly built campaign, into `dir`.
fn fresh_shards(spec: &JobSpec, dir: &Path) -> Vec<PathBuf> {
    let ctx = ExperimentContext::new().expect("context");
    let campaign = ctx.fades_campaign().unwrap();
    let load = named_load(&ctx, &spec.load).unwrap();
    let plan = campaign
        .plan(&load, spec.faults as usize, spec.seed)
        .unwrap();
    let opts = ShardOptions {
        load: spec.load.clone(),
        ..ShardOptions::default()
    };
    (0..spec.shards)
        .map(|shard| {
            let path = dir.join(format!("fresh-{}-s{shard}.jsonl", spec.id));
            fades_dispatch::run_shard(&campaign, &plan, shard, spec.shards, &path, &opts).unwrap();
            path
        })
        .collect()
}

#[test]
fn a_claimed_four_shard_job_matches_one_campaign_per_shard() {
    let dir = scratch("service");
    let service = start(&dir.join("queue"));
    let spec = service.submit(None, "pulse-luts", 400, 11, 4).unwrap();
    wait_for(&service, &spec.id, "completed", |s| {
        state(s, &spec.id) == JobState::Completed
    });
    let journals = service.journals(&spec);
    assert_eq!(journals.len(), 4);
    service.request_shutdown();
    service.join();

    let fresh = fresh_shards(&spec, &dir);
    for (shard, (claimed, fresh)) in journals.iter().zip(&fresh).enumerate() {
        let shard = shard as u32;
        assert_eq!(
            claimed.file_name().unwrap(),
            shard_journal_name(shard).as_str()
        );
        let indices = assert_own_indices_once(claimed, shard, 4);
        assert_eq!(indices.len(), 100, "shard {shard} settles all its faults");
        let (a, b) = (
            Journal::load(claimed).unwrap(),
            Journal::load(fresh).unwrap(),
        );
        assert!(a.shard_complete, "shard {shard}");
        assert_eq!(a.header, b.header, "shard {shard}");
        assert_eq!(a.completed, b.completed, "shard {shard}: records");
        assert_eq!(a.quarantined, b.quarantined, "shard {shard}");
    }
    assert_eq!(merged(&journals), merged(&fresh));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_sibling_calls_never_journal_an_index_twice() {
    let dir = scratch("race");
    let backend = ExperimentBackend::new().expect("backend");
    for round in 0..3u64 {
        let spec = job(&format!("job-{round:06}"), "bitflip-ffs", 96, round, 2);
        let job_dir = dir.join(&spec.id);
        std::fs::create_dir_all(&job_dir).unwrap();
        let path = |shard: u32| job_dir.join(shard_journal_name(shard));
        // Alone, the service-named call for shard 1 leaves its shard to
        // shard 0's call.
        backend
            .run_shard(&spec, 1, &path(1), &CancelToken::new())
            .unwrap();
        assert!(!path(1).exists(), "round {round}");
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for shard in 0..2 {
                let (backend, spec, start, path) = (&backend, &spec, &start, path(shard));
                s.spawn(move || {
                    start.wait();
                    let run = backend
                        .run_shard(spec, shard, &path, &CancelToken::new())
                        .unwrap();
                    assert!(!run.cancelled);
                });
            }
        });
        // Shard 0's call settled both shards before it returned, however
        // the two calls interleaved.
        for shard in 0..2 {
            assert_eq!(assert_own_indices_once(&path(shard), shard, 2).len(), 48);
            assert!(Journal::load(&path(shard)).unwrap().shard_complete);
        }
        // A later service-named call for shard 1 changes nothing.
        let before = std::fs::read(path(1)).unwrap();
        backend
            .run_shard(&spec, 1, &path(1), &CancelToken::new())
            .unwrap();
        assert_eq!(std::fs::read(path(1)).unwrap(), before, "round {round}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn other_journal_names_run_exactly_their_own_shard() {
    let dir = scratch("custom");
    let backend = ExperimentBackend::new().expect("backend");
    let spec = job("job-000001", "indet-ffs", 60, 3, 3);
    let path = dir.join("custom-1.jsonl");
    backend
        .run_shard(&spec, 1, &path, &CancelToken::new())
        .unwrap();
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(entries, vec![std::ffi::OsString::from("custom-1.jsonl")]);
    assert_eq!(assert_own_indices_once(&path, 1, 3).len(), 20);
    let replay = Journal::load(&path).unwrap();
    assert_eq!((replay.header.shard, replay.header.of), (1, 3));
    assert!(replay.shard_complete);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_and_shutdown_during_a_claim_leave_resumable_shards() {
    // More faults than the widest cancel chunk (8 threads x 1022) holds
    // three times over, so the job is mid-run whenever it is stopped.
    const FAULTS: u64 = 3 * 8 * 1022;
    let dir = scratch("cancel");
    let queue = dir.join("queue");
    let progress = |service: &Service, spec: &JobSpec| -> usize {
        service
            .journals(spec)
            .iter()
            .map(|p| journaled_indices(p).len())
            .sum()
    };

    // A shutdown mid-claim interrupts the job without a marker ...
    let service = start(&queue);
    let spec = service.submit(None, "pulse-luts", FAULTS, 21, 4).unwrap();
    wait_for(&service, &spec.id, "started", |s| progress(s, &spec) > 0);
    service.request_shutdown();
    service.join();
    let after_shutdown = progress(&service, &spec);
    assert!(after_shutdown < FAULTS as usize, "the job was mid-run");
    assert_eq!(state(&service, &spec.id), JobState::Queued);

    // ... so a restart resumes every shard, and a cancel during that
    // claim ends the job cancelled.
    let service = start(&queue);
    wait_for(&service, &spec.id, "resumed", |s| {
        progress(s, &spec) > after_shutdown
    });
    service.cancel(&spec.id).unwrap();
    wait_for(&service, &spec.id, "cancelled", |s| {
        state(s, &spec.id) != JobState::Running
    });
    assert_eq!(state(&service, &spec.id), JobState::Cancelled);
    let journals = service.journals(&spec);
    assert_eq!(journals.len(), 4, "the claim opened every shard's journal");
    assert!(progress(&service, &spec) < FAULTS as usize);
    service.join();

    // The partial journals resume to the bits of one campaign per shard.
    let backend = ExperimentBackend::new().expect("backend");
    let run = backend
        .run_shard(&spec, 0, &journals[0], &CancelToken::new())
        .unwrap();
    assert!(!run.cancelled);
    for (shard, path) in journals.iter().enumerate() {
        assert_own_indices_once(path, shard as u32, 4);
    }
    assert_eq!(merged(&journals), merged(&fresh_shards(&spec, &dir)));
    let _ = std::fs::remove_dir_all(&dir);
}
