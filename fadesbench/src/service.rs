//! `service-jobs`: a closed loop of 2 clients, no think time, sending
//! small campaigns over HTTP to an in-process `fades_service::Service`
//! (2 workers, 2 concurrent jobs) backed by the real `ExperimentBackend`.
//!
//! Each job has 128 faults; its spec cycles through the four lane loads
//! and 1, 2 or 4 shards (12 specs, each sent twice per round). A client
//! submits, polls `GET /campaigns/<id>` every 5 ms until the job is
//! completed, then fetches `/results`. Fixed costs per job and per shard
//! dominate: every shard rebuilds its campaign (golden capture), writes
//! journals, and every poll and `/results` reads them.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fades_core::Campaign;
use fades_dispatch::CancelToken;
use fades_experiments::service_cli::ExperimentBackend;
use fades_service::{api, CampaignBackend, JobSpec, Service, ServiceConfig, ShardRun};
use fades_telemetry::json::{self, JsonObject, JsonValue};
use fades_telemetry::{http_get, http_post, HttpServer};

use crate::report::Metric;
use crate::run::Sizes;
use crate::setup::{self, CoreWork, Counters, Design, Error};
use crate::stats;
use crate::trace;
use crate::work::{Gates, RoundCtx, RoundOut, Work};

const LOADS: [&str; 4] = ["bitflip-ffs", "bitflip-mem", "pulse-luts", "indet-ffs"];
const SHARDS: [u32; 3] = [1, 2, 4];
/// Distinct job specs: every (load, shard count) pair once.
const SPECS: usize = 12;
const CLIENTS: usize = 2;
const POLL_EVERY: Duration = Duration::from_millis(5);
/// A job not settled by then counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(120);

/// Job spec `k`: load, shard count and campaign seed. Seeds stay below
/// 2^53: the service reads JSON numbers as `f64`, so a larger seed would
/// reach `Campaign::plan` rounded.
fn spec(k: usize, seed: u64) -> (&'static str, u32, u64) {
    (
        LOADS[k % LOADS.len()],
        SHARDS[k % SHARDS.len()],
        (seed ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(k as u64 + 1)) & ((1 << 53) - 1),
    )
}

/// One shard run as the backend saw it.
#[derive(Debug, Clone)]
struct ShardTiming {
    job: String,
    start_us: f64,
    end_us: f64,
}

/// The real backend, with each shard run timed and traced.
struct TimedBackend {
    inner: ExperimentBackend,
    log: Arc<Mutex<Vec<ShardTiming>>>,
}

impl CampaignBackend for TimedBackend {
    fn validate(&self, spec: &JobSpec) -> Result<(), String> {
        self.inner.validate(spec)
    }

    fn run_shard(
        &self,
        spec: &JobSpec,
        shard: u32,
        journal: &Path,
        cancel: &CancelToken,
    ) -> Result<ShardRun, String> {
        let _s = trace::span_in("service.shard_run", spec.id.clone(), None);
        let start_us = trace::now_us();
        let run = self.inner.run_shard(spec, shard, journal, cancel);
        self.log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(ShardTiming {
                job: spec.id.clone(),
                start_us,
                end_us: trace::now_us(),
            });
        run
    }
}

/// One job as its client saw it.
#[derive(Debug, Clone)]
struct JobSample {
    round: usize,
    traced: bool,
    spec: usize,
    id: String,
    submit_at_us: f64,
    submit_ms: f64,
    polls_ms: Vec<f64>,
    results_ms: f64,
    latency_ms: f64,
    /// Digest of `/results`, or why the job failed.
    result: Result<String, String>,
}

impl JobSample {
    fn new(round: usize, traced: bool, spec: usize) -> JobSample {
        JobSample {
            round,
            traced,
            spec,
            id: String::new(),
            submit_at_us: 0.0,
            submit_ms: 0.0,
            polls_ms: Vec::new(),
            results_ms: 0.0,
            latency_ms: 0.0,
            result: Err("not run".into()),
        }
    }
}

/// The service workload: the server lives as long as this value.
pub struct ServiceWork<'a> {
    campaign: &'a Campaign<'a>,
    design: &'a Design,
    sizes: Sizes,
    seed: u64,
    service: Arc<Service>,
    server: Option<HttpServer>,
    addr: String,
    log: Arc<Mutex<Vec<ShardTiming>>>,
    start_ms: f64,
    jobs: Vec<JobSample>,
}

impl<'a> ServiceWork<'a> {
    /// Starts the backend, the service and its HTTP API on a free port,
    /// with the queue under `tmp`.
    ///
    /// # Errors
    ///
    /// Backend setup, queue directory or bind failures.
    pub fn start(
        design: &'a Design,
        campaign: &'a Campaign<'a>,
        sizes: Sizes,
        seed: u64,
        tmp: &Path,
    ) -> Result<ServiceWork<'a>, Error> {
        let t = Instant::now();
        let log = Arc::new(Mutex::new(Vec::new()));
        let backend = TimedBackend {
            inner: ExperimentBackend::new()?,
            log: Arc::clone(&log),
        };
        let service = Service::start(
            &ServiceConfig {
                queue_dir: tmp.join("queue"),
                workers: 2,
                max_jobs: 2,
            },
            Box::new(backend),
        )?;
        let server = api::start_http("127.0.0.1:0", Arc::clone(&service))?;
        Ok(ServiceWork {
            campaign,
            design,
            sizes,
            seed,
            addr: server.addr().to_string(),
            service,
            server: Some(server),
            log,
            start_ms: setup::secs(t) * 1e3,
            jobs: Vec::new(),
        })
    }
}

impl Drop for ServiceWork<'_> {
    fn drop(&mut self) {
        self.service.request_shutdown();
        self.service.join();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn get_ok(addr: &str, path: &str) -> Result<JsonValue, String> {
    let (code, body) = http_get(addr, path).map_err(|e| format!("GET {path}: {e}"))?;
    if code != 200 {
        return Err(format!("GET {path}: HTTP {code}: {}", body.trim()));
    }
    json::parse(body.trim())
}

/// Submits job spec `k`, waits for it and fetches its results.
fn run_job(
    addr: &str,
    k: usize,
    seed: u64,
    faults: u64,
    sample: &mut JobSample,
) -> Result<String, String> {
    let (load, shards, job_seed) = spec(k, seed);
    let mut job_span = trace::span("service.job", "");
    let body = JsonObject::new()
        .str("load", load)
        .u64("faults", faults)
        .u64("seed", job_seed)
        .u64("shards", u64::from(shards))
        .str("label", &format!("bench-spec-{k}"))
        .finish();
    sample.submit_at_us = trace::now_us();
    let t = Instant::now();
    let id = {
        let _s = trace::span("service.submit", "");
        let (code, reply) =
            http_post(addr, "/campaigns", &body).map_err(|e| format!("submit: {e}"))?;
        if code != 200 {
            return Err(format!("submit refused: HTTP {code}: {}", reply.trim()));
        }
        let v = json::parse(reply.trim())?;
        v.get("id")
            .and_then(JsonValue::as_str)
            .ok_or("submit reply without id")?
            .to_string()
    };
    sample.submit_ms = setup::secs(t) * 1e3;
    job_span.set_req(&id);
    sample.id.clone_from(&id);
    loop {
        std::thread::sleep(POLL_EVERY);
        let _s = trace::span("service.poll", id.clone());
        let tp = Instant::now();
        let v = get_ok(addr, &format!("/campaigns/{id}"))?;
        sample.polls_ms.push(setup::secs(tp) * 1e3);
        match v
            .get("job")
            .and_then(|j| j.get("state"))
            .and_then(JsonValue::as_str)
        {
            Some("completed") => break,
            Some("queued" | "running") if t.elapsed() < JOB_DEADLINE => {}
            other => return Err(format!("job {id} ended {other:?}")),
        }
    }
    let _s = trace::span("service.results", id.clone());
    let tr = Instant::now();
    let v = get_ok(addr, &format!("/campaigns/{id}/results"))?;
    sample.results_ms = setup::secs(tr) * 1e3;
    if !matches!(v.get("complete"), Some(JsonValue::Bool(true))) {
        return Err(format!("job {id}: results incomplete"));
    }
    let stats = v.get("stats").ok_or("results without stats")?;
    let num = |k: &str| stats.get(k).and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
    let bits = stats
        .get("emulation_seconds_bits")
        .and_then(JsonValue::as_str)
        .unwrap_or("?");
    Ok(format!(
        "{}/{}/{}/{bits}",
        num("failures"),
        num("latents"),
        num("silents")
    ))
}

impl Work for ServiceWork<'_> {
    fn round(&mut self, ctx: &RoundCtx) -> Result<RoundOut, Error> {
        let per_client = self.sizes.jobs_per_client;
        let (addr, seed, faults) = (self.addr.as_str(), self.seed, self.sizes.job_faults);
        let t = Instant::now();
        let samples: Vec<JobSample> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let _client = trace::span_in(
                            "bench.client",
                            format!("{}/client-{c}", ctx.req),
                            ctx.span,
                        );
                        (0..per_client)
                            .map(|j| {
                                // Clients start half a cycle apart, so the
                                // same spec is never in flight twice.
                                let k = (j + c * SPECS / CLIENTS) % SPECS;
                                let mut s = JobSample::new(ctx.r, ctx.traced, k);
                                let t = Instant::now();
                                s.result = run_job(addr, k, seed, faults, &mut s);
                                s.latency_ms = setup::secs(t) * 1e3;
                                s
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut out = RoundOut {
            round: ctx.r,
            wall_s: setup::secs(t),
            faults: samples.len() * faults as usize,
            executed: samples.len() * faults as usize,
            // No pieces: the two clients' jobs meet differently every
            // round, and what a job waits for (the other client's job, the
            // listener's 20 ms accept-loop sleep) is part of what the
            // workload measures. The fastest round is the luckiest meeting,
            // not the code at full speed: as the fastest round,
            // `faults_per_s` spread 8–20% over 10 seeds, against 5–6% as
            // the faults of all rounds over their time.
            ..RoundOut::default()
        };
        let mut digest: BTreeMap<usize, String> = BTreeMap::new();
        for s in &samples {
            match &s.result {
                Ok(d) => {
                    // Both copies of a spec in a round must agree.
                    let first = digest.entry(s.spec).or_insert_with(|| d.clone());
                    if first != d {
                        out.failed += faults as usize;
                    }
                }
                Err(e) => {
                    eprintln!("fades-bench: job {} (spec {}) failed: {e}", s.id, s.spec);
                    out.failed += faults as usize;
                }
            }
        }
        out.digest = digest
            .into_iter()
            .map(|(k, d)| {
                let (load, shards, _) = spec(k, seed);
                (format!("{load}/{shards}"), d)
            })
            .collect();
        self.jobs.extend(samples);
        Ok(out)
    }

    fn gates(&mut self, gates: &mut Gates, core: &mut CoreWork) -> Result<(), Error> {
        for k in 0..SPECS {
            let (load, shards, job_seed) = spec(k, self.seed);
            let jobs: Vec<&JobSample> = self.jobs.iter().filter(|j| j.spec == k).collect();
            if jobs.is_empty() {
                continue;
            }
            let plan = core.plan(
                self.campaign,
                &self.design.load(load)?,
                self.sizes.job_faults as usize,
                job_seed,
            )?;
            let engine = {
                let _s = trace::span("core.execute_batched", format!("reference/{k}"));
                self.campaign.execute_batched(&plan, None)?
            };
            let verdicts = setup::verdicts_of(self.campaign, &plan, &engine);
            let want = setup::digest_of(&setup::stats_of(&verdicts));
            let differ = jobs
                .iter()
                .filter(|j| j.result.as_ref().ok() != Some(&want))
                .count();
            gates.check(
                &format!("/results of {load} in {shards} shard(s) equal an in-process run"),
                differ == 0,
                differ * self.sizes.job_faults as usize,
                format!("{} jobs, {want}", jobs.len()),
            );
            let bad = core.oracle_mismatches(self.campaign, &plan, &verdicts)?;
            gates.check(
                &format!("scalar oracle agrees on {load} spec {k}"),
                bad == 0,
                bad,
                "outcome and modelled-seconds bits",
            );
        }
        Ok(())
    }

    fn extra(&self, _traced: &Counters) -> Vec<Metric> {
        let log = self
            .log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let mut shards_by_job: BTreeMap<&str, Vec<&ShardTiming>> = BTreeMap::new();
        for s in &log {
            shards_by_job.entry(s.job.as_str()).or_default().push(s);
        }
        let timed: Vec<&JobSample> = self
            .jobs
            .iter()
            .filter(|j| j.round > 0 && !j.traced && j.result.is_ok())
            .collect();
        let mut queue_wait = Vec::new();
        let mut run = Vec::new();
        let mut shard_run = Vec::new();
        for j in &timed {
            if let Some(shards) = shards_by_job.get(j.id.as_str()) {
                let first = shards
                    .iter()
                    .map(|s| s.start_us)
                    .fold(f64::INFINITY, f64::min);
                let last = shards.iter().map(|s| s.end_us).fold(0.0, f64::max);
                queue_wait.push((first - j.submit_at_us) / 1e3);
                run.push((last - first) / 1e3);
                shard_run.extend(shards.iter().map(|s| (s.end_us - s.start_us) / 1e3));
            }
        }
        let polls: Vec<f64> = timed
            .iter()
            .flat_map(|j| j.polls_ms.iter().copied())
            .collect();
        let p50 = |v: &[f64]| stats::percentile(v, 50.0);
        let submit: Vec<f64> = timed.iter().map(|j| j.submit_ms).collect();
        let results: Vec<f64> = timed.iter().map(|j| j.results_ms).collect();
        let latency: Vec<f64> = timed.iter().map(|j| j.latency_ms).collect();
        vec![
            Metric::new("service.job_p50_ms", p50(&latency), "ms", latency.len()),
            Metric::new(
                "service.job_p95_ms",
                stats::percentile(&latency, 95.0),
                "ms",
                latency.len(),
            ),
            Metric::new("service.start_ms", self.start_ms, "ms", 1),
            Metric::new("service.submit_ms", p50(&submit), "ms", submit.len()),
            Metric::new(
                "service.queue_wait_ms",
                p50(&queue_wait),
                "ms",
                queue_wait.len(),
            ),
            Metric::new("service.run_ms", p50(&run), "ms", run.len()),
            Metric::new(
                "service.shard_run_ms",
                p50(&shard_run),
                "ms",
                shard_run.len(),
            ),
            Metric::new("service.poll_ms", p50(&polls), "ms", polls.len()),
            Metric::new(
                "service.polls_per_job",
                polls.len() as f64 / timed.len().max(1) as f64,
                "count",
                timed.len(),
            ),
            Metric::new("service.results_ms", p50(&results), "ms", results.len()),
        ]
    }

    fn concurrency(&self) -> usize {
        CLIENTS
    }
}
