//! The HTTP/JSON API over a running [`Service`].
//!
//! ```text
//! POST /campaigns                  submit  {"load":..,"faults":..,"seed":..,"shards":..,"label":..}
//! GET  /campaigns                  list every job
//! GET  /campaigns/<id>             one job + live progress/ETA (campaign_status)
//! POST /campaigns/<id>/cancel      cancel queued or running job
//! GET  /campaigns/<id>/results     merged CampaignStats (exact f64 bits included)
//! POST /shutdown                   graceful shutdown (stop admitting, retire in-flight work)
//! GET  /metrics, /status, /        the classic observability endpoints
//! ```
//!
//! All routes run on the hardened [`HttpServer`] from `fades-telemetry`
//! — the same bounded-read listener `/metrics` uses.

use std::sync::Arc;

use fades_telemetry::json::{self, JsonObject};
use fades_telemetry::{metrics_router, HttpRequest, HttpResponse, HttpServer};

use fades_dispatch::{campaign_status, merge, MergeReport};

use crate::service::{JobView, Service, SubmitError};

/// Largest shard fan-out a submission may ask for.
const MAX_SHARDS: u64 = 4096;

/// Starts the API server for `service` on `addr` (port 0 picks a free
/// port; read it back from [`HttpServer::addr`]).
///
/// # Errors
///
/// Bind/configuration errors.
pub fn start_http(addr: &str, service: Arc<Service>) -> std::io::Result<HttpServer> {
    HttpServer::start(
        addr,
        "fades-service-api",
        Arc::new(move |req: &HttpRequest| route(&service, req)),
    )
}

fn route(service: &Service, req: &HttpRequest) -> HttpResponse {
    let path = req.path.trim_end_matches('/');
    match (req.method.as_str(), path) {
        ("POST", "/campaigns") => submit(service, &req.body),
        ("GET", "/campaigns") => list(service),
        ("POST", "/shutdown") => {
            service.request_shutdown();
            HttpResponse::json("{\"shutdown\":\"requested\"}\n".into())
        }
        ("GET", "/metrics" | "/status" | "") => metrics_router(req),
        _ => {
            if let Some(rest) = path.strip_prefix("/campaigns/") {
                return campaign_route(service, req, rest);
            }
            HttpResponse::error(404, "not found")
        }
    }
}

fn campaign_route(service: &Service, req: &HttpRequest, rest: &str) -> HttpResponse {
    let (id, action) = match rest.split_once('/') {
        Some((id, action)) => (id, Some(action)),
        None => (rest, None),
    };
    let Some(job) = service.job(id) else {
        return HttpResponse::error(404, &format!("no such job `{id}`"));
    };
    match (req.method.as_str(), action) {
        ("GET", None) => job_detail(service, &job),
        ("POST", Some("cancel")) => match service.cancel(id) {
            Ok(_) => HttpResponse::json(format!("{}\n", job_json(&service.job(id).unwrap_or(job)))),
            Err(msg) => HttpResponse::error(409, &msg),
        },
        ("GET", Some("results")) => results(service, &job),
        _ => HttpResponse::error(404, "not found"),
    }
}

fn submit(service: &Service, body: &str) -> HttpResponse {
    let v = match json::parse(body.trim()) {
        Ok(v) => v,
        Err(e) => return HttpResponse::error(400, &format!("bad JSON: {e}")),
    };
    let Some(load) = v.get("load").and_then(|x| x.as_str()) else {
        return HttpResponse::error(400, "missing required field `load`");
    };
    let (faults, seed, shards) = match numeric_fields(&v) {
        Ok(fields) => fields,
        Err(msg) => return HttpResponse::error(400, &msg),
    };
    let label = v.get("label").and_then(|x| x.as_str());
    match service.submit(label, load, faults, seed, shards) {
        Ok(spec) => HttpResponse::json(format!(
            "{}\n",
            service
                .job(&spec.id)
                .map_or_else(|| spec.to_json(), |j| job_json(&j))
        )),
        Err(SubmitError::NotAccepting) => HttpResponse::error(503, "service is shutting down"),
        Err(SubmitError::Invalid(msg)) => HttpResponse::error(400, &msg),
        Err(SubmitError::Io(e)) => HttpResponse::error(500, &e.to_string()),
    }
}

/// A submission's `faults`, `seed` and `shards`: the defaults when
/// absent, the exact integers when present, and an error for anything
/// else (fractions, negatives, strings, floats too large to be exact,
/// shard counts outside `1..=MAX_SHARDS`) rather than a silent fallback
/// or a rounded value.
fn numeric_fields(v: &json::JsonValue) -> Result<(u64, u64, u32), String> {
    let field = |key: &str, default: u64| match v.get(key) {
        None => Ok(default),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    };
    let faults = field("faults", 100)?;
    let seed = field("seed", 1)?;
    let shards = field("shards", 1)?;
    if !(1..=MAX_SHARDS).contains(&shards) {
        return Err(format!(
            "`shards` must be between 1 and {MAX_SHARDS}, got {shards}"
        ));
    }
    Ok((faults, seed, shards as u32))
}

fn list(service: &Service) -> HttpResponse {
    let jobs: Vec<String> = service.list().iter().map(job_json).collect();
    HttpResponse::json(format!(
        "{}\n",
        JsonObject::new().raw("jobs", &json::array(&jobs)).finish()
    ))
}

/// One job's core JSON document (shared by list/detail/submit/cancel).
fn job_json(job: &JobView) -> String {
    let mut obj = JsonObject::new()
        .str("id", &job.spec.id)
        .str("label", &job.spec.label)
        .str("load", &job.spec.load)
        .u64("faults", job.spec.faults)
        .u64("seed", job.spec.seed)
        .u64("shards", job.spec.shards as u64)
        .u64("submitted_at_ms", job.spec.submitted_at_ms)
        .str("state", job.state.as_str());
    if let Some(err) = &job.error {
        obj = obj.str("error", err);
    }
    obj.finish()
}

fn job_detail(service: &Service, job: &JobView) -> HttpResponse {
    let journals = service.journals(&job.spec);
    let mut obj = JsonObject::new().raw("job", &job_json(job));
    // Live progress/ETA from the journals, when any shard has started.
    // A torn tail (the job is being written right now) is tolerated by
    // the status reader; any other error is reported inline rather than
    // failing the whole detail document.
    if !journals.is_empty() {
        match campaign_status(&journals) {
            Ok(report) => obj = obj.raw("progress", &report.to_json()),
            Err(e) => obj = obj.str("progress_error", &e.to_string()),
        }
    }
    HttpResponse::json(format!("{}\n", obj.finish()))
}

fn results(service: &Service, job: &JobView) -> HttpResponse {
    let journals = service.journals(&job.spec);
    if journals.is_empty() {
        return HttpResponse::error(409, &format!("job `{}` has not started", job.spec.id));
    }
    match merge(&journals) {
        Ok(report) => HttpResponse::json(format!("{}\n", merge_json(job, &report))),
        Err(e) => HttpResponse::error(500, &e.to_string()),
    }
}

/// Serializes a merge report. `emulation_seconds` is additionally
/// carried as its exact bit pattern (`%016x`) so clients can check
/// bit-identity against a monolithic run without f64 round-tripping
/// through decimal.
fn merge_json(job: &JobView, report: &MergeReport) -> String {
    let quarantined: Vec<String> = report
        .quarantined
        .iter()
        .map(|(index, error)| {
            JsonObject::new()
                .u64("index", *index)
                .str("error", error)
                .finish()
        })
        .collect();
    let stats = JsonObject::new()
        .u64("failures", report.stats.outcomes.failures as u64)
        .u64("latents", report.stats.outcomes.latents as u64)
        .u64("silents", report.stats.outcomes.silents as u64)
        .u64("n", report.stats.n as u64)
        .f64("emulation_seconds", report.stats.emulation_seconds)
        .str(
            "emulation_seconds_bits",
            &format!("{:016x}", report.stats.emulation_seconds.to_bits()),
        )
        .finish();
    JsonObject::new()
        .str("id", &job.spec.id)
        .str("state", job.state.as_str())
        .raw(
            "complete",
            if report.is_complete() {
                "true"
            } else {
                "false"
            },
        )
        .u64("completed", report.completed)
        .u64("missing", report.missing.len() as u64)
        .u64("duplicates", report.duplicates)
        .raw("quarantined", &json::array(&quarantined))
        .raw("stats", &stats)
        .finish()
}
