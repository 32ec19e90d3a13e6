//! The campaign service subcommands: a durable multi-campaign job
//! server over the real 8051 setup, plus the thin HTTP clients.
//!
//! ```text
//! fades-experiments serve [--addr <host:port>] [--workers <n>] [--jobs <n>]
//!                         [--queue-dir <dir>] [--addr-file <path>]
//! fades-experiments submit [load] [--faults <n>] [--seed <n>] [--shards <n>]
//!                          [--label <text>] [--addr <host:port>]
//! fades-experiments jobs [id] [--addr <host:port>]
//! fades-experiments results <id> [--addr <host:port>]
//! fades-experiments cancel <id> [--addr <host:port>]
//! fades-experiments shutdown [--addr <host:port>]
//! ```
//!
//! `serve` builds the experimental setup and one campaign over it once
//! (8051 + implementation + golden run), which every shard of every job
//! shares, then serves the `fades-service` HTTP API on `--addr`
//! (port 0 picks a free port; the bound address lands in `--addr-file`
//! when given). Jobs are durable: killing the server loses nothing —
//! the next `serve` with the same `--queue-dir` resumes every
//! incomplete job from its shard journals. Stop gracefully with the
//! `shutdown` subcommand (or `POST /shutdown`): admission stops,
//! in-flight cohort words retire and are journaled, and the process
//! exits through the normal observability epilogue (Chrome-trace flush,
//! run-log aggregate). A std-only binary cannot trap SIGTERM, so the
//! HTTP route *is* the graceful-stop mechanism; plain kill is safe too,
//! it just skips the epilogue.
//!
//! Clients resolve the server address from `--addr`, then the
//! `FADES_SERVICE_ADDR` environment variable, then the default
//! `127.0.0.1:7348`.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use fades_core::Campaign;
use fades_dispatch::{CancelToken, ShardOptions};
use fades_mcu8051::workloads::Workload;
use fades_mcu8051::{Soc, OBSERVED_PORTS};
use fades_pnr::Implementation;
use fades_service::{
    api, shard_journal_name, CampaignBackend, JobSpec, Service, ServiceConfig, ShardRun,
};
use fades_telemetry::json::{self, JsonObject};
use fades_telemetry::{http_get, http_post};

use crate::dispatch_cli::{named_load_for, NAMED_LOADS};
use crate::ExperimentContext;

/// Default server address for `serve` and every client subcommand.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7348";

/// The most faults one job may ask for. A plan holds every fault up
/// front, so an unbounded count is an unbounded allocation at admission;
/// this bound keeps one job's plan in the tens of megabytes.
pub const MAX_JOB_FAULTS: u64 = 1_000_000;

/// The standard setup (Bubblesort on the 8051, implemented), built at
/// most once per process. It is a pure function of nothing, so every
/// backend can borrow the same netlist for `'static`.
struct StandardSetup {
    soc: Soc,
    workload: Workload,
    implementation: Implementation,
    workload_cycles: u64,
}

fn standard_setup() -> Result<&'static StandardSetup, Box<dyn Error>> {
    static SETUP: OnceLock<Result<StandardSetup, String>> = OnceLock::new();
    SETUP
        .get_or_init(|| {
            let (soc, workload, implementation, workload_cycles) = ExperimentContext::new()
                .map_err(|e| e.to_string())?
                .into_parts();
            Ok(StandardSetup {
                soc,
                workload,
                implementation,
                workload_cycles,
            })
        })
        .as_ref()
        .map_err(|e| e.clone().into())
}

/// The service backend over the paper's experimental setup. Like FADES
/// itself, which configures the FPGA once and pays per fault only for
/// the partial reconfiguration, it builds one campaign (device
/// configuration plus golden run) when it starts, and every shard run
/// of every job on every worker borrows it: a shard only plans and
/// clones the pristine device. Shards run exactly what the `shard`
/// subcommand runs, so service jobs and CLI shards produce
/// bit-identical journals.
///
/// A job runs in one lane pass, not one per shard. The call for shard 0
/// of a job whose journal carries the service's name
/// ([`shard_journal_name`]) settles every shard of the job, through
/// [`fades_dispatch::run_shards`], into the sibling journals of its job
/// directory; service-named calls for the other shards return at once.
/// The service queues every shard of an admitted job, shard 0 included,
/// and finalizes the job only once every call has returned, so the job
/// is settled by then. A journal under any other name runs exactly its
/// own shard.
///
/// Admission rejects unknown loads, zero faults and more than
/// [`MAX_JOB_FAULTS`] faults.
///
/// [`run_shard`]: CampaignBackend::run_shard
pub struct ExperimentBackend {
    campaign: Campaign<'static>,
    workload: &'static Workload,
}

impl ExperimentBackend {
    /// Builds the standard setup (Bubblesort on the 8051) once per
    /// process, then this backend's campaign over it (golden run
    /// included), and lints the implemented design. Diagnostics are
    /// surfaced in the run log (`FADES_RUN_LOG`) as structured `lint`
    /// lines and counted on `/metrics`; `Error`-severity findings make
    /// [`validate`] reject every submission.
    ///
    /// [`validate`]: CampaignBackend::validate
    ///
    /// # Errors
    ///
    /// Propagates model-construction, implementation and
    /// device-configuration errors.
    pub fn new() -> Result<ExperimentBackend, Box<dyn Error>> {
        let setup = standard_setup()?;
        let campaign = Campaign::new(
            &setup.soc.netlist,
            setup.implementation.clone(),
            &OBSERVED_PORTS,
            setup.workload_cycles,
        )?;
        for d in campaign.lint() {
            fades_telemetry::log_raw_line(&d.to_runlog_json("8051-bubblesort"));
        }
        Ok(ExperimentBackend {
            campaign,
            workload: &setup.workload,
        })
    }

    /// The lint findings over the implemented design, computed once at
    /// construction ([`Campaign::lint`]) and shared with every shard the
    /// backend runs. Admission rejects every job while an
    /// `Error`-severity finding is present.
    pub fn diagnostics(&self) -> &[fades_analysis::Diagnostic] {
        self.campaign.lint()
    }

    fn memory_targets(&self) -> fades_core::TargetClass {
        fades_core::TargetClass::MemoryBits {
            name: "iram".into(),
            lo: self.workload.data_range.0 as usize,
            hi: self.workload.data_range.1 as usize,
        }
    }
}

impl CampaignBackend for ExperimentBackend {
    fn validate(&self, spec: &JobSpec) -> Result<(), String> {
        if fades_analysis::worst(self.diagnostics()) == Some(fades_analysis::Severity::Error) {
            let errors: Vec<String> = self
                .diagnostics()
                .iter()
                .filter(|d| d.severity == fades_analysis::Severity::Error)
                .map(ToString::to_string)
                .collect();
            return Err(format!(
                "design rejected by lint ({} error(s)): {}",
                errors.len(),
                errors.join("; ")
            ));
        }
        if named_load_for(&spec.load, || self.memory_targets()).is_none() {
            return Err(format!(
                "unknown fault load `{}` (known: {})",
                spec.load,
                NAMED_LOADS.join(", ")
            ));
        }
        if spec.faults == 0 {
            return Err("a campaign needs at least one fault".into());
        }
        if spec.faults > MAX_JOB_FAULTS {
            return Err(format!(
                "a job may ask for at most {MAX_JOB_FAULTS} faults, not {}",
                spec.faults
            ));
        }
        Ok(())
    }

    fn run_shard(
        &self,
        spec: &JobSpec,
        shard: u32,
        journal: &Path,
        cancel: &CancelToken,
    ) -> Result<ShardRun, String> {
        // A service-named journal's shard 0 settles the whole job; its
        // siblings have nothing left to do. Checked before planning, so
        // sibling calls return at once.
        let service_named = journal.file_name() == Some(shard_journal_name(shard).as_ref());
        let journals: Vec<(u32, PathBuf)> = match (service_named, shard) {
            (true, 0) => (0..spec.shards)
                .map(|s| (s, journal.with_file_name(shard_journal_name(s))))
                .collect(),
            (true, _) => return Ok(ShardRun { cancelled: false }),
            (false, _) => vec![(shard, journal.to_path_buf())],
        };

        let load = named_load_for(&spec.load, || self.memory_targets())
            .ok_or_else(|| format!("unknown fault load `{}`", spec.load))?;
        let plan = self
            .campaign
            .plan(&load, spec.faults as usize, spec.seed)
            .map_err(|e| e.to_string())?;
        let opts = ShardOptions {
            load: spec.load.clone(),
            retries: 1,
            with_recorder: true,
            batch: true,
            cancel: Some(cancel.clone()),
        };
        let outcomes =
            fades_dispatch::run_shards(&self.campaign, &plan, &journals, spec.shards, &opts)
                .map_err(|e| e.to_string())?;
        Ok(ShardRun {
            cancelled: outcomes.iter().any(|o| o.cancelled),
        })
    }
}

/// Handles the service subcommands. Returns `None` when the first
/// argument is none of them (other dispatchers take over).
pub fn try_service(args: &[String]) -> Option<Result<(), Box<dyn Error>>> {
    match args.first().map(String::as_str) {
        Some("serve") => Some(cmd_serve(&args[1..])),
        Some("submit") => Some(cmd_submit(&args[1..])),
        Some("jobs") => Some(cmd_jobs(&args[1..])),
        Some("results") => Some(cmd_results(&args[1..])),
        Some("cancel") => Some(cmd_cancel(&args[1..])),
        Some("shutdown") => Some(cmd_shutdown(&args[1..])),
        _ => None,
    }
}

/// `(name, value)` pairs collected from `--flag value` arguments.
type Flags = Vec<(String, String)>;

/// Splits `--flag value` pairs from positional arguments.
fn parse_flags(args: &[String]) -> Result<(Vec<String>, Flags), Box<dyn Error>> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn numeric_flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, Box<dyn Error>> {
    match flag(flags, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --{name} value `{v}`").into()),
        None => Ok(default),
    }
}

fn addr_from(flags: &[(String, String)]) -> String {
    flag(flags, "addr")
        .map(str::to_string)
        .or_else(|| {
            std::env::var("FADES_SERVICE_ADDR")
                .ok()
                .filter(|v| !v.is_empty())
        })
        .unwrap_or_else(|| DEFAULT_ADDR.to_string())
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn Error>> {
    let (positional, flags) = parse_flags(args)?;
    if !positional.is_empty() {
        return Err(format!("serve takes no positional arguments, got {positional:?}").into());
    }
    let addr = addr_from(&flags);
    let workers = numeric_flag(&flags, "workers", 2usize)?;
    let max_jobs = numeric_flag(&flags, "jobs", 2usize)?;
    let queue_dir = PathBuf::from(flag(&flags, "queue-dir").unwrap_or("fades-queue"));

    eprintln!("[building experimental setup (8051 + implementation + golden run)]");
    let backend = ExperimentBackend::new()?;
    let diags = backend.diagnostics();
    let errors = diags
        .iter()
        .filter(|d| d.severity == fades_analysis::Severity::Error)
        .count();
    eprintln!(
        "[lint: {} diagnostic(s), {errors} error(s){}]",
        diags.len(),
        if errors > 0 {
            " — submissions will be rejected"
        } else {
            ""
        }
    );
    let service = Service::start(
        &ServiceConfig {
            queue_dir: queue_dir.clone(),
            workers,
            max_jobs,
        },
        Box::new(backend),
    )?;
    let server = api::start_http(&addr, Arc::clone(&service))?;
    if let Some(path) = flag(&flags, "addr-file") {
        fades_telemetry::atomic_write(Path::new(path), &format!("{}\n", server.addr()))?;
    }
    println!(
        "fades-service listening on {} (queue {}, {} workers, {} concurrent jobs)",
        server.addr(),
        queue_dir.display(),
        workers,
        max_jobs
    );
    println!(
        "stop with: fades-experiments shutdown --addr {}",
        server.addr()
    );

    service.wait_for_shutdown();
    eprintln!("[shutdown requested: draining in-flight work]");
    service.join();
    server.shutdown();

    // The run-log aggregate epilogue the one-shot subcommands print on
    // exit; the Chrome-trace flush happens in main's observability
    // teardown after we return.
    let aggregates = fades_telemetry::drain_aggregates();
    if !aggregates.is_empty() {
        print!("{}", fades_telemetry::Summary::of(aggregates));
    }
    println!(
        "fades-service stopped (queue {} is durable)",
        queue_dir.display()
    );
    Ok(())
}

/// Issues one client request and surfaces non-2xx responses as errors.
fn client(addr: &str, method: &str, path: &str, body: &str) -> Result<String, Box<dyn Error>> {
    let result = if method == "POST" {
        http_post(addr, path, body)
    } else {
        http_get(addr, path)
    };
    let (code, response) = result.map_err(|e| format!("{addr}: {e} (is the service running?)"))?;
    if code >= 400 {
        return Err(format!("{method} {path}: HTTP {code}: {}", response.trim()).into());
    }
    Ok(response)
}

fn cmd_submit(args: &[String]) -> Result<(), Box<dyn Error>> {
    let (positional, flags) = parse_flags(args)?;
    if positional.len() > 1 {
        return Err(
            "usage: fades-experiments submit [load] [--faults <n>] [--seed <n>] \
                    [--shards <n>] [--label <text>] [--addr <host:port>]"
                .into(),
        );
    }
    let load = positional.first().map_or("bitflip-ffs", String::as_str);
    let faults = numeric_flag(&flags, "faults", crate::fault_count_from_env() as u64)?;
    let seed = numeric_flag(&flags, "seed", crate::seed_from_env())?;
    let shards = numeric_flag(&flags, "shards", 1u32)?;
    let mut body = JsonObject::new()
        .str("load", load)
        .u64("faults", faults)
        .u64("seed", seed)
        .u64("shards", shards as u64);
    if let Some(label) = flag(&flags, "label") {
        body = body.str("label", label);
    }
    let response = client(&addr_from(&flags), "POST", "/campaigns", &body.finish())?;
    let job = json::parse(response.trim())?;
    let id = job
        .get("id")
        .and_then(|v| v.as_str())
        .ok_or("malformed submit response")?;
    println!("submitted {id}: load {load}, {faults} faults, seed {seed}, {shards} shard(s)");
    Ok(())
}

fn cmd_jobs(args: &[String]) -> Result<(), Box<dyn Error>> {
    let (positional, flags) = parse_flags(args)?;
    let addr = addr_from(&flags);
    match positional.as_slice() {
        [] => {
            let response = client(&addr, "GET", "/campaigns", "")?;
            let v = json::parse(response.trim())?;
            let Some(json::JsonValue::Array(jobs)) = v.get("jobs") else {
                return Err("malformed jobs response".into());
            };
            if jobs.is_empty() {
                println!("no jobs");
            }
            for job in jobs {
                print_job_line(job);
            }
            Ok(())
        }
        [id] => {
            let response = client(&addr, "GET", &format!("/campaigns/{id}"), "")?;
            let v = json::parse(response.trim())?;
            let job = v.get("job").ok_or("malformed job response")?;
            print_job_line(job);
            if let Some(progress) = v.get("progress") {
                let num = |k: &str| {
                    progress
                        .get(k)
                        .and_then(fades_telemetry::json::JsonValue::as_u64)
                        .unwrap_or(0)
                };
                let settled = num("completed") + num("quarantined");
                let expected = num("expected");
                let eta = progress
                    .get("eta_s")
                    .and_then(fades_telemetry::json::JsonValue::as_f64)
                    .map(|e| format!(", ETA {e:.0}s"))
                    .unwrap_or_default();
                println!("  progress: {settled}/{expected} settled{eta}");
            }
            Ok(())
        }
        _ => Err("usage: fades-experiments jobs [id] [--addr <host:port>]".into()),
    }
}

fn print_job_line(job: &json::JsonValue) {
    let field = |k: &str| {
        job.get(k)
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let num = |k: &str| {
        job.get(k)
            .and_then(fades_telemetry::json::JsonValue::as_u64)
            .unwrap_or(0)
    };
    println!(
        "{} [{}] load {}, {} faults, seed {}, {} shard(s) — {}",
        field("id"),
        field("state"),
        field("load"),
        num("faults"),
        num("seed"),
        num("shards"),
        field("label"),
    );
    if let Some(err) = job.get("error").and_then(|v| v.as_str()) {
        println!("  error: {err}");
    }
}

fn cmd_results(args: &[String]) -> Result<(), Box<dyn Error>> {
    let (positional, flags) = parse_flags(args)?;
    let [id] = positional.as_slice() else {
        return Err("usage: fades-experiments results <id> [--addr <host:port>]".into());
    };
    let response = client(
        &addr_from(&flags),
        "GET",
        &format!("/campaigns/{id}/results"),
        "",
    )?;
    let v = json::parse(response.trim())?;
    let complete = matches!(v.get("complete"), Some(json::JsonValue::Bool(true)));
    let stats = v.get("stats").ok_or("malformed results response")?;
    let num = |k: &str| {
        stats
            .get(k)
            .and_then(fades_telemetry::json::JsonValue::as_u64)
            .unwrap_or(0)
    };
    println!(
        "{id}: {} ({} completed, {} missing, {} quarantined)",
        if complete { "complete" } else { "partial" },
        v.get("completed")
            .and_then(fades_telemetry::json::JsonValue::as_u64)
            .unwrap_or(0),
        v.get("missing")
            .and_then(fades_telemetry::json::JsonValue::as_u64)
            .unwrap_or(0),
        match v.get("quarantined") {
            Some(json::JsonValue::Array(q)) => q.len(),
            _ => 0,
        },
    );
    println!(
        "  outcomes: {} failures, {} latents, {} silents of {}",
        num("failures"),
        num("latents"),
        num("silents"),
        num("n"),
    );
    println!(
        "  modelled {:.6} s total ({})",
        stats
            .get("emulation_seconds")
            .and_then(fades_telemetry::json::JsonValue::as_f64)
            .unwrap_or(0.0),
        stats
            .get("emulation_seconds_bits")
            .and_then(|x| x.as_str())
            .unwrap_or("?"),
    );
    if complete {
        println!("  every experiment accounted for: stats are bit-identical to a monolithic run");
    }
    Ok(())
}

fn cmd_cancel(args: &[String]) -> Result<(), Box<dyn Error>> {
    let (positional, flags) = parse_flags(args)?;
    let [id] = positional.as_slice() else {
        return Err("usage: fades-experiments cancel <id> [--addr <host:port>]".into());
    };
    let response = client(
        &addr_from(&flags),
        "POST",
        &format!("/campaigns/{id}/cancel"),
        "",
    )?;
    let v = json::parse(response.trim())?;
    println!(
        "{id}: {}",
        v.get("state")
            .and_then(|x| x.as_str())
            .unwrap_or("cancel requested")
    );
    Ok(())
}

fn cmd_shutdown(args: &[String]) -> Result<(), Box<dyn Error>> {
    let (positional, flags) = parse_flags(args)?;
    if !positional.is_empty() {
        return Err("usage: fades-experiments shutdown [--addr <host:port>]".into());
    }
    client(&addr_from(&flags), "POST", "/shutdown", "")?;
    println!("shutdown requested: the service drains in-flight work and exits");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn flags_split_from_positionals_last_wins() {
        let (positional, flags) =
            parse_flags(&strs(&["pulse-luts", "--faults", "12", "--faults", "30"])).unwrap();
        assert_eq!(positional, vec!["pulse-luts"]);
        assert_eq!(flag(&flags, "faults"), Some("30"));
        assert_eq!(numeric_flag(&flags, "faults", 0u64).unwrap(), 30);
        assert_eq!(numeric_flag(&flags, "seed", 9u64).unwrap(), 9);
        assert!(parse_flags(&strs(&["--faults"])).is_err());
        assert!(numeric_flag::<u64>(&flags, "faults", 0).is_ok_and(|v| v == 30));
    }

    #[test]
    fn unknown_service_commands_fall_through() {
        assert!(try_service(&strs(&["table1"])).is_none());
        assert!(try_service(&strs(&["shard", "0/2", "j.jsonl"])).is_none());
    }
}
