//! `fades-bench`: the end-to-end and per-layer benchmark of the FADES
//! campaign pipeline.
//!
//! ```text
//! fades-bench run --workload <name|all> [--seed N] [--trace [0|1]]
//!                 [--smoke] [--out RECORDS.jsonl]
//! fades-bench compare A.jsonl B.jsonl
//! ```
//!
//! `run` prints a report and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics, or the per-layer ones with `--trace`. It exits non-zero when
//! a correctness gate failed. The timed phase lasts `run_seconds` of
//! `BENCHMARK.json`; `--seconds S` is accepted when it says the same.
//! `compare` judges against that file's bounds. See README.md.

mod campaigns;
mod compare;
mod cpus;
mod report;
mod run;
mod service;
mod setup;
mod sharded;
mod stats;
mod trace;
mod work;

use std::path::Path;
use std::process::Command;

use fades_telemetry::json::{self, JsonObject, JsonValue};

use crate::run::{Opts, BENCHMARK, DEFAULT_SEED, WORKLOADS};
use crate::setup::Error;

const USAGE: &str = "usage: fades-bench run --workload <name|all> [--seed N] \
                     [--trace [0|1]] [--smoke] [--out FILE]\n       \
                     fades-bench compare A.jsonl B.jsonl";

fn main() {
    // The service backend sizes its campaigns from FADES_THREADS; pin it
    // to the thread count every other workload uses.
    std::env::set_var("FADES_THREADS", setup::THREADS.to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match real_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fades-bench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main(args: &[String]) -> Result<i32, Error> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let opts = parse_run(&args[1..])?;
            if opts.workload == "all" {
                run_all(&opts)
            } else if WORKLOADS.contains(&opts.workload.as_str()) {
                run::run(&opts)
            } else {
                Err(format!(
                    "unknown workload `{}` (known: {})",
                    opts.workload,
                    WORKLOADS.join(", ")
                )
                .into())
            }
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err(USAGE.into());
            };
            let no_worse = compare::compare(Path::new(a), Path::new(b), BENCHMARK)?;
            Ok(if no_worse { 0 } else { 1 })
        }
        _ => Err(USAGE.into()),
    }
}

fn parse_run(args: &[String]) -> Result<Opts, Error> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| Error::from(format!("{arg} needs a value\n{USAGE}")))
        };
        match arg {
            "--workload" => opts.workload = value()?.to_string(),
            "--seed" => opts.seed = value()?.parse()?,
            // The run length is `run_seconds` of BENCHMARK.json alone, so
            // two builds are always measured alike; the flag may only
            // restate it.
            "--seconds" => {
                let (given, fixed) = (value()?.parse::<f64>()?, run::run_seconds()?);
                if given != fixed {
                    return Err(format!(
                        "--seconds {given}: the timed phase is run_seconds = {fixed} \
                         of BENCHMARK.json"
                    )
                    .into());
                }
            }
            "--out" => opts.out = Some(value()?.into()),
            "--smoke" => opts.smoke = true,
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                opts.trace = it.next_if(|v| *v == "0" || *v == "1") != Some("0");
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}").into()),
        }
    }
    if opts.workload.is_empty() {
        return Err(USAGE.into());
    }
    Ok(opts)
}

/// Runs every workload in its own process (so peak RSS is the
/// workload's), echoing each report, then prints one combined line with
/// metrics named `<workload>.<metric>`.
fn run_all(opts: &Opts) -> Result<i32, Error> {
    let exe = std::env::current_exe()?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = JsonObject::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w, "--seed", &opts.seed.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        if let Some(out) = &opts.out {
            cmd.arg("--out").arg(out);
        }
        let output = cmd.output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let last = json::parse(stdout.lines().last().unwrap_or("").trim())
            .map_err(|e| format!("{w}: no result line ({e})"))?;
        correct &=
            output.status.success() && matches!(last.get("correct"), Some(JsonValue::Bool(true)));
        attempted += last
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        failed += last.get("failed").and_then(JsonValue::as_u64).unwrap_or(0);
        if let Some(JsonValue::Object(m)) = last.get("metrics") {
            for (name, v) in m {
                let value = v.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0);
                let unit = v.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                metrics = metrics.raw(
                    &format!("{w}.{name}"),
                    &JsonObject::new()
                        .f64("value", value)
                        .str("unit", unit)
                        .finish(),
                );
            }
        }
    }
    println!(
        "{}",
        JsonObject::new()
            .raw("correct", if correct { "true" } else { "false" })
            .u64("attempted", attempted)
            .u64("failed", failed)
            .raw("metrics", &metrics.finish())
            .finish()
    );
    Ok(if correct { 0 } else { 1 })
}
