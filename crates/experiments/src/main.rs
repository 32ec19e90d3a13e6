//! Command-line regenerator for every table and figure of the paper.
//!
//! ```text
//! fades-experiments [table1|fig10|table2|fig11|fig12|fig13|fig14|fig15|table3|table4|permanent|techniques|scaling|batch|setup|all]
//! fades-experiments batch [--n N] [--threads T]        # lane-engine speed section
//!                                                      # (T > 1 adds a multi-thread row)
//! fades-experiments kernels                            # fastest settle/edge/merge-scan
//!                                                      # timings per lane-word width
//! fades-experiments analyze [load|all] [--json]        # lint + static pre-classification
//! fades-experiments shard I/N <journal.jsonl> [load]   # run one shard, journaled
//! fades-experiments resume <journal.jsonl>             # finish a journaled shard
//! fades-experiments merge <journal.jsonl|dir>...       # fold shards into one result
//! fades-experiments status <journal.jsonl|dir>... [--watch] # cross-shard progress/ETA
//! fades-experiments serve [--addr H:P] [--queue-dir D] # durable multi-campaign job server
//! fades-experiments submit|jobs|results|cancel|shutdown # its HTTP clients
//! ```
//!
//! Environment:
//! * `FADES_FAULTS`   — faults per campaign (default 300; the paper uses 3000)
//! * `FADES_SEED`     — campaign seed (default 20060625)
//! * `FADES_THREADS`  — campaign worker threads (default `min(cores, 8)`)
//! * `FADES_RUN_LOG`  — append a JSONL run log (one line per experiment) here
//! * `FADES_PROGRESS` — `1`/`0` forces the stderr progress ticker on/off
//! * `FADES_METRICS_ADDR` — serve live `GET /metrics` + `GET /status` on
//!   this `host:port` while the run executes (port 0 picks a free port;
//!   the bound address is written to `FADES_METRICS_ADDR_FILE` if set)
//! * `FADES_TRACE_OUT` — export completed spans as Chrome `trace_event`
//!   JSON here at process end (ring capacity via `FADES_TRACE_CAP`)
//! * `FADES_WATCHDOG_MS` — enable the stall/anomaly watchdog with this
//!   completion deadline

use std::error::Error;
use std::time::Instant;

use fades_experiments::{
    batchspeed, fault_count_from_env, fig10, fig11, fig12, fig13, fig14, fig15, kernels, permanent,
    scaling, seed_from_env, table1, table2, table3, table4, techniques, ExperimentContext,
};

const KNOWN: [&str; 17] = [
    "setup",
    "table1",
    "fig10",
    "table2",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "table3",
    "table4",
    "permanent",
    "techniques",
    "scaling",
    "batch",
    "kernels",
    "all",
];

fn usage() -> String {
    format!("usage: fades-experiments [{}]", KNOWN.join("|"))
}

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    fades_telemetry::set_enabled(true);
    let observability = start_observability();
    let result = run(&args);
    finish_observability(observability);
    result
}

/// Live-observability handles held for the duration of the run.
struct Observability {
    server: Option<fades_telemetry::MetricsServer>,
    watchdog: Option<fades_telemetry::WatchdogHandle>,
}

/// Starts whatever the environment asks for: span tracing
/// (`FADES_TRACE_OUT`), the /metrics//status endpoint
/// (`FADES_METRICS_ADDR`), and the anomaly watchdog
/// (`FADES_WATCHDOG_MS`). All default to off.
fn start_observability() -> Observability {
    fades_telemetry::trace::init_from_env();
    let server = match fades_telemetry::MetricsServer::start_from_env() {
        Some(Ok(server)) => {
            eprintln!("[metrics serving on {}]", server.addr());
            Some(server)
        }
        Some(Err(e)) => {
            eprintln!("warning: FADES_METRICS_ADDR unusable: {e}");
            None
        }
        None => None,
    };
    let watchdog = fades_telemetry::start_watchdog_from_env();
    Observability { server, watchdog }
}

/// Exports the Chrome trace (when configured) and winds down the
/// background threads.
fn finish_observability(observability: Observability) {
    if let Some(path) = fades_telemetry::trace::trace_out_path() {
        match fades_telemetry::trace::export_chrome(&path) {
            Ok(n) => eprintln!("[chrome trace: {n} span(s) written to {}]", path.display()),
            Err(e) => eprintln!("warning: could not write trace {}: {e}", path.display()),
        }
    }
    if let Some(watchdog) = observability.watchdog {
        watchdog.stop();
    }
    if let Some(server) = observability.server {
        server.shutdown();
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    if let Some(result) = fades_experiments::analyze_cli::try_analyze(args) {
        return result;
    }
    if let Some(result) = fades_experiments::dispatch_cli::try_dispatch(args) {
        return result;
    }
    if let Some(result) = fades_experiments::service_cli::try_service(args) {
        return result;
    }
    let which = args.first().cloned().unwrap_or_else(|| "all".to_string());
    if !KNOWN.contains(&which.as_str()) {
        eprintln!("unknown experiment `{which}`");
        eprintln!("{}", usage());
        eprintln!("or: fades-experiments analyze [load|all] [--json] [--design 8051|demo-dead]");
        eprintln!("or: fades-experiments shard I/N <journal> [load] | resume <journal> | merge <journal|dir>... | status <journal|dir>... [--watch]");
        eprintln!("or: fades-experiments serve [--addr H:P] [--queue-dir D] | submit [load] | jobs [id] | results <id> | cancel <id> | shutdown");
        std::process::exit(2);
    }
    let n = fault_count_from_env();
    let seed = seed_from_env();

    if which == "table1" {
        println!("Table 1 — emulation of transient fault models with FPGAs\n");
        print!("{}", table1::table());
        return Ok(());
    }

    let t0 = Instant::now();
    let ctx = ExperimentContext::new()?;
    if which == "kernels" {
        let timings = kernels::run(&ctx)?;
        println!(
            "Lane-engine kernels on the placed 8051 ({}), fastest of {} interleaved rounds:\n",
            timings.shape,
            kernels::ROUNDS
        );
        print!("{}", timings.table());
        return Ok(());
    }
    print_setup(&ctx, n, seed);
    let all = which == "all";

    if which == "setup" {
        // Setup summary (netlist statistics + device geometry) is all
        // this subcommand prints.
        return Ok(());
    }
    if all || which == "table1" {
        section("Table 1 — emulation of transient fault models with FPGAs");
        print!("{}", table1::table());
    }
    let fig10_result = if all || which == "fig10" || which == "table2" {
        let r = fig10::run(&ctx, n, seed)?;
        if all || which == "fig10" {
            section("Figure 10 — mean emulation time of experiments via FADES");
            print!("{}", r.table());
        }
        Some(r)
    } else {
        None
    };
    if let Some(fig10) = fig10_result.as_ref().filter(|_| all || which == "table2") {
        section("Table 2 — speed-up obtained via FADES over VFIT");
        let r = table2::from_fig10(&ctx, fig10);
        print!("{}", r.table());
    }
    if all || which == "fig11" {
        section("Figure 11 — results from the bit-flip emulation");
        print!("{}", fig11::run(&ctx, n, seed)?.table());
    }
    if all || which == "fig12" {
        section("Figure 12 — delay and indetermination into sequential logic");
        print!("{}", fig12::run(&ctx, n, seed)?.table());
    }
    if all || which == "fig13" {
        section("Figure 13 — pulse emulation into combinational logic");
        print!("{}", fig13::run(&ctx, n, seed)?.table());
    }
    if all || which == "fig14" {
        section("Figure 14 — indetermination into combinational logic");
        print!("{}", fig14::run(&ctx, n, seed)?.table());
    }
    if all || which == "fig15" {
        section("Figure 15 — delay emulation into combinational logic");
        print!("{}", fig15::run(&ctx, n, seed)?.table());
    }
    if all || which == "table3" {
        section("Table 3 — comparison of the results obtained via FADES and VFIT");
        print!("{}", table3::run(&ctx, n, seed)?.table());
    }
    if all || which == "table4" {
        section("Table 4 — pulses in combinational logic as multiple bit-flips");
        print!("{}", table4::run(&ctx, seed)?.table());
    }
    if all || which == "permanent" {
        section("§8 extension — permanent fault models via RTR");
        print!("{}", permanent::run(&ctx, n, seed)?.table());
    }
    if all || which == "techniques" {
        section("§7.3 — RTR vs CTR vs simulation on the same fault load");
        print!("{}", techniques::run(&ctx, n.min(100), seed)?.table());
    }
    if all || which == "scaling" {
        section("§7.1 — speed-up vs workload length");
        print!("{}", scaling::run(n, seed)?.table());
    }
    if all || which == "batch" {
        section("§7 extension — scalar vs bit-parallel lane engine");
        let (batch_n, batch_threads) = if which == "batch" {
            parse_batch_opts(&args[1..], n)?
        } else {
            (n, fades_core::worker_threads())
        };
        print!(
            "{}",
            batchspeed::run(&ctx, batch_n, seed, batch_threads)?.table()
        );
    }

    let aggregates = fades_telemetry::drain_aggregates();
    if !aggregates.is_empty() {
        println!();
        print!("{}", fades_telemetry::Summary::of(aggregates.clone()));
        let bench_path = std::path::Path::new("BENCH_campaign.json");
        match fades_telemetry::write_bench_json(bench_path, &aggregates) {
            Ok(()) => eprintln!("[campaign benchmark written to {}]", bench_path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", bench_path.display()),
        }
        if let Some(log) = fades_telemetry::run_log_path() {
            eprintln!("[run log appended to {}]", log.display());
        }
    }

    eprintln!("\n[{} completed in {:.1?}]", which, t0.elapsed());
    Ok(())
}

fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Options of the `batch` subcommand: `--n N` overrides `FADES_FAULTS`
/// and `--threads T` sets the cohort worker count for the multi-thread
/// row (`T > 1` adds it; the default is the campaign worker default).
fn parse_batch_opts(rest: &[String], default_n: usize) -> Result<(usize, usize), Box<dyn Error>> {
    let mut n = default_n;
    let mut threads = fades_core::worker_threads();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--n" => {
                n = it
                    .next()
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --n: {e}"))?;
            }
            "--threads" => {
                threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --threads: {e}"))?;
            }
            other => return Err(format!("unknown batch option `{other}`").into()),
        }
    }
    Ok((n, threads))
}

fn print_setup(ctx: &ExperimentContext, n: usize, seed: u64) {
    let stats = ctx.soc().netlist.stats();
    let (luts, ffs, brams) = ctx.implementation().bitstream.utilisation();
    let arch = ctx.implementation().bitstream.arch();
    println!("Experimental setup (paper §6.1):");
    println!("  model: 8051 subset, {luts} LUTs / {ffs} FFs / {brams} memory blocks implemented");
    println!(
        "  device: {}x{} CLBs, {} frames/column x {} bytes, {} BRAM blocks, {:.0} MHz",
        arch.rows,
        arch.cols,
        arch.frames_per_col,
        arch.frame_bytes,
        arch.bram_blocks,
        1000.0 / arch.clock_period_ns
    );
    println!(
        "  netlist: {}",
        stats.to_string().trim_end().replace('\n', "\n  ")
    );
    println!(
        "  workload: {} ({} cycles; paper's Bubblesort took 1303)",
        ctx.workload().name,
        ctx.workload_cycles()
    );
    println!("  faults per campaign: {n} (paper: 3000), seed {seed}");
    let by_word: Vec<String> = [64, 128, 256, 512]
        .map(|lanes| {
            format!(
                "{lanes}: {}",
                fades_fpga::LaneKernel::for_lanes(lanes).name()
            )
        })
        .into();
    println!(
        "  lane kernel: {}; by lane word {}",
        fades_fpga::LaneKernel::detect(),
        by_word.join(", ")
    );
}
