//! The `run` subcommand: setup, one warm-up round, the timed rounds, the
//! correctness gates and the metrics, for one workload in this process.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use fades_telemetry::json::{self, JsonValue};

use crate::cpus;
use crate::report::{Metric, Outcome};
use crate::setup::{self, CoreWork, Counters, Design, Error, SetupSample};
use crate::stats;
use crate::trace;
use crate::work::{self, Gates, RoundCtx, RoundOut, Work};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "paper-lane",
    "delay-scalar",
    "sharded-resume",
    "service-jobs",
];

/// Default `--seed`: the first day of DSN 2006.
pub const DEFAULT_SEED: u64 = 20_060_625;

/// Digests of the modelled results for [`DEFAULT_SEED`] at full size:
/// outcome tallies and `emulation_seconds` bits per load (per job spec on
/// service-jobs). Modelled results must never move, so neither may these.
const EXPECTED_DIGEST: &str = include_str!("../expected_digest.json");

/// The repository's `BENCHMARK.json`: the run length (`run_seconds`) and
/// the end-to-end metrics with their bounds.
pub const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Length of the timed phase, seconds: `run_seconds` of `BENCHMARK.json`,
/// the only place it is set.
///
/// # Errors
///
/// `BENCHMARK.json` without a numeric `run_seconds`.
pub fn run_seconds() -> Result<f64, Error> {
    json::parse(BENCHMARK)?
        .get("run_seconds")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no numeric run_seconds".into())
}

/// Command-line options of `run`.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Traced run: per-layer metrics and a trace file.
    pub trace: bool,
    /// Tiny sizes for tests.
    pub smoke: bool,
    /// File to append the run record to.
    pub out: Option<PathBuf>,
}

/// Work sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Faults per load per round (paper-lane, sharded-resume).
    pub faults: usize,
    /// Faults per round on delay-scalar. Their cost varies more with the
    /// seed than the lane loads' does, but more faults would leave fewer
    /// repeats of each for [`crate::stats::fastest`], which moved the
    /// metric more.
    pub delay_faults: usize,
    /// Faults per service job.
    pub job_faults: u64,
    /// Jobs each service client sends per round.
    pub jobs_per_client: usize,
    /// Fewest setup builds behind `setup_s`. A timed run builds once
    /// more after every round, so the builds sample the host phases the
    /// rounds saw.
    pub setup_builds: usize,
    /// Timed rounds of each kind (untraced, traced) when not time-bounded
    /// (smoke).
    pub fixed_rounds: Option<usize>,
}

impl Sizes {
    /// Full or smoke sizes.
    pub fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                faults: 64,
                delay_faults: 64,
                job_faults: 64,
                jobs_per_client: 3,
                setup_builds: 3,
                fixed_rounds: Some(2),
            }
        } else {
            Sizes {
                faults: 3000,
                delay_faults: 1000,
                job_faults: 128,
                jobs_per_client: 12,
                setup_builds: 9,
                fixed_rounds: None,
            }
        }
    }
}

/// Fewest timed rounds, however long they take.
const MIN_ROUNDS: usize = 3;

/// A scratch directory inside `target/fades-bench/`, removed on drop so
/// journals and queues never leak from one run (or round) into another.
struct TempDir(PathBuf);

impl TempDir {
    fn new(workload: &str) -> Result<TempDir, Error> {
        let path = out_dir().join(format!("tmp-{workload}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where traces and scratch directories go, relative to the working
/// directory.
pub fn out_dir() -> PathBuf {
    Path::new("target").join("fades-bench")
}

struct Round {
    out: RoundOut,
    traced: bool,
    counters: Counters,
    span: Option<u64>,
}

/// Runs one workload; returns the process exit code (0 when every gate
/// passed).
///
/// # Errors
///
/// Infrastructure failures (I/O, campaign errors, the service refusing
/// to start).
pub fn run(opts: &Opts) -> Result<i32, Error> {
    let sizes = Sizes::new(opts.smoke);
    let seconds = run_seconds()?;
    let tmp = TempDir::new(&opts.workload)?;
    trace::set_enabled(opts.trace);

    let mut setups: Vec<SetupSample> = Vec::new();
    let setup_span = trace::span("bench.setup", "setup-0");
    let (design, mut setup0) = Design::build("setup-0")?;
    let (campaign, golden) = design.campaign("setup-0")?;
    drop(setup_span);
    setup0.golden = golden;
    setups.push(setup0);

    let mut work = work::build(&opts.workload, &design, &campaign, opts.seed, sizes, &tmp.0)?;

    let mut rounds: Vec<Round> = Vec::new();
    let mut fastest = [Fastest::default(), Fastest::default()];
    let warm = run_round(work.as_mut(), 0, false)?;
    Counters::reset();
    // A traced run alternates untraced and traced rounds, so both sides
    // run through the same host phases and `trace.overhead_pct` compares
    // like with like.
    let modes = if opts.trace { 2 } else { 1 };
    // A single-threaded workload moves to the next CPU every round (every
    // untraced and traced pair of rounds in a traced run), so that no run
    // is stuck on one slowed CPU (see `cpus`).
    let cpus = if work.concurrency() == 1 {
        cpus::allowed()
    } else {
        Vec::new()
    };
    let t0 = Instant::now();
    loop {
        let n = rounds.len();
        let done = match sizes.fixed_rounds {
            Some(k) => n >= k * modes,
            None => n >= MIN_ROUNDS.max(modes) && setup::secs(t0) >= seconds,
        };
        if done {
            break;
        }
        if cpus.len() > 1 {
            cpus::pin(&[cpus[(n / modes) % cpus.len()]]);
        }
        let traced = opts.trace && n % 2 == 1;
        trace::set_enabled(traced);
        let mut round = run_round(work.as_mut(), n + 1, traced)?;
        fastest[usize::from(traced)].add(&mut round.out);
        rounds.push(round);
        setups.push(setup::timed_setup(&format!("setup-{}", setups.len()))?);
    }
    if cpus.len() > 1 {
        cpus::pin(&cpus);
    }
    trace::set_enabled(opts.trace);
    while setups.len() < sizes.setup_builds {
        setups.push(setup::timed_setup(&format!("setup-{}", setups.len()))?);
    }

    let mut gates = Gates::default();
    let mut core = CoreWork::default();
    for r in &rounds {
        core.add(&r.out.core);
        let same = r.out.digest == warm.out.digest;
        gates.check(
            &format!("round {} reproduces the warm-up round", r.out.round),
            same,
            r.out.faults * usize::from(!same),
            "outcome tallies and emulation_seconds bits of every load",
        );
    }
    work.gates(&mut gates, &mut core)?;
    if opts.seed == DEFAULT_SEED && !opts.smoke {
        check_digest(&opts.workload, &warm.out.digest, &mut gates)?;
    }
    let (extra_work, analysis_input) = (work.extra(&traced_counters(&rounds).0), trace::spans());
    let concurrency = work.concurrency();
    drop(work);

    let mut outcome = Outcome {
        workload: opts.workload.clone(),
        seed: opts.seed,
        traced: opts.trace,
        correct: false,
        attempted: rounds.iter().map(|r| r.out.faults).sum(),
        failed: rounds.iter().map(|r| r.out.failed).sum::<usize>() + gates.failed,
        end_to_end: end_to_end(&fastest[0], &setups),
        per_layer: Vec::new(),
        round_walls: rounds.iter().map(|r| r.out.wall_s).collect(),
        extra: extra_work,
    };
    outcome.correct = gates.ok && outcome.failed == 0;

    println!("fades-bench {} (seed {})", opts.workload, opts.seed);
    for line in &gates.lines {
        println!("  gate {line}");
    }
    if opts.trace {
        let analysis = trace::analyze(analysis_input);
        let errors = analysis.nesting_errors();
        for e in errors.iter().take(5) {
            println!("  trace nesting error: {e}");
        }
        if !errors.is_empty() {
            outcome.correct = false;
        }
        outcome.per_layer = per_layer(&rounds, &fastest, &setups, &core, &analysis, concurrency);
        print_self_times(&analysis, &rounds);
        let path = out_dir().join(format!("{}.trace.json", opts.workload));
        let extra = [
            ("fades_telemetry", fades_telemetry::snapshot().to_json()),
            ("fades_bench", outcome.record_json()),
        ];
        std::fs::write(&path, analysis.chrome_json(&extra))?;
        println!("  trace written to {}", path.display());
    }
    outcome.print();
    if let Some(out) = &opts.out {
        outcome.append_record(out)?;
    }
    drop(tmp);
    println!("{}", outcome.result_json());
    Ok(if outcome.correct { 0 } else { 1 })
}

fn run_round(work: &mut dyn Work, r: usize, traced: bool) -> Result<Round, Error> {
    let req = format!("round-{r}");
    let span = trace::span("bench.round", req.clone());
    let ctx = RoundCtx {
        r,
        traced,
        req,
        span: span.id(),
    };
    let c0 = Counters::now();
    let out = work.round(&ctx)?;
    let counters = Counters::now().since(&c0);
    let id = span.id();
    drop(span);
    work.after_round(&ctx)?;
    Ok(Round {
        out,
        traced,
        counters,
        span: id,
    })
}

fn traced_counters(rounds: &[Round]) -> (Counters, usize) {
    let mut c = Counters::default();
    let mut executed = 0;
    for r in rounds.iter().filter(|r| r.traced) {
        c.add(&r.counters);
        executed += r.out.executed;
    }
    (c, executed)
}

fn check_digest(workload: &str, got: &[(String, String)], gates: &mut Gates) -> Result<(), Error> {
    let expected = json::parse(EXPECTED_DIGEST)?;
    let table = expected.get(workload);
    let mut bad = 0;
    for (key, value) in got {
        let want = table.and_then(|t| t.get(key)).and_then(|v| v.as_str());
        if want != Some(value.as_str()) {
            bad += 1;
            println!("  digest {workload}/{key}: got {value}, recorded {want:?}");
        }
    }
    gates.check(
        "modelled digest matches the recorded one",
        bad == 0,
        bad,
        format!("{} entries", got.len()),
    );
    Ok(())
}

/// Ratio, 0 when the base is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The fastest repeat ([`stats::fastest`]) of every piece of the timed
/// rounds of one phase (untraced or traced), kept as the rounds end so
/// the pieces never pile up in memory (`peak_rss_mb` would count them).
#[derive(Default)]
struct Fastest {
    /// Faults of one round.
    faults: usize,
    /// Fastest seconds of each piece so far.
    best: Vec<f64>,
    /// Faults and seconds of all rounds, for rounds without pieces.
    all_faults: usize,
    all_wall: f64,
    rounds: usize,
}

impl Fastest {
    fn add(&mut self, out: &mut RoundOut) {
        let pieces = std::mem::take(&mut out.pieces);
        if self.rounds == 0 {
            self.faults = out.faults;
            self.best = pieces;
        } else {
            assert_eq!(self.best.len(), pieces.len(), "rounds differ in pieces");
            for (b, s) in self.best.iter_mut().zip(pieces) {
                *b = b.min(s);
            }
        }
        self.all_faults += out.faults;
        self.all_wall += out.wall_s;
        self.rounds += 1;
    }

    /// Faults per second: the faults of one round over the summed fastest
    /// repeats of its pieces, or, without pieces, of all rounds over
    /// their time.
    fn throughput(&self) -> f64 {
        if self.best.is_empty() {
            ratio(self.all_faults as f64, self.all_wall)
        } else {
            ratio(self.faults as f64, self.best.iter().sum())
        }
    }
}

/// The `end_to_end` metrics of `BENCHMARK.json`, in its order, from the
/// untraced rounds and every setup build.
fn end_to_end(untraced: &Fastest, setups: &[SetupSample]) -> Vec<Metric> {
    let totals: Vec<f64> = setups.iter().map(SetupSample::total).collect();
    vec![
        Metric::new("setup_s", stats::fastest(&totals), "s", setups.len()),
        Metric::new(
            "faults_per_s",
            untraced.throughput(),
            "faults/s",
            untraced.rounds,
        ),
        Metric::new("peak_rss_mb", setup::peak_rss_mb(), "MB", 1),
    ]
}

/// The `per_layer` metrics of `BENCHMARK.json`, in its order: only
/// metrics every workload defines. A layer a workload never enters reads
/// 0 in its counts and shares, never in a time.
fn per_layer(
    rounds: &[Round],
    [untraced, traced]: &[Fastest; 2],
    setups: &[SetupSample],
    core: &CoreWork,
    analysis: &trace::Analysis,
    concurrency: usize,
) -> Vec<Metric> {
    let stage = |f: fn(&SetupSample) -> f64| {
        let v: Vec<f64> = setups.iter().map(|s| f(s) * 1e3).collect();
        stats::fastest(&v)
    };
    let n_setup = setups.len();
    let (lane, lane_faults) = traced_counters(rounds);
    let lf = lane_faults as f64;
    let sf = core.scalar_faults as f64;
    let (fps_untraced, fps_traced) = (untraced.throughput(), traced.throughput());

    // Self time of the traced rounds, by layer share.
    let in_rounds = traced_subtrees(analysis, rounds);
    let mut by_share: BTreeMap<&str, f64> = BTreeMap::new();
    let mut total_self = 0.0;
    let mut round_wall = 0.0;
    for s in analysis.spans.iter().filter(|s| in_rounds.contains(&s.id)) {
        let self_us = analysis.self_us[&s.id];
        total_self += self_us;
        *by_share.entry(share_of(s.name)).or_default() += self_us;
        if s.name == "bench.round" {
            round_wall += s.dur_us();
        }
    }
    let share = |k: &str| ratio(by_share.get(k).copied().unwrap_or(0.0), total_self);
    let rounds_traced = rounds.iter().filter(|r| r.traced).count();

    vec![
        Metric::new(
            "mcu8051.build_soc_ms",
            stage(|s| s.build_soc),
            "ms",
            n_setup,
        ),
        Metric::new("mcu8051.iss_trace_ms", stage(|s| s.iss), "ms", n_setup),
        Metric::new("pnr.implement_ms", stage(|s| s.implement), "ms", n_setup),
        Metric::new("analysis.lint_ms", stage(|s| s.lint), "ms", n_setup),
        Metric::new("core.golden_capture_ms", stage(|s| s.golden), "ms", n_setup),
        Metric::new(
            "core.plan_ms",
            stats::median(&core.plan_ms),
            "ms",
            core.plan_ms.len(),
        ),
        Metric::new(
            "core.scalar.us_per_fault",
            ratio(core.scalar_s * 1e6, sf),
            "us",
            core.scalar_faults,
        ),
        Metric::new(
            "core.scalar.cycles_per_fault",
            ratio(core.scalar_cycles as f64, sf),
            "cycles",
            core.scalar_faults,
        ),
        Metric::new(
            "core.scalar.ns_per_cycle",
            ratio(core.scalar_s * 1e9, core.scalar_cycles as f64),
            "ns",
            core.scalar_faults,
        ),
        Metric::new(
            "core.fastpath.fast_forwarded_frac",
            ratio(core.fast_forwarded as f64, sf),
            "ratio",
            core.scalar_faults,
        ),
        Metric::new(
            "core.fastpath.early_stopped_frac",
            ratio(core.early_stopped as f64, sf),
            "ratio",
            core.scalar_faults,
        ),
        Metric::new(
            "core.lane.occupancy",
            ratio(lane.lane_cycles as f64, lane.batch_cycles as f64),
            "lanes",
            lane_faults,
        ),
        Metric::new(
            "core.lane.batch_cycles_per_fault",
            ratio(lane.batch_cycles as f64, lf),
            "cycles",
            lane_faults,
        ),
        Metric::new(
            "core.lane.retired_frac",
            ratio(lane.retirements as f64, lf),
            "ratio",
            lane_faults,
        ),
        Metric::new(
            "core.lane.warm_skipped_cycles_per_fault",
            ratio(lane.warm_skipped as f64, lf),
            "cycles",
            lane_faults,
        ),
        Metric::new(
            "core.lane.evals_skipped_per_batch_cycle",
            ratio(lane.evals_skipped as f64, lane.batch_cycles as f64),
            "evals",
            lane_faults,
        ),
        Metric::new("share.core", share("core"), "ratio", rounds_traced),
        Metric::new("share.dispatch", share("dispatch"), "ratio", rounds_traced),
        Metric::new(
            "share.service.http",
            share("service.http"),
            "ratio",
            rounds_traced,
        ),
        Metric::new(
            "share.service.wait",
            share("service.wait"),
            "ratio",
            rounds_traced,
        ),
        Metric::new("share.bench", share("bench"), "ratio", rounds_traced),
        Metric::new(
            "trace.overhead_pct",
            ratio(fps_untraced - fps_traced, fps_untraced) * 100.0,
            "%",
            traced.rounds,
        ),
        Metric::new(
            "trace.reconciliation",
            ratio(total_self, round_wall * concurrency as f64),
            "ratio",
            rounds_traced,
        ),
    ]
}

/// Ids of the traced rounds' spans and everything below them.
fn traced_subtrees(analysis: &trace::Analysis, rounds: &[Round]) -> HashSet<u64> {
    rounds
        .iter()
        .filter(|r| r.traced)
        .filter_map(|r| r.span)
        .flat_map(|root| analysis.subtree(root))
        .collect()
}

/// The `share.*` bucket a span's self time counts toward.
fn share_of(name: &str) -> &'static str {
    match name {
        "service.job" => "service.wait",
        n if n.starts_with("service.") => "service.http",
        n if n.starts_with("core.") => "core",
        n if n.starts_with("dispatch.") => "dispatch",
        _ => "bench",
    }
}

/// Prints self time per span name over the traced rounds, and the
/// program-thread spans linked to them.
fn print_self_times(analysis: &trace::Analysis, rounds: &[Round]) {
    let mut own: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    let mut linked: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    let in_rounds = traced_subtrees(analysis, rounds);
    for s in &analysis.spans {
        let slot = if in_rounds.contains(&s.id) {
            own.entry(s.name).or_default()
        } else if analysis
            .links
            .get(&s.id)
            .is_some_and(|l| in_rounds.contains(l))
        {
            linked.entry(s.name).or_default()
        } else {
            continue;
        };
        slot.0 += analysis.self_us[&s.id];
        slot.1 += 1;
    }
    let total: f64 = own.values().map(|v| v.0).sum();
    println!("  self time over the traced rounds (benchmark threads)");
    for (name, (us, n)) in &own {
        println!(
            "    {name:<32} {:>10.1} ms {:>6.1}%  spans={n}",
            us / 1e3,
            ratio(*us, total) * 100.0
        );
    }
    if !linked.is_empty() {
        println!("  program-thread spans linked to those rounds (run beside them)");
        for (name, (us, n)) in &linked {
            println!("    {name:<32} {:>10.1} ms  spans={n}", us / 1e3);
        }
    }
}
