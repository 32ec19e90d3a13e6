//! What every workload shares: building the experimental setup, the
//! telemetry counters read around each timed block, the scalar-oracle
//! gate and the modelled-result digest.

use std::collections::BTreeMap;
use std::time::Instant;

use fades_core::{
    Campaign, CampaignConfig, CampaignPlan, CampaignStats, FaultLoad, Outcome, PlanAnnotation,
};
use fades_fpga::ArchParams;
use fades_mcu8051::workloads::{self, Workload};
use fades_mcu8051::{build_soc, Iss, Soc, OBSERVED_PORTS};
use fades_pnr::Implementation;
use fades_telemetry::{dispatch, fastpath, sim};

use crate::trace;

/// Campaign worker threads. One: the reference machine's two vCPUs slow
/// down independently of each other (see [`crate::stats::fastest`]), and
/// a campaign split over both runs at the pace of the slower, so it spends
/// less of a run at full speed. Pinned so every machine runs the same
/// work split.
pub const THREADS: usize = 1;

/// Experiments per plan the scalar oracle re-executes (one lane word).
pub const ORACLE_EXPERIMENTS: usize = 63;

/// Boxed error used throughout the benchmark.
pub type Error = Box<dyn std::error::Error>;

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The 8051 running Bubblesort, implemented on the Virtex-1000-like
/// device: the paper's experimental setup.
pub struct Design {
    /// The system under analysis.
    pub soc: Soc,
    /// Placed and routed design.
    pub implementation: Implementation,
    /// Workload length in cycles, from the instruction-set simulator.
    pub cycles: u64,
    workload: Workload,
}

/// Host seconds spent in each setup stage of one build.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSample {
    /// `build_soc`.
    pub build_soc: f64,
    /// ISS run to completion (workload length).
    pub iss: f64,
    /// `fades_pnr::implement`.
    pub implement: f64,
    /// `fades_analysis::lint`.
    pub lint: f64,
    /// `Campaign::with_config` (device configuration + golden capture).
    pub golden: f64,
}

impl SetupSample {
    /// Whole setup.
    pub fn total(&self) -> f64 {
        self.build_soc + self.iss + self.implement + self.lint + self.golden
    }
}

impl Design {
    /// Builds the design, timing each stage except golden capture (which
    /// needs a campaign borrowing the result; see [`Design::campaign`]).
    ///
    /// # Errors
    ///
    /// Model-construction, implementation or lint failures.
    pub fn build(req: &str) -> Result<(Design, SetupSample), Error> {
        let workload = workloads::bubblesort();
        let mut sample = SetupSample::default();
        let t = Instant::now();
        let soc = {
            let _s = trace::span("mcu8051.build_soc", req);
            build_soc(&workload.rom)?
        };
        sample.build_soc = secs(t);
        let t = Instant::now();
        let cycles = {
            let _s = trace::span("mcu8051.iss_trace", req);
            Iss::new(workload.rom.clone())
                .run_to_completion(100_000)
                .ok_or("workload does not terminate")?
                .cycles
        };
        sample.iss = secs(t);
        let t = Instant::now();
        let implementation = {
            let _s = trace::span("pnr.implement", req);
            fades_pnr::implement(&soc.netlist, ArchParams::virtex1000_like())?
        };
        sample.implement = secs(t);
        let t = Instant::now();
        let diagnostics = {
            let _s = trace::span("analysis.lint", req);
            fades_analysis::lint(&implementation.bitstream)
        };
        sample.lint = secs(t);
        if fades_analysis::worst(&diagnostics) == Some(fades_analysis::Severity::Error) {
            return Err("the implemented design fails lint".into());
        }
        Ok((
            Design {
                soc,
                implementation,
                cycles,
                workload,
            },
            sample,
        ))
    }

    /// Prepares a campaign (golden capture) with the benchmark's thread
    /// count, returning it with the seconds it took.
    ///
    /// # Errors
    ///
    /// Device-configuration errors.
    pub fn campaign(&self, req: &str) -> Result<(Campaign<'_>, f64), Error> {
        let _s = trace::span("core.golden_capture", req);
        let t = Instant::now();
        let campaign = Campaign::with_config(
            &self.soc.netlist,
            self.implementation.clone(),
            &OBSERVED_PORTS,
            self.cycles,
            CampaignConfig {
                threads: THREADS,
                ..CampaignConfig::default()
            },
        )?;
        Ok((campaign, secs(t)))
    }

    /// A named fault load (the names `fades-experiments shard` accepts).
    ///
    /// # Errors
    ///
    /// Unknown names.
    pub fn load(&self, name: &str) -> Result<FaultLoad, Error> {
        let memory = || fades_core::TargetClass::MemoryBits {
            name: "iram".into(),
            lo: self.workload.data_range.0 as usize,
            hi: self.workload.data_range.1 as usize,
        };
        fades_experiments::dispatch_cli::named_load_for(name, memory)
            .ok_or_else(|| format!("unknown fault load `{name}`").into())
    }
}

/// One full setup, timed and thrown away (the repeated builds behind
/// `setup_s`).
///
/// # Errors
///
/// As [`Design::build`] and [`Design::campaign`].
pub fn timed_setup(req: &str) -> Result<SetupSample, Error> {
    let _s = trace::span("bench.setup", req);
    let (design, mut sample) = Design::build(req)?;
    let (_campaign, golden) = design.campaign(req)?;
    sample.golden = golden;
    Ok(sample)
}

/// The lane engine's telemetry counters, read as one snapshot so blocks
/// of work can be measured by difference.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Occupied faulty lanes summed over batch cycles.
    pub lane_cycles: u64,
    /// Lane-engine cycles.
    pub batch_cycles: u64,
    /// Lanes retired early on reconvergence.
    pub retirements: u64,
    /// Node evaluations the sparse settle skipped.
    pub evals_skipped: u64,
    /// Golden-prefix cycles skipped by warm-start.
    pub warm_skipped: u64,
}

impl Counters {
    /// Current values.
    pub fn now() -> Counters {
        Counters {
            lane_cycles: sim::LANE_CYCLES.get(),
            batch_cycles: sim::BATCH_CYCLES.get(),
            retirements: sim::LANE_RETIREMENTS.get(),
            evals_skipped: sim::EVALS_SKIPPED.get(),
            warm_skipped: sim::WARM_SKIPPED_CYCLES.get(),
        }
    }

    /// Resets the `sim`, `fastpath` and `dispatch` counter families before
    /// a timed phase.
    pub fn reset() {
        sim::reset();
        fastpath::reset();
        dispatch::reset();
    }

    /// Field-wise `self - earlier`.
    pub fn since(&self, e: &Counters) -> Counters {
        Counters {
            lane_cycles: self.lane_cycles.saturating_sub(e.lane_cycles),
            batch_cycles: self.batch_cycles.saturating_sub(e.batch_cycles),
            retirements: self.retirements.saturating_sub(e.retirements),
            evals_skipped: self.evals_skipped.saturating_sub(e.evals_skipped),
            warm_skipped: self.warm_skipped.saturating_sub(e.warm_skipped),
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Counters) {
        self.lane_cycles += o.lane_cycles;
        self.batch_cycles += o.batch_cycles;
        self.retirements += o.retirements;
        self.evals_skipped += o.evals_skipped;
        self.warm_skipped += o.warm_skipped;
    }
}

/// Work done in `fades-core` outside the engine calls a round times:
/// planning, and every scalar-engine (`Campaign::execute`) call. Feeds
/// `core.plan_ms` and the `core.scalar.*` metrics.
#[derive(Debug, Clone, Default)]
pub struct CoreWork {
    /// `Campaign::plan` calls, ms each.
    pub plan_ms: Vec<f64>,
    /// Host seconds inside `Campaign::execute`.
    pub scalar_s: f64,
    /// Experiments executed there.
    pub scalar_faults: usize,
    /// Workload cycles they simulated: the run length minus the prefix
    /// each fast-forwarded and the tail it stopped early on. Experiments
    /// the plan marks statically Silent, which the engine only replays
    /// when `static_preclassify` is on, simulate none. (The scalar
    /// `Device` does not feed `fades_telemetry::sim::CYCLES`.)
    pub scalar_cycles: u64,
    /// Of those experiments, how many restored a golden checkpoint.
    pub fast_forwarded: usize,
    /// And how many stopped early on reconvergence.
    pub early_stopped: usize,
}

impl CoreWork {
    /// Field-wise sum.
    pub fn add(&mut self, o: &CoreWork) {
        self.plan_ms.extend(&o.plan_ms);
        self.scalar_s += o.scalar_s;
        self.scalar_faults += o.scalar_faults;
        self.scalar_cycles += o.scalar_cycles;
        self.fast_forwarded += o.fast_forwarded;
        self.early_stopped += o.early_stopped;
    }

    /// `Campaign::plan`, timed.
    ///
    /// # Errors
    ///
    /// Planning errors.
    pub fn plan(
        &mut self,
        campaign: &Campaign,
        load: &FaultLoad,
        n: usize,
        seed: u64,
    ) -> Result<CampaignPlan, Error> {
        let _s = trace::span("core.plan", "");
        let t = Instant::now();
        let plan = campaign.plan(load, n, seed)?;
        self.plan_ms.push(secs(t) * 1e3);
        Ok(plan)
    }

    /// `Campaign::execute` (the scalar engine), timed.
    ///
    /// # Errors
    ///
    /// Experiment errors.
    pub fn execute(
        &mut self,
        campaign: &Campaign,
        plan: &CampaignPlan,
    ) -> Result<Vec<fades_core::ExperimentResult>, Error> {
        let _s = trace::span("core.execute", "");
        let t = Instant::now();
        let results = campaign.execute(plan, None)?;
        self.scalar_s += secs(t);
        self.scalar_faults += results.len();
        let static_skip = campaign.config().static_preclassify;
        for (e, r) in plan.experiments.iter().zip(&results) {
            if static_skip && e.annotation == PlanAnnotation::StaticSilent {
                continue;
            }
            self.scalar_cycles += campaign.run_cycles() - r.skipped_cycles - r.early_stop_cycles;
            self.fast_forwarded += usize::from(r.skipped_cycles > 0);
            self.early_stopped += usize::from(r.early_stop_cycles > 0);
        }
        Ok(results)
    }

    /// The scalar-oracle gate: re-executes the first
    /// [`ORACLE_EXPERIMENTS`] experiments of `plan` on the scalar engine
    /// and counts those whose outcome or modelled-seconds bits differ from
    /// `engine`'s.
    ///
    /// # Errors
    ///
    /// Experiment errors.
    pub fn oracle_mismatches(
        &mut self,
        campaign: &Campaign,
        plan: &CampaignPlan,
        engine: &Verdicts,
    ) -> Result<usize, Error> {
        let head = CampaignPlan {
            target: plan.target.clone(),
            sub_cycle: plan.sub_cycle,
            seed: plan.seed,
            n_total: plan.n_total,
            experiments: plan
                .experiments
                .iter()
                .take(ORACLE_EXPERIMENTS)
                .cloned()
                .collect(),
        };
        let results = self.execute(campaign, &head)?;
        let oracle = verdicts_of(campaign, &head, &results);
        Ok(oracle
            .iter()
            .filter(|(index, v)| engine.get(index) != Some(v))
            .count())
    }
}

/// Outcome and modelled-seconds bit pattern of each experiment, by
/// global plan index: what every engine must agree on.
pub type Verdicts = BTreeMap<u64, (Outcome, u64)>;

/// [`Verdicts`] of engine results returned in plan order.
pub fn verdicts_of(
    campaign: &Campaign,
    plan: &CampaignPlan,
    results: &[fades_core::ExperimentResult],
) -> Verdicts {
    plan.experiments
        .iter()
        .zip(results)
        .map(|(e, r)| {
            (
                e.index,
                (r.outcome, modelled_seconds(campaign, r).to_bits()),
            )
        })
        .collect()
}

/// Modelled emulation seconds of one experiment.
fn modelled_seconds(campaign: &Campaign, r: &fades_core::ExperimentResult) -> f64 {
    campaign
        .time_model()
        .experiment_seconds(&r.traffic, campaign.golden().cycles())
}

/// Folds verdicts in ascending plan order, as a monolithic run does.
pub fn stats_of(v: &Verdicts) -> CampaignStats {
    let mut stats = CampaignStats::default();
    for (outcome, bits) in v.values() {
        stats.accumulate(*outcome, f64::from_bits(*bits));
    }
    stats
}

/// One digest entry: outcome tallies and the exact `emulation_seconds`
/// bits, `failures/latents/silents/bits`.
pub fn digest_of(stats: &CampaignStats) -> String {
    format!(
        "{}/{}/{}/{:016x}",
        stats.outcomes.failures,
        stats.outcomes.latents,
        stats.outcomes.silents,
        stats.emulation_seconds.to_bits()
    )
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
