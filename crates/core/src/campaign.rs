//! Fault-injection campaigns: thousands of experiments, run in parallel.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use fades_fpga::{BatchDevice, CbCoord, Device, LaneProgram};
use fades_netlist::Netlist;
use fades_pnr::Implementation;
use fades_telemetry::{ExperimentRecord, Recorder, RecorderHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::LaneEntry;
use crate::classify::{Outcome, OutcomeStats};
use crate::error::CoreError;
use crate::experiment::{run_experiment, ExperimentResult, FaultSchedule};
use crate::golden::GoldenRun;
use crate::location::{resolve_targets, sample_fault, DurationRange, FaultLoad, TargetClass};
use crate::plan::{CampaignPlan, ChaosPanic, ExperimentVerdict, PlannedExperiment};
use crate::pool::EnginePool;
use crate::strategies::strategy_for;
use crate::timing::TimeModel;

/// Tunables of a campaign run.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Worker threads (experiments are embarrassingly parallel; each
    /// worker runs on its own engine). Also the most idle engines of each
    /// class the campaign keeps between calls.
    pub threads: usize,
    /// Extra cycles executed beyond the workload's nominal completion so
    /// delayed completions still count as observed differences.
    pub margin_cycles: u64,
    /// Whether experiments use the checkpointed fast-forward path
    /// (golden-prefix skip plus early-stop convergence detection). Both
    /// shortcuts change host wall-clock only — outcomes and modelled
    /// emulation time are identical to the full-simulation path.
    pub fastpath: bool,
    /// Whether executors honour the plan's static pre-classification:
    /// experiments the cone-of-influence analysis proved Silent replay
    /// their reconfiguration ledger without simulating a single workload
    /// cycle. Host wall-clock only — outcomes, traffic and modelled
    /// emulation time are bit-identical to executing them (the soundness
    /// suite enforces this). Plans are annotated either way; this flag
    /// only controls whether execution skips.
    pub static_preclassify: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            threads: worker_threads(),
            margin_cycles: 64,
            fastpath: true,
            static_preclassify: true,
        }
    }
}

/// Campaign worker-thread count: `FADES_THREADS` when set to a positive
/// integer, otherwise `min(available_parallelism, 8)`.
///
/// Parsed once per process (and the "ignoring invalid" warning printed
/// at most once) — campaigns call this per run and the answer cannot
/// meaningfully change mid-process.
pub fn worker_threads() -> usize {
    static WORKER_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKER_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("FADES_THREADS") {
            match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => return n,
                _ => eprintln!("warning: ignoring invalid FADES_THREADS=`{v}`"),
            }
        }
        std::thread::available_parallelism().map_or(4, |n| n.get().min(8))
    })
}

/// Aggregated results of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Outcome counts.
    pub outcomes: OutcomeStats,
    /// Modelled total emulation time of the whole campaign in seconds
    /// (the quantity of the paper's Figure 10 / Table 2).
    pub emulation_seconds: f64,
    /// Experiments executed.
    pub n: usize,
}

impl CampaignStats {
    /// Experiments executed.
    pub fn total(&self) -> usize {
        self.n
    }

    /// Mean modelled seconds per injected fault (0 for an empty
    /// campaign — never a division by zero).
    pub fn mean_seconds_per_fault(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.emulation_seconds / self.n as f64
        }
    }

    /// Folds one experiment into the stats.
    ///
    /// This is *the* accumulation step of a campaign: the monolithic
    /// runner and `fades-dispatch`'s shard merge both fold experiments
    /// through here in ascending plan order, which is what makes merged
    /// shard stats bit-identical to a single-process run (floating-point
    /// addition is order-sensitive, so the order is part of the
    /// contract).
    pub fn accumulate(&mut self, outcome: Outcome, modelled_seconds: f64) {
        self.outcomes.record(outcome);
        self.emulation_seconds += modelled_seconds;
        self.n += 1;
    }
}

/// How the executor responds to a failing experiment.
#[derive(Clone, Copy)]
pub(crate) enum ExecMode<'a> {
    /// Propagate the first error; a panicking experiment becomes
    /// [`CoreError::ExperimentPanic`] naming its global index.
    FailFast,
    /// Contain panics and errors per experiment: retry `retries` times on
    /// a pristine device, then quarantine. `observer` sees every verdict
    /// as it is decided, from the deciding worker thread.
    Isolated {
        retries: u32,
        observer: Option<&'a (dyn Fn(&ExperimentVerdict) + Sync)>,
    },
}

/// The results of a fail-fast run, which never quarantines.
fn completed(verdicts: Vec<ExperimentVerdict>) -> Vec<ExperimentResult> {
    verdicts
        .into_iter()
        .map(|v| match v {
            ExperimentVerdict::Completed { result, .. } => result,
            ExperimentVerdict::Quarantined { .. } => {
                unreachable!("fail-fast execution never quarantines")
            }
        })
        .collect()
}

/// Hands a decided verdict to the telemetry recorder and, under
/// isolation, to the observer.
fn report(
    verdict: &ExperimentVerdict,
    target: &str,
    recorder: Option<&RecorderHandle>,
    mode: ExecMode<'_>,
) {
    if let (
        Some(h),
        ExperimentVerdict::Completed {
            index,
            result,
            modelled_seconds,
            attempts,
        },
    ) = (recorder, verdict)
    {
        h.record(record_of(
            *index,
            target,
            result,
            *modelled_seconds,
            *attempts,
        ));
    }
    if let ExecMode::Isolated {
        observer: Some(f), ..
    } = mode
    {
        f(verdict);
    }
}

/// Puts a verdict in its plan slot.
fn decide(slot: &OnceLock<ExperimentVerdict>, verdict: ExperimentVerdict) {
    let fresh = slot.set(verdict).is_ok();
    debug_assert!(fresh, "a plan entry was decided twice");
}

/// Renders a panic payload for error reports (string payloads pass
/// through; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The telemetry record of one finished experiment.
fn record_of(
    index: u64,
    target: &str,
    result: &ExperimentResult,
    modelled_s: f64,
    attempts: u32,
) -> ExperimentRecord {
    ExperimentRecord {
        index,
        target: target.to_string(),
        strategy: result.strategy.to_string(),
        outcome: result.outcome.as_str(),
        modelled_s,
        ops: result.traffic.ops as u64,
        readback_ops: result.traffic.readback_ops as u64,
        write_ops: result.traffic.write_ops as u64,
        bulk_ops: result.traffic.bulk_ops as u64,
        pulse_ops: result.traffic.pulse_ops as u64,
        readback_bytes: result.traffic.readback_bytes,
        write_bytes: result.traffic.write_bytes,
        bulk_bytes: result.traffic.bulk_bytes,
        skipped_cycles: result.skipped_cycles,
        early_stop_cycles: result.early_stop_cycles,
        wall_us: result.wall_us,
        attempts: u64::from(attempts),
    }
}

/// One lane-driver call's plan, split by
/// [`Campaign::partition_lanes`].
struct LanePartition<'p> {
    /// The entries that take a lane.
    lane: Vec<LaneEntry<'p>>,
    /// Plan positions the scalar engine runs, ascending.
    scalar: Vec<usize>,
    /// Plan positions of memory flips of a word golden never selects
    /// again, ascending: decided Latent without a lane.
    unread: Vec<usize>,
    /// `members[pos]`: the plan positions decided with lane entry `pos`.
    members: Vec<Vec<usize>>,
}

/// A prepared fault-injection campaign over one implemented design.
///
/// Holds the configured device, the golden run and the time model; each
/// [`run`](Campaign::run) executes a fault load against it. See the crate
/// documentation for an example.
///
/// A campaign also keeps what its calls can share: the lane program,
/// built by the first call that runs lanes, and a pool of idle engines
/// (DESIGN.md §5, *Engine lifetime*). Calls may run at once from several
/// threads.
#[derive(Debug)]
pub struct Campaign<'n> {
    netlist: &'n Netlist,
    implementation: Implementation,
    ports: Vec<String>,
    run_cycles: u64,
    golden: GoldenRun,
    device: Device,
    time_model: TimeModel,
    config: CampaignConfig,
    /// Structural lint findings over the implementation, computed on
    /// first use (see [`lint`](Campaign::lint)).
    lint: OnceLock<Vec<fades_analysis::Diagnostic>>,
    /// The lane engine's width-independent part, built by the first call
    /// that runs lanes; `None` when the design cannot be lane-encoded.
    lane_program: OnceLock<Option<Arc<LaneProgram>>>,
    /// Idle engines left by earlier calls.
    pool: EnginePool,
}

impl<'n> Campaign<'n> {
    /// Prepares a campaign: configures the device, captures the golden
    /// run over `workload_cycles` plus a safety margin.
    ///
    /// # Errors
    ///
    /// Propagates device-configuration errors and unknown observed ports.
    pub fn new(
        netlist: &'n Netlist,
        implementation: Implementation,
        observed_ports: &[&str],
        workload_cycles: u64,
    ) -> Result<Self, CoreError> {
        Self::with_config(
            netlist,
            implementation,
            observed_ports,
            workload_cycles,
            CampaignConfig::default(),
        )
    }

    /// [`Campaign::new`] with explicit tunables.
    ///
    /// # Errors
    ///
    /// Propagates device-configuration errors and unknown observed ports.
    pub fn with_config(
        netlist: &'n Netlist,
        implementation: Implementation,
        observed_ports: &[&str],
        workload_cycles: u64,
        config: CampaignConfig,
    ) -> Result<Self, CoreError> {
        let mut device = Device::configure(implementation.bitstream.clone())?;
        let ports: Vec<String> = observed_ports
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let run_cycles = workload_cycles + config.margin_cycles;
        let golden = GoldenRun::capture(&mut device, &ports, run_cycles)?;
        let time_model = TimeModel::paper_calibrated(device.arch());
        Ok(Campaign {
            netlist,
            implementation,
            ports,
            run_cycles,
            golden,
            device,
            time_model,
            config,
            lint: OnceLock::new(),
            lane_program: OnceLock::new(),
            pool: EnginePool::new(config.threads),
        })
    }

    /// The golden run this campaign classifies against.
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// The implementation under test.
    pub fn implementation(&self) -> &Implementation {
        &self.implementation
    }

    /// The structural lint findings over the implemented design
    /// ([`fades_analysis::lint`] of its bitstream), computed on the first
    /// call and shared by every later one: the implementation never
    /// changes, so every shard and admission check of this campaign
    /// reads the same findings without linting again.
    pub fn lint(&self) -> &[fades_analysis::Diagnostic] {
        self.lint
            .get_or_init(|| fades_analysis::lint(&self.implementation.bitstream))
    }

    /// The netlist under test.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The time model used for emulation-time reporting.
    pub fn time_model(&self) -> &TimeModel {
        &self.time_model
    }

    /// Experiment run length in cycles (workload plus margin).
    pub fn run_cycles(&self) -> u64 {
        self.run_cycles
    }

    /// The campaign's tunables.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs `n_faults` experiments of the given fault load and aggregates
    /// outcome statistics and modelled emulation time.
    ///
    /// # Errors
    ///
    /// Returns an error if the target class resolves to nothing, or if an
    /// experiment fails to reconfigure.
    pub fn run(
        &self,
        load: &FaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<CampaignStats, CoreError> {
        let label = load.target.to_string();
        self.run_named(&label, load, n_faults, seed)
    }

    /// [`run`](Campaign::run) with an explicit campaign label for the
    /// telemetry sinks (run log, summary table, `BENCH_campaign.json`).
    ///
    /// # Errors
    ///
    /// See [`run`](Campaign::run).
    pub fn run_named(
        &self,
        label: &str,
        load: &FaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<CampaignStats, CoreError> {
        let plan = self.plan(load, n_faults, seed)?;
        let threads = self.config.threads.max(1).min(n_faults.max(1));
        let recorder = Recorder::new(label, n_faults, threads);
        let mut stats = CampaignStats::default();
        for v in self.drive(&plan, Some(&recorder), ExecMode::FailFast, None)? {
            if let ExperimentVerdict::Completed {
                result,
                modelled_seconds,
                ..
            } = v
            {
                stats.accumulate(result.outcome, modelled_seconds);
            }
        }
        recorder.finish();
        Ok(stats)
    }

    /// Samples the campaign's complete fault list deterministically up
    /// front: `n_faults` experiments of `load`, each with its resolved
    /// fault, schedule and derived per-experiment seed.
    ///
    /// The plan is a pure function of `(campaign, load, n_faults, seed)`
    /// — independent of thread count and of which subset later executes —
    /// so [shards](CampaignPlan::shard) built in different processes
    /// partition exactly the fault set a monolithic run would inject.
    ///
    /// # Errors
    ///
    /// Returns an error if the load's duration range is empty or
    /// includes zero cycles ([`CoreError::InvalidDuration`]), if the
    /// target class resolves to nothing, or if the fault model cannot be
    /// sampled from the resolved pool.
    pub fn plan(
        &self,
        load: &FaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<CampaignPlan, CoreError> {
        if let DurationRange::Cycles(lo, hi) = load.duration {
            if lo == 0 || lo > hi {
                return Err(CoreError::InvalidDuration { lo, hi });
            }
        }
        let sites = resolve_targets(
            self.netlist,
            &self.implementation.map,
            &self.implementation.bitstream,
            &load.target,
        )?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut experiments = Vec::with_capacity(n_faults);
        let workload_cycles = self.run_cycles - self.config.margin_cycles;
        for i in 0..n_faults {
            let fault = sample_fault(load, &sites, &self.implementation.bitstream, &mut rng)?;
            let inject_at = rng.gen_range(0..workload_cycles.max(1));
            let duration = load.duration.sample(&mut rng);
            experiments.push(PlannedExperiment {
                index: i as u64,
                fault,
                schedule: FaultSchedule {
                    inject_at,
                    duration,
                },
                seed: seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
                annotation: crate::plan::PlanAnnotation::None,
            });
        }
        // Annotate unconditionally — the plan must stay a pure function
        // of its inputs, independent of whether execution later honours
        // the annotations (`CampaignConfig::static_preclassify`), so
        // shards built in processes with different settings still agree.
        self.annotate_static(&mut experiments);
        Ok(CampaignPlan {
            target: load.target.to_string(),
            sub_cycle: load.duration == DurationRange::SubCycle,
            seed,
            n_total: n_faults,
            experiments,
        })
    }

    /// Marks the experiments whose outcome the cone-of-influence analysis
    /// decides at plan time. The rules are deliberately conservative —
    /// each one rests on a healing argument the soundness suite checks
    /// dynamically:
    ///
    /// * **FF bit-flips** (single, multi, via GSR) on registers whose
    ///   output cone is combinationally dead: the flipped value feeds
    ///   nothing, and the register recaptures its pristine data input at
    ///   the very next clock edge (a dead Q rules out self-loops, so every
    ///   data input in the design stays pristine). No schedule condition
    ///   needed — injection always precedes that cycle's edge.
    /// * **LUT pulses / indeterminations** on provably dead LUTs: only
    ///   configuration memory is touched, the corrupted output reaches no
    ///   capture point, and configuration is not part of the final-state
    ///   snapshot.
    /// * **CB input pulses / FF indeterminations** on dead registers,
    ///   additionally requiring a bounded schedule with at least one clean
    ///   clock edge after removal (`inject_at + d < run_cycles`) and no
    ///   pristine setup-time violation on the register (a violated FF
    ///   captures one cycle stale and would heal one edge later).
    /// * **Memory flips, wire delays, permanent faults**: never — a
    ///   flipped memory bit persists into the final state, and the others
    ///   have no static healing argument.
    fn annotate_static(&self, experiments: &mut [PlannedExperiment]) {
        use crate::location::ResolvedFault as Rf;
        use crate::plan::PlanAnnotation;
        let eligible = |f: &Rf| {
            matches!(
                f,
                Rf::FfBitFlip { .. }
                    | Rf::MultiFfBitFlip { .. }
                    | Rf::LutPulse { .. }
                    | Rf::LutIndet { .. }
                    | Rf::CbInputPulse { .. }
                    | Rf::FfIndet { .. }
            )
        };
        if !experiments.iter().any(|e| eligible(&e.fault)) {
            return;
        }
        let cone =
            fades_analysis::ConeIndex::combinational(&self.implementation.bitstream, &self.ports);
        let run_cycles = self.run_cycles;
        for e in experiments {
            let healed_with_clean_edge = |cb: &CbCoord| {
                cone.ff_dead(*cb)
                    && !self.device.ff_timing_violated(*cb)
                    && matches!(e.schedule.duration,
                        Some(d) if d >= 1 && e.schedule.inject_at + d < run_cycles)
            };
            let silent = match &e.fault {
                Rf::FfBitFlip { cb, .. } => cone.ff_dead(*cb),
                Rf::MultiFfBitFlip { cbs } => {
                    !cbs.is_empty() && cbs.iter().all(|cb| cone.ff_dead(*cb))
                }
                Rf::LutPulse { cb, .. } | Rf::LutIndet { cb, .. } => cone.lut_dead(*cb),
                Rf::CbInputPulse { cb } | Rf::FfIndet { cb, .. } => healed_with_clean_edge(cb),
                Rf::MemBitFlip { .. } | Rf::WireDelay { .. } | Rf::Permanent { .. } => false,
            };
            if silent {
                e.annotation = PlanAnnotation::StaticSilent;
            }
        }
    }

    /// Executes every experiment of `plan` on the scalar engine, failing
    /// fast: the first experiment error aborts the run, and a panicking
    /// experiment surfaces as [`CoreError::ExperimentPanic`] naming the
    /// global index that was in flight (instead of tearing down the
    /// process).
    ///
    /// Results come back in plan order regardless of thread count.
    ///
    /// # Errors
    ///
    /// Propagates the first experiment error, or reports a worker panic.
    pub fn execute(
        &self,
        plan: &CampaignPlan,
        recorder: Option<&Recorder>,
    ) -> Result<Vec<ExperimentResult>, CoreError> {
        Ok(completed(self.drive(
            plan,
            recorder,
            ExecMode::FailFast,
            None,
        )?))
    }

    /// Executes `plan` on the scalar engine with per-experiment fault
    /// containment: each experiment runs under `catch_unwind`, a
    /// panicking or erroring attempt is retried `retries` more times on a
    /// freshly re-cloned pristine device, and an experiment that exhausts
    /// its attempts is [quarantined](ExperimentVerdict::Quarantined) — the
    /// campaign finishes without it instead of aborting.
    ///
    /// `observer` is invoked once per finished experiment, from the
    /// worker thread that ran it (this is how `fades-dispatch` journals
    /// progress crash-tolerantly — the journal line is written before the
    /// next experiment starts). Verdicts come back in plan order.
    ///
    /// Retries are deterministic replays: every attempt re-seeds the
    /// experiment RNG from the plan, so a retry that succeeds produces
    /// the same result the first attempt would have.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures (an unknown observed port resolving
    /// mid-run, never per-experiment faults) can surface here; experiment
    /// panics and errors are quarantined, not propagated.
    pub fn execute_isolated(
        &self,
        plan: &CampaignPlan,
        retries: u32,
        recorder: Option<&Recorder>,
        observer: Option<&(dyn Fn(&ExperimentVerdict) + Sync)>,
    ) -> Result<Vec<ExperimentVerdict>, CoreError> {
        self.drive(
            plan,
            recorder,
            ExecMode::Isolated { retries, observer },
            None,
        )
    }

    /// [`execute`](Self::execute) on the bit-parallel lane engine:
    /// lane-expressible entries run up to `64 * W - 1` per lane word of
    /// `W` `u64`s (`W` ∈ {1, 2, 4, 8}, sized to the number of lane
    /// entries), with lane 0 replaying the golden run, on
    /// [`CampaignConfig::threads`] workers. Outcomes, configuration
    /// traffic and modelled emulation seconds are bit-identical to
    /// [`execute`](Self::execute) — the engine changes host wall-clock
    /// only.
    ///
    /// Faults the lane engine cannot express (routing delays, oscillating
    /// indeterminations), statically-Silent entries and entries whose
    /// schedule is invalid run on the scalar engine, before any lane
    /// pass; so does the whole plan, in plan order, when the design
    /// cannot be lane-encoded. Results come back in plan order. Accepts
    /// any plan — including a [shard](CampaignPlan::shard).
    ///
    /// Memory bit-flips collapse by golden access within the call: one
    /// flip per class takes a lane and the rest take its verdict, and a
    /// flip of a word the golden run never selects again is decided
    /// Latent without a lane (DESIGN.md §5, *Memory-flip collapse*).
    /// Collapsed entries report `wall_us` 0.
    ///
    /// # Errors
    ///
    /// Propagates the first experiment error; a panicking lane pass
    /// surfaces as [`CoreError::ExperimentPanic`] naming the lowest
    /// global index aboard its word that was not yet decided.
    pub fn execute_batched(
        &self,
        plan: &CampaignPlan,
        recorder: Option<&Recorder>,
    ) -> Result<Vec<ExperimentResult>, CoreError> {
        Ok(completed(self.drive(
            plan,
            recorder,
            ExecMode::FailFast,
            Some(crate::batch::lane_word_width),
        )?))
    }

    /// [`execute_isolated`](Self::execute_isolated) on the lane engine,
    /// partitioned and threaded as [`execute_batched`](Self::execute_batched)
    /// is: same retry/quarantine semantics, same verdict shapes, outcomes
    /// and modelled seconds bit-identical to the scalar isolated path.
    ///
    /// `observer` is invoked at lane *retirement* — the moment a lane's
    /// outcome is decided, not when the whole cohort finishes — so a
    /// journaling observer forfeits at most the in-flight words on a kill.
    ///
    /// A panicking or erroring cohort is contained, not propagated: the
    /// experiments that were aboard the word and not yet decided are
    /// replayed on the scalar isolated path, where the per-experiment
    /// retry (`retries` attempts on a pristine device) and quarantine
    /// isolate the actual offender; so are the class members of the
    /// memory flips among them. One poisoned fault therefore costs
    /// one scalar cohort replay, never the shard. Experiments never
    /// loaded into the poisoned word stay on the lane engine (rebuilt
    /// from the pristine device). Verdicts come back in plan order.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures (an unknown observed port) surface
    /// here; per-experiment faults, invalid schedules included, are
    /// quarantined.
    pub fn execute_batched_isolated(
        &self,
        plan: &CampaignPlan,
        retries: u32,
        recorder: Option<&Recorder>,
        observer: Option<&(dyn Fn(&ExperimentVerdict) + Sync)>,
    ) -> Result<Vec<ExperimentVerdict>, CoreError> {
        self.drive(
            plan,
            recorder,
            ExecMode::Isolated { retries, observer },
            Some(crate::batch::lane_word_width),
        )
    }

    /// The one driver behind every entry point. A call holds one verdict
    /// slot per plan position, and each engine decides positions straight
    /// into their slots.
    ///
    /// With `lanes` (the lane word width, in `u64`s, for a number of lane
    /// entries) the plan is [split](Self::partition_lanes) and
    /// [`execute_lanes`](Self::execute_lanes) runs its scalar side, then
    /// its lane passes. Last, every position still undecided runs on the
    /// [scalar engine](Self::execute_scalar): without `lanes`, or when no
    /// lane engine can be built, that is the whole plan; otherwise it is
    /// whatever a poisoned lane pass left undecided.
    pub(crate) fn drive(
        &self,
        plan: &CampaignPlan,
        recorder: Option<&Recorder>,
        mode: ExecMode<'_>,
        lanes: Option<fn(usize) -> usize>,
    ) -> Result<Vec<ExperimentVerdict>, CoreError> {
        let chaos = ChaosPanic::from_env();
        let slots: Vec<OnceLock<ExperimentVerdict>> =
            plan.experiments.iter().map(|_| OnceLock::new()).collect();
        if let Some(width) = lanes {
            let part = self.partition_lanes(plan, chaos);
            match width(part.lane.len()) {
                8 => self.execute_lanes::<8>(plan, part, &slots, recorder, mode, chaos),
                4 => self.execute_lanes::<4>(plan, part, &slots, recorder, mode, chaos),
                2 => self.execute_lanes::<2>(plan, part, &slots, recorder, mode, chaos),
                _ => self.execute_lanes::<1>(plan, part, &slots, recorder, mode, chaos),
            }?;
        }
        let undecided: Vec<usize> = (0..plan.len())
            .filter(|&pos| slots[pos].get().is_none())
            .collect();
        self.execute_scalar(plan, &undecided, &slots, recorder, mode, chaos)?;
        Ok(slots
            .into_iter()
            .map(|v| {
                v.into_inner()
                    .unwrap_or_else(|| unreachable!("every plan entry was decided"))
            })
            .collect())
    }

    /// The completed verdict of the experiment `index`, with its modelled
    /// emulation seconds.
    fn completed_verdict(
        &self,
        index: u64,
        result: ExperimentResult,
        attempts: u32,
    ) -> ExperimentVerdict {
        ExperimentVerdict::Completed {
            index,
            modelled_seconds: self
                .time_model
                .experiment_seconds(&result.traffic, self.golden.cycles()),
            attempts,
            result,
        }
    }

    /// Whether `e` runs on the lane engine: lane-expressible, with a
    /// valid schedule, and not a statically-Silent entry the skip replays
    /// ([`execute_scalar`](Self::execute_scalar) stays the single place
    /// that replays them, and quarantines or rejects an invalid schedule
    /// as it would without the lane engine).
    fn runs_on_lane(&self, e: &PlannedExperiment) -> bool {
        crate::batch::lane_expressible(&e.fault)
            && !(self.config.static_preclassify
                && e.annotation == crate::plan::PlanAnnotation::StaticSilent)
            && e.schedule.check(self.golden.cycles()).is_ok()
    }

    /// Splits `plan` for the lane driver: the scalar side is every entry
    /// [`runs_on_lane`](Self::runs_on_lane) refuses, and the memory
    /// bit-flips among the rest collapse by golden access (DESIGN.md §5,
    /// *Memory-flip collapse*).
    ///
    /// A flip stays unseen until golden next selects its word, so flips
    /// of one bit whose first access at or after injection is the same
    /// cycle are one faulty machine from that cycle on. They form a
    /// class: its lowest-index member takes a lane, and the others are
    /// decided with it. The class key also holds the first cycle at which
    /// the machine could retire (the fault inert and a cycle past the
    /// access), so members share the early stop too. A flip of a word
    /// golden never selects again is Latent and takes no lane. The entry
    /// the `chaos` hook targets is neither collapsed nor decided.
    fn partition_lanes<'p>(
        &self,
        plan: &'p CampaignPlan,
        chaos: Option<ChaosPanic>,
    ) -> LanePartition<'p> {
        use crate::location::ResolvedFault;
        let mut part = LanePartition {
            lane: Vec::new(),
            scalar: Vec::new(),
            unread: Vec::new(),
            members: vec![Vec::new(); plan.len()],
        };
        let mut classes: HashMap<(usize, usize, u32, u64, u64), usize> = HashMap::new();
        for (pos, planned) in plan.experiments.iter().enumerate() {
            if !self.runs_on_lane(planned) {
                part.scalar.push(pos);
                continue;
            }
            let flip = match planned.fault {
                ResolvedFault::MemBitFlip { bram, addr, bit }
                    if chaos.is_none_or(|c| c.index != planned.index) =>
                {
                    Some((bram.index(), addr, bit))
                }
                _ => None,
            };
            let Some((bram, addr, bit)) = flip else {
                part.lane.push(LaneEntry { pos, planned });
                continue;
            };
            let schedule = planned.schedule;
            let Some(at) = self.golden.first_access(bram, addr, schedule.inject_at) else {
                part.unread.push(pos);
                continue;
            };
            let retires = schedule.gone_at().max(at + 1);
            let rep = classes.entry((bram, addr, bit, at, retires)).or_insert(pos);
            if *rep != pos {
                let (mut rep_pos, mut member) = (*rep, pos);
                if planned.index < plan.experiments[rep_pos].index {
                    *rep = pos;
                    part.members.swap(rep_pos, pos);
                    (rep_pos, member) = (pos, rep_pos);
                }
                part.members[rep_pos].push(member);
            }
        }
        part.lane.extend(classes.into_values().map(|pos| LaneEntry {
            pos,
            planned: &plan.experiments[pos],
        }));
        part
    }

    /// The lane side of [`drive`](Self::drive), for both execution modes,
    /// on a word of `W` `u64`s, over `plan` as
    /// [`partition_lanes`](Self::partition_lanes) split it. Runs the
    /// scalar side through [`execute_scalar`](Self::execute_scalar),
    /// decides the flips of words golden never selects again, and splits
    /// the lane entries, sorted by injection instant, into contiguous
    /// chunks, one per worker, each on its own engine checked out of the
    /// campaign's pool (one worker runs inline). A worker hands its
    /// engine back when its last pass returned; a poisoned pass drops
    /// it, and the worker goes on with a fresh engine built on the
    /// campaign's lane program. Every verdict goes straight into its
    /// slot; a lane entry's class members take its verdict when it is
    /// decided. Whatever a poisoned pass left undecided, members of its
    /// lane entries included, stays undecided for the driver's scalar
    /// replay. So does the whole plan when the design cannot be
    /// lane-encoded.
    ///
    /// Per-experiment results are independent of cohort composition
    /// (lanes interact only with the golden lane, and timing draws are
    /// lane-invariant), so they are bit-identical whatever the thread
    /// count or word width.
    fn execute_lanes<const W: usize>(
        &self,
        plan: &CampaignPlan,
        part: LanePartition<'_>,
        verdicts: &[OnceLock<ExperimentVerdict>],
        recorder: Option<&Recorder>,
        mode: ExecMode<'_>,
        chaos: Option<ChaosPanic>,
    ) -> Result<(), CoreError> {
        let LanePartition {
            mut lane,
            scalar,
            unread,
            members,
        } = part;
        // A plan with nothing for the lane engine needs none.
        if lane.is_empty() && unread.is_empty() {
            return Ok(());
        }
        // A design that is not lane-encodable (pristine memory contents
        // carry bits beyond their declared width, or a word is wider than
        // 64 bits) has no lane program.
        let program = self
            .lane_program
            .get_or_init(|| LaneProgram::new(&self.device).map(Arc::new));
        let Some(program) = program else {
            fades_telemetry::analysis::LANE_FALLBACKS.inc();
            return Ok(());
        };
        let build = || BatchDevice::<W>::from_program(Arc::clone(program));
        // No point spinning up a word for fewer entries than a word holds.
        let threads = self
            .config
            .threads
            .min(lane.len().div_ceil(BatchDevice::<W>::LANES - 1))
            .max(1);
        let chunk = lane.len().div_ceil(threads).max(1);
        let workers = lane.len().div_ceil(chunk).max(1);
        let mut engines: Vec<BatchDevice<W>> =
            (0..workers).map(|_| self.pool.checkout(build)).collect();
        self.execute_scalar(plan, &scalar, verdicts, recorder, mode, chaos)?;
        let complete = |pos: usize, result: ExperimentResult, handle: Option<&RecorderHandle>| {
            let verdict = self.completed_verdict(plan.experiments[pos].index, result, 1);
            report(&verdict, &plan.target, handle, mode);
            decide(&verdicts[pos], verdict);
        };

        // Flips of a word golden never selects again. One that fails to
        // replay its choreography is left to the scalar path.
        let handle = recorder.map(Recorder::handle);
        for pos in unread {
            let planned = &plan.experiments[pos];
            let decided = crate::batch::decide_unread(
                &mut engines[0],
                planned,
                self.golden.cycles(),
                plan.sub_cycle,
            );
            if let Ok(result) = decided {
                complete(pos, result, handle.as_ref());
                fades_telemetry::sim::record_flip_decided();
            }
        }

        let port_wires = crate::batch::port_wires(program, &self.ports)?;
        // Ascending injection instants maximise refills: a freed lane can
        // only take an entry whose injection instant has not yet passed.
        lane.sort_by_key(|e| (e.planned.schedule.inject_at, e.planned.index));
        // One worker's pass after pass over `pending`, until it is
        // empty or a pass dies in fail-fast mode.
        let work = |mut engine: BatchDevice<W>,
                    mut pending: Vec<LaneEntry<'_>>,
                    handle: Option<RecorderHandle>|
         -> Result<(), CoreError> {
            loop {
                if pending.is_empty() {
                    // Every pass returned: the engine goes back to the
                    // pool, each lane's configuration pristine.
                    engine.restore_pristine_config();
                    self.pool.checkin(engine);
                    return Ok(());
                }
                let mut loaded = Vec::new();
                let pass = catch_unwind(AssertUnwindSafe(|| {
                    crate::batch::run_one_cohort(
                        &mut engine,
                        &self.golden,
                        &port_wires,
                        plan.sub_cycle,
                        &pending,
                        chaos,
                        &mut loaded,
                        &mut |entry, result| {
                            // A member has its representative's fault, whose
                            // strategy charges the ledger by frame
                            // coordinates and draws no random numbers: the
                            // traffic is the same.
                            let class = &members[entry.pos];
                            for &pos in class {
                                let member = &plan.experiments[pos];
                                let result = ExperimentResult {
                                    fault: member.fault.clone(),
                                    schedule: member.schedule,
                                    wall_us: 0,
                                    ..result.clone()
                                };
                                complete(pos, result, handle.as_ref());
                            }
                            complete(entry.pos, result, handle.as_ref());
                            fades_telemetry::sim::record_flips_collapsed(class.len() as u64);
                        },
                    )
                }));
                let failure = match pass {
                    Ok(Ok(leftovers)) => {
                        pending = leftovers;
                        continue;
                    }
                    Ok(Err(e)) => Err(e),
                    Err(payload) => Ok(panic_message(payload.as_ref())),
                };
                // The pass died. Lanes decided before the failure stay
                // decided (and observed); the rest of the word is not,
                // and runs on the scalar path below.
                if let ExecMode::FailFast = mode {
                    let undecided = loaded.iter().filter(|e| verdicts[e.pos].get().is_none());
                    return Err(match failure {
                        Err(e) => e,
                        Ok(message) => CoreError::ExperimentPanic {
                            index: undecided.map(|e| e.planned.index).min().unwrap_or(u64::MAX),
                            message,
                        },
                    });
                }
                // `loaded` is a subsequence of `pending` (the pass takes
                // entries in order), so one walk drops it.
                let mut aboard = loaded.iter().peekable();
                pending.retain(|e| {
                    let taken = aboard.peek().is_some_and(|l| l.pos == e.pos);
                    if taken {
                        aboard.next();
                    }
                    !taken
                });
                // The word may hold a half-installed fault: the engine is
                // dropped, and the rest runs on a fresh one. A pass that
                // died before taking any work can make no progress: the
                // rest goes to the scalar path too.
                if loaded.is_empty() || pending.is_empty() {
                    return Ok(());
                }
                engine = crate::pool::fresh(build);
            }
        };
        if workers == 1 {
            let engine = engines.pop().unwrap_or_else(build);
            work(engine, lane, recorder.map(Recorder::handle))?;
        } else {
            let work = &work;
            crossbeam::thread::scope(|scope| {
                let spawned: Vec<_> = lane
                    .chunks(chunk)
                    .zip(engines)
                    .map(|(part, engine)| {
                        let handle = recorder.map(Recorder::handle);
                        scope.spawn(move |_| work(engine, part.to_vec(), handle))
                    })
                    .collect();
                spawned
                    .into_iter()
                    .try_for_each(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            })
            .unwrap_or_else(|p| std::panic::resume_unwind(p))?;
        }
        Ok(())
    }

    /// The scalar engine: runs the `plan` entries at positions `at`
    /// (ascending) in contiguous chunks, one per worker on its own
    /// pristine device checked out of the campaign's pool, and puts each
    /// verdict in its slot. A worker whose experiments all returned
    /// hands its device back, reset.
    ///
    /// Fail-fast, an experiment error ends the run, and a panic unwinds
    /// its worker and surfaces as [`CoreError::ExperimentPanic`] naming
    /// the global index that worker had in flight. Isolated, every attempt
    /// runs under `catch_unwind`, and a failed one retries on a fresh
    /// clone of the pristine device until the attempts run out and the
    /// entry is quarantined.
    fn execute_scalar(
        &self,
        plan: &CampaignPlan,
        at: &[usize],
        verdicts: &[OnceLock<ExperimentVerdict>],
        recorder: Option<&Recorder>,
        mode: ExecMode<'_>,
        chaos: Option<ChaosPanic>,
    ) -> Result<(), CoreError> {
        if at.is_empty() {
            // Guard explicitly: there is no work, and a zero chunk size
            // would panic `chunks(0)` below.
            return Ok(());
        }
        let threads = self.config.threads.max(1).min(at.len());
        let chunks = at.chunks(at.len().div_ceil(threads));
        // Every worker publishes the global index it is about to run, so
        // a panic escaping the fail-fast path can be attributed.
        let in_flight: Vec<AtomicU64> = chunks.clone().map(|_| AtomicU64::new(u64::MAX)).collect();
        let retries = match mode {
            ExecMode::Isolated { retries, .. } => retries,
            ExecMode::FailFast => 0,
        };

        crossbeam::thread::scope(|scope| -> Result<(), CoreError> {
            let mut handles = Vec::new();
            for (positions, flight) in chunks.zip(&in_flight) {
                let mut dev = self.pool.checkout(|| self.device.clone());
                let rec: Option<RecorderHandle> = recorder.map(Recorder::handle);
                handles.push(scope.spawn(move |_| -> Result<(), CoreError> {
                    for &pos in positions {
                        let planned = &plan.experiments[pos];
                        flight.store(planned.index, Ordering::Release);
                        fades_telemetry::trace::set_current_experiment(planned.index);
                        let _span = fades_telemetry::span!("experiment");
                        let mut attempt = 0u32;
                        let verdict = loop {
                            let run_one =
                                |dev: &mut Device| -> Result<ExperimentResult, CoreError> {
                                    if let Some(c) = chaos {
                                        c.maybe_panic(planned.index, attempt);
                                    }
                                    let mut rng = StdRng::seed_from_u64(planned.seed);
                                    let strategy = strategy_for(&planned.fault, plan.sub_cycle);
                                    if self.config.static_preclassify
                                        && planned.annotation
                                            == crate::plan::PlanAnnotation::StaticSilent
                                    {
                                        // Plan-time proof says Silent:
                                        // replay the reconfiguration
                                        // ledger, skip the simulation.
                                        let result = crate::experiment::replay_static_silent(
                                            dev,
                                            &self.golden,
                                            planned.fault.clone(),
                                            strategy,
                                            planned.schedule,
                                            &mut rng,
                                        )?;
                                        fades_telemetry::analysis::STATIC_SILENT.inc();
                                        return Ok(result);
                                    }
                                    run_experiment(
                                        dev,
                                        &self.golden,
                                        planned.fault.clone(),
                                        strategy,
                                        planned.schedule,
                                        &self.ports,
                                        &mut rng,
                                        self.config.fastpath,
                                    )
                                };
                            let attempted = match mode {
                                // Let a panic unwind the worker; the join
                                // below converts it into `ExperimentPanic`
                                // via `flight`.
                                ExecMode::FailFast => Ok(run_one(&mut dev)?),
                                ExecMode::Isolated { .. } => {
                                    catch_unwind(AssertUnwindSafe(|| run_one(&mut dev)))
                                        .map_err(|payload| panic_message(payload.as_ref()))
                                        .and_then(|r| r.map_err(|e| e.to_string()))
                                }
                            };
                            let error = match attempted {
                                Ok(result) => {
                                    break self.completed_verdict(
                                        planned.index,
                                        result,
                                        attempt + 1,
                                    )
                                }
                                Err(error) => error,
                            };
                            // The attempt died mid-experiment: the device
                            // may hold a half-installed fault, so rebuild
                            // it from the pristine configuration.
                            dev = crate::pool::fresh(|| self.device.clone());
                            if attempt >= retries {
                                fades_telemetry::dispatch::QUARANTINES.inc();
                                break ExperimentVerdict::Quarantined {
                                    index: planned.index,
                                    error,
                                    attempts: attempt + 1,
                                };
                            }
                            fades_telemetry::dispatch::RETRIES.inc();
                            attempt += 1;
                        };
                        report(&verdict, &plan.target, rec.as_ref(), mode);
                        decide(&verdicts[pos], verdict);
                    }
                    fades_telemetry::trace::clear_current_experiment();
                    dev.reset();
                    dev.clear_ledger();
                    self.pool.checkin(dev);
                    Ok(())
                }));
            }
            for (h, flight) in handles.into_iter().zip(&in_flight) {
                match h.join() {
                    Ok(worker) => worker?,
                    Err(payload) => {
                        return Err(CoreError::ExperimentPanic {
                            index: flight.load(Ordering::Acquire),
                            message: panic_message(payload.as_ref()),
                        })
                    }
                }
            }
            Ok(())
        })
        .unwrap_or_else(|p| std::panic::resume_unwind(p))
    }

    /// The paper's screening pass (§6.3): finds the flip-flop sites whose
    /// bit-flips can cause a Failure, by injecting `per_ff` flips into
    /// every used FF at random instants. The returned sites are the
    /// "registers eligible for being targeted by transient faults".
    ///
    /// # Errors
    ///
    /// See [`run`](Campaign::run).
    pub fn screen_sensitive_ffs(
        &self,
        per_ff: usize,
        seed: u64,
    ) -> Result<Vec<CbCoord>, CoreError> {
        let all = self.implementation.bitstream.used_ffs();
        let mut sensitive = Vec::new();
        for (i, &cb) in all.iter().enumerate() {
            let load =
                FaultLoad::bit_flips(TargetClass::FfSites(vec![cb]), DurationRange::SubCycle);
            let plan = self.plan(&load, per_ff, seed ^ ((i as u64 + 1) << 20))?;
            let results = self.execute(&plan, None)?;
            if results.iter().any(|r| r.outcome == crate::Outcome::Failure) {
                sensitive.push(cb);
            }
        }
        Ok(sensitive)
    }
}
