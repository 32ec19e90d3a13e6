//! Fault-injection campaigns: thousands of experiments, run in parallel.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use fades_fpga::{CbCoord, Device};
use fades_netlist::Netlist;
use fades_pnr::Implementation;
use fades_telemetry::{ExperimentRecord, Recorder, RecorderHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::classify::{Outcome, OutcomeStats};
use crate::error::CoreError;
use crate::experiment::{run_experiment, ExperimentResult, FaultSchedule};
use crate::golden::GoldenRun;
use crate::location::{resolve_targets, sample_fault, DurationRange, FaultLoad, TargetClass};
use crate::plan::{CampaignPlan, ChaosPanic, ExperimentVerdict, PlannedExperiment};
use crate::strategies::strategy_for;
use crate::timing::TimeModel;

/// Tunables of a campaign run.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Worker threads (experiments are embarrassingly parallel; each
    /// worker clones the configured device).
    pub threads: usize,
    /// Extra cycles executed beyond the workload's nominal completion so
    /// delayed completions still count as observed differences.
    pub margin_cycles: u64,
    /// Whether experiments use the checkpointed fast-forward path
    /// (golden-prefix skip plus early-stop convergence detection). Both
    /// shortcuts change host wall-clock only — outcomes and modelled
    /// emulation time are identical to the full-simulation path.
    pub fastpath: bool,
    /// Whether the batched entry points use the bit-parallel lane engine
    /// (63 experiments plus the golden run per `u64` word). Like
    /// [`fastpath`](CampaignConfig::fastpath), a host-side shortcut only:
    /// outcomes, traffic and modelled emulation time are bit-identical to
    /// the scalar path. With this off, [`Campaign::run_batched`] falls
    /// back to the scalar executor wholesale.
    pub batch: bool,
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
            fastpath: fastpath_default(),
            batch: batch_default(),
            static_preclassify: static_default(),
        }
    }
}

/// Default for [`CampaignConfig::fastpath`]: enabled unless the
/// `FADES_NO_FASTPATH` escape hatch is set to a non-empty value other
/// than `0` (kept available for equivalence testing and debugging).
///
/// Read per call — not cached — so one process can construct configs on
/// both paths (the equivalence test relies on this).
pub fn fastpath_default() -> bool {
    !matches!(std::env::var("FADES_NO_FASTPATH"), Ok(v) if !v.is_empty() && v != "0")
}

/// Default for [`CampaignConfig::batch`]: enabled unless the
/// `FADES_NO_BATCH` escape hatch is set to a non-empty value other than
/// `0` (kept available for equivalence testing and debugging).
///
/// Read per call — not cached — so one process can construct configs on
/// both paths (the differential test relies on this).
pub fn batch_default() -> bool {
    !matches!(std::env::var("FADES_NO_BATCH"), Ok(v) if !v.is_empty() && v != "0")
}

/// Default for [`CampaignConfig::static_preclassify`]: enabled unless the
/// `FADES_NO_STATIC` escape hatch is set to a non-empty value other than
/// `0` (kept available for the soundness differential suite, which proves
/// skipped and executed campaigns bit-identical).
///
/// Read per call — not cached — so one process can construct configs on
/// both paths (the differential test relies on this).
pub fn static_default() -> bool {
    !matches!(std::env::var("FADES_NO_STATIC"), Ok(v) if !v.is_empty() && v != "0")
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
enum ExecMode<'a> {
    /// Propagate the first error; let panics unwind the worker (they are
    /// converted to [`CoreError::ExperimentPanic`] at join time).
    FailFast,
    /// Contain panics and errors per experiment: retry `retries` times on
    /// a pristine device, then quarantine. `observer` sees every verdict
    /// as it is decided, from the deciding worker thread.
    Isolated {
        retries: u32,
        observer: Option<&'a (dyn Fn(&ExperimentVerdict) + Sync)>,
    },
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

/// A prepared fault-injection campaign over one implemented design.
///
/// Holds the configured device, the golden run and the time model; each
/// [`run`](Campaign::run) executes a fault load against it. See the crate
/// documentation for an example.
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
        let verdicts = self.execute_mode(&plan, Some(&recorder), ExecMode::FailFast)?;
        let mut stats = CampaignStats::default();
        for v in &verdicts {
            if let ExperimentVerdict::Completed {
                result,
                modelled_seconds,
                ..
            } = v
            {
                stats.accumulate(result.outcome, *modelled_seconds);
            }
        }
        recorder.finish();
        Ok(stats)
    }

    /// [`run`](Campaign::run) through the bit-parallel lane engine: plan
    /// entries are grouped into cohorts of up to 63 and emulated
    /// simultaneously, one per `u64` lane, with lane 0 replaying the
    /// golden run. Outcomes, configuration traffic and modelled emulation
    /// seconds are bit-identical to [`run`](Campaign::run) — the engine
    /// changes host wall-clock only.
    ///
    /// Faults the lane engine cannot express (routing delays, oscillating
    /// indeterminations) automatically run on the scalar per-experiment
    /// path, as does the whole plan when [`CampaignConfig::batch`] is off
    /// or the design cannot be lane-encoded.
    ///
    /// # Errors
    ///
    /// See [`run`](Campaign::run).
    pub fn run_batched(
        &self,
        load: &FaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<CampaignStats, CoreError> {
        let label = load.target.to_string();
        self.run_batched_named(&label, load, n_faults, seed)
    }

    /// [`run_batched`](Campaign::run_batched) with an explicit campaign
    /// label for the telemetry sinks.
    ///
    /// # Errors
    ///
    /// See [`run`](Campaign::run).
    pub fn run_batched_named(
        &self,
        label: &str,
        load: &FaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<CampaignStats, CoreError> {
        let plan = self.plan(load, n_faults, seed)?;
        let threads = self.config.threads.max(1).min(n_faults.max(1));
        let recorder = Recorder::new(label, n_faults, threads);
        let results = self.execute_batched(&plan, Some(&recorder))?;
        let mut stats = CampaignStats::default();
        for result in &results {
            stats.accumulate(
                result.outcome,
                self.time_model
                    .experiment_seconds(&result.traffic, self.golden.cycles()),
            );
        }
        recorder.finish();
        Ok(stats)
    }

    /// Like [`run_batched`](Campaign::run_batched), returning every
    /// per-experiment result (in plan order) without feeding the
    /// telemetry sinks.
    ///
    /// # Errors
    ///
    /// See [`run`](Campaign::run).
    pub fn run_batched_detailed(
        &self,
        load: &FaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<Vec<ExperimentResult>, CoreError> {
        let plan = self.plan(load, n_faults, seed)?;
        self.execute_batched(&plan, None)
    }

    /// Executes every experiment of `plan` with lane-cohort batching,
    /// failing fast on the first experiment error. Results come back in
    /// plan order. Accepts any plan — including a
    /// [shard](CampaignPlan::shard), which is how batched execution
    /// composes with `fades-dispatch`'s sharded runs.
    ///
    /// # Errors
    ///
    /// Propagates the first experiment error.
    pub fn execute_batched(
        &self,
        plan: &CampaignPlan,
        recorder: Option<&Recorder>,
    ) -> Result<Vec<ExperimentResult>, CoreError> {
        if !self.config.batch {
            return self.execute(plan, recorder);
        }
        let Some(mut engine) = fades_fpga::BatchDevice::new(&self.device) else {
            // The design is not lane-encodable (pristine memory contents
            // carry bits beyond their declared width, or a word is wider
            // than 64 bits): run everything scalar.
            return self.execute(plan, recorder);
        };
        if plan.is_empty() {
            return Ok(Vec::new());
        }

        // Statically-Silent experiments go to the scalar side when the
        // skip is enabled, so `execute_mode` stays the single place that
        // replays them (a lane would simulate them for nothing).
        let on_lane = |e: &PlannedExperiment| {
            crate::batch::lane_expressible(&e.fault)
                && !(self.config.static_preclassify
                    && e.annotation == crate::plan::PlanAnnotation::StaticSilent)
        };
        let lane_entries: Vec<&PlannedExperiment> =
            plan.experiments.iter().filter(|e| on_lane(e)).collect();
        let scalar_plan = CampaignPlan {
            target: plan.target.clone(),
            sub_cycle: plan.sub_cycle,
            seed: plan.seed,
            n_total: plan.n_total,
            experiments: plan
                .experiments
                .iter()
                .filter(|e| !on_lane(e))
                .cloned()
                .collect(),
        };
        let scalar_results = if scalar_plan.is_empty() {
            Vec::new()
        } else {
            self.execute(&scalar_plan, recorder)?
        };

        let lane_results = crate::batch::run_lane_cohorts(
            &mut engine,
            &self.golden,
            &self.ports,
            plan.sub_cycle,
            &lane_entries,
            self.config.threads,
        )?;
        if let Some(recorder) = recorder {
            let handle = recorder.handle();
            for (index, result) in &lane_results {
                let modelled_s = self
                    .time_model
                    .experiment_seconds(&result.traffic, self.golden.cycles());
                handle.record(record_of(*index, &plan.target, result, modelled_s, 1));
            }
        }

        // Stitch the two result streams back into plan order (float
        // accumulation order is part of the bit-identical contract).
        let mut by_index: std::collections::HashMap<u64, ExperimentResult> =
            lane_results.into_iter().collect();
        for (e, r) in scalar_plan.experiments.iter().zip(scalar_results) {
            by_index.insert(e.index, r);
        }
        Ok(plan
            .experiments
            .iter()
            .map(|e| {
                by_index
                    .remove(&e.index)
                    .unwrap_or_else(|| unreachable!("every plan entry was executed"))
            })
            .collect())
    }

    /// Like [`run`](Campaign::run), returning every per-experiment result.
    /// Does not feed the telemetry sinks (screening passes call this in a
    /// tight loop and would drown the run log).
    ///
    /// # Errors
    ///
    /// See [`run`](Campaign::run).
    pub fn run_detailed(
        &self,
        load: &FaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<Vec<ExperimentResult>, CoreError> {
        let plan = self.plan(load, n_faults, seed)?;
        self.execute(&plan, None)
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
    /// Returns an error if the target class resolves to nothing or the
    /// fault model cannot be sampled from the resolved pool.
    pub fn plan(
        &self,
        load: &FaultLoad,
        n_faults: usize,
        seed: u64,
    ) -> Result<CampaignPlan, CoreError> {
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

    /// Executes every experiment of `plan`, failing fast: the first
    /// experiment error aborts the run, and a panicking experiment
    /// surfaces as [`CoreError::ExperimentPanic`] naming the global index
    /// that was in flight (instead of tearing down the process).
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
        let verdicts = self.execute_mode(plan, recorder, ExecMode::FailFast)?;
        Ok(verdicts
            .into_iter()
            .map(|v| match v {
                ExperimentVerdict::Completed { result, .. } => result,
                ExperimentVerdict::Quarantined { .. } => {
                    unreachable!("fail-fast execution never quarantines")
                }
            })
            .collect())
    }

    /// Executes `plan` with per-experiment fault containment: each
    /// experiment runs under `catch_unwind`, a panicking or erroring
    /// attempt is retried `retries` more times on a freshly re-cloned
    /// pristine device, and an experiment that exhausts its attempts is
    /// [quarantined](ExperimentVerdict::Quarantined) — the campaign
    /// finishes without it instead of aborting.
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
        self.execute_mode(plan, recorder, ExecMode::Isolated { retries, observer })
    }

    /// The lane engine under the isolation contract: lane-expressible
    /// experiments run 63 per `u64` word, everything else (and every
    /// fallback) goes through [`execute_isolated`](Self::execute_isolated)
    /// — same retry/quarantine semantics, same verdict shapes, outcomes
    /// and modelled seconds bit-identical to the scalar isolated path.
    ///
    /// `observer` is invoked at lane *retirement* — the moment a lane's
    /// outcome is decided, not when the whole cohort finishes — so a
    /// journaling observer forfeits at most the in-flight word on a kill.
    ///
    /// A panicking or erroring cohort is contained, not propagated: the
    /// experiments that were aboard the word and not yet retired are
    /// replayed on the scalar isolated path, where the existing
    /// per-experiment retry (`retries` attempts on a pristine device) and
    /// quarantine machinery isolates the actual offender. One poisoned
    /// fault therefore costs one scalar cohort replay, never the shard.
    /// Experiments never loaded into the poisoned word stay on the
    /// batched path (the engine is rebuilt from the pristine device).
    ///
    /// Falls back to [`execute_isolated`](Self::execute_isolated)
    /// wholesale when [`CampaignConfig::batch`] is off or the design is
    /// not lane-encodable. Verdicts come back in plan order.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures (unknown observed port, invalid plan
    /// schedule) surface here; per-experiment faults are quarantined.
    pub fn execute_batched_isolated(
        &self,
        plan: &CampaignPlan,
        retries: u32,
        recorder: Option<&Recorder>,
        observer: Option<&(dyn Fn(&ExperimentVerdict) + Sync)>,
    ) -> Result<Vec<ExperimentVerdict>, CoreError> {
        if !self.config.batch {
            return self.execute_isolated(plan, retries, recorder, observer);
        }
        let Some(mut engine) = fades_fpga::BatchDevice::new(&self.device) else {
            return self.execute_isolated(plan, retries, recorder, observer);
        };
        if plan.is_empty() {
            return Ok(Vec::new());
        }

        // As in `execute_batched`: statically-Silent experiments take the
        // scalar isolated path, where `execute_mode` replays their ledger.
        let on_lane = |e: &PlannedExperiment| {
            crate::batch::lane_expressible(&e.fault)
                && !(self.config.static_preclassify
                    && e.annotation == crate::plan::PlanAnnotation::StaticSilent)
        };
        let lane_entries: Vec<&PlannedExperiment> =
            plan.experiments.iter().filter(|e| on_lane(e)).collect();
        let scalar_plan = CampaignPlan {
            target: plan.target.clone(),
            sub_cycle: plan.sub_cycle,
            seed: plan.seed,
            n_total: plan.n_total,
            experiments: plan
                .experiments
                .iter()
                .filter(|e| !on_lane(e))
                .cloned()
                .collect(),
        };
        let mut verdicts: Vec<ExperimentVerdict> = if scalar_plan.is_empty() {
            Vec::new()
        } else {
            self.execute_isolated(&scalar_plan, retries, recorder, observer)?
        };

        let port_wires =
            crate::batch::lane_prologue(&engine, &self.golden, &self.ports, &lane_entries)?;
        let chaos = ChaosPanic::from_env();
        let handle: Option<RecorderHandle> = recorder.map(Recorder::handle);

        let mut pending: Vec<&PlannedExperiment> = lane_entries;
        pending.sort_by_key(|e| (e.schedule.inject_at, e.index));
        // Experiments evicted from the batched path by a poisoned cohort,
        // replayed scalar-isolated after the lane loop.
        let mut fallback: Vec<PlannedExperiment> = Vec::new();

        while !pending.is_empty() {
            let mut loaded: Vec<&PlannedExperiment> = Vec::new();
            let mut retired: Vec<ExperimentVerdict> = Vec::new();
            let outcome = {
                let engine = &mut engine;
                let loaded = &mut loaded;
                let retired = &mut retired;
                let pending = &pending;
                catch_unwind(AssertUnwindSafe(|| {
                    crate::batch::run_one_cohort(
                        engine,
                        &self.golden,
                        &port_wires,
                        plan.sub_cycle,
                        pending,
                        chaos,
                        loaded,
                        &mut |index, result| {
                            let verdict = ExperimentVerdict::Completed {
                                index,
                                modelled_seconds: self
                                    .time_model
                                    .experiment_seconds(&result.traffic, self.golden.cycles()),
                                attempts: 1,
                                result,
                            };
                            if let (
                                Some(h),
                                ExperimentVerdict::Completed {
                                    result,
                                    modelled_seconds,
                                    ..
                                },
                            ) = (&handle, &verdict)
                            {
                                h.record(record_of(
                                    index,
                                    &plan.target,
                                    result,
                                    *modelled_seconds,
                                    1,
                                ));
                            }
                            if let Some(f) = observer {
                                f(&verdict);
                            }
                            retired.push(verdict);
                        },
                    )
                }))
            };
            match outcome {
                Ok(Ok(leftovers)) => {
                    verdicts.append(&mut retired);
                    pending = leftovers;
                }
                Ok(Err(_)) | Err(_) => {
                    // The cohort died mid-pass. Lanes that retired before
                    // the failure are decided (and already observed);
                    // everything else that was aboard the word replays on
                    // the scalar isolated path, which retries and
                    // quarantines the actual offender per experiment.
                    let decided: std::collections::HashSet<u64> =
                        retired.iter().map(ExperimentVerdict::index).collect();
                    verdicts.append(&mut retired);
                    fallback.extend(
                        loaded
                            .iter()
                            .filter(|e| !decided.contains(&e.index))
                            .map(|e| (*e).clone()),
                    );
                    if loaded.is_empty() {
                        // Died before taking any work: batched progress is
                        // impossible, hand the rest to the scalar path.
                        fallback.extend(pending.iter().map(|e| (*e).clone()));
                        pending.clear();
                    } else {
                        let aboard: std::collections::HashSet<u64> =
                            loaded.iter().map(|e| e.index).collect();
                        pending.retain(|e| !aboard.contains(&e.index));
                    }
                    // The word may hold a half-installed fault; rebuild
                    // the engine from the pristine device.
                    match fades_fpga::BatchDevice::new(&self.device) {
                        Some(rebuilt) => engine = rebuilt,
                        None => {
                            fallback.extend(pending.iter().map(|e| (*e).clone()));
                            pending.clear();
                        }
                    }
                }
            }
        }

        if !fallback.is_empty() {
            fallback.sort_by_key(|e| e.index);
            let fallback_plan = CampaignPlan {
                target: plan.target.clone(),
                sub_cycle: plan.sub_cycle,
                seed: plan.seed,
                n_total: plan.n_total,
                experiments: fallback,
            };
            verdicts.extend(self.execute_isolated(&fallback_plan, retries, recorder, observer)?);
        }

        // Stitch back into plan order (float accumulation order is part
        // of the bit-identical contract).
        let mut by_index: std::collections::HashMap<u64, ExperimentVerdict> =
            verdicts.into_iter().map(|v| (v.index(), v)).collect();
        Ok(plan
            .experiments
            .iter()
            .map(|e| {
                by_index
                    .remove(&e.index)
                    .unwrap_or_else(|| unreachable!("every plan entry was decided"))
            })
            .collect())
    }

    fn execute_mode(
        &self,
        plan: &CampaignPlan,
        recorder: Option<&Recorder>,
        mode: ExecMode<'_>,
    ) -> Result<Vec<ExperimentVerdict>, CoreError> {
        if plan.is_empty() {
            // Guard explicitly: an empty campaign has no work and a zero
            // chunk size would panic `chunks(0)` below.
            return Ok(Vec::new());
        }
        let chaos = ChaosPanic::from_env();
        let threads = self.config.threads.max(1).min(plan.len());
        let chunk = plan.len().div_ceil(threads);
        let n_chunks = plan.len().div_ceil(chunk);
        let mut results: Vec<Option<ExperimentVerdict>> = vec![None; plan.len()];
        // Every worker publishes the global index it is about to run, so
        // a panic escaping the fail-fast path can be attributed.
        let in_flight: Vec<AtomicU64> = (0..n_chunks).map(|_| AtomicU64::new(u64::MAX)).collect();
        let mode = &mode;

        crossbeam::thread::scope(|scope| -> Result<(), CoreError> {
            let mut handles = Vec::new();
            for ((chunk_plan, chunk_out), slot) in plan
                .experiments
                .chunks(chunk)
                .zip(results.chunks_mut(chunk))
                .zip(&in_flight)
            {
                let pristine = &self.device;
                let mut dev = pristine.clone();
                let ports = &self.ports;
                let golden = &self.golden;
                let rec: Option<RecorderHandle> = recorder.map(Recorder::handle);
                let target = plan.target.as_str();
                let sub_cycle = plan.sub_cycle;
                let time_model = &self.time_model;
                let fastpath = self.config.fastpath;
                let static_skip = self.config.static_preclassify;
                handles.push(scope.spawn(move |_| -> Result<(), CoreError> {
                    for (planned, out) in chunk_plan.iter().zip(chunk_out.iter_mut()) {
                        slot.store(planned.index, Ordering::Release);
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
                                    let strategy = strategy_for(&planned.fault, sub_cycle);
                                    if static_skip
                                        && planned.annotation
                                            == crate::plan::PlanAnnotation::StaticSilent
                                    {
                                        // Plan-time proof says Silent:
                                        // replay the reconfiguration
                                        // ledger, skip the simulation.
                                        let result = crate::experiment::replay_static_silent(
                                            dev,
                                            golden,
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
                                        golden,
                                        planned.fault.clone(),
                                        strategy,
                                        planned.schedule,
                                        ports,
                                        &mut rng,
                                        fastpath,
                                    )
                                };
                            let error = match mode {
                                ExecMode::FailFast => {
                                    // Let a panic unwind the worker; the
                                    // join below converts it into
                                    // `ExperimentPanic` via `slot`.
                                    let result = run_one(&mut dev)?;
                                    break ExperimentVerdict::Completed {
                                        index: planned.index,
                                        modelled_seconds: time_model
                                            .experiment_seconds(&result.traffic, golden.cycles()),
                                        attempts: 1,
                                        result,
                                    };
                                }
                                ExecMode::Isolated { .. } => {
                                    match catch_unwind(AssertUnwindSafe(|| run_one(&mut dev))) {
                                        Ok(Ok(result)) => {
                                            break ExperimentVerdict::Completed {
                                                index: planned.index,
                                                modelled_seconds: time_model.experiment_seconds(
                                                    &result.traffic,
                                                    golden.cycles(),
                                                ),
                                                attempts: attempt + 1,
                                                result,
                                            };
                                        }
                                        Ok(Err(e)) => e.to_string(),
                                        Err(payload) => panic_message(payload.as_ref()),
                                    }
                                }
                            };
                            // The attempt died mid-experiment: the device
                            // may hold a half-installed fault, so rebuild
                            // it from the pristine configuration.
                            dev = pristine.clone();
                            let retries = match mode {
                                ExecMode::Isolated { retries, .. } => *retries,
                                ExecMode::FailFast => 0,
                            };
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
                        if let (
                            Some(h),
                            ExperimentVerdict::Completed {
                                result,
                                modelled_seconds,
                                attempts,
                                ..
                            },
                        ) = (&rec, &verdict)
                        {
                            h.record(record_of(
                                planned.index,
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
                            f(&verdict);
                        }
                        *out = Some(verdict);
                    }
                    fades_telemetry::trace::clear_current_experiment();
                    Ok(())
                }));
            }
            for (h, slot) in handles.into_iter().zip(&in_flight) {
                match h.join() {
                    Ok(worker) => worker?,
                    Err(payload) => {
                        return Err(CoreError::ExperimentPanic {
                            index: slot.load(Ordering::Acquire),
                            message: panic_message(payload.as_ref()),
                        })
                    }
                }
            }
            Ok(())
        })
        .unwrap_or_else(|p| std::panic::resume_unwind(p))?;

        Ok(results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| unreachable!("all experiments decided")))
            .collect())
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
            let results = self.run_detailed(&load, per_ff, seed ^ ((i as u64 + 1) << 20))?;
            if results.iter().any(|r| r.outcome == crate::Outcome::Failure) {
                sensitive.push(cb);
            }
        }
        Ok(sensitive)
    }
}
