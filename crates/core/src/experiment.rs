//! Execution of a single fault-injection experiment (paper Fig. 1).

use fades_fpga::{ConfigAccess, Device, DeviceState};
use fades_netlist::OutputTrace;
use rand::rngs::StdRng;

use crate::classify::{classify, Outcome};
use crate::error::CoreError;
use crate::golden::GoldenRun;
use crate::location::ResolvedFault;
use crate::strategies::InjectionStrategy;
use crate::timing::LedgerSummary;

/// When a fault is injected and for how long it stays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Injection cycle (the fault is present from this cycle's settle).
    pub inject_at: u64,
    /// Duration in cycles; `None` keeps the fault until the end of the
    /// run (permanent faults).
    pub duration: Option<u64>,
}

impl FaultSchedule {
    /// Checks the schedule against a run of `run_cycles` cycles, as every
    /// engine does before it simulates anything: the injection instant
    /// must fall inside the run ([`CoreError::BadSchedule`]), and a fault
    /// must last at least one cycle. A zero-cycle fault would be gone
    /// before it is installed, which neither engine defines, so it is
    /// refused as the duration range `0..=0`
    /// ([`CoreError::InvalidDuration`]).
    pub(crate) fn check(&self, run_cycles: u64) -> Result<(), CoreError> {
        if self.inject_at >= run_cycles {
            return Err(CoreError::BadSchedule {
                at: self.inject_at,
                run_cycles,
            });
        }
        if self.duration == Some(0) {
            return Err(CoreError::InvalidDuration { lo: 0, hi: 0 });
        }
        Ok(())
    }

    pub(crate) fn active(&self, cycle: u64) -> bool {
        cycle >= self.inject_at
            && match self.duration {
                Some(d) => cycle < self.inject_at + d,
                None => true,
            }
    }

    pub(crate) fn expires_after(&self, cycle: u64) -> bool {
        match self.duration {
            Some(d) => cycle + 1 == self.inject_at + d,
            None => false,
        }
    }

    /// Whether the fault is gone by the top of `cycle`: its removal
    /// reconfiguration ran at the end of the previous cycle, so from here
    /// on the strategy makes no further `tick`/`remove` calls and the
    /// configuration is behaviourally pristine. Never true for permanent
    /// faults.
    pub(crate) fn inert_at(&self, cycle: u64) -> bool {
        cycle >= self.gone_at()
    }

    /// The first cycle at which [`inert_at`](Self::inert_at) holds;
    /// `u64::MAX` (never reached) for a permanent fault.
    pub(crate) fn gone_at(&self) -> u64 {
        self.duration
            .map_or(u64::MAX, |d| self.inject_at.saturating_add(d))
    }

    /// Whether the fault is still installed when a run of `run_cycles`
    /// cycles ends (permanent faults always are).
    pub fn outlives(&self, run_cycles: u64) -> bool {
        match self.duration {
            Some(d) => self.inject_at.saturating_add(d) > run_cycles,
            None => true,
        }
    }
}

/// Result of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The injected fault.
    pub fault: ResolvedFault,
    /// Its schedule.
    pub schedule: FaultSchedule,
    /// Classified outcome.
    pub outcome: Outcome,
    /// Configuration-traffic summary (input to the time model).
    pub traffic: LedgerSummary,
    /// Short name of the injection strategy that ran the experiment.
    pub strategy: &'static str,
    /// Real wall-clock microseconds the experiment took to emulate.
    pub wall_us: u64,
    /// Golden-prefix cycles skipped by restoring a checkpoint (0 on the
    /// full-simulation path).
    pub skipped_cycles: u64,
    /// Tail cycles skipped once the outcome was decided: by early-stop
    /// convergence detection, or by fail-stop on a Failure (0 on the
    /// full-simulation path).
    pub early_stop_cycles: u64,
}

/// Settles the books for an experiment the static pre-classifier proved
/// Silent, without simulating a single workload cycle.
///
/// The strategy's reconfiguration choreography is replayed on the reset
/// device ([`replay_choreography`]) exactly as [`run_experiment`] would
/// have driven it. Every strategy charges the transfer ledger by frame
/// *coordinates*, never by observed values, so the resulting
/// [`LedgerSummary`] (and with it the modelled `emulation_seconds`) is
/// bit-identical to a real execution; only host wall-clock is saved. The
/// outcome is `Silent` by construction — the plan-time cone-of-influence
/// proof is the whole point — and the soundness suite forces these
/// experiments to execute for real and checks the claim against both
/// engines.
///
/// # Errors
///
/// Returns [`CoreError::BadSchedule`] for an injection instant outside
/// the run, [`CoreError::InvalidDuration`] for a zero-cycle fault, or
/// propagates strategy errors — the same failure surface as
/// [`run_experiment`].
pub(crate) fn replay_static_silent(
    dev: &mut Device,
    golden: &GoldenRun,
    fault: ResolvedFault,
    mut strategy: Box<dyn InjectionStrategy>,
    schedule: FaultSchedule,
    rng: &mut StdRng,
) -> Result<ExperimentResult, CoreError> {
    let started = std::time::Instant::now();
    let run_cycles = golden.cycles();
    schedule.check(run_cycles)?;
    dev.reset();
    dev.clear_ledger();
    replay_choreography(dev, strategy.as_mut(), schedule, run_cycles, rng)?;
    Ok(ExperimentResult {
        fault,
        schedule,
        outcome: Outcome::Silent,
        traffic: LedgerSummary::from(dev.ledger()),
        strategy: strategy.name(),
        wall_us: started.elapsed().as_micros() as u64,
        skipped_cycles: 0,
        early_stop_cycles: 0,
    })
}

/// Makes the strategy calls a run of `run_cycles` cycles makes for
/// `schedule`, without simulating a cycle: `inject` at the injection
/// instant, `tick` for every active cycle, `remove` at expiry (or after
/// the run for an outliving schedule). The device's ledger ends up
/// charged as the run's would be, since strategies charge it by frame
/// coordinates.
///
/// # Errors
///
/// Propagates strategy errors.
pub(crate) fn replay_choreography(
    dev: &mut dyn ConfigAccess,
    strategy: &mut dyn InjectionStrategy,
    schedule: FaultSchedule,
    run_cycles: u64,
    rng: &mut StdRng,
) -> Result<(), CoreError> {
    for cycle in schedule.inject_at..run_cycles {
        if cycle == schedule.inject_at {
            strategy.inject(dev, rng)?;
        } else if schedule.active(cycle) {
            strategy.tick(dev, rng)?;
        }
        if schedule.expires_after(cycle) {
            strategy.remove(dev)?;
        }
        if schedule.inert_at(cycle + 1) {
            // From here the strategy makes no further calls in a real
            // run; the remaining cycles contribute nothing to the ledger.
            break;
        }
    }
    if schedule.outlives(run_cycles) {
        strategy.remove(dev)?;
    }
    Ok(())
}

/// Resolves each observed port to its wires once, so the per-cycle reads
/// are direct wire loads instead of name searches.
pub(crate) fn resolve_ports(dev: &Device, ports: &[String]) -> Result<Vec<Vec<u32>>, CoreError> {
    ports
        .iter()
        .map(|p| {
            dev.output_wires(p)
                .map_err(|_| CoreError::UnknownPort(p.clone()))
        })
        .collect()
}

/// Runs one fault-injection experiment: reset, execute the workload,
/// reconfigure to inject at the scheduled instant, reconfigure to remove
/// at expiry, observe, classify (paper Fig. 1).
///
/// With `fastpath` enabled, the host-side simulation skips every cycle
/// whose outcome is already known, without changing what the emulated
/// FPGA does:
///
/// * **Timing-neutral delays** — a routing delay acts only through
///   static timing, so it is first injected on the freshly reset device.
///   If every flip-flop and write-port overshoot stays pristine
///   ([`Device::timing_is_pristine`]), the device behaves exactly as the
///   golden run: the delay is removed again and decided `Silent` without
///   simulating a cycle, reporting the checkpoint and early stop the
///   simulated run would have reported. Otherwise the device is reset and
///   the delay runs as below.
/// * **Fast-forward** — instead of re-executing the fault-free prefix,
///   the nearest golden checkpoint at or before `inject_at` is restored
///   onto the device (the prefix trace is golden by construction).
/// * **Early stop** — once the fault is removed, if the device's state
///   hash equals the golden hash at the same cycle, every remaining cycle
///   is provably identical to the golden run, so the outcome is decided
///   immediately: `Failure` if the observed trace already diverged,
///   `Silent` otherwise (`Latent` is impossible — the states match).
/// * **Fail-stop** — once the fault is removed and the observed trace
///   has diverged, the outcome is `Failure` whatever follows, and the
///   strategy makes no further calls, so the run stops there (the lane
///   engine retires such a lane at the same cycle).
///
/// All of these change host wall-clock only. The emulated device still
/// executes the full `run_cycles` workload, and the strategy makes the
/// same reconfiguration calls in the same order, so the traffic ledger —
/// and with it modelled emulation time — is bit-identical to the
/// full-simulation path, as is the classified outcome.
///
/// # Errors
///
/// Returns [`CoreError::BadSchedule`] for an injection instant outside
/// the run, [`CoreError::InvalidDuration`] for a zero-cycle fault, or
/// propagates strategy errors.
pub fn run_experiment(
    dev: &mut Device,
    golden: &GoldenRun,
    fault: ResolvedFault,
    mut strategy: Box<dyn InjectionStrategy>,
    schedule: FaultSchedule,
    ports: &[String],
    rng: &mut StdRng,
    fastpath: bool,
) -> Result<ExperimentResult, CoreError> {
    let started = std::time::Instant::now();
    let strategy_name = strategy.name();
    let run_cycles = golden.cycles();
    schedule.check(run_cycles)?;
    dev.reset();
    dev.clear_ledger();
    let port_wires = resolve_ports(dev, ports)?;

    let checkpoint = golden
        .checkpoint_at_or_before(schedule.inject_at)
        .filter(|cp| fastpath && cp.cycle() > 0);
    let start_cycle = checkpoint.map_or(0, DeviceState::cycle);
    if fastpath && matches!(fault, ResolvedFault::WireDelay { .. }) {
        // The ledger charges frames by coordinates, so injecting and
        // removing here charges exactly what the simulated run would.
        strategy.inject(dev, rng)?;
        if dev.timing_is_pristine() {
            strategy.remove(dev)?;
            // The simulated run would restore the checkpoint and stop
            // once the delay is gone, its state equal to golden's.
            let early_stop_cycles = run_cycles - schedule.gone_at().min(run_cycles);
            fades_telemetry::fastpath::DELAYS_DECIDED.inc();
            fades_telemetry::fastpath::record_experiment(start_cycle, early_stop_cycles);
            return Ok(ExperimentResult {
                fault,
                schedule,
                outcome: Outcome::Silent,
                traffic: LedgerSummary::from(dev.ledger()),
                strategy: strategy_name,
                wall_us: started.elapsed().as_micros() as u64,
                skipped_cycles: start_cycle,
                early_stop_cycles,
            });
        }
        dev.reset();
        dev.clear_ledger();
    }
    if let Some(cp) = checkpoint {
        dev.restore_state(cp);
    }

    // The full path keeps the original record-everything-then-classify
    // flow as the reference implementation; the fast path tracks
    // divergence against the golden rows incrementally instead of
    // building a trace (its prefix rows are golden by construction).
    let mut trace = (!fastpath).then(|| OutputTrace::new(ports.to_vec()));
    let mut diverged = false;
    let mut row = Vec::with_capacity(ports.len());
    let mut early_outcome = None;
    let mut early_stop_cycles = 0u64;
    for cycle in start_cycle..run_cycles {
        if fastpath
            && schedule.inert_at(cycle)
            && (diverged || dev.state_hash() == golden.state_hash_at(cycle))
        {
            early_stop_cycles = run_cycles - cycle;
            early_outcome = Some(if diverged {
                fades_telemetry::fastpath::FAILURE_STOPS.inc();
                Outcome::Failure
            } else {
                Outcome::Silent
            });
            break;
        }
        if cycle == schedule.inject_at {
            strategy.inject(dev, rng)?;
        } else if schedule.active(cycle) {
            strategy.tick(dev, rng)?;
        }
        dev.settle();
        row.clear();
        row.extend(port_wires.iter().map(|w| dev.wires_u64(w)));
        match &mut trace {
            Some(trace) => trace.push_cycle(row.clone()),
            None => {
                diverged |= golden.trace().row(cycle as usize) != Some(row.as_slice());
            }
        }
        dev.clock_edge();
        if schedule.expires_after(cycle) {
            strategy.remove(dev)?;
        }
    }
    // A fault whose schedule extends past the end of the run is still
    // installed here. The paper's Fig. 1 flow removes it before the next
    // experiment starts, so its removal reconfiguration belongs to *this*
    // experiment's ledger; permanent strategies document `remove` as a
    // no-op and are unaffected. (An early stop can only fire once the
    // fault is inert, so both paths reach this with the same schedule
    // state.)
    if schedule.outlives(run_cycles) {
        strategy.remove(dev)?;
    }
    let outcome = match early_outcome {
        Some(outcome) => outcome,
        None => match &trace {
            Some(trace) => classify(trace, &dev.state_snapshot(), golden),
            None => {
                if diverged {
                    Outcome::Failure
                } else if dev.state_snapshot().as_slice() != golden.final_state() {
                    Outcome::Latent
                } else {
                    Outcome::Silent
                }
            }
        },
    };
    fades_telemetry::fastpath::record_experiment(start_cycle, early_stop_cycles);
    Ok(ExperimentResult {
        fault,
        schedule,
        outcome,
        traffic: LedgerSummary::from(dev.ledger()),
        strategy: strategy_name,
        wall_us: started.elapsed().as_micros() as u64,
        skipped_cycles: start_cycle,
        early_stop_cycles,
    })
}
