//! Lane-cohort execution: up to 63 experiments per simulated pass.
//!
//! The campaign layer groups lane-expressible plan entries into cohorts
//! and runs each cohort on one [`BatchDevice`]: lane 0 replays the golden
//! run, lanes `1..=63` each carry one experiment. A lane whose
//! configuration has returned to pristine *and* whose sequential state
//! has reconverged with lane 0 is provably golden for every remaining
//! cycle, so it retires immediately — outcome decided — and is refilled
//! from the pending plan if an experiment with a not-yet-passed injection
//! instant remains. Entries whose injection instant has already passed
//! when a lane frees up wait for the next pass.
//!
//! The choreography per lane is cycle-for-cycle the scalar
//! [`run_experiment`](crate::experiment::run_experiment) flow — same
//! inject/tick/settle/observe/edge/remove order, same readback values,
//! same ledger traffic — which is what the differential test suite pins
//! down: outcomes, traffic and modelled emulation seconds are
//! bit-identical to the scalar path.
//!
//! # Wall-clock attribution
//!
//! The cohort's wall clock is *shared*: 63 concurrent lanes advance on
//! one host instruction stream. Each retirement (and the end of the
//! pass) charges the clock advanced since the previous charge point,
//! divided evenly across the lanes that were occupied over that
//! interval, to those lanes. Summed `wall_us` across a cohort therefore
//! equals the cohort's elapsed wall within rounding noise — per-fault
//! host cost is the per-fault *share*, not the whole word's residency.

use std::time::Instant;

use fades_fpga::{BatchDevice, LANES};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::classify::Outcome;
use crate::error::CoreError;
use crate::experiment::ExperimentResult;
use crate::golden::GoldenRun;
use crate::location::ResolvedFault;
use crate::plan::{ChaosPanic, PlannedExperiment};
use crate::strategies::{strategy_for, InjectionStrategy};
use crate::timing::LedgerSummary;

/// Whether the lane engine can express this fault.
///
/// Routing mutations alter static timing, which all lanes share, and
/// oscillating indeterminations reconfigure every cycle of their window
/// (defeating retirement and costing a full per-cycle mutation per lane),
/// so both run on the scalar per-experiment path instead.
pub(crate) fn lane_expressible(fault: &ResolvedFault) -> bool {
    !matches!(
        fault,
        ResolvedFault::WireDelay { .. }
            | ResolvedFault::FfIndet {
                oscillating: true,
                ..
            }
            | ResolvedFault::LutIndet {
                oscillating: true,
                ..
            }
    )
}

/// Validates the entries against the golden run length and resolves the
/// observed ports to lane-engine wire lists — the shared prologue of
/// every cohort loop.
pub(crate) fn lane_prologue(
    batch: &BatchDevice,
    golden: &GoldenRun,
    ports: &[String],
    entries: &[&PlannedExperiment],
) -> Result<Vec<Vec<u32>>, CoreError> {
    let run_cycles = golden.cycles();
    for e in entries {
        if e.schedule.inject_at >= run_cycles {
            return Err(CoreError::BadSchedule {
                at: e.schedule.inject_at,
                run_cycles,
            });
        }
    }
    ports
        .iter()
        .map(|p| {
            batch
                .output_wires(p)
                .map_err(|_| CoreError::UnknownPort(p.clone()))
        })
        .collect()
}

/// The cohort's shared wall clock: charges elapsed intervals evenly
/// across the lanes occupied over them.
struct CohortClock {
    started: Instant,
    marked_us: f64,
}

impl CohortClock {
    fn start() -> Self {
        CohortClock {
            started: Instant::now(),
            marked_us: 0.0,
        }
    }

    /// Charges the clock advanced since the last charge point to the
    /// currently occupied lanes, one equal share each. Call *before*
    /// removing a retiring lane — it was occupied over the interval.
    fn charge(&mut self, slots: &mut [Option<LaneSlot<'_>>]) {
        let now_us = self.started.elapsed().as_secs_f64() * 1e6;
        let delta = now_us - self.marked_us;
        self.marked_us = now_us;
        let occupied = slots.iter().flatten().count();
        if occupied == 0 {
            return;
        }
        let share = delta / occupied as f64;
        for slot in slots.iter_mut().flatten() {
            slot.charged_us += share;
        }
    }
}

/// One occupied lane: the experiment it carries and its execution state.
struct LaneSlot<'p> {
    planned: &'p PlannedExperiment,
    strategy: Box<dyn InjectionStrategy>,
    rng: StdRng,
    diverged: bool,
    /// Share of the cohort wall clock charged to this lane so far (µs).
    charged_us: f64,
}

impl<'p> LaneSlot<'p> {
    fn new(planned: &'p PlannedExperiment, sub_cycle: bool) -> Self {
        LaneSlot {
            planned,
            strategy: strategy_for(&planned.fault, sub_cycle),
            rng: StdRng::seed_from_u64(planned.seed),
            diverged: false,
            charged_us: 0.0,
        }
    }

    fn finish(
        self,
        batch: &BatchDevice,
        lane: usize,
        outcome: Outcome,
        early_stop_cycles: u64,
    ) -> (u64, ExperimentResult) {
        (
            self.planned.index,
            ExperimentResult {
                fault: self.planned.fault.clone(),
                schedule: self.planned.schedule,
                outcome,
                traffic: LedgerSummary::from(batch.ledger(lane)),
                strategy: self.strategy.name(),
                wall_us: self.charged_us.round() as u64,
                skipped_cycles: 0,
                early_stop_cycles,
            },
        )
    }
}

/// Deposits the per-experiment telemetry a lane retirement owes: the
/// `experiment` phase histogram entry and — when Chrome tracing is on —
/// a completed span of the lane's charged wall ending now. Lane spans
/// overlap on one thread (the word runs up to 63 experiments at once),
/// which the trace renders faithfully.
fn trace_retirement(index: u64, wall_us: u64) {
    fades_telemetry::span_phase("experiment").record(wall_us);
    if fades_telemetry::trace::enabled() {
        fades_telemetry::trace::set_current_experiment(index);
        let end = fades_telemetry::trace::epoch_us();
        fades_telemetry::trace::record_span("experiment", end.saturating_sub(wall_us), wall_us);
        fades_telemetry::trace::set_current_experiment(fades_telemetry::trace::NO_EXPERIMENT);
    }
}

/// Runs *one* pass of the lane engine over `pending`: fills the lanes in
/// order, retires and refills until the run length is exhausted, and
/// hands each decided experiment to `sink` at the moment its lane
/// retires (not at cohort end — under the isolation contract the sink
/// journals, so a kill forfeits at most the in-flight word).
///
/// Every entry taken from `pending` is pushed to `loaded` *before* it
/// can influence the device — `loaded` is caller-owned so that when this
/// function panics (a poisoned fault, or the chaos hook), the caller
/// knows exactly which experiments were aboard the word and can replay
/// them scalar-isolated.
///
/// Returns the entries this pass could not take: those whose injection
/// instant had already passed when a lane freed up, plus everything
/// beyond the last refill. The caller loops until the return is empty.
pub(crate) fn run_one_cohort<'p>(
    batch: &mut BatchDevice,
    golden: &GoldenRun,
    port_wires: &[Vec<u32>],
    sub_cycle: bool,
    pending: &[&'p PlannedExperiment],
    chaos: Option<ChaosPanic>,
    loaded: &mut Vec<&'p PlannedExperiment>,
    sink: &mut dyn FnMut(u64, ExperimentResult),
) -> Result<Vec<&'p PlannedExperiment>, CoreError> {
    let run_cycles = golden.cycles();
    // Warm start: until its injection instant every lane *is* the golden
    // run, and `pending` arrives sorted by injection instant, so the
    // whole word can splat-restore the nearest golden checkpoint at or
    // before the cohort's earliest injection and skip the pristine
    // prefix. On refill passes (whose surviving entries inject late) the
    // skip multiplies. With no checkpoint past cycle 0 to restore, the
    // pass starts cold from `reset`.
    let checkpoint = pending
        .first()
        .and_then(|e| golden.checkpoint_at_or_before(e.schedule.inject_at))
        .filter(|cp| cp.cycle() > 0);
    let start_cycle = match checkpoint {
        Some(cp) => {
            batch.restore_broadcast(cp);
            fades_telemetry::sim::record_warm_start(cp.cycle());
            cp.cycle()
        }
        None => {
            batch.reset();
            0
        }
    };
    let mut clock = CohortClock::start();
    let mut slots: Vec<Option<LaneSlot<'p>>> = (0..LANES).map(|_| None).collect();
    let mut occupied = 0usize;
    let mut cursor = 0usize;
    let mut leftovers: Vec<&'p PlannedExperiment> = Vec::new();
    for slot in slots.iter_mut().skip(1) {
        let Some(&planned) = pending.get(cursor) else {
            break;
        };
        cursor += 1;
        loaded.push(planned);
        *slot = Some(LaneSlot::new(planned, sub_cycle));
        occupied += 1;
    }

    for cycle in start_cycle..run_cycles {
        // Retire reconverged lanes at the top of the cycle (the batch
        // analogue of the scalar early-stop hash check, by true
        // equality — equal state and pristine config imply the hash
        // check passes too).
        let any_inert = slots
            .iter()
            .flatten()
            .any(|s| s.planned.schedule.inert_at(cycle));
        if any_inert {
            let conf = batch.config_divergence();
            // Decided-lane shortcut: a port-diverged lane's outcome is
            // locked (Failure), and once its fault is inert and its
            // configuration pristine nothing it does from here on is
            // observable — outcome, traffic and modelled time are all
            // fixed. Snap it onto the golden trajectory so the ordinary
            // reconvergence retirement below fires right now instead of
            // dragging a hard-diverged machine to the end of the pass.
            for (lane, entry) in slots.iter().enumerate().skip(1) {
                let decided = entry.as_ref().is_some_and(|s| {
                    s.diverged && s.planned.schedule.inert_at(cycle) && (conf >> lane) & 1 == 0
                });
                if decided {
                    batch.snap_lane_to_golden(lane);
                }
            }
            let seq = batch.seq_divergence();
            let mut will_retire = 0u64;
            for (lane, entry) in slots.iter().enumerate().skip(1) {
                let retire = entry.as_ref().is_some_and(|s| {
                    s.planned.schedule.inert_at(cycle)
                        && (seq >> lane) & 1 == 0
                        && (conf >> lane) & 1 == 0
                });
                if retire {
                    will_retire |= 1 << lane;
                }
            }
            if will_retire != 0 {
                // Charge the shared clock before the retiring lanes
                // leave — they were occupied over the elapsed interval.
                clock.charge(&mut slots);
                for (lane, entry) in slots.iter_mut().enumerate().skip(1) {
                    if (will_retire >> lane) & 1 == 0 {
                        continue;
                    }
                    let Some(slot) = entry.take() else {
                        continue; // retire mask checked occupancy
                    };
                    occupied -= 1;
                    let outcome = if slot.diverged {
                        Outcome::Failure
                    } else {
                        Outcome::Silent
                    };
                    fades_telemetry::sim::record_lane_retirement();
                    let (index, result) = slot.finish(batch, lane, outcome, run_cycles - cycle);
                    trace_retirement(index, result.wall_us);
                    sink(index, result);
                    // Refill: skip entries whose injection instant has
                    // already passed (they wait for the next pass).
                    while pending
                        .get(cursor)
                        .is_some_and(|e| e.schedule.inject_at < cycle)
                    {
                        leftovers.push(pending[cursor]);
                        cursor += 1;
                    }
                    if let Some(&planned) = pending.get(cursor) {
                        cursor += 1;
                        batch.refill_lane(lane);
                        loaded.push(planned);
                        *entry = Some(LaneSlot::new(planned, sub_cycle));
                        occupied += 1;
                    }
                }
            }
        }
        if occupied == 0 {
            break;
        }
        for (lane, entry) in slots.iter_mut().enumerate().skip(1) {
            if let Some(s) = entry {
                if cycle == s.planned.schedule.inject_at {
                    if let Some(c) = chaos {
                        c.maybe_panic(s.planned.index, 0);
                    }
                    s.strategy.inject(&mut batch.lane(lane), &mut s.rng)?;
                } else if s.planned.schedule.active(cycle) {
                    s.strategy.tick(&mut batch.lane(lane), &mut s.rng)?;
                }
            }
        }
        batch.settle();
        match golden.trace().row(cycle as usize) {
            Some(row) => {
                let mut diff = 0u64;
                for (wires, &g) in port_wires.iter().zip(row) {
                    diff |= batch.port_divergence(wires, g);
                }
                if diff != 0 {
                    for (lane, s) in slots.iter_mut().enumerate() {
                        if (diff >> lane) & 1 == 1 {
                            if let Some(s) = s {
                                s.diverged = true;
                            }
                        }
                    }
                }
            }
            None => {
                for s in slots.iter_mut().flatten() {
                    s.diverged = true;
                }
            }
        }
        batch.clock_edge();
        fades_telemetry::sim::record_lane_cycle(occupied as u64);
        for (lane, entry) in slots.iter_mut().enumerate().skip(1) {
            if let Some(s) = entry {
                if s.planned.schedule.expires_after(cycle) {
                    s.strategy.remove(&mut batch.lane(lane))?;
                }
            }
        }
    }

    // Lanes still occupied at the end of the pass: charge the remaining
    // shared clock, remove an outliving fault (its removal traffic
    // belongs to this experiment's ledger, exactly as in the scalar
    // flow), then classify against the golden final state.
    if occupied > 0 {
        clock.charge(&mut slots);
    }
    for (lane, entry) in slots.iter_mut().enumerate().skip(1) {
        if let Some(mut slot) = entry.take() {
            if slot.planned.schedule.outlives(run_cycles) {
                slot.strategy.remove(&mut batch.lane(lane))?;
            }
            let outcome = if slot.diverged {
                Outcome::Failure
            } else if batch.state_snapshot_lane(lane).as_slice() != golden.final_state() {
                Outcome::Latent
            } else {
                Outcome::Silent
            };
            let (index, result) = slot.finish(batch, lane, outcome, 0);
            trace_retirement(index, result.wall_us);
            sink(index, result);
        }
    }

    leftovers.extend_from_slice(&pending[cursor..]);
    Ok(leftovers)
}

/// Runs every entry of `entries` through the lane engine, one experiment
/// per lane, over as many passes as refilling requires. Returns
/// `(plan index, result)` pairs in ascending plan-index order.
///
/// With `threads > 1` the sorted plan is split into contiguous chunks,
/// each run on its own clone of the engine. Per-experiment results are
/// independent of cohort composition (lanes interact only with the
/// golden lane, and timing draws are lane-invariant), so the merged
/// results are bit-identical to the single-threaded run — the same
/// property the sharded-dispatch suite already pins down.
pub(crate) fn run_lane_cohorts<'p>(
    batch: &mut BatchDevice,
    golden: &GoldenRun,
    ports: &[String],
    sub_cycle: bool,
    entries: &[&'p PlannedExperiment],
    threads: usize,
) -> Result<Vec<(u64, ExperimentResult)>, CoreError> {
    let port_wires = lane_prologue(batch, golden, ports, entries)?;

    // Ascending injection instants maximise refills: a freed lane can
    // only take an entry whose injection instant has not yet passed.
    let mut pending: Vec<&'p PlannedExperiment> = entries.to_vec();
    pending.sort_by_key(|e| (e.schedule.inject_at, e.index));

    // No point spinning up a word for fewer entries than a word holds.
    let threads = threads.clamp(1, pending.len().div_ceil(LANES - 1).max(1));
    let mut results: Vec<(u64, ExperimentResult)> = Vec::with_capacity(entries.len());
    if threads <= 1 {
        while !pending.is_empty() {
            let mut loaded = Vec::new();
            pending = run_one_cohort(
                batch,
                golden,
                &port_wires,
                sub_cycle,
                &pending,
                None,
                &mut loaded,
                &mut |index, result| results.push((index, result)),
            )?;
        }
    } else {
        let chunk_len = pending.len().div_ceil(threads);
        let port_wires = &port_wires;
        let chunk_results = crossbeam::thread::scope(
            |scope| -> Vec<Result<Vec<(u64, ExperimentResult)>, CoreError>> {
                let handles: Vec<_> = pending
                    .chunks(chunk_len)
                    .map(|chunk| {
                        let mut engine = batch.clone();
                        scope.spawn(
                            move |_| -> Result<Vec<(u64, ExperimentResult)>, CoreError> {
                                let mut out = Vec::with_capacity(chunk.len());
                                let mut rest: Vec<&'p PlannedExperiment> = chunk.to_vec();
                                while !rest.is_empty() {
                                    let mut loaded = Vec::new();
                                    rest = run_one_cohort(
                                        &mut engine,
                                        golden,
                                        port_wires,
                                        sub_cycle,
                                        &rest,
                                        None,
                                        &mut loaded,
                                        &mut |index, result| out.push((index, result)),
                                    )?;
                                }
                                Ok(out)
                            },
                        )
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            },
        )
        .unwrap_or_else(|p| std::panic::resume_unwind(p));
        for r in chunk_results {
            results.extend(r?);
        }
    }

    results.sort_by_key(|(index, _)| *index);
    Ok(results)
}
