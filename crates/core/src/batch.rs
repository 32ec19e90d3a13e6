//! Lane-cohort execution: up to `64 * W - 1` experiments per simulated
//! pass, on a lane word of `W` `u64`s sized to the cohort.
//!
//! The campaign layer groups lane-expressible plan entries into cohorts
//! and runs each cohort on one [`BatchDevice`]: lane 0 replays the golden
//! run, every other lane carries one experiment. A lane frees up before
//! the end of the pass in two ways, and is then refilled from the pending
//! plan if an experiment with a not-yet-passed injection instant remains
//! (entries whose instant has already passed wait for the next pass):
//!
//! * **Retirement.** A lane whose configuration has returned to pristine
//!   *and* whose sequential state has reconverged with lane 0 is provably
//!   golden for every remaining cycle, so it retires immediately, outcome
//!   decided.
//! * **Merging.** Two lanes whose faults are inert, whose configuration
//!   is behaviourally pristine, which have not failed and whose
//!   sequential state is bit-identical evolve identically for every
//!   remaining cycle. One of them (the leader) carries both: the other's
//!   experiment becomes its follower, decided with the leader's outcome
//!   and early stop, and keeping its own traffic (final once its fault is
//!   inert) and its wall share up to the merge. A follower's lane snaps
//!   to golden and retires like a reconverged one.
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
//! The cohort's wall clock is *shared*: every occupied lane advances on
//! one host instruction stream. Each retirement (and the end of the
//! pass) charges the clock advanced since the previous charge point,
//! divided evenly across the lanes that were occupied over that
//! interval, to those lanes. Summed `wall_us` across a cohort therefore
//! equals the cohort's elapsed wall within rounding noise — per-fault
//! host cost is the per-fault *share*, not the whole word's residency.

use std::time::Instant;

use fades_fpga::{BatchDevice, LaneProgram, Word};
use fades_telemetry::Histogram;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::classify::Outcome;
use crate::error::CoreError;
use crate::experiment::{ExperimentResult, FaultSchedule};
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

/// Resolves the observed ports to lane-engine wire lists.
pub(crate) fn port_wires(
    program: &LaneProgram,
    ports: &[String],
) -> Result<Vec<Vec<u32>>, CoreError> {
    ports
        .iter()
        .map(|p| {
            program
                .output_wires(p)
                .map_err(|_| CoreError::UnknownPort(p.clone()))
        })
        .collect()
}

/// A plan entry the lane engine runs, with its position in the plan,
/// where its verdict goes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneEntry<'p> {
    /// Position in the plan's experiments.
    pub(crate) pos: usize,
    /// The experiment.
    pub(crate) planned: &'p PlannedExperiment,
}

/// Decides a memory flip of a word the golden run never selects again
/// after its injection: the faulty machine is the golden one but for that
/// bit until the run ends, so it is Latent, and no cycle needs
/// simulating. Its traffic is the strategy's choreography, replayed on
/// lane 1 of `batch` with that lane's ledger cleared first. The lane's
/// state is left as the choreography leaves it: every pass restores
/// every lane when it starts (`restore_broadcast` or `reset`), and an
/// engine goes back to its campaign's pool only after
/// `restore_pristine_config`.
///
/// # Errors
///
/// Propagates strategy errors.
pub(crate) fn decide_unread<const W: usize>(
    batch: &mut BatchDevice<W>,
    planned: &PlannedExperiment,
    run_cycles: u64,
    sub_cycle: bool,
) -> Result<ExperimentResult, CoreError> {
    let started = Instant::now();
    let mut strategy = strategy_for(&planned.fault, sub_cycle);
    batch.clear_ledger(1);
    crate::experiment::replay_choreography(
        &mut batch.lane(1),
        strategy.as_mut(),
        planned.schedule,
        run_cycles,
        &mut StdRng::seed_from_u64(planned.seed),
    )?;
    Ok(ExperimentResult {
        fault: planned.fault.clone(),
        schedule: planned.schedule,
        outcome: Outcome::Latent,
        traffic: LedgerSummary::from(batch.ledger(1)),
        strategy: strategy.name(),
        wall_us: started.elapsed().as_micros() as u64,
        skipped_cycles: 0,
        early_stop_cycles: 0,
    })
}

/// The cohort's shared wall clock: charges elapsed intervals evenly
/// across the lanes occupied over them.
///
/// The charges are kept as one running per-lane share: each charge point
/// adds the interval since the previous one divided by the lanes occupied
/// over it, and a lane's wall is the share accrued between its load and
/// its retirement. That is the sum charging every occupied lane at every
/// charge point would give, without walking the occupied lanes.
struct CohortClock {
    started: Instant,
    marked_us: f64,
    /// Wall charged so far to a lane occupied since the clock started
    /// (µs).
    share_us: f64,
}

impl CohortClock {
    fn start() -> Self {
        CohortClock {
            started: Instant::now(),
            marked_us: 0.0,
            share_us: 0.0,
        }
    }

    /// Charges the clock advanced since the last charge point to the
    /// `occupied` lanes, one equal share each. Call *before* a retiring
    /// lane leaves — it was occupied over the interval — and before its
    /// successor is loaded.
    fn charge(&mut self, occupied: u32) {
        let now_us = self.started.elapsed().as_secs_f64() * 1e6;
        let delta = now_us - self.marked_us;
        self.marked_us = now_us;
        if occupied > 0 {
            self.share_us += delta / f64::from(occupied);
        }
    }
}

/// The phases of a lane pass, in the order a batch cycle runs them.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Retirement, merging and refill at the top of a cycle, and the
    /// pass's warm start and first fill.
    Refill,
    /// The strategies' injections and ticks.
    Inject,
    /// The settle sweep.
    Settle,
    /// The observed ports against the golden trace.
    Compare,
    /// The clock edge.
    Edge,
    /// The strategies' removals after the edge.
    Remove,
    /// End of pass: the remaining clock charge, removals of outliving
    /// faults and the classification of the lanes still occupied.
    Classify,
}

/// The phase histograms a lane pass feeds (µs per pass), exported on
/// `/metrics` as `fades_phase_us{phase="lane_..."}`, in the order a
/// batch cycle runs them.
/// A pass's phases tile it: they add up to its [`PASS_TOTAL`].
pub const PASS_PHASES: [&str; 7] = [
    "lane.refill",
    "lane.inject",
    "lane.settle",
    "lane.compare",
    "lane.edge",
    "lane.remove",
    "lane.classify",
];

/// The histogram of whole lane passes (µs per pass), timed from entry to
/// return of the pass by its own clock, apart from the phases'.
pub const PASS_TOTAL: &str = "lane.pass";

/// Where a lane pass's wall clock went. While telemetry is enabled each
/// phase boundary takes one `Instant` and adds the time since the last
/// one to the phase that just ended, so the phases tile the pass; the
/// totals are recorded once, when the pass ends. Disabled, a lap is one
/// branch.
struct PhaseClock {
    last: Option<Instant>,
    ns: [u64; PASS_PHASES.len()],
}

impl PhaseClock {
    fn start() -> Self {
        PhaseClock {
            last: fades_telemetry::enabled().then(Instant::now),
            ns: [0; PASS_PHASES.len()],
        }
    }

    /// Ends `phase` now.
    #[inline(always)]
    fn lap(&mut self, phase: Phase) {
        if let Some(last) = &mut self.last {
            let now = Instant::now();
            self.ns[phase as usize] += (now - *last).as_nanos() as u64;
            *last = now;
        }
    }

    /// Ends the pass, its last phase ([`Phase::Classify`]) with it, and
    /// records each phase's total in its histogram, in µs. The phase
    /// boundaries are rounded, not each phase, so the phases' µs add up
    /// to the pass's.
    fn finish(mut self) {
        self.lap(Phase::Classify);
        if self.last.is_none() {
            return;
        }
        let us = |ns: u64| (ns + 500) / 1000;
        let (mut at_ns, mut at_us) = (0, 0);
        for (name, &ns) in PASS_PHASES.iter().zip(&self.ns) {
            at_ns += ns;
            fades_telemetry::span_phase(name).record(us(at_ns) - at_us);
            at_us = us(at_ns);
        }
    }
}

/// What a lane event does at the cycle it is filed under.
#[derive(Debug, Clone, Copy)]
enum LaneEvent {
    /// The strategy injects before the settle.
    Inject,
    /// The strategy removes the fault after the edge.
    Remove,
    /// The fault is gone from the top of the cycle on: the lane may
    /// retire.
    Inert,
}

/// The lane events of one pass, filed by cycle when a lane is loaded.
///
/// Each (cycle, event) bucket is a singly linked list of lanes threaded
/// through one array, so filing and reading an event costs O(1) and the
/// pass allocates nothing per cycle. Events filed outside the pass's
/// cycles never fire.
struct LaneSchedule {
    first: u64,
    heads: Vec<[u32; 3]>,
    /// `(lane, next)`; `next` is [`LaneSchedule::NIL`] at a list's end.
    links: Vec<(u32, u32)>,
}

impl LaneSchedule {
    const NIL: u32 = u32::MAX;

    fn new(first: u64, end: u64) -> Self {
        LaneSchedule {
            first,
            heads: vec![[Self::NIL; 3]; end.saturating_sub(first) as usize],
            links: Vec::new(),
        }
    }

    /// The bucket of `cycle`, if the pass runs it.
    fn bucket(&self, cycle: u64) -> Option<usize> {
        let i = usize::try_from(cycle.checked_sub(self.first)?).ok()?;
        (i < self.heads.len()).then_some(i)
    }

    fn file(&mut self, cycle: u64, event: LaneEvent, lane: usize) {
        let Some(i) = self.bucket(cycle) else { return };
        let head = &mut self.heads[i][event as usize];
        self.links.push((lane as u32, *head));
        *head = (self.links.len() - 1) as u32;
    }

    /// Files the events of the experiment `lane` takes at cycle `now`:
    /// its injection, its removal after the edge of the cycle before its
    /// fault is gone, and the cycle it turns inert. A lane loaded by a
    /// refill is first checked for retirement at the next cycle.
    fn load(&mut self, lane: usize, schedule: &FaultSchedule, now: u64, refill: bool) {
        self.file(schedule.inject_at, LaneEvent::Inject, lane);
        let gone = schedule.gone_at();
        if gone > now {
            self.file(gone - 1, LaneEvent::Remove, lane);
        }
        let first_check = if refill { now + 1 } else { now };
        self.file(gone.max(first_check), LaneEvent::Inert, lane);
    }

    /// The lanes with `event` at `cycle`, as a lane mask.
    fn lanes<const W: usize>(&self, cycle: u64, event: LaneEvent) -> Word<W> {
        let mut mask = Word::ZERO;
        let Some(i) = self.bucket(cycle) else {
            return mask;
        };
        let mut at = self.heads[i][event as usize];
        while at != Self::NIL {
            let (lane, next) = self.links[at as usize];
            mask.set_bit(lane as usize, true);
            at = next;
        }
        mask
    }
}

/// One occupied lane: the experiment it carries and its execution state.
struct LaneSlot<'p> {
    entry: LaneEntry<'p>,
    strategy: Box<dyn InjectionStrategy>,
    rng: StdRng,
    /// The cohort clock's per-lane share when this lane was loaded (µs).
    loaded_share_us: f64,
    /// The experiments of the lanes merged into this one, their results
    /// complete but for the outcome and early stop, which are this
    /// lane's.
    followers: Vec<(LaneEntry<'p>, ExperimentResult)>,
}

impl<'p> LaneSlot<'p> {
    fn new(entry: LaneEntry<'p>, sub_cycle: bool, clock: &CohortClock) -> Self {
        LaneSlot {
            entry,
            strategy: strategy_for(&entry.planned.fault, sub_cycle),
            rng: StdRng::seed_from_u64(entry.planned.seed),
            loaded_share_us: clock.share_us,
            followers: Vec::new(),
        }
    }

    /// This lane's result with `outcome`, its traffic as the lane's
    /// ledger holds it now and its wall share up to the clock's last
    /// charge.
    fn result<const W: usize>(
        &self,
        batch: &BatchDevice<W>,
        lane: usize,
        outcome: Outcome,
        early_stop_cycles: u64,
        clock: &CohortClock,
    ) -> (LaneEntry<'p>, ExperimentResult) {
        (
            self.entry,
            ExperimentResult {
                fault: self.entry.planned.fault.clone(),
                schedule: self.entry.planned.schedule,
                outcome,
                traffic: LedgerSummary::from(batch.ledger(lane)),
                strategy: self.strategy.name(),
                wall_us: (clock.share_us - self.loaded_share_us).round() as u64,
                skipped_cycles: 0,
                early_stop_cycles,
            },
        )
    }

    /// Merges this lane into `leader`, whose machine has reached the same
    /// state: this experiment and its followers become the leader's
    /// followers, to be decided with it.
    fn merge_into<const W: usize>(
        mut self,
        leader: &mut LaneSlot<'p>,
        batch: &BatchDevice<W>,
        lane: usize,
        clock: &CohortClock,
        phase: &Histogram,
    ) {
        // The outcome is a placeholder until the leader is decided.
        let (entry, result) = self.result(batch, lane, Outcome::Silent, 0, clock);
        trace_retirement(phase, entry.planned.index, result.wall_us);
        leader.followers.push((entry, result));
        leader.followers.append(&mut self.followers);
        fades_telemetry::sim::record_lane_merge();
    }

    /// Hands this lane's decided experiment, then its followers', to
    /// `sink`; returns how many experiments that was.
    fn decide<const W: usize>(
        self,
        batch: &BatchDevice<W>,
        lane: usize,
        outcome: Outcome,
        early_stop_cycles: u64,
        clock: &CohortClock,
        phase: &Histogram,
        sink: &mut dyn FnMut(LaneEntry<'p>, ExperimentResult),
    ) -> u64 {
        let (entry, result) = self.result(batch, lane, outcome, early_stop_cycles, clock);
        trace_retirement(phase, entry.planned.index, result.wall_us);
        sink(entry, result);
        let decided = 1 + self.followers.len() as u64;
        for (entry, mut result) in self.followers {
            result.outcome = outcome;
            result.early_stop_cycles = early_stop_cycles;
            sink(entry, result);
        }
        decided
    }
}

/// Deposits the per-experiment telemetry a lane retirement owes: the
/// `experiment` phase histogram entry and — when Chrome tracing is on —
/// a completed span of the lane's charged wall ending now. Lane spans
/// overlap on one thread (the word runs up to 511 experiments at once),
/// which the trace renders faithfully.
fn trace_retirement(phase: &Histogram, index: u64, wall_us: u64) {
    phase.record(wall_us);
    if fades_telemetry::trace::enabled() {
        fades_telemetry::trace::set_current_experiment(index);
        let end = fades_telemetry::trace::epoch_us();
        fades_telemetry::trace::record_span("experiment", end.saturating_sub(wall_us), wall_us);
        fades_telemetry::trace::set_current_experiment(fades_telemetry::trace::NO_EXPERIMENT);
    }
}

/// The lane-word width, in `u64`s, for a cohort of `n` lane entries: the
/// widest `W` ∈ {1, 2, 4, 8} whose `64 * W - 1` faulty lanes the cohort
/// fills at least twice over.
///
/// A sweep of a wider word costs more (a settle sweep of the 8051, each
/// width at its `fades_fpga::LaneKernel` level on an AVX-512 host, by
/// `fades-experiments kernels`: W=2 ~1.2×, W=4 ~1.3×, W=8 ~1.5× the W=1
/// cost), and it pays only while the extra lanes stay occupied. A
/// small cohort on a wide word would sweep mostly empty lanes, so shards
/// of a few dozen faults stay on the 64-lane word.
pub(crate) fn lane_word_width(n: usize) -> usize {
    [WIDEST_WORD, 4, 2]
        .into_iter()
        .find(|&w| n >= 2 * (64 * w - 1))
        .unwrap_or(1)
}

/// The widest lane word, in `u64`s.
const WIDEST_WORD: usize = 8;

/// The smallest cohort the lane engine runs on its widest word: that
/// word's `64 * W - 1` faulty lanes filled twice (1022 entries). A caller
/// that splits work into cohorts should not cut them smaller than this,
/// or a cohort that would fill the widest word splits into a full pass
/// plus a nearly empty one.
pub const WIDEST_WORD_COHORT: usize = 2 * (64 * WIDEST_WORD - 1);

/// How often, in cycles, a pass looks for lanes to merge.
const MERGE_PERIOD: u64 = 16;

/// The most sequential-state bits a lane may differ from the golden lane
/// in and still be compared for merging. Lanes that differ in more rarely
/// match another; the bound keeps the comparison to a few ids per lane.
const MERGE_MAX_BITS: usize = 2;

/// Groups the `candidates` by sequential state: `(lane, leader)` for
/// every candidate whose state equals that of a lower candidate, the
/// lowest lane of each group leading it.
fn find_merges<const W: usize>(batch: &BatchDevice<W>, candidates: Word<W>) -> Vec<(usize, usize)> {
    if candidates.count_ones() < 2 {
        return Vec::new();
    }
    let mut keyed = batch.divergence_keys::<MERGE_MAX_BITS>(candidates);
    keyed.sort_unstable_by(|(la, ka), (lb, kb)| ka.cmp(kb).then(la.cmp(lb)));
    keyed
        .chunk_by(|(_, a), (_, b)| a == b)
        .flat_map(|group| group[1..].iter().map(|&(lane, _)| (lane, group[0].0)))
        .collect()
}

/// Runs *one* pass of the lane engine over `pending`: fills the lanes in
/// order, retires, merges and refills until the run length is exhausted,
/// and hands each decided experiment to `sink` at the moment it is
/// decided — when its lane retires, or the lane it was merged into does
/// (not at cohort end — under the isolation contract the sink journals,
/// so a kill forfeits at most the in-flight word and the experiments
/// merged into it).
///
/// Every entry taken from `pending` is pushed to `loaded` *before* it
/// can influence the device — `loaded` is caller-owned so that when this
/// function panics (a poisoned fault, or the chaos hook), the caller
/// knows exactly which experiments were aboard the word, merged ones
/// included, and can replay the undecided ones scalar-isolated.
///
/// Returns the entries this pass could not take: those whose injection
/// instant had already passed when a lane freed up, plus everything
/// beyond the last refill. The caller loops until the return is empty.
///
/// Per-cycle bookkeeping reads the lane events filed for the cycle and a
/// few persistent lane masks, so its cost follows the events, not the
/// occupied lanes or the width of the word.
pub(crate) fn run_one_cohort<'p, const W: usize>(
    batch: &mut BatchDevice<W>,
    golden: &GoldenRun,
    port_wires: &[Vec<u32>],
    sub_cycle: bool,
    pending: &[LaneEntry<'p>],
    chaos: Option<ChaosPanic>,
    loaded: &mut Vec<LaneEntry<'p>>,
    sink: &mut dyn FnMut(LaneEntry<'p>, ExperimentResult),
) -> Result<Vec<LaneEntry<'p>>, CoreError> {
    let entered = fades_telemetry::enabled().then(Instant::now);
    let run_cycles = golden.cycles();
    let mut phases = PhaseClock::start();
    // Warm start: until its injection instant every lane *is* the golden
    // run, and `pending` arrives sorted by injection instant, so the
    // whole word can splat-restore the nearest golden checkpoint at or
    // before the cohort's earliest injection and skip the pristine
    // prefix. On refill passes (whose surviving entries inject late) the
    // skip multiplies. With no checkpoint past cycle 0 to restore, the
    // pass starts cold from `reset`.
    let checkpoint = pending
        .first()
        .and_then(|e| golden.checkpoint_at_or_before(e.planned.schedule.inject_at))
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
    let lanes = BatchDevice::<W>::LANES;
    let capacity = (lanes - 1) as u64;
    let mut clock = CohortClock::start();
    let mut slots: Vec<Option<LaneSlot<'p>>> = (0..lanes).map(|_| None).collect();
    let mut events = LaneSchedule::new(start_cycle, run_cycles);
    // Persistent lane masks, none of which includes the golden lane 0:
    // the occupied lanes; those whose fault is gone (they may retire);
    // those whose installed fault ticks this cycle (set at injection,
    // cleared at removal, so a permanent fault ticks to the end); and
    // those whose observed ports have diverged from the golden run.
    let mut occ = Word::<W>::ZERO;
    let mut inert = Word::<W>::ZERO;
    let mut ticking = Word::<W>::ZERO;
    let mut failed = Word::<W>::ZERO;
    let experiment_phase = fades_telemetry::span_phase("experiment");
    let mut cursor = 0usize;
    let mut leftovers: Vec<LaneEntry<'p>> = Vec::new();
    for (lane, slot) in slots.iter_mut().enumerate().skip(1) {
        let Some(&entry) = pending.get(cursor) else {
            break;
        };
        cursor += 1;
        loaded.push(entry);
        *slot = Some(LaneSlot::new(entry, sub_cycle, &clock));
        events.load(lane, &entry.planned.schedule, start_cycle, false);
        occ.set_bit(lane, true);
    }

    for cycle in start_cycle..run_cycles {
        // Retire reconverged lanes at the top of the cycle (the batch
        // analogue of the scalar early-stop hash check, by true
        // equality — equal state and pristine config imply the hash
        // check passes too). A lane retires only once inert, after all
        // of its events have fired, so none reaches its successor.
        inert |= events.lanes(cycle, LaneEvent::Inert);
        if !inert.is_zero() {
            let conf = batch.config_divergence();
            // Decided-lane shortcut: a port-diverged lane's outcome is
            // locked (Failure), and once its fault is inert and its
            // configuration pristine nothing it does from here on is
            // observable — outcome, traffic and modelled time are all
            // fixed. Snap it onto the golden trajectory so the ordinary
            // reconvergence retirement below fires right now instead of
            // dragging a hard-diverged machine to the end of the pass.
            for lane in (inert & !conf & failed).ones() {
                batch.snap_lane_to_golden(lane);
            }
            let mut seq = batch.seq_divergence();
            // Lane merging: two inert, behaviourally pristine lanes
            // that have not failed and hold the same sequential state
            // evolve identically from here on, so one lane can carry
            // both. The merged-away lane snaps to golden and retires
            // below like a reconverged one; its experiment is decided
            // with the lane that carries it. A freed lane pays only if
            // a pending entry can still take it.
            let merges = if cycle % MERGE_PERIOD == 0
                && pending[cursor..]
                    .last()
                    .is_some_and(|e| e.planned.schedule.inject_at >= cycle)
            {
                find_merges(batch, inert & !conf & !failed & seq)
            } else {
                Vec::new()
            };
            for &(lane, _) in &merges {
                batch.snap_lane_to_golden(lane);
                seq.set_bit(lane, false);
            }
            let will_retire = inert & !seq & !conf;
            if !will_retire.is_zero() {
                // Charge the shared clock before the retiring lanes
                // leave — they were occupied over the elapsed interval.
                clock.charge(occ.count_ones());
                for &(lane, leader) in &merges {
                    let (Some(slot), Some(leader)) = (slots[lane].take(), slots[leader].as_mut())
                    else {
                        unreachable!("merged lanes are occupied");
                    };
                    slot.merge_into(leader, batch, lane, &clock, &experiment_phase);
                }
                for lane in will_retire.ones() {
                    // An inert lane's removal has fired, so it no
                    // longer ticks.
                    debug_assert!(!ticking.bit(lane), "lane {lane} retires ticking");
                    let outcome = if failed.bit(lane) {
                        Outcome::Failure
                    } else {
                        Outcome::Silent
                    };
                    for mask in [&mut occ, &mut inert, &mut failed] {
                        mask.set_bit(lane, false);
                    }
                    // A merged-away lane's experiment went to its leader.
                    if let Some(slot) = slots[lane].take() {
                        let decided = slot.decide(
                            batch,
                            lane,
                            outcome,
                            run_cycles - cycle,
                            &clock,
                            &experiment_phase,
                            sink,
                        );
                        fades_telemetry::sim::record_lane_retirement(decided);
                    }
                    // Refill: skip entries whose injection instant has
                    // already passed (they wait for the next pass).
                    while pending
                        .get(cursor)
                        .is_some_and(|e| e.planned.schedule.inject_at < cycle)
                    {
                        leftovers.push(pending[cursor]);
                        cursor += 1;
                    }
                    if let Some(&entry) = pending.get(cursor) {
                        cursor += 1;
                        batch.refill_lane(lane);
                        loaded.push(entry);
                        slots[lane] = Some(LaneSlot::new(entry, sub_cycle, &clock));
                        events.load(lane, &entry.planned.schedule, cycle, true);
                        occ.set_bit(lane, true);
                    }
                }
            }
        }
        phases.lap(Phase::Refill);
        if occ.is_zero() {
            break;
        }
        // This cycle's strategy calls: injections, then ticks of
        // installed faults. Every fault lasts at least a cycle (an
        // entry whose schedule fails `FaultSchedule::check` never takes
        // a lane), so a lane turns inert only after its injection has
        // fired, and no event reaches a successor.
        let inject = events.lanes::<W>(cycle, LaneEvent::Inject);
        for lane in (inject | ticking).ones() {
            let Some(s) = &mut slots[lane] else { continue };
            if inject.bit(lane) {
                let planned = s.entry.planned;
                debug_assert_eq!(planned.schedule.inject_at, cycle, "lane {lane}");
                if let Some(c) = chaos {
                    c.maybe_panic(planned.index, 0);
                }
                s.strategy.inject(&mut batch.lane(lane), &mut s.rng)?;
                ticking.set_bit(lane, cycle + 1 < planned.schedule.gone_at());
            } else {
                s.strategy.tick(&mut batch.lane(lane), &mut s.rng)?;
            }
        }
        phases.lap(Phase::Inject);
        batch.settle();
        phases.lap(Phase::Settle);
        failed |= match golden.trace().row(cycle as usize) {
            Some(row) => {
                let mut diff = Word::<W>::ZERO;
                for (wires, &g) in port_wires.iter().zip(row) {
                    diff |= batch.port_divergence(wires, g);
                }
                diff & occ
            }
            None => occ,
        };
        phases.lap(Phase::Compare);
        batch.clock_edge();
        fades_telemetry::sim::record_lane_cycle(u64::from(occ.count_ones()), capacity);
        phases.lap(Phase::Edge);
        for lane in events.lanes::<W>(cycle, LaneEvent::Remove).ones() {
            if let Some(s) = &mut slots[lane] {
                ticking.set_bit(lane, false);
                s.strategy.remove(&mut batch.lane(lane))?;
            }
        }
        phases.lap(Phase::Remove);
    }

    // Lanes still occupied at the end of the pass: charge the remaining
    // shared clock, remove an outliving fault (its removal traffic
    // belongs to this experiment's ledger, exactly as in the scalar
    // flow), then classify against the golden final state.
    if !occ.is_zero() {
        clock.charge(occ.count_ones());
    }
    // Latent classification compares each lane's final state with the
    // golden run's. Lane 0 ran the golden trajectory, so once its state
    // is the golden final state, the state-divergence mask answers for
    // every lane (refreshed after a removal, which may write the lane's
    // state); otherwise compare lane by lane.
    let lane0_final =
        !occ.is_zero() && batch.state_snapshot_lane(0).as_slice() == golden.final_state();
    let mut state_div = batch.state_divergence();
    for lane in occ.ones() {
        let Some(mut slot) = slots[lane].take() else {
            continue;
        };
        if slot.entry.planned.schedule.outlives(run_cycles) {
            slot.strategy.remove(&mut batch.lane(lane))?;
            state_div = batch.state_divergence();
        }
        let latent = if lane0_final {
            state_div.bit(lane)
        } else {
            batch.state_snapshot_lane(lane).as_slice() != golden.final_state()
        };
        let outcome = if failed.bit(lane) {
            Outcome::Failure
        } else if latent {
            Outcome::Latent
        } else {
            Outcome::Silent
        };
        slot.decide(batch, lane, outcome, 0, &clock, &experiment_phase, sink);
    }
    phases.finish();

    leftovers.extend_from_slice(&pending[cursor..]);
    if let Some(entered) = entered {
        fades_telemetry::span_phase(PASS_TOTAL).record(entered.elapsed().as_micros() as u64);
    }
    Ok(leftovers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, CampaignConfig, DurationRange, FaultLoad, PermanentFault, TargetClass};

    #[test]
    fn lane_word_width_takes_the_widest_word_filled_twice() {
        for (n, w) in [
            (0, 1),
            (63, 1),
            (253, 1),
            (254, 2),
            (509, 2),
            (510, 4),
            (1021, 4),
            (1022, 8),
            (3000, 8),
        ] {
            assert_eq!(lane_word_width(n), w, "{n} lane entries");
        }
        assert_eq!(lane_word_width(WIDEST_WORD_COHORT), WIDEST_WORD);
        assert!(lane_word_width(WIDEST_WORD_COHORT - 1) < WIDEST_WORD);
    }

    /// Runs `plan` through the campaign's lane driver on a width-`W`
    /// word.
    fn run_width<const W: usize>(
        campaign: &Campaign<'_>,
        plan: &crate::CampaignPlan,
    ) -> Vec<String> {
        campaign
            .drive(plan, None, crate::campaign::ExecMode::FailFast, Some(|_| W))
            .expect("lane run")
            .iter()
            .map(observable)
            .collect()
    }

    /// Everything of a verdict except its wall-clock share.
    fn observable(v: &crate::ExperimentVerdict) -> String {
        let e = v.result().expect("fail-fast runs complete");
        format!(
            "{} {:?} {:?} {:?} {:?} {} {} {}",
            v.index(),
            e.fault,
            e.schedule,
            e.outcome,
            e.traffic,
            e.strategy,
            e.skipped_cycles,
            e.early_stop_cycles
        )
    }

    /// The word width is a host-side packing choice: one plan per
    /// lane-expressible fault type gives the same results, traffic
    /// included, on 64-, 128-, 256- and 512-lane words.
    #[test]
    fn every_word_width_gives_identical_results() {
        use fades_mcu8051::{build_soc, workloads, OBSERVED_PORTS};
        let w = workloads::fibonacci();
        let soc = build_soc(&w.rom).expect("soc");
        let imp = fades_pnr::implement(&soc.netlist, fades_fpga::ArchParams::virtex1000_like())
            .expect("implements");
        let config = CampaignConfig {
            threads: 1,
            static_preclassify: false,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::with_config(&soc.netlist, imp, &OBSERVED_PORTS, 400, config)
            .expect("campaign");
        let memory = TargetClass::MemoryBits {
            name: "iram".into(),
            lo: w.data_range.0 as usize,
            hi: w.data_range.1 as usize,
        };
        let loads = [
            (
                "FfBitFlip",
                FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle),
            ),
            (
                "MemBitFlip",
                FaultLoad::bit_flips(memory, DurationRange::SubCycle),
            ),
            (
                "MultiFfBitFlip",
                FaultLoad::multiple_bit_flips(TargetClass::AllFfs, 3),
            ),
            (
                "LutPulse",
                FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT),
            ),
            (
                "CbInputPulse",
                FaultLoad::pulses(TargetClass::CbInputs, DurationRange::SHORT),
            ),
            (
                "FfIndet",
                FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::SHORT, false),
            ),
            (
                "LutIndet",
                FaultLoad::indeterminations(TargetClass::AllLuts, DurationRange::SHORT, false),
            ),
            (
                "Permanent",
                FaultLoad::permanent(PermanentFault::StuckAt, TargetClass::AllLuts),
            ),
        ];
        for (kind, load) in loads {
            // More entries than a 64-lane word holds, so the widths split
            // the plan into different cohorts and refills.
            let plan = campaign.plan(&load, 150, 31).expect("plan");
            assert_widths_agree(&campaign, kind, &plan);
        }
        // Memory flips collapse by golden access before they take a lane;
        // every width collapses the same plan the same way, and the
        // members take their lane's early stop.
        let memory = TargetClass::MemoryBits {
            name: "iram".into(),
            lo: w.data_range.0 as usize,
            hi: w.data_range.1 as usize,
        };
        let load = FaultLoad::bit_flips(memory, DurationRange::SubCycle);
        let plan = campaign.plan(&load, 700, 32).expect("plan");
        let collapsed = fades_telemetry::sim::FLIPS_COLLAPSED.get();
        assert_widths_agree(&campaign, "MemBitFlip", &plan);
        assert!(
            fades_telemetry::sim::FLIPS_COLLAPSED.get() > collapsed,
            "no memory flip was collapsed"
        );
        // Enough flip-flop flips that entries still wait for a lane on
        // every width while lanes reach the same state: lanes merge, each
        // width at its own cycles and into its own leaders. (Memory flips
        // that would merge now mostly collapse before they take a lane.)
        let merges = fades_telemetry::sim::LANE_MERGES.get();
        let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
        let plan = campaign.plan(&load, 700, 32).expect("plan");
        assert_widths_agree(&campaign, "FfBitFlip", &plan);
        assert!(
            fades_telemetry::sim::LANE_MERGES.get() > merges,
            "no lane was merged"
        );
    }

    /// Runs `plan` on 64-, 128-, 256- and 512-lane words and asserts every
    /// result agrees, traffic and early stop included.
    fn assert_widths_agree(campaign: &Campaign<'_>, kind: &str, plan: &crate::CampaignPlan) {
        assert!(
            plan.experiments.iter().all(|e| lane_expressible(&e.fault)),
            "{kind}"
        );
        assert!(
            plan.experiments
                .iter()
                .all(|e| format!("{:?}", e.fault).starts_with(kind)),
            "{kind}: the load resolves to {:?}",
            plan.experiments[0].fault
        );
        let w1 = run_width::<1>(campaign, plan);
        assert_eq!(w1.len(), plan.len(), "{kind}");
        assert_eq!(w1, run_width::<2>(campaign, plan), "{kind}: 128-lane word");
        assert_eq!(w1, run_width::<4>(campaign, plan), "{kind}: 256-lane word");
        assert_eq!(w1, run_width::<8>(campaign, plan), "{kind}: 512-lane word");
    }
}
