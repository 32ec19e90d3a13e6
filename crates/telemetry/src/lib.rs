//! Zero-dependency observability for FADES campaigns.
//!
//! The paper's headline result is a *cost* claim — emulation time per
//! fault (Fig. 10, Table 2) — so the reproduction needs to see where
//! wall-clock time actually goes inside a campaign. This crate provides
//! the measurement substrate, built on `std` only (atomics, [`Instant`],
//! `mpsc`):
//!
//! * [`Counter`] / [`Gauge`] — lock-free `AtomicU64` metrics.
//! * [`Histogram`] — a fixed 64-bucket log₂ latency histogram with
//!   p50/p90/p99 readout, safe to hammer from many threads.
//! * [`span!`] — lightweight scope guards that feed per-phase wall-clock
//!   histograms (`let _s = span!("implement");`).
//! * [`Recorder`] — campaign workers send one [`ExperimentRecord`] per
//!   experiment over an `mpsc` channel; [`Recorder::finish`] aggregates
//!   them into a [`CampaignAggregate`].
//! * Two sinks: the human [`Summary`] table, and a JSONL run log (one
//!   line per experiment plus a trailing aggregate line) activated by
//!   `FADES_RUN_LOG=<path>`.
//! * [`write_bench_json`] — machine-readable `BENCH_campaign.json`
//!   aggregate (faults/sec, mean µs/fault) for tracking the performance
//!   trajectory across PRs.
//! * [`snapshot()`] — a point-in-time capture of every counter, gauge and
//!   phase histogram, renderable as Prometheus text or JSON.
//! * [`trace`] — completed spans recorded into a bounded lock-free ring
//!   buffer and exported as Chrome `trace_event` JSON
//!   (`FADES_TRACE_OUT=<path>`), loadable in Perfetto.
//! * [`serve`] — a std-only background HTTP thread answering
//!   `GET /metrics` and `GET /status` (`FADES_METRICS_ADDR=<addr>`).
//! * [`monitor`] — live campaign progress ([`status_snapshot`]) and a
//!   watchdog thread flagging stalls, quarantine spikes and
//!   lane-occupancy collapse (`FADES_WATCHDOG_MS=<deadline>`).
//!
//! Campaign-independent hot paths (the netlist interpreter) report
//! through the [`sim`] counters, which compile to an `#[inline]` relaxed
//! load plus nothing when telemetry is disabled (the default).
//!
//! [`Instant`]: std::time::Instant

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)
)]

mod counter;
mod histogram;
pub mod json;
pub mod monitor;
mod record;
mod registry;
mod runlog;
pub mod serve;
mod snapshot;
mod span;
mod summary;
pub mod trace;

pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot};
pub use monitor::{
    report_anomaly, start_watchdog, start_watchdog_from_env, status_snapshot, StatusSnapshot,
    WatchdogConfig, WatchdogHandle,
};
pub use record::{CampaignAggregate, ExperimentRecord, OutcomeCounts, Recorder, RecorderHandle};
pub use registry::{
    atomic_write, drain_aggregates, peek_aggregates, push_aggregate, write_bench_json,
};
pub use runlog::{log_raw_line, run_log_path};
pub use serve::{
    http_get, http_post, metrics_router, HttpHandler, HttpRequest, HttpResponse, HttpServer,
    MetricsServer,
};
pub use snapshot::{register_counter, register_gauge, snapshot, MetricsSnapshot};
#[doc(hidden)]
pub use span::span_phase;
pub use span::{phase_snapshots, reset_phases, SpanGuard};
pub use summary::Summary;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables the optional hot-path instrumentation
/// (the [`sim`] counters). Campaign recorders and spans are always live —
/// their cost is per-experiment, not per-cycle.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether hot-path instrumentation is on. A single relaxed load —
/// callers on hot paths should branch on this and do nothing when it is
/// `false`.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Hot-path counters for the netlist interpreter and device emulation.
///
/// All increments are gated on [`enabled`], so the disabled cost is one
/// relaxed bool load per `settle` — unobservable next to evaluating
/// hundreds of LUTs (verified by `crates/bench`'s
/// `telemetry_overhead` microbench).
pub mod sim {
    use super::{Counter, Gauge};

    /// Clock cycles executed by netlist simulators.
    pub static CYCLES: Counter = Counter::new();
    /// Combinational cell evaluations performed during `settle`.
    pub static CELL_EVALS: Counter = Counter::new();

    /// Records one settle pass over `evals` combinational cells.
    /// No-op unless telemetry is enabled.
    #[inline(always)]
    pub fn record_settle(evals: u64) {
        if super::enabled() {
            CELL_EVALS.add(evals);
        }
    }

    /// Records one clock edge. No-op unless telemetry is enabled.
    #[inline(always)]
    pub fn record_clock_edge() {
        if super::enabled() {
            CYCLES.inc();
        }
    }

    /// Faulty-lane cycles executed by the bit-parallel lane engine
    /// (occupied lanes × batch cycles; the golden lane is not counted).
    pub static LANE_CYCLES: Counter = Counter::new();
    /// Cycles executed by the lane engine (each advances every lane of
    /// its word).
    pub static BATCH_CYCLES: Counter = Counter::new();
    /// Faulty-lane capacity summed over batch cycles: `64 * W - 1` per
    /// cycle of a `W`-word engine. `LANE_CYCLES / LANE_SLOTS` is the mean
    /// fill of the lane words, comparable across word widths.
    pub static LANE_SLOTS: Counter = Counter::new();
    /// Experiments decided early, before the end of their pass: their
    /// lane reconverged with the golden lane, or the lane they were
    /// merged into did.
    pub static LANE_RETIREMENTS: Counter = Counter::new();
    /// Lanes merged into another lane whose machine reached the same
    /// state: the other lane carries both experiments from then on, and
    /// the merged lane is freed for a pending one.
    pub static LANE_MERGES: Counter = Counter::new();
    /// Vector width in bits of the instruction-set level the last lane
    /// engine built runs its per-cycle loops at (128, 256 or 512; it
    /// depends on the host and the engine's word width); 0 until one is
    /// built.
    pub static LANE_KERNEL_BITS: Gauge = Gauge::new();
    /// Engines campaigns built for a call: lane engines built on a
    /// campaign's lane program, and scalar devices cloned from its
    /// configured device (a retry's fresh device and a poisoned pass's
    /// fresh engine included).
    pub static ENGINE_BUILDS: Counter = Counter::new();
    /// Engines a call took from its campaign's pool of idle engines
    /// instead of building one.
    pub static ENGINE_REUSES: Counter = Counter::new();

    /// Records one batch cycle over `occupied` of `capacity` faulty lanes
    /// (`LANE_CYCLES / BATCH_CYCLES` is the mean lane occupancy,
    /// `LANE_CYCLES / LANE_SLOTS` the mean fill). Always live — three
    /// adds per batch *cycle*, not per lane.
    #[inline(always)]
    pub fn record_lane_cycle(occupied: u64, capacity: u64) {
        LANE_CYCLES.add(occupied);
        LANE_SLOTS.add(capacity);
        BATCH_CYCLES.inc();
    }

    /// Records `experiments` decided by one lane retiring early on golden
    /// reconvergence: the lane's own and those merged into it.
    #[inline(always)]
    pub fn record_lane_retirement(experiments: u64) {
        LANE_RETIREMENTS.add(experiments);
    }

    /// Records one lane merged into another. Always live — one add per
    /// merge.
    #[inline(always)]
    pub fn record_lane_merge() {
        LANE_MERGES.inc();
    }

    /// Memory bit-flips decided with the member of their golden-access
    /// class that took a lane: the same faulty machine, simulated once.
    pub static FLIPS_COLLAPSED: Counter = Counter::new();
    /// Memory bit-flips of a word the golden run never selects again,
    /// decided Latent without a lane.
    pub static FLIPS_DECIDED: Counter = Counter::new();

    /// Records `flips` memory bit-flips decided with their class's lane.
    /// Always live — one add per lane entry decided.
    #[inline(always)]
    pub fn record_flips_collapsed(flips: u64) {
        FLIPS_COLLAPSED.add(flips);
    }

    /// Records one memory bit-flip decided Latent without a lane. Always
    /// live — one add per such flip.
    #[inline(always)]
    pub fn record_flip_decided() {
        FLIPS_DECIDED.inc();
    }

    /// Always 0: the lane engine's settle evaluates every combinational
    /// node. Retained only because the benchmark reads it; not exported
    /// on `/metrics`.
    pub static EVALS_SKIPPED: Counter = Counter::new();
    /// Golden-prefix cycles cohort passes skipped by restoring a
    /// checkpoint instead of replaying from cycle 0.
    pub static WARM_SKIPPED_CYCLES: Counter = Counter::new();

    /// Records one cohort pass warm-started past `cycles` golden-prefix
    /// cycles. Always live — one add per cohort *pass*.
    #[inline(always)]
    pub fn record_warm_start(cycles: u64) {
        WARM_SKIPPED_CYCLES.add(cycles);
    }

    /// Resets all counters (between benchmark sections).
    pub fn reset() {
        CYCLES.reset();
        CELL_EVALS.reset();
        LANE_CYCLES.reset();
        BATCH_CYCLES.reset();
        LANE_SLOTS.reset();
        LANE_RETIREMENTS.reset();
        LANE_MERGES.reset();
        FLIPS_COLLAPSED.reset();
        FLIPS_DECIDED.reset();
        EVALS_SKIPPED.reset();
        WARM_SKIPPED_CYCLES.reset();
        ENGINE_BUILDS.reset();
        ENGINE_REUSES.reset();
    }
}

/// Process-wide counters for the checkpointed fast-forward experiment
/// path (golden-prefix skipping, early-stop convergence detection,
/// fail-stop and timing-neutral delays).
///
/// Unlike [`sim`], these are always live: they cost one atomic add per
/// *experiment*, not per cycle, and campaign-level visibility into how
/// much work the fast path avoided is wanted even when hot-path
/// instrumentation is off.
pub mod fastpath {
    use super::Counter;

    /// Experiments that fast-forwarded over the golden prefix by
    /// restoring a checkpoint.
    pub static FAST_FORWARDED: Counter = Counter::new();
    /// Experiments that stopped early, on golden-state convergence or at
    /// a locked Failure.
    pub static EARLY_STOPPED: Counter = Counter::new();
    /// Golden-prefix cycles skipped via checkpoint restoration.
    pub static PREFIX_CYCLES_SKIPPED: Counter = Counter::new();
    /// Tail cycles skipped via early stop and fail-stop.
    pub static EARLY_STOP_CYCLES_SKIPPED: Counter = Counter::new();
    /// Routing delays decided Silent before the prefix because they
    /// leave every flip-flop and write-port overshoot pristine.
    pub static DELAYS_DECIDED: Counter = Counter::new();
    /// Experiments stopped as `Failure` once their fault was gone and
    /// their observed trace had diverged.
    pub static FAILURE_STOPS: Counter = Counter::new();

    /// Records one finished experiment's fast-path savings (either count
    /// may be zero; zero-cycle components are not counted as engagement).
    pub fn record_experiment(prefix_skipped: u64, early_stop_skipped: u64) {
        if prefix_skipped > 0 {
            FAST_FORWARDED.inc();
            PREFIX_CYCLES_SKIPPED.add(prefix_skipped);
        }
        if early_stop_skipped > 0 {
            EARLY_STOPPED.inc();
            EARLY_STOP_CYCLES_SKIPPED.add(early_stop_skipped);
        }
    }

    /// Resets all counters (between benchmark sections or tests).
    pub fn reset() {
        FAST_FORWARDED.reset();
        EARLY_STOPPED.reset();
        PREFIX_CYCLES_SKIPPED.reset();
        EARLY_STOP_CYCLES_SKIPPED.reset();
        DELAYS_DECIDED.reset();
        FAILURE_STOPS.reset();
    }
}

/// Process-wide counters for the sharded/resumable campaign dispatcher
/// (`fades-dispatch`): how much work was retried after a contained
/// failure, set aside as unrunnable, or skipped because a journal
/// already recorded it.
///
/// Like [`fastpath`], these are always live — one atomic add per
/// retried/quarantined/skipped *experiment*, so visibility costs nothing
/// on the happy path.
pub mod dispatch {
    use super::Counter;

    /// Experiment attempts re-run after a contained panic or error.
    pub static RETRIES: Counter = Counter::new();
    /// Experiments quarantined after exhausting their attempts.
    pub static QUARANTINES: Counter = Counter::new();
    /// Experiments skipped on resume because the journal already held
    /// their outcome.
    pub static RESUME_SKIPPED: Counter = Counter::new();

    /// Resets all three counters (between runs or tests).
    pub fn reset() {
        RETRIES.reset();
        QUARANTINES.reset();
        RESUME_SKIPPED.reset();
    }
}

/// Process-wide counters for the pre-execution static analysis layer
/// (`fades-analysis`): how many planned experiments the cone-of-influence
/// pre-classifier proved Silent without running them, how many findings
/// the structural linter reported, and how often the lane engine refused
/// a design and fell back to scalar execution.
///
/// Always live — one atomic add per experiment/diagnostic/campaign, never
/// per cycle.
pub mod analysis {
    use super::Counter;

    /// Experiments classified Silent at plan time and skipped at
    /// execution (their modelled cost is still charged).
    pub static STATIC_SILENT: Counter = Counter::new();
    /// Diagnostics emitted by reporting lint passes.
    pub static LINT_DIAGNOSTICS: Counter = Counter::new();
    /// Lane calls that fell back to the scalar engine because the design
    /// cannot be lane-encoded (see the `lane-obstacle` lint rule): one per
    /// call, though the campaign decides it once.
    pub static LANE_FALLBACKS: Counter = Counter::new();

    /// Resets all three counters (between runs or tests).
    pub fn reset() {
        STATIC_SILENT.reset();
        LINT_DIAGNOSTICS.reset();
        LANE_FALLBACKS.reset();
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_flag_round_trips() {
        assert!(!super::enabled());
        super::set_enabled(true);
        assert!(super::enabled());
        super::sim::record_clock_edge();
        super::sim::record_settle(10);
        assert!(super::sim::CYCLES.get() >= 1);
        assert!(super::sim::CELL_EVALS.get() >= 10);
        super::set_enabled(false);
        super::sim::reset();
    }
}
