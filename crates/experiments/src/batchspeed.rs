//! Lane-engine speed-up: the same single-threaded FF bit-flip campaign
//! executed scalar (one faulty machine at a time) and batched (up to 511
//! faulty machines plus golden per lane word, the word sized to the
//! campaign: 63 lanes at 64 faults, 255 from 510, 511 from 1022).
//!
//! Both runs feed the telemetry recorder under distinct labels, so
//! `BENCH_campaign.json` reports `faults_per_sec` for each and the ratio
//! tracks the lane engine's payoff across PRs. The section also
//! re-asserts the equivalence contract on the spot: identical outcome
//! tallies and bit-identical modelled emulation seconds.

use std::time::Instant;

use fades_core::{
    Campaign, CampaignConfig, CampaignStats, CoreError, DurationRange, FaultLoad, TargetClass,
};
use fades_mcu8051::OBSERVED_PORTS;
use fades_telemetry::Recorder;

use crate::context::ExperimentContext;
use crate::tablefmt::TextTable;

/// One execution path's measurement.
#[derive(Debug, Clone)]
pub struct PathRow {
    /// Execution path name.
    pub path: &'static str,
    /// Faults emulated per host wall-clock second.
    pub faults_per_sec: f64,
    /// Mean modelled seconds per fault (must agree across paths).
    pub modelled_s_per_fault: f64,
    /// Failure percentage (must agree across paths).
    pub failure_pct: f64,
}

/// The regenerated comparison.
#[derive(Debug, Clone)]
pub struct BatchSpeedResult {
    /// Scalar row then batched row.
    pub rows: Vec<PathRow>,
    /// Host wall-clock speed-up of the batched path over scalar.
    pub speedup: f64,
    /// Mean occupied lanes per batch cycle.
    pub mean_lane_occupancy: f64,
    /// Lanes retired early on golden reconvergence.
    pub lane_retirements: u64,
}

/// Runs the scalar and batched campaigns and checks their equivalence.
///
/// With `threads > 1`, a third multi-thread batched run (`threads`
/// cohort workers over `BatchDevice` clones) is measured and recorded
/// under the `ff-flip-batched-mt` label — so `BENCH_campaign.json`
/// carries all three rows — and asserted bit-identical as well.
///
/// # Errors
///
/// Propagates campaign errors, and reports a corrupted-equivalence error
/// if the paths disagree (they must be bit-identical).
pub fn run(
    ctx: &ExperimentContext,
    n_faults: usize,
    seed: u64,
    threads: usize,
) -> Result<BatchSpeedResult, CoreError> {
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    let campaign = Campaign::with_config(
        &ctx.soc().netlist,
        ctx.implementation().clone(),
        &OBSERVED_PORTS,
        ctx.workload_cycles(),
        CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        },
    )?;

    let t0 = Instant::now();
    let scalar = campaign.run_named("ff-flip-scalar", &load, n_faults, seed)?;
    let scalar_wall = t0.elapsed().as_secs_f64();

    fades_telemetry::sim::LANE_CYCLES.reset();
    fades_telemetry::sim::BATCH_CYCLES.reset();
    fades_telemetry::sim::LANE_RETIREMENTS.reset();
    let t1 = Instant::now();
    let batched = run_batched(&campaign, "ff-flip-batched", &load, n_faults, seed)?;
    let batched_wall = t1.elapsed().as_secs_f64();

    assert_equivalent(&scalar, &batched);
    assert_batched_wall_cheaper("ff-flip-scalar", "ff-flip-batched");

    let lane_cycles = fades_telemetry::sim::LANE_CYCLES.get();
    let batch_cycles = fades_telemetry::sim::BATCH_CYCLES.get();
    let mut rows = vec![
        row("scalar", &scalar, n_faults, scalar_wall),
        row("batched (lane engine)", &batched, n_faults, batched_wall),
    ];

    if threads > 1 {
        let mt_campaign = Campaign::with_config(
            &ctx.soc().netlist,
            ctx.implementation().clone(),
            &OBSERVED_PORTS,
            ctx.workload_cycles(),
            CampaignConfig {
                threads,
                ..CampaignConfig::default()
            },
        )?;
        let t2 = Instant::now();
        let batched_mt = run_batched(&mt_campaign, "ff-flip-batched-mt", &load, n_faults, seed)?;
        let mt_wall = t2.elapsed().as_secs_f64();
        assert_equivalent(&scalar, &batched_mt);
        rows.push(row("batched, multi-thread", &batched_mt, n_faults, mt_wall));
    }

    Ok(BatchSpeedResult {
        rows,
        speedup: if batched_wall > 0.0 {
            scalar_wall / batched_wall
        } else {
            f64::INFINITY
        },
        mean_lane_occupancy: if batch_cycles > 0 {
            lane_cycles as f64 / batch_cycles as f64
        } else {
            0.0
        },
        lane_retirements: fades_telemetry::sim::LANE_RETIREMENTS.get(),
    })
}

/// Plans `n` faults of `load` and runs them through
/// [`Campaign::execute_batched`], recorded under `label` as
/// [`Campaign::run_named`] records a scalar run.
fn run_batched(
    campaign: &Campaign<'_>,
    label: &str,
    load: &FaultLoad,
    n: usize,
    seed: u64,
) -> Result<CampaignStats, CoreError> {
    let plan = campaign.plan(load, n, seed)?;
    let recorder = Recorder::new(label, n, campaign.config().threads.max(1).min(n.max(1)));
    let results = campaign.execute_batched(&plan, Some(&recorder))?;
    recorder.finish();
    let mut stats = CampaignStats::default();
    for r in &results {
        let seconds = campaign
            .time_model()
            .experiment_seconds(&r.traffic, campaign.golden().cycles());
        stats.accumulate(r.outcome, seconds);
    }
    Ok(stats)
}

fn row(path: &'static str, stats: &CampaignStats, n: usize, wall_s: f64) -> PathRow {
    PathRow {
        path,
        faults_per_sec: if wall_s > 0.0 { n as f64 / wall_s } else { 0.0 },
        modelled_s_per_fault: stats.mean_seconds_per_fault(),
        failure_pct: stats.outcomes.failure_pct(),
    }
}

/// Asserts the recorded per-fault host cost of the batched campaign is
/// below the scalar one. With shared-clock wall attribution (each lane
/// is charged its *share* of the cohort clock, not the word's whole
/// residency), lane-parallel execution must come out cheaper per fault — this
/// is the regression guard for the lane wall-time overcounting bug,
/// checked against the same aggregates that land in
/// `BENCH_campaign.json`.
fn assert_batched_wall_cheaper(scalar_label: &str, batched_label: &str) {
    let aggregates = fades_telemetry::peek_aggregates();
    let mean_us = |label: &str| {
        aggregates
            .iter()
            .rev()
            .find(|a| a.name == label)
            .map(fades_telemetry::CampaignAggregate::mean_us_per_fault)
    };
    if let (Some(scalar_us), Some(batched_us)) = (mean_us(scalar_label), mean_us(batched_label)) {
        assert!(
            batched_us < scalar_us,
            "batched mean_us_per_fault ({batched_us:.1}) must be below scalar \
             ({scalar_us:.1}): lane wall attribution regressed"
        );
    }
}

fn assert_equivalent(scalar: &CampaignStats, batched: &CampaignStats) {
    assert_eq!(
        scalar.outcomes, batched.outcomes,
        "lane engine diverged from the scalar path: outcome tallies differ"
    );
    assert_eq!(
        scalar.emulation_seconds.to_bits(),
        batched.emulation_seconds.to_bits(),
        "lane engine diverged from the scalar path: modelled time differs"
    );
}

impl BatchSpeedResult {
    /// Renders the comparison.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&["path", "faults/s (host)", "s/fault (model)", "failure %"]);
        for r in &self.rows {
            t.row(vec![
                r.path.to_string(),
                format!("{:.1}", r.faults_per_sec),
                format!("{:.2}", r.modelled_s_per_fault),
                format!("{:.1}", r.failure_pct),
            ]);
        }
        t.row(vec![
            "speed-up".to_string(),
            format!("{:.1}x", self.speedup),
            format!("occupancy {:.1} lanes", self.mean_lane_occupancy),
            format!("{} retired", self.lane_retirements),
        ]);
        t
    }
}
