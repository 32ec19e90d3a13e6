//! The static pre-classifier's two contracts, test-enforced:
//!
//! * **Bit-identity** — with static pre-classification on, a campaign
//!   must produce exactly the per-experiment results and aggregate
//!   `CampaignStats` (including the `emulation_seconds` bit pattern) of
//!   a campaign that executed every experiment for real, on the scalar,
//!   lane, and sharded paths alike. The skip saves wall-clock only.
//! * **Soundness** — every experiment the cone-of-influence pass marks
//!   `StaticSilent` must classify Silent when forced to execute
//!   ([`CampaignConfig::static_preclassify`] `false`), on both the scalar
//!   and the lane engine.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_core::{
    Campaign, CampaignConfig, CampaignPlan, CampaignStats, DurationRange, ExperimentResult,
    ExperimentVerdict, FaultLoad, Outcome, PlanAnnotation, TargetClass,
};
use fades_rtl::{RtlBuilder, Signal};
use proptest::prelude::*;

/// A counter observed on `q`, plus logic the observation frontier can
/// provably never see: a shadow register nobody reads and inverters
/// feeding only an unobserved debug port.
fn dead_logic_design() -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    let mut b = RtlBuilder::new("dead");
    let r = b.reg("cnt", 4, 0);
    let q = r.q().clone();
    let next = b.add_const(&q, 1);
    b.connect(r, &next);
    b.output("q", &q);
    let shadow = b.reg("shadow", 4, 0);
    b.connect(shadow, &q);
    let dead: Vec<_> = (0..4).map(|i| b.not_bit(q.bit(i))).collect();
    b.output("unused_dbg", &Signal::from_bits(dead));
    let nl = b.finish().unwrap();
    let imp = fades_pnr::implement(&nl, fades_fpga::ArchParams::small()).unwrap();
    (nl, imp)
}

fn config(static_preclassify: bool) -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        margin_cycles: 32,
        fastpath: true,
        static_preclassify,
    }
}

/// The stats a campaign run folds from `results`, in plan order.
fn stats_of(c: &Campaign, results: &[ExperimentResult]) -> CampaignStats {
    let mut stats = CampaignStats::default();
    for r in results {
        let seconds = c
            .time_model()
            .experiment_seconds(&r.traffic, c.golden().cycles());
        stats.accumulate(r.outcome, seconds);
    }
    stats
}

/// The fault loads whose faults the pre-classifier can annotate (plus
/// delays, which it never annotates — a coverage guard).
fn loads() -> Vec<FaultLoad> {
    vec![
        FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle),
        FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT),
        FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle),
        FaultLoad::pulses(TargetClass::CbInputs, DurationRange::SHORT),
        FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::SHORT, false),
        FaultLoad::delays(TargetClass::SequentialWires, DurationRange::SHORT),
    ]
}

#[test]
fn dead_design_plans_carry_static_silent_annotations() {
    let (nl, imp) = dead_logic_design();
    let campaign = Campaign::with_config(&nl, imp, &["q"], 120, config(true)).unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    let plan = campaign.plan(&load, 40, 11).unwrap();
    let silent = plan
        .experiments
        .iter()
        .filter(|e| e.annotation == PlanAnnotation::StaticSilent)
        .count();
    assert!(
        silent > 0,
        "the shadow register must yield statically-Silent bit flips"
    );
    assert!(
        silent < plan.len(),
        "flips into the live counter must not be annotated"
    );
}

#[test]
fn annotations_are_a_pure_function_of_the_plan_inputs() {
    // Same inputs → same annotations, regardless of worker threads or
    // any engine configuration: shards must agree without communicating.
    let (nl, imp) = dead_logic_design();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let mut seen = Vec::new();
    for (threads, static_on) in [(1, true), (4, false), (2, true)] {
        let cfg = CampaignConfig {
            threads,
            ..config(static_on)
        };
        let campaign = Campaign::with_config(&nl, imp.clone(), &["q"], 120, cfg).unwrap();
        let plan = campaign.plan(&load, 30, 99).unwrap();
        seen.push(
            plan.experiments
                .iter()
                .map(|e| e.annotation)
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(seen[0], seen[1]);
    assert_eq!(seen[1], seen[2]);
    assert!(seen[0].contains(&PlanAnnotation::StaticSilent));
}

/// Runs `load` with the skip on and off and asserts detailed results and
/// aggregate stats are identical on the requested engine.
fn assert_skip_bit_identical(
    nl: &fades_netlist::Netlist,
    imp: &fades_pnr::Implementation,
    cycles: u64,
    load: &FaultLoad,
    n: usize,
    seed: u64,
    batch: bool,
) {
    let skipping = Campaign::with_config(nl, imp.clone(), &["q"], cycles, config(true)).unwrap();
    let executing = Campaign::with_config(nl, imp.clone(), &["q"], cycles, config(false)).unwrap();
    let run_detailed = |c: &Campaign| {
        let plan = c.plan(load, n, seed).unwrap();
        if batch {
            c.execute_batched(&plan, None).unwrap()
        } else {
            c.execute(&plan, None).unwrap()
        }
    };
    let with_skip = run_detailed(&skipping);
    let without = run_detailed(&executing);
    assert_eq!(with_skip.len(), without.len());
    for (s, e) in with_skip.iter().zip(&without) {
        assert_eq!(s.fault, e.fault, "{load:?}");
        assert_eq!(s.schedule, e.schedule, "{load:?}");
        assert_eq!(s.outcome, e.outcome, "{load:?} fault {:?}", s.fault);
        assert_eq!(
            s.traffic, e.traffic,
            "{load:?} fault {:?}: the replayed ledger must charge exactly \
             what a real execution charges",
            s.fault
        );
        assert_eq!(s.strategy, e.strategy);
    }
    let (ss, es) = if batch {
        (
            stats_of(&skipping, &with_skip),
            stats_of(&executing, &without),
        )
    } else {
        (
            skipping.run(load, n, seed).unwrap(),
            executing.run(load, n, seed).unwrap(),
        )
    };
    assert_eq!(ss.outcomes, es.outcomes, "{load:?}");
    assert_eq!(
        ss.emulation_seconds.to_bits(),
        es.emulation_seconds.to_bits(),
        "{load:?}: modelled time must be bit-identical with the skip on"
    );
}

#[test]
fn static_skip_is_bit_identical_on_the_scalar_engine() {
    let (nl, imp) = dead_logic_design();
    for load in loads() {
        assert_skip_bit_identical(&nl, &imp, 120, &load, 24, 4242, false);
    }
}

#[test]
fn static_skip_is_bit_identical_on_the_lane_engine() {
    let (nl, imp) = dead_logic_design();
    for load in loads() {
        assert_skip_bit_identical(&nl, &imp, 120, &load, 24, 4242, true);
    }
}

#[test]
fn static_skip_is_bit_identical_under_sharded_execution() {
    // Shard the same plan 3 ways on the skipping campaign, fold the
    // verdicts in global-index order, and compare against a monolithic
    // run that executed everything.
    let (nl, imp) = dead_logic_design();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    let skipping = Campaign::with_config(&nl, imp.clone(), &["q"], 120, config(true)).unwrap();
    let executing = Campaign::with_config(&nl, imp.clone(), &["q"], 120, config(false)).unwrap();
    let n = 30;
    let plan = skipping.plan(&load, n, 77).unwrap();

    let mut folded: Vec<(u64, f64, Outcome)> = Vec::new();
    for shard in 0..3u32 {
        let sub = plan.try_shard(shard, 3).unwrap();
        for v in skipping
            .execute_batched_isolated(&sub, 1, None, None)
            .unwrap()
        {
            match v {
                ExperimentVerdict::Completed {
                    index,
                    modelled_seconds,
                    result,
                    ..
                } => folded.push((index, modelled_seconds, result.outcome)),
                ExperimentVerdict::Quarantined { index, error, .. } => {
                    panic!("experiment {index} quarantined: {error}")
                }
            }
        }
    }
    folded.sort_by_key(|(index, ..)| *index);
    let mut sharded = CampaignStats::default();
    for (_, seconds, outcome) in &folded {
        sharded.accumulate(*outcome, *seconds);
    }

    let monolithic = executing.run(&load, n, 77).unwrap();
    assert_eq!(sharded.outcomes, monolithic.outcomes);
    assert_eq!(
        sharded.emulation_seconds.to_bits(),
        monolithic.emulation_seconds.to_bits(),
        "sharded-with-skip stats must be bit-identical to a monolithic full run"
    );
}

/// Forces every statically-Silent experiment of `plan` to execute on a
/// campaign with the skip disabled and asserts all of them classify
/// Silent.
fn assert_static_silent_sound(
    executing: &Campaign,
    plan: &CampaignPlan,
    batch: bool,
) -> Result<usize, TestCaseError> {
    let silent_only = CampaignPlan {
        target: plan.target.clone(),
        sub_cycle: plan.sub_cycle,
        seed: plan.seed,
        n_total: plan.n_total,
        experiments: plan
            .experiments
            .iter()
            .filter(|e| e.annotation == PlanAnnotation::StaticSilent)
            .cloned()
            .collect(),
    };
    let verdicts = if batch {
        executing.execute_batched_isolated(&silent_only, 1, None, None)
    } else {
        executing.execute_isolated(&silent_only, 1, None, None)
    };
    let verdicts = verdicts.expect("execution");
    for v in &verdicts {
        match v {
            ExperimentVerdict::Completed { result, index, .. } => prop_assert_eq!(
                result.outcome,
                Outcome::Silent,
                "statically-Silent experiment {} was {:?} when executed: {:?}",
                index,
                result.outcome,
                result.fault
            ),
            ExperimentVerdict::Quarantined { index, error, .. } => {
                return Err(TestCaseError::fail(format!(
                    "statically-Silent experiment {index} quarantined: {error}"
                )))
            }
        }
    }
    Ok(verdicts.len())
}

/// Random register-feedback design with dead logic grafted on: a shadow
/// register of the live state and inverters into an unobserved port.
fn random_design_with_dead_logic(
    topology: u8,
    width: usize,
    init: u64,
    taps: (usize, usize),
) -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    let mut b = RtlBuilder::new("prop-dead");
    let r = b.reg("state", width, init & ((1 << width) - 1));
    let q = r.q().clone();
    let next = match topology % 3 {
        0 => b.add_const(&q, 1),
        1 => {
            let fb = b.xor_bit(q.bit(taps.0 % width), q.bit(taps.1 % width));
            let mut bits = vec![fb];
            bits.extend((0..width - 1).map(|i| q.bit(i)));
            Signal::from_bits(bits)
        }
        _ => {
            let bits = (0..width)
                .map(|i| b.not_bit(q.bit((i + 1) % width)))
                .collect();
            Signal::from_bits(bits)
        }
    };
    b.connect(r, &next);
    b.output("q", &q);
    let shadow = b.reg("shadow", width, 0);
    b.connect(shadow, &q);
    let dead: Vec<_> = (0..width).map(|i| b.not_bit(q.bit(i))).collect();
    b.output("unused_dbg", &Signal::from_bits(dead));
    let nl = b.finish().unwrap();
    let imp = fades_pnr::implement(&nl, fades_fpga::ArchParams::small()).unwrap();
    (nl, imp)
}

fn random_load(pick: u8) -> FaultLoad {
    match pick % 5 {
        0 => FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle),
        1 => FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT),
        2 => FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle),
        3 => FaultLoad::pulses(TargetClass::CbInputs, DurationRange::SHORT),
        _ => FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::SHORT, false),
    }
}

proptest! {
    /// Soundness over random netlists: whatever the cone-of-influence
    /// pass calls statically Silent must be dynamically Silent under
    /// every fault model when forced to execute, on both engines — and
    /// the lint output for the design must be deterministic.
    #[test]
    fn static_silent_is_sound_on_random_netlists(
        topology in 0u8..3,
        width in 2usize..6,
        init in any::<u64>(),
        taps in (0usize..8, 0usize..8),
        pick in 0u8..5,
        n in 6usize..14,
        cycles in 80u64..130,
        seed in any::<u64>(),
    ) {
        let (nl, imp) = random_design_with_dead_logic(topology, width, init, taps);
        let load = random_load(pick);
        let executing = Campaign::with_config(
            &nl, imp.clone(), &["q"], cycles, config(false),
        ).expect("campaign");
        let plan = executing.plan(&load, n, seed).expect("plan");

        prop_assume!(plan.experiments.iter().any(|e| e.annotation == PlanAnnotation::StaticSilent));
        assert_static_silent_sound(&executing, &plan, false)?;
        assert_static_silent_sound(&executing, &plan, true)?;

        // Lint determinism: two runs over the same bitstream agree
        // diagnostic-for-diagnostic, in order.
        let a = fades_analysis::lint_quiet(&imp.bitstream);
        let b = fades_analysis::lint_quiet(&imp.bitstream);
        prop_assert_eq!(a, b);
    }
}
