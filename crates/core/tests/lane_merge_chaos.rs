//! Panic isolation of a lane cohort that carries merged lanes, on one
//! worker and on the second of two.
//!
//! One test in its own binary: the chaos hook is a process-wide
//! environment variable, so nothing may run beside it.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::sync::Mutex;

use fades_core::{
    Campaign, CampaignConfig, CampaignPlan, DurationRange, ExperimentVerdict, FaultLoad,
    TargetClass,
};
use fades_mcu8051::{build_soc, workloads, Iss, OBSERVED_PORTS};

#[test]
fn a_poisoned_cohort_replays_its_undecided_followers_once() {
    let w = workloads::bubblesort();
    let soc = build_soc(&w.rom).unwrap();
    let imp =
        fades_pnr::implement(&soc.netlist, fades_fpga::ArchParams::virtex1000_like()).unwrap();
    let cycles = Iss::new(w.rom.clone())
        .run_to_completion(100_000)
        .unwrap()
        .cycles;
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    // Flip-flop flips on the 256-lane word: many lanes stay latent and
    // are merged while later entries wait. (Memory flips, which merge
    // more, mostly collapse by golden access before they take a lane.)
    // On one worker, 600 of them; on two, 1,000, so that each worker's
    // 500 keep entries waiting as the one worker's 600 do.
    for (threads, n) in [(1, 600), (2, 1000)] {
        let config = CampaignConfig {
            threads,
            static_preclassify: false,
            ..CampaignConfig::default()
        };
        let campaign =
            Campaign::with_config(&soc.netlist, imp.clone(), &OBSERVED_PORTS, cycles, config)
                .unwrap();
        let plan = campaign.plan(&load, n, 251).unwrap();
        poison_one_cohort(&campaign, &plan, threads);
    }
}

/// Poisons one entry taken by a refill two thirds of the way through the
/// last worker's share of `plan`, and asserts the cohort's undecided
/// lanes and followers replay once each, deciding what an undisturbed
/// run decides.
fn poison_one_cohort(campaign: &Campaign<'_>, plan: &CampaignPlan, threads: usize) {
    let n = plan.len();
    let faulty_lanes = 255;
    let baseline = campaign
        .execute_batched_isolated(plan, 1, None, None)
        .unwrap();

    // The workers take contiguous shares of the entries sorted by
    // injection instant. The victim is taken by a refill two thirds of
    // the way through the last share: every lane is busy when it injects
    // (entries still wait), and lanes merged before then wait on their
    // leaders, undecided.
    let mut order: Vec<&fades_core::PlannedExperiment> = plan.experiments.iter().collect();
    order.sort_by_key(|e| (e.schedule.inject_at, e.index));
    let share = n.div_ceil(threads);
    let victim = order[(threads - 1) * share + share * 2 / 3].index;
    let observed: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let observer = |v: &ExperimentVerdict| observed.lock().unwrap().push(v.index());
    std::env::set_var("FADES_CHAOS_PANIC", victim.to_string());
    let verdicts = campaign
        .execute_batched_isolated(plan, 1, None, Some(&observer))
        .unwrap();
    std::env::remove_var("FADES_CHAOS_PANIC");

    // Every verdict reached the observer exactly once.
    let mut observed = observed.into_inner().unwrap();
    observed.sort_unstable();
    assert_eq!(
        observed,
        (0..n as u64).collect::<Vec<u64>>(),
        "{threads} workers"
    );
    // More experiments were replayed on the scalar path than the word
    // has lanes, so the poisoned cohort held undecided followers besides
    // its lanes. A lane result never skips a golden prefix; a scalar
    // replay injected past the first checkpoint always does.
    let replayed = verdicts
        .iter()
        .filter(|v| v.result().is_none_or(|r| r.skipped_cycles > 0))
        .count();
    assert!(
        replayed > faulty_lanes,
        "{threads} workers: {replayed} experiments replayed, \
         no more than the word's {faulty_lanes} lanes"
    );
    // The replays decide exactly what the undisturbed run decided.
    assert_eq!(verdicts.len(), baseline.len());
    for (v, b) in verdicts.iter().zip(&baseline) {
        assert_eq!(v.index(), b.index());
        match (v, b) {
            (ExperimentVerdict::Quarantined { index, error, .. }, _) => {
                assert_eq!(*index, victim);
                assert!(error.contains("chaos"), "{error}");
            }
            (
                ExperimentVerdict::Completed {
                    result,
                    modelled_seconds,
                    ..
                },
                ExperimentVerdict::Completed {
                    result: expected,
                    modelled_seconds: expected_seconds,
                    ..
                },
            ) => {
                assert_ne!(v.index(), victim);
                assert_eq!(result.outcome, expected.outcome, "#{}", v.index());
                assert_eq!(result.traffic, expected.traffic, "#{}", v.index());
                assert_eq!(modelled_seconds.to_bits(), expected_seconds.to_bits());
            }
            other => panic!("unexpected verdicts {other:?}"),
        }
    }
}
