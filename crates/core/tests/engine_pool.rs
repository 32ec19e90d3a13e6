//! One campaign's engines, kept between calls, give the results fresh
//! ones do.
//!
//! A campaign builds its lane program on its first lane call and keeps
//! the engines a call leaves behind in a pool of idle engines. Every
//! result of a campaign that reuses them must equal, bit for bit, that
//! of a fresh campaign: outcome, traffic, modelled-seconds bits,
//! `skipped_cycles` and `early_stop_cycles`, whatever the word width,
//! the entry point called before, or the thread calling.
//!
//! The engine counters are process-wide, so the tests of this binary
//! take turns.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::sync::{Barrier, Mutex, PoisonError};

use fades_core::{
    Campaign, CampaignConfig, CampaignPlan, DurationRange, ExperimentResult, ExperimentVerdict,
    FaultLoad, PlanAnnotation, TargetClass, WIDEST_WORD_COHORT,
};
use fades_mcu8051::{build_soc, workloads, Iss, Soc, OBSERVED_PORTS};
use fades_pnr::Implementation;
use fades_telemetry::sim::{ENGINE_BUILDS, ENGINE_REUSES};

static COUNTERS: Mutex<()> = Mutex::new(());

/// The 8051 running Bubblesort, and its workload length.
fn design() -> (Soc, Implementation, u64) {
    let w = workloads::bubblesort();
    let soc = build_soc(&w.rom).unwrap();
    let imp =
        fades_pnr::implement(&soc.netlist, fades_fpga::ArchParams::virtex1000_like()).unwrap();
    let cycles = Iss::new(w.rom.clone())
        .run_to_completion(100_000)
        .unwrap()
        .cycles;
    (soc, imp, cycles)
}

fn campaign<'n>(soc: &'n Soc, imp: &Implementation, cycles: u64) -> Campaign<'n> {
    let config = CampaignConfig {
        threads: 2,
        ..CampaignConfig::default()
    };
    Campaign::with_config(&soc.netlist, imp.clone(), &OBSERVED_PORTS, cycles, config).unwrap()
}

/// Everything of a result except its wall-clock share.
fn observable(result: &ExperimentResult) -> String {
    let result = ExperimentResult {
        wall_us: 0,
        ..result.clone()
    };
    format!("{result:?}")
}

fn observable_all(results: &[ExperimentResult]) -> Vec<String> {
    results.iter().map(observable).collect()
}

/// Everything of a verdict except its wall-clock share, modelled
/// seconds by their bits.
fn observable_verdicts(verdicts: &[ExperimentVerdict]) -> Vec<String> {
    verdicts
        .iter()
        .map(|v| match v {
            ExperimentVerdict::Completed {
                index,
                result,
                modelled_seconds,
                attempts,
            } => format!(
                "#{index} {attempts} {:016x} {}",
                modelled_seconds.to_bits(),
                observable(result)
            ),
            quarantined @ ExperimentVerdict::Quarantined { .. } => format!("{quarantined:?}"),
        })
        .collect()
}

/// LUT pulses: lane entries, plus statically Silent ones that take the
/// scalar side of a lane call.
fn pulses() -> FaultLoad {
    FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT)
}

/// Plans whose lane entries take each word width: 64 faults fit the
/// 64-lane word, 300 fill the 128-lane word twice, 600 the 256-lane
/// word, and 3000 the 512-lane word.
fn plans(campaign: &Campaign<'_>) -> Vec<CampaignPlan> {
    let plans: Vec<CampaignPlan> = [64, 300, 600, 3000]
        .into_iter()
        .map(|n| campaign.plan(&pulses(), n, 41 + n as u64).unwrap())
        .collect();
    let lane_entries = |p: &CampaignPlan| {
        p.experiments
            .iter()
            .filter(|e| e.annotation != PlanAnnotation::StaticSilent)
            .count()
    };
    let widths: Vec<usize> = plans.iter().map(lane_entries).collect();
    assert!(widths[0] < 127, "{widths:?}");
    assert!((254..510).contains(&widths[1]), "{widths:?}");
    assert!((510..1022).contains(&widths[2]), "{widths:?}");
    assert!(widths[3] >= WIDEST_WORD_COHORT, "{widths:?}");
    assert!(
        plans.iter().all(|p| lane_entries(p) < p.len()),
        "some plan has no scalar side"
    );
    plans
}

#[test]
fn reused_engines_match_a_fresh_campaign_on_every_width_and_entry_point() {
    let _turn = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let (soc, imp, cycles) = design();
    let shared = campaign(&soc, &imp, cycles);
    let plans = plans(&shared);
    let fresh = |f: &dyn Fn(&Campaign<'_>) -> Vec<String>| f(&campaign(&soc, &imp, cycles));

    let batched: Vec<Vec<String>> = plans
        .iter()
        .map(|p| fresh(&|c| observable_all(&c.execute_batched(p, None).unwrap())))
        .collect();
    for (plan, expected) in plans.iter().zip(&batched) {
        let n = plan.len();
        let first = observable_all(&shared.execute_batched(plan, None).unwrap());
        assert_eq!(&first, expected, "{n} faults, first call");
        // The same call again runs on the engines the first one left.
        let (builds, reuses) = (ENGINE_BUILDS.get(), ENGINE_REUSES.get());
        let again = observable_all(&shared.execute_batched(plan, None).unwrap());
        assert_eq!(&again, expected, "{n} faults, second call");
        assert_eq!(
            ENGINE_BUILDS.get(),
            builds,
            "{n} faults: the second call built"
        );
        assert!(ENGINE_REUSES.get() > reuses, "{n} faults: nothing reused");
    }

    // The widths interleaved with the scalar entry points, twice: the
    // second round takes every scalar device from the pool.
    let small = &plans[0];
    let scalar = fresh(&|c| observable_all(&c.execute(small, None).unwrap()));
    let isolated =
        fresh(&|c| observable_verdicts(&c.execute_isolated(small, 1, None, None).unwrap()));
    let lanes_isolated = fresh(&|c| {
        observable_verdicts(
            &c.execute_batched_isolated(&plans[1], 1, None, None)
                .unwrap(),
        )
    });
    for round in 0..2 {
        let builds = ENGINE_BUILDS.get();
        assert_eq!(
            observable_all(&shared.execute(small, None).unwrap()),
            scalar,
            "round {round}: execute"
        );
        assert_eq!(
            observable_verdicts(&shared.execute_isolated(small, 1, None, None).unwrap()),
            isolated,
            "round {round}: execute_isolated"
        );
        if round == 1 {
            assert_eq!(ENGINE_BUILDS.get(), builds, "the scalar calls built again");
        }
        assert_eq!(
            observable_verdicts(
                &shared
                    .execute_batched_isolated(&plans[1], 1, None, None)
                    .unwrap()
            ),
            lanes_isolated,
            "round {round}: execute_batched_isolated"
        );
        for (plan, expected) in plans.iter().zip(&batched).rev() {
            let got = observable_all(&shared.execute_batched(plan, None).unwrap());
            assert_eq!(&got, expected, "round {round}: {} faults", plan.len());
        }
    }
}

#[test]
fn two_threads_calling_at_once_get_the_results_of_a_fresh_campaign() {
    let _turn = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let (soc, imp, cycles) = design();
    let shared = campaign(&soc, &imp, cycles);
    let ffs = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    let plans = [
        shared.plan(&pulses(), 300, 7).unwrap(),
        shared.plan(&ffs, 600, 8).unwrap(),
        shared.plan(&ffs, 64, 9).unwrap(),
    ];
    let expected: Vec<Vec<String>> = plans
        .iter()
        .map(|p| {
            observable_verdicts(
                &campaign(&soc, &imp, cycles)
                    .execute_batched_isolated(p, 1, None, None)
                    .unwrap(),
            )
        })
        .collect();
    // Both threads start every call together, and walk the plans in
    // opposite orders, so calls on different word widths overlap. The
    // threads only collect; the checks run once both are joined.
    let start = Barrier::new(2);
    let runs: Vec<Vec<(usize, Vec<String>)>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|thread| {
                let (shared, plans, start) = (&shared, &plans, &start);
                s.spawn(move || {
                    let mut got = Vec::new();
                    for _round in 0..3 {
                        for k in 0..plans.len() {
                            let k = if thread == 0 { k } else { plans.len() - 1 - k };
                            start.wait();
                            let verdicts =
                                shared.execute_batched_isolated(&plans[k], 1, None, None);
                            got.push((
                                k,
                                verdicts
                                    .map(|v| observable_verdicts(&v))
                                    .unwrap_or_default(),
                            ));
                        }
                    }
                    got
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (thread, got) in runs.iter().enumerate() {
        for (call, (k, verdicts)) in got.iter().enumerate() {
            assert_eq!(
                verdicts, &expected[*k],
                "thread {thread}, call {call}, plan {k}"
            );
        }
    }
}
