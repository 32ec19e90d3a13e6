//! A poisoned lane call leaves nothing behind in its campaign's pool of
//! idle engines.
//!
//! A pass that panics drops its engine, and a failed scalar attempt its
//! device; neither goes back to the pool. Once the chaos hook is unset,
//! the same campaign's calls match a fresh campaign's bit for bit.
//!
//! One test in its own binary: the chaos hook is a process-wide
//! environment variable, so nothing may run beside it.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_core::{
    Campaign, CampaignConfig, DurationRange, ExperimentResult, ExperimentVerdict, FaultLoad,
    TargetClass,
};
use fades_mcu8051::{build_soc, workloads, Iss, OBSERVED_PORTS};

/// Everything of a verdict except its wall-clock share, modelled
/// seconds by their bits.
fn observable(verdict: &ExperimentVerdict) -> String {
    match verdict {
        ExperimentVerdict::Completed {
            index,
            result,
            modelled_seconds,
            attempts,
        } => {
            let result = ExperimentResult {
                wall_us: 0,
                ..result.clone()
            };
            format!(
                "#{index} {attempts} {:016x} {result:?}",
                modelled_seconds.to_bits()
            )
        }
        quarantined @ ExperimentVerdict::Quarantined { .. } => format!("{quarantined:?}"),
    }
}

/// `verdict` with a prefix skip of 0.
fn without_skip(verdict: &ExperimentVerdict) -> ExperimentVerdict {
    let mut verdict = verdict.clone();
    if let ExperimentVerdict::Completed { result, .. } = &mut verdict {
        result.skipped_cycles = 0;
    }
    verdict
}

#[test]
fn a_poisoned_isolated_call_leaves_the_pool_clean() {
    let w = workloads::bubblesort();
    let soc = build_soc(&w.rom).unwrap();
    let imp =
        fades_pnr::implement(&soc.netlist, fades_fpga::ArchParams::virtex1000_like()).unwrap();
    let cycles = Iss::new(w.rom.clone())
        .run_to_completion(100_000)
        .unwrap()
        .cycles;
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    for threads in [1, 2] {
        let config = CampaignConfig {
            threads,
            ..CampaignConfig::default()
        };
        let fresh = || {
            Campaign::with_config(&soc.netlist, imp.clone(), &OBSERVED_PORTS, cycles, config)
                .unwrap()
        };
        let shared = fresh();
        // A 256-lane word, filled twice over, with a scalar side.
        let plan = shared.plan(&load, 600, 91).unwrap();
        let isolated = |c: &Campaign<'_>| -> Vec<String> {
            c.execute_batched_isolated(&plan, 1, None, None)
                .unwrap()
                .iter()
                .map(observable)
                .collect()
        };
        let expected = isolated(&fresh());
        assert_eq!(isolated(&shared), expected, "{threads} workers, warm-up");

        // A victim injected late, when its word holds many undecided
        // lanes and pending entries wait for a rebuilt engine.
        let mut order: Vec<_> = plan.experiments.iter().collect();
        order.sort_by_key(|e| (e.schedule.inject_at, e.index));
        let victim = order[order.len() / 3].index;
        std::env::set_var("FADES_CHAOS_PANIC", victim.to_string());
        let poisoned = shared
            .execute_batched_isolated(&plan, 1, None, None)
            .unwrap();
        std::env::remove_var("FADES_CHAOS_PANIC");
        // Unset, the same campaign runs on as a fresh one does.
        let unpoisoned = shared
            .execute_batched_isolated(&plan, 1, None, None)
            .unwrap();
        for (got, want) in poisoned.iter().zip(&unpoisoned) {
            if got.index() == victim {
                assert!(
                    matches!(got, ExperimentVerdict::Quarantined { .. }),
                    "{threads} workers: the victim was not quarantined"
                );
            } else {
                // The entries aboard the poisoned word are replayed on
                // the scalar engine, which reports its own prefix skip.
                assert_eq!(
                    observable(&without_skip(got)),
                    observable(&without_skip(want)),
                    "{threads} workers, poisoned call"
                );
            }
        }
        let unpoisoned: Vec<String> = unpoisoned.iter().map(observable).collect();
        assert_eq!(unpoisoned, expected, "{threads} workers, rerun");

        let batched = |c: &Campaign<'_>| -> Vec<String> {
            c.execute_batched(&plan, None)
                .unwrap()
                .into_iter()
                .map(|r| format!("{:?}", ExperimentResult { wall_us: 0, ..r }))
                .collect()
        };
        assert_eq!(
            batched(&shared),
            batched(&fresh()),
            "{threads} workers, fail-fast"
        );
    }
}
