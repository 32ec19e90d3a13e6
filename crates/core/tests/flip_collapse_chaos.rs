//! Panic isolation around the memory-flip collapse, on one worker and on
//! two.
//!
//! The entry the chaos hook targets is never collapsed into a class or
//! decided without a lane: it panics and is quarantined wherever the
//! scalar path quarantines it. The representatives aboard the word it
//! poisons are replayed on the scalar path, and their class members run
//! there on their own instead of taking a verdict from them.
//!
//! One test in its own binary: the chaos hook is a process-wide
//! environment variable, so nothing may run beside it.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::collections::HashMap;
use std::sync::Mutex;

use fades_core::{
    Campaign, CampaignConfig, CampaignPlan, CoreError, DurationRange, ExperimentVerdict, FaultLoad,
    PlannedExperiment, ResolvedFault, TargetClass,
};
use fades_mcu8051::{build_soc, workloads, Iss, OBSERVED_PORTS};

/// The golden-access class of a memory flip: (block, word, bit, first
/// cycle at or after injection on which golden selects the word), `None`
/// for a word golden never selects again.
fn class_of(campaign: &Campaign<'_>, e: &PlannedExperiment) -> Option<(usize, usize, u32, u64)> {
    let ResolvedFault::MemBitFlip { bram, addr, bit } = e.fault else {
        return None;
    };
    let at = campaign
        .golden()
        .first_access(bram.index(), addr, e.schedule.inject_at)?;
    Some((bram.index(), addr, bit, at))
}

#[test]
fn chaos_targets_are_never_collapsed_and_poisoned_classes_run_alone() {
    let w = workloads::bubblesort();
    let soc = build_soc(&w.rom).unwrap();
    let imp =
        fades_pnr::implement(&soc.netlist, fades_fpga::ArchParams::virtex1000_like()).unwrap();
    let cycles = Iss::new(w.rom.clone())
        .run_to_completion(100_000)
        .unwrap()
        .cycles;
    let memory = TargetClass::MemoryBits {
        name: "iram".into(),
        lo: w.data_range.0 as usize,
        hi: w.data_range.1 as usize,
    };
    let load = FaultLoad::bit_flips(memory, DurationRange::SubCycle);
    for threads in [1, 2] {
        let config = CampaignConfig {
            threads,
            static_preclassify: false,
            ..CampaignConfig::default()
        };
        let campaign =
            Campaign::with_config(&soc.netlist, imp.clone(), &OBSERVED_PORTS, cycles, config)
                .unwrap();
        let plan = campaign.plan(&load, 1500, 253).unwrap();
        let baseline = campaign
            .execute_batched_isolated(&plan, 1, None, None)
            .unwrap();
        assert!(baseline.iter().all(|v| v.result().is_some()));

        // Entries injected two thirds of the way through the run, when
        // the poisoned word holds many lanes still undecided: one that
        // would be a class member (its class has a lower index), and one
        // whose word golden never selects again.
        let mut lowest: HashMap<_, u64> = HashMap::new();
        for e in &plan.experiments {
            if let Some(class) = class_of(&campaign, e) {
                lowest.entry(class).or_insert(e.index);
            }
        }
        let mut order: Vec<&PlannedExperiment> = plan.experiments.iter().collect();
        order.sort_by_key(|e| (e.schedule.inject_at, e.index));
        let late = &order[order.len() * 2 / 3..];
        let member = late
            .iter()
            .find(|e| class_of(&campaign, e).is_some_and(|c| lowest[&c] != e.index))
            .unwrap()
            .index;
        let unread = late
            .iter()
            .find(|e| class_of(&campaign, e).is_none())
            .unwrap()
            .index;

        for victim in [member, unread] {
            let what = format!("{threads} workers, victim #{victim}");
            std::env::set_var("FADES_CHAOS_PANIC", victim.to_string());
            // The scalar path quarantines the victim on its own.
            let alone = CampaignPlan {
                experiments: vec![plan.experiments[victim as usize].clone()],
                ..plan.clone()
            };
            let scalar = campaign.execute_isolated(&alone, 1, None, None).unwrap();
            assert!(
                matches!(scalar[0], ExperimentVerdict::Quarantined { .. }),
                "{what}"
            );
            // Fail-fast, it panics: it ran, and was not decided with a
            // class or without a lane.
            match campaign.execute_batched(&plan, None).unwrap_err() {
                CoreError::ExperimentPanic { message, .. } => assert!(
                    message.contains(&format!("at experiment {victim} ")),
                    "{what}: {message}"
                ),
                other => panic!("{what}: expected ExperimentPanic, got {other:?}"),
            }
            let observed: Mutex<Vec<u64>> = Mutex::new(Vec::new());
            let observer = |v: &ExperimentVerdict| observed.lock().unwrap().push(v.index());
            let verdicts = campaign
                .execute_batched_isolated(&plan, 1, None, Some(&observer))
                .unwrap();
            std::env::remove_var("FADES_CHAOS_PANIC");

            let mut observed = observed.into_inner().unwrap();
            observed.sort_unstable();
            assert_eq!(
                observed,
                (0..plan.len() as u64).collect::<Vec<u64>>(),
                "{what}: every verdict observed once"
            );
            for (v, b) in verdicts.iter().zip(&baseline) {
                assert_eq!(v.index(), b.index());
                match (v, b) {
                    (ExperimentVerdict::Quarantined { index, error, .. }, _) => {
                        assert_eq!(*index, victim, "{what}");
                        assert!(error.contains("chaos"), "{what}: {error}");
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
                        assert_ne!(v.index(), victim, "{what}");
                        assert_eq!(result.outcome, expected.outcome, "{what}: #{}", v.index());
                        assert_eq!(result.traffic, expected.traffic, "{what}: #{}", v.index());
                        assert_eq!(
                            modelled_seconds.to_bits(),
                            expected_seconds.to_bits(),
                            "{what}: #{}",
                            v.index()
                        );
                    }
                    other => panic!("{what}: unexpected verdicts {other:?}"),
                }
            }

            // A lane result never skips a golden prefix, and a scalar
            // replay injected past the first checkpoint always does. Some
            // class whose representative the poisoned word held ran
            // entirely on the scalar path, members included.
            let replayed = |e: &PlannedExperiment| {
                verdicts[e.index as usize]
                    .result()
                    .is_some_and(|r| r.skipped_cycles > 0)
            };
            let mut classes: HashMap<_, Vec<&PlannedExperiment>> = HashMap::new();
            for e in &plan.experiments {
                if let Some(class) = class_of(&campaign, e).filter(|_| e.index != victim) {
                    classes.entry(class).or_default().push(e);
                }
            }
            let poisoned = classes.values().filter(|members| {
                members.len() > 1
                    && members.iter().all(|e| e.schedule.inject_at >= 64)
                    && replayed(members[0])
            });
            let mut any = false;
            for members in poisoned {
                any = true;
                assert!(
                    members.iter().all(|e| replayed(e)),
                    "{what}: a poisoned class's members took its verdict"
                );
            }
            assert!(
                any,
                "{what}: the poisoned word held no class representative"
            );
        }
    }
}
