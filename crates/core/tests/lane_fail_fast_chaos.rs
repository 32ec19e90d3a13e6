//! A panic inside a fail-fast lane cohort surfaces as an error.
//!
//! One test in its own binary: the chaos hook is a process-wide
//! environment variable, so nothing may run beside it.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_core::{Campaign, CampaignConfig, CoreError, DurationRange, FaultLoad, TargetClass};
use fades_netlist::UnitTag;
use fades_rtl::RtlBuilder;

fn lfsr_design() -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    let mut b = RtlBuilder::new("lfsr");
    b.set_unit(UnitTag::Registers);
    let r = b.reg("lfsr", 8, 1);
    let q = r.q().clone();
    b.set_unit(UnitTag::Alu);
    let t1 = b.xor_bit(q.bit(7), q.bit(5));
    let t2 = b.xor_bit(q.bit(4), q.bit(3));
    let tap = b.xor_bit(t1, t2);
    let mut bits = vec![tap];
    bits.extend((0..7).map(|i| q.bit(i)));
    b.set_unit(UnitTag::Registers);
    b.connect(r, &fades_rtl::Signal::from_bits(bits));
    b.output("q", &q);
    let netlist = b.finish().unwrap();
    let imp = fades_pnr::implement(&netlist, fades_fpga::ArchParams::small()).unwrap();
    (netlist, imp)
}

#[test]
fn a_panicking_fail_fast_cohort_returns_experiment_panic() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    // 100 entries on the 64-lane word: one worker, or two with a share
    // each.
    for threads in [1, 2] {
        let config = CampaignConfig {
            threads,
            static_preclassify: false,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::with_config(&nl, imp.clone(), &["q"], 150, config).unwrap();
        let plan = campaign.plan(&load, 100, 7).unwrap();
        assert_eq!(campaign.execute_batched(&plan, None).unwrap().len(), 100);
        // Experiment 0 is the lowest index of the plan, so once it panics
        // it is the lowest undecided index aboard its word; another
        // victim may share its word with an undecided lower index.
        for victim in [0u64, 57] {
            std::env::set_var("FADES_CHAOS_PANIC", victim.to_string());
            let err = campaign.execute_batched(&plan, None).unwrap_err();
            std::env::remove_var("FADES_CHAOS_PANIC");
            match err {
                CoreError::ExperimentPanic { index, message } => {
                    assert!(
                        message.contains(&format!("at experiment {victim} ")),
                        "{threads} workers: {message}"
                    );
                    if victim == 0 {
                        assert_eq!(index, 0, "{threads} workers");
                    } else {
                        assert!(index <= victim, "{threads} workers: {index} > {victim}");
                    }
                }
                other => panic!("{threads} workers: expected ExperimentPanic, got {other:?}"),
            }
        }
    }
}
