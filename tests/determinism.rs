//! Determinism across configurations: a campaign's results depend only on
//! its seed, not on the worker-thread count or repeated execution.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_repro::core::{Campaign, CampaignConfig, DurationRange, FaultLoad, TargetClass};
use fades_repro::fpga::ArchParams;
use fades_repro::mcu8051::{build_soc, workloads, OBSERVED_PORTS};
use fades_repro::pnr::implement;

#[test]
fn thread_count_does_not_change_results() {
    let soc = build_soc(&workloads::fibonacci().rom).expect("soc builds");
    let imp = implement(&soc.netlist, ArchParams::virtex1000_like()).expect("implements");
    let load = FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::SHORT, true);

    let mut results = Vec::new();
    let mut stats = Vec::new();
    for threads in [1usize, 4] {
        let campaign = Campaign::with_config(
            &soc.netlist,
            imp.clone(),
            &OBSERVED_PORTS,
            900,
            CampaignConfig {
                threads,
                margin_cycles: 64,
                ..Default::default()
            },
        )
        .expect("campaign");
        let detailed = campaign
            .execute(&campaign.plan(&load, 24, 77).expect("plans"), None)
            .expect("runs");
        results.push(
            detailed
                .into_iter()
                .map(|r| (r.fault, r.outcome, r.traffic))
                .collect::<Vec<_>>(),
        );
        stats.push(campaign.run(&load, 24, 77).expect("stats run"));
    }
    assert_eq!(
        results[0], results[1],
        "results differ across thread counts"
    );
    // The aggregate must also be bit-identical: same outcome counts and —
    // because per-experiment traffic is identical and summed in index
    // order on both sides — the same modelled emulation time to the bit.
    assert_eq!(stats[0].n, stats[1].n);
    assert_eq!(stats[0].outcomes, stats[1].outcomes);
    assert_eq!(
        stats[0].emulation_seconds.to_bits(),
        stats[1].emulation_seconds.to_bits(),
        "modelled emulation time differs across thread counts"
    );
}

#[test]
fn vfit_is_deterministic_per_seed() {
    let soc = build_soc(&workloads::fibonacci().rom).expect("soc builds");
    let campaign =
        fades_repro::vfit::VfitCampaign::new(&soc.netlist, &OBSERVED_PORTS, 900).expect("vfit");
    let load = fades_repro::vfit::VfitFaultLoad::pulses(
        fades_repro::vfit::VfitTargetClass::CombinationalSignals,
        DurationRange::SHORT,
    );
    let a = campaign.run(&load, 20, 5).expect("first");
    let b = campaign.run(&load, 20, 5).expect("second");
    assert_eq!(a.outcomes, b.outcomes);
}
