//! The lane driver on a design the lane engine cannot encode.
//!
//! One stray bit above a memory block's declared width makes
//! `BatchDevice::new` refuse the design (`LaneObstacle::StrayBits`). The
//! lane entry points must then run every plan position on the scalar
//! engine and return exactly what the scalar entry points do, memory
//! flips that share a golden-access class included: no class member may
//! be left to a lane that never runs.
//!
//! The only test in its binary, so the telemetry counters it reads move
//! for its campaigns alone.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::collections::HashMap;

use fades_core::{
    Campaign, CampaignConfig, DurationRange, ExperimentResult, ExperimentVerdict, FaultLoad,
    ResolvedFault, TargetClass,
};
use fades_mcu8051::{build_soc, workloads, Iss, OBSERVED_PORTS};
use fades_telemetry::analysis::LANE_FALLBACKS;
use fades_telemetry::sim::{FLIPS_COLLAPSED, FLIPS_DECIDED};

/// Everything of a result except its wall-clock share.
fn observable(result: &ExperimentResult) -> String {
    let result = ExperimentResult {
        wall_us: 0,
        ..result.clone()
    };
    format!("{result:?}")
}

/// Everything of a verdict except its wall-clock share, modelled
/// seconds by their bits.
fn observable_verdict(verdict: &ExperimentVerdict) -> String {
    match verdict {
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
    }
}

#[test]
fn a_design_the_lanes_cannot_encode_runs_every_position_on_the_scalar_engine() {
    let w = workloads::bubblesort();
    let soc = build_soc(&w.rom).unwrap();
    let mut imp =
        fades_pnr::implement(&soc.netlist, fades_fpga::ArchParams::virtex1000_like()).unwrap();
    let cycles = Iss::new(w.rom.clone())
        .run_to_completion(100_000)
        .unwrap()
        .cycles;
    let memory = FaultLoad::bit_flips(
        TargetClass::MemoryBits {
            name: "iram".into(),
            lo: w.data_range.0 as usize,
            hi: w.data_range.1 as usize,
        },
        DurationRange::SubCycle,
    );
    let ffs = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);

    // One bit above the declared width of the block the memory flips
    // target, in its first word.
    let config = CampaignConfig {
        threads: 2,
        ..CampaignConfig::default()
    };
    let clean =
        Campaign::with_config(&soc.netlist, imp.clone(), &OBSERVED_PORTS, cycles, config).unwrap();
    let probe = clean.plan(&memory, 1, 1).unwrap();
    let ResolvedFault::MemBitFlip { bram, .. } = probe.experiments[0].fault else {
        panic!(
            "the memory load resolves to {:?}",
            probe.experiments[0].fault
        );
    };
    let block = imp.bitstream.bram_mut(bram).unwrap();
    let width = block.width;
    assert!(width < 64, "the block has no bit above its width");
    block.contents[0] |= 1 << width;
    assert!(
        fades_fpga::lane_obstacles(&imp.bitstream)
            .iter()
            .any(|o| matches!(o, fades_fpga::LaneObstacle::StrayBits { .. })),
        "the stray bit is not a lane obstacle"
    );
    let campaign =
        Campaign::with_config(&soc.netlist, imp, &OBSERVED_PORTS, cycles, config).unwrap();

    for (what, load) in [("bitflip-mem", &memory), ("bitflip-ffs", &ffs)] {
        let plan = campaign.plan(load, 400, 11).unwrap();
        if what == "bitflip-mem" {
            // Flips of one bit whose word golden next selects on the same
            // cycle form a class the lane driver would collapse.
            let mut classes: HashMap<_, usize> = HashMap::new();
            for e in &plan.experiments {
                let ResolvedFault::MemBitFlip { bram, addr, bit } = e.fault else {
                    panic!("{what}: {:?}", e.fault);
                };
                if let Some(at) =
                    campaign
                        .golden()
                        .first_access(bram.index(), addr, e.schedule.inject_at)
                {
                    *classes.entry((bram, addr, bit, at)).or_default() += 1;
                }
            }
            assert!(
                classes.values().any(|&n| n > 1),
                "{what}: no two flips share a class"
            );
        }

        let fallbacks = LANE_FALLBACKS.get();
        let (collapsed, decided) = (FLIPS_COLLAPSED.get(), FLIPS_DECIDED.get());
        let scalar: Vec<String> = campaign
            .execute(&plan, None)
            .unwrap()
            .iter()
            .map(observable)
            .collect();
        let batched: Vec<String> = campaign
            .execute_batched(&plan, None)
            .unwrap()
            .iter()
            .map(observable)
            .collect();
        assert_eq!(batched.len(), plan.len(), "{what}");
        assert_eq!(batched, scalar, "{what}: fail-fast");

        let isolated: Vec<String> = campaign
            .execute_isolated(&plan, 1, None, None)
            .unwrap()
            .iter()
            .map(observable_verdict)
            .collect();
        let batched_isolated: Vec<String> = campaign
            .execute_batched_isolated(&plan, 1, None, None)
            .unwrap()
            .iter()
            .map(observable_verdict)
            .collect();
        assert_eq!(batched_isolated, isolated, "{what}: isolated");

        assert!(
            LANE_FALLBACKS.get() > fallbacks,
            "{what}: the lane engine was not refused"
        );
        assert_eq!(
            (FLIPS_COLLAPSED.get(), FLIPS_DECIDED.get()),
            (collapsed, decided),
            "{what}: a flip was decided without the scalar engine"
        );
    }
}
