//! Where a lane pass's wall clock went: with telemetry enabled, every
//! pass records its phases (refill, inject, settle, compare, edge,
//! remove, classify) into phase histograms, and the phases add up to
//! the pass's wall clock, which the pass times apart from its phases.
//!
//! Its own test binary: telemetry enablement and the phase histograms
//! are process-global.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::time::Instant;

use fades_core::{
    Campaign, CampaignConfig, DurationRange, FaultLoad, TargetClass, PASS_PHASES, PASS_TOTAL,
};
use fades_netlist::UnitTag;
use fades_pnr::implement;
use fades_rtl::RtlBuilder;

/// An 8-bit LFSR whose taps pass through a few XORs.
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
    let next = fades_rtl::Signal::from_bits(bits);
    b.connect(r, &next);
    b.output("q", &q);
    let netlist = b.finish().unwrap();
    let imp = implement(&netlist, fades_fpga::ArchParams::small()).unwrap();
    (netlist, imp)
}

/// Sum and count of one phase histogram.
fn phase(name: &str) -> (u64, u64) {
    let snaps = fades_telemetry::phase_snapshots();
    let (_, snap) = snaps
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("phase {name} not registered"));
    (snap.sum(), snap.count())
}

#[test]
fn pass_phases_add_up_to_the_pass_time() {
    fades_telemetry::set_enabled(true);
    let (nl, imp) = lfsr_design();
    let campaign = Campaign::with_config(
        &nl,
        imp,
        &["q"],
        600,
        CampaignConfig {
            threads: 1,
            margin_cycles: 64,
            fastpath: true,
            static_preclassify: false,
        },
    )
    .unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    // More entries than the word has lanes, so lanes retire and refill.
    let plan = campaign.plan(&load, 3000, 11).unwrap();
    fades_telemetry::reset_phases();
    let started = Instant::now();
    let results = campaign.execute_batched(&plan, None).unwrap();
    let wall_us = started.elapsed().as_micros() as u64;
    assert_eq!(results.len(), 3000);

    let (pass_us, passes) = phase(PASS_TOTAL);
    assert!(passes >= 1 && pass_us > 0, "no lane pass recorded");
    assert!(
        pass_us <= wall_us,
        "{pass_us} µs of passes in a {wall_us} µs campaign"
    );
    let mut phases_us = 0;
    for name in PASS_PHASES {
        let (us, count) = phase(name);
        assert_eq!(count, passes, "{name}: one record per pass");
        // Every phase but the end-of-pass one runs each batch cycle and
        // takes an `Instant` each time, so a phase that reads 0 has lost
        // its time to a neighbour.
        assert!(
            us > 0 || name == "lane.classify",
            "{name} took no time over {passes} passes"
        );
        phases_us += us;
    }
    let gap = phases_us.abs_diff(pass_us) as f64;
    assert!(
        gap <= 0.05 * pass_us as f64,
        "phases add up to {phases_us} µs over {passes} passes of {pass_us} µs"
    );

    // Disabled, a pass records nothing.
    fades_telemetry::set_enabled(false);
    fades_telemetry::reset_phases();
    campaign.execute_batched(&plan, None).unwrap();
    assert_eq!(phase(PASS_TOTAL).1, 0);
    assert_eq!(phase(PASS_PHASES[0]).1, 0);
}
