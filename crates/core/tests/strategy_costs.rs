//! Cost contracts: the exact configuration-port traffic of every
//! injection strategy.
//!
//! The emulation-time results (Fig. 10 / Table 2) are a function of these
//! op and frame counts, so they are pinned here: a change to any strategy's
//! choreography must be deliberate (and re-calibrated in EXPERIMENTS.md).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_core::{Campaign, DurationRange, FaultLoad, TargetClass};
use fades_fpga::ArchParams;
use fades_netlist::UnitTag;
use fades_pnr::implement;
use fades_rtl::RtlBuilder;

fn campaign_design() -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    let mut b = RtlBuilder::new("costs");
    b.set_unit(UnitTag::Registers);
    let r = b.reg("cnt", 8, 0);
    let q = r.q().clone();
    b.set_unit(UnitTag::Alu);
    let next = b.add_const(&q, 1);
    b.set_unit(UnitTag::Registers);
    b.connect(r, &next);
    b.output("q", &q);
    let nl = b.finish().unwrap();
    let imp = implement(&nl, ArchParams::small()).unwrap();
    (nl, imp)
}

/// Runs one fault of the load and returns (ops, frames-equivalent bytes).
fn traffic_of(load: &FaultLoad) -> (usize, u64, u64, u64) {
    let (nl, imp) = campaign_design();
    let campaign = Campaign::new(&nl, imp, &["q"], 64).unwrap();
    let r = &campaign
        .execute(&campaign.plan(load, 1, 123).unwrap(), None)
        .unwrap()[0];
    (
        r.traffic.ops,
        r.traffic.readback_bytes,
        r.traffic.write_bytes,
        r.traffic.bulk_bytes,
    )
}

#[test]
fn lsr_bitflip_costs_three_ops() {
    // Capture readback + CLR/PR mux write + double-write LSR pulse.
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    let (ops, rb, wr, bulk) = traffic_of(&load);
    assert_eq!(ops, 3);
    let frame = ArchParams::small().frame_bytes as u64;
    assert_eq!(rb, frame);
    assert_eq!(wr, 3 * frame); // mux frame + pulse frame written twice
    assert_eq!(bulk, 0);
}

#[test]
fn mem_bitflip_costs_two_ops() {
    let load = FaultLoad::bit_flips(
        TargetClass::MemoryBits {
            name: "?".into(),
            lo: 0,
            hi: 0,
        },
        DurationRange::SubCycle,
    );
    // The counter design has no memory; use a design with one.
    let mut b = RtlBuilder::new("mem");
    let r = b.reg("a", 4, 0);
    let q = r.q().clone();
    let next = b.add_const(&q, 1);
    b.connect(r, &next);
    let zero = b.lit(0, 8);
    let z = b.zero();
    let dout = b.ram("m", &q, &zero, z, &[5, 6, 7]).unwrap();
    b.output("dout", &dout);
    let nl = b.finish().unwrap();
    let imp = implement(&nl, ArchParams::small()).unwrap();
    let campaign = Campaign::new(&nl, imp, &["dout"], 64).unwrap();
    let mut load = load;
    load.target = TargetClass::MemoryBits {
        name: "m".into(),
        lo: 0,
        hi: 2,
    };
    let r = &campaign
        .execute(&campaign.plan(&load, 1, 7).unwrap(), None)
        .unwrap()[0];
    assert_eq!(r.traffic.ops, 2, "readback frame + write frame");
    assert_eq!(r.traffic.bulk_bytes, 0);
}

#[test]
fn sub_cycle_pulse_costs_three_ops_and_long_pulse_six() {
    let short = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let (ops_short, ..) = traffic_of(&short);
    assert_eq!(ops_short, 3, "readback + write + restore write");
    let long = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::Cycles(5, 5));
    let (ops_long, ..) = traffic_of(&long);
    assert_eq!(
        ops_long, 6,
        "two verified reconfiguration passes (paper's 2x cost)"
    );
}

#[test]
fn fixed_ff_indetermination_costs_four_ops() {
    let load = FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::Cycles(5, 5), false);
    let (ops, ..) = traffic_of(&load);
    // Readback + mux write + pulse (assert) + release write; holding the
    // asserted line across the window is free.
    assert_eq!(ops, 4);
}

#[test]
fn oscillating_indetermination_costs_one_op_per_cycle() {
    let fixed =
        FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::Cycles(8, 8), false);
    let osc = FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::Cycles(8, 8), true);
    let (ops_fixed, ..) = traffic_of(&fixed);
    let (ops_osc, ..) = traffic_of(&osc);
    // Seven tick cycles (injection covers the first) of one merged write.
    assert_eq!(ops_osc, ops_fixed + 7);
}

#[test]
fn delay_faults_ship_two_full_downloads() {
    let load = FaultLoad::delays(TargetClass::SequentialWires, DurationRange::Cycles(5, 5));
    let (ops, _rb, wr, bulk) = traffic_of(&load);
    assert_eq!(ops, 2, "inject download + restore download");
    assert_eq!(wr, 0, "no separately-charged partial frames");
    assert_eq!(
        bulk,
        2 * ArchParams::small().full_config_bytes(),
        "full configuration file both ways"
    );
}

#[test]
fn permanent_faults_never_pay_removal() {
    use fades_core::PermanentFault;
    let load = FaultLoad::permanent(PermanentFault::StuckAt, TargetClass::AllLuts);
    let (ops, ..) = traffic_of(&load);
    assert_eq!(ops, 2, "readback + table write, nothing at expiry");
}
