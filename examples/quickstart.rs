//! Quickstart: emulate one transient fault in a small circuit.
//!
//! Builds a 4-bit counter in RTL, synthesises and implements it on the
//! simulated FPGA, then injects a single bit-flip through run-time
//! reconfiguration and classifies the effect against a golden run.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_core::{Campaign, DurationRange, FaultLoad, TargetClass};
use fades_fpga::ArchParams;
use fades_pnr::implement;
use fades_repro::rtl::RtlBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the system under analysis in RTL.
    let mut b = RtlBuilder::new("counter");
    let cnt = b.reg("cnt", 4, 0);
    let q = cnt.q().clone();
    let next = b.add_const(&q, 1);
    b.connect(cnt, &next);
    b.output("q", &q);
    let netlist = b.finish()?;
    println!("model: {}", netlist.stats());

    // 2. Synthesise and implement it on the generic FPGA.
    let imp = implement(&netlist, ArchParams::small())?;
    let (luts, ffs, _) = imp.bitstream.utilisation();
    println!("implemented: {luts} LUTs, {ffs} FFs");

    // 3. Prepare a campaign (configures the device, captures the golden
    //    run) and inject bit-flips into every flip-flop.
    let campaign = Campaign::new(&netlist, imp, &["q"], 64)?;
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    let results = campaign.execute(&campaign.plan(&load, 8, 1)?, None)?;

    for r in &results {
        println!(
            "fault {:?} at cycle {:>3} -> {} ({} config ops, {} bytes moved)",
            r.fault,
            r.schedule.inject_at,
            r.outcome,
            r.traffic.ops,
            r.traffic.readback_bytes + r.traffic.write_bytes + r.traffic.bulk_bytes,
        );
    }
    let stats = campaign.run(&load, 100, 2)?;
    println!(
        "\n100 bit-flips: {} | modelled emulation time {:.1} s",
        stats.outcomes, stats.emulation_seconds
    );
    Ok(())
}
