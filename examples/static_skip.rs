//! Measures what the static fault pre-classifier saves on a design with
//! provably dead logic.
//!
//! Builds the same `demo-dead` fixture `fades-experiments analyze
//! --design demo-dead` uses (a counter observed on `q`, a shadow
//! register nobody reads, and inverters feeding an unobserved debug
//! port), then runs the three statically-classifiable fault loads twice
//! — pre-classifier acting vs `static_preclassify: false` — and
//! reports the wall-clock per load. The campaign statistics of the two
//! runs are asserted bit-identical (including the `emulation_seconds`
//! f64 bits): skipping a statically-Silent experiment still charges its
//! exact modelled reconfiguration traffic.
//!
//! ```sh
//! cargo run --release --example static_skip
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::time::Instant;

use fades_core::{
    Campaign, CampaignConfig, CampaignStats, DurationRange, FaultLoad, PlanAnnotation, TargetClass,
};
use fades_fpga::ArchParams;
use fades_pnr::implement;
use fades_repro::netlist::Netlist;
use fades_repro::rtl::{RtlBuilder, Signal};

const FAULTS: usize = 300;
const SEED: u64 = 20060625;

fn demo_dead() -> Result<Netlist, Box<dyn std::error::Error>> {
    let mut b = RtlBuilder::new("demo-dead");
    let r = b.reg("cnt", 4, 0);
    let q = r.q().clone();
    let next = b.add_const(&q, 1);
    b.connect(r, &next);
    b.output("q", &q);
    let shadow = b.reg("shadow", 4, 0);
    b.connect(shadow, &q);
    let mut dead = Vec::new();
    for i in 0..4 {
        dead.push(b.not_bit(q.bit(i)));
    }
    b.output("unused_dbg", &Signal::from_bits(dead));
    Ok(b.finish()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = demo_dead()?;
    let imp = implement(&netlist, ArchParams::small())?;

    let build = |static_preclassify: bool, fastpath: bool| {
        Campaign::with_config(
            &netlist,
            imp.clone(),
            &["q"],
            2000,
            CampaignConfig {
                static_preclassify,
                fastpath,
                ..CampaignConfig::default()
            },
        )
    };
    let skipping = build(true, true)?;
    let executing = build(false, true)?;
    // With the dynamic fast path disabled, static classification is the
    // only thing standing between a provably dead fault and a full
    // simulation of the run — the pair below isolates that saving.
    let skipping_nofast = build(true, false)?;
    let executing_nofast = build(false, false)?;

    let loads: [(&str, FaultLoad); 3] = [
        (
            "bitflip-ffs",
            FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle),
        ),
        (
            "pulse-luts",
            FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle),
        ),
        (
            "indet-ffs",
            FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::SHORT, false),
        ),
    ];

    println!("demo-dead, {FAULTS} faults per load, seed {SEED}, scalar engine\n");
    println!("| load | static Silent | exec ms | skip ms | exec ms (no fastpath) | skip ms (no fastpath) | speed-up |");
    println!("|---|---|---|---|---|---|---|");
    for (name, load) in &loads {
        let plan = skipping.plan(load, FAULTS, SEED)?;
        let silent = plan
            .experiments
            .iter()
            .filter(|e| e.annotation == PlanAnnotation::StaticSilent)
            .count();

        let (skip, skip_ms) = best_of(5, || skipping.run(load, FAULTS, SEED))?;
        let (exec, exec_ms) = best_of(5, || executing.run(load, FAULTS, SEED))?;
        let (skip_nf, skip_nf_ms) = best_of(5, || skipping_nofast.run(load, FAULTS, SEED))?;
        let (exec_nf, exec_nf_ms) = best_of(5, || executing_nofast.run(load, FAULTS, SEED))?;

        assert_identical(&skip, &exec);
        assert_identical(&skip, &skip_nf);
        assert_identical(&skip, &exec_nf);
        println!(
            "| {name} | {silent}/{FAULTS} | {exec_ms:.1} | {skip_ms:.1} | {exec_nf_ms:.1} | {skip_nf_ms:.1} | {:.2}x |",
            exec_nf_ms / skip_nf_ms
        );
    }
    println!("\nstatistics bit-identical with the pre-classifier on vs off, fast path on vs off");
    Ok(())
}

/// Warm-up run plus best-of-`n` timing — campaigns on this fixture are
/// milliseconds, so a single sample is noise.
fn best_of(
    n: usize,
    mut run: impl FnMut() -> Result<CampaignStats, fades_core::CoreError>,
) -> Result<(CampaignStats, f64), fades_core::CoreError> {
    let mut stats = run()?;
    let mut best_ms = f64::INFINITY;
    for _ in 0..n {
        let t0 = Instant::now();
        stats = run()?;
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok((stats, best_ms))
}

fn assert_identical(a: &CampaignStats, b: &CampaignStats) {
    assert_eq!(a.outcomes, b.outcomes, "outcome mix must match");
    assert_eq!(
        a.emulation_seconds.to_bits(),
        b.emulation_seconds.to_bits(),
        "modelled seconds must be bit-identical"
    );
}
