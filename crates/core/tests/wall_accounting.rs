//! Wall-clock attribution invariants of the lane engine.
//!
//! The cohort's host clock is shared by up to 63 concurrent lanes; each
//! retirement charges the elapsed interval *divided* across the occupied
//! lanes. These tests pin down the consequences:
//!
//! * summed per-experiment `wall_us` across a batched campaign stays
//!   within the campaign's measured elapsed wall (the historical bug had
//!   every lane claim the whole word's residency, inflating the sum 63×),
//! * the telemetry aggregate's `mean_us_per_fault() * n` reproduces the
//!   summed per-experiment `wall_us` on the scalar and batched paths, and
//! * the batched per-fault host cost comes out below scalar.
//!
//! Single test function: both paths feed the process-global telemetry
//! registry and the comparison needs an interference-free sequence.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::time::Instant;

use fades_core::{Campaign, CampaignConfig, DurationRange, FaultLoad, TargetClass};
use fades_netlist::UnitTag;
use fades_pnr::implement;
use fades_rtl::RtlBuilder;
use fades_telemetry::{CampaignAggregate, Recorder};

/// The campaign-test LFSR (same fixture shape as `batch_equiv.rs`).
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

fn assert_mean_reconstructs_sum(agg: &CampaignAggregate, n: usize) {
    assert_eq!(agg.n as usize, n, "{}: all experiments recorded", agg.name);
    let sum = agg.exp_wall.sum() as f64;
    let reconstructed = agg.mean_us_per_fault() * agg.n as f64;
    assert!(
        (reconstructed - sum).abs() <= 1e-6 * sum.max(1.0),
        "{}: mean_us_per_fault()*n = {reconstructed} but summed wall_us = {sum}",
        agg.name
    );
}

#[test]
fn lane_wall_attribution_shares_the_cohort_clock() {
    let (nl, imp) = lfsr_design();
    let campaign = Campaign::with_config(
        &nl,
        imp,
        &["q"],
        150,
        CampaignConfig {
            threads: 1,
            margin_cycles: 64,
            fastpath: true,
            batch: true,
            static_preclassify: false,
        },
    )
    .unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    let n = 100;
    let plan = campaign.plan(&load, n, 42).unwrap();

    let scalar_rec = Recorder::new("wall-scalar", n, 1).with_run_log(None);
    campaign
        .execute_isolated(&plan, 0, Some(&scalar_rec), None)
        .unwrap();
    let scalar = scalar_rec.finish();

    let batched_rec = Recorder::new("wall-batched", n, 1).with_run_log(None);
    let t0 = Instant::now();
    let results = campaign.execute_batched(&plan, Some(&batched_rec)).unwrap();
    let elapsed_us = t0.elapsed().as_micros() as u64;
    let batched = batched_rec.finish();

    assert_mean_reconstructs_sum(&scalar, n);
    assert_mean_reconstructs_sum(&batched, n);

    // The aggregate's histogram sum is exactly the per-result sum.
    let result_sum: u64 = results.iter().map(|r| r.wall_us).sum();
    assert_eq!(result_sum, batched.exp_wall.sum());

    // Shared-clock attribution: the cohort's lanes split its elapsed
    // wall, so the sum cannot exceed what the whole batched execution
    // measurably took (+1µs rounding per experiment). The overcounting
    // bug put this at ~63× the elapsed wall.
    assert!(
        result_sum <= elapsed_us + n as u64,
        "summed batched wall_us ({result_sum}µs) exceeds the measured elapsed wall \
         ({elapsed_us}µs): lanes are claiming whole-word residency again"
    );

    // 63-wide sharing must make the per-fault host cost cheaper than
    // running the same faults one at a time.
    assert!(
        batched.mean_us_per_fault() < scalar.mean_us_per_fault(),
        "batched mean_us_per_fault ({:.1}) not below scalar ({:.1})",
        batched.mean_us_per_fault(),
        scalar.mean_us_per_fault()
    );

    // Drain what the two finish() calls pushed so this binary leaves the
    // process-global registry as it found it.
    let _ = fades_telemetry::drain_aggregates();
}
