//! Campaign-level behaviour of the fault-emulation framework.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_core::{
    Campaign, DurationRange, FaultLoad, FaultModel, Outcome, PermanentFault, TargetClass,
};
use fades_fpga::ArchParams;
use fades_netlist::UnitTag;
use fades_pnr::implement;
use fades_rtl::RtlBuilder;

/// A small sequential design for fast campaign tests: an 8-bit LFSR
/// (Registers unit) XOR-folded into a parity flag (Alu unit), with the
/// LFSR value observed.
fn lfsr_campaign() -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    let mut b = RtlBuilder::new("lfsr");
    b.set_unit(UnitTag::Registers);
    let r = b.reg("lfsr", 8, 1);
    let q = r.q().clone();
    b.set_unit(UnitTag::Alu);
    let t1 = b.xor_bit(q.bit(7), q.bit(5));
    let t2 = b.xor_bit(q.bit(4), q.bit(3));
    let tap = b.xor_bit(t1, t2);
    // Build the shifted vector by hand so no orphan constant LUT exists
    // (every LUT in this design is live and observable).
    let mut bits = vec![tap];
    bits.extend((0..7).map(|i| q.bit(i)));
    b.set_unit(UnitTag::Registers);
    let next = fades_rtl::Signal::from_bits(bits);
    b.connect(r, &next);
    b.output("q", &q);
    let netlist = b.finish().unwrap();
    let imp = implement(&netlist, ArchParams::small()).unwrap();
    (netlist, imp)
}

#[test]
fn bit_flip_into_lfsr_always_fails() {
    // Every LFSR bit feeds the observed output within a few cycles, so a
    // flipped state must diverge the trace.
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 200).unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    let stats = campaign.run(&load, 24, 7).unwrap();
    assert_eq!(stats.outcomes.failures, 24);
}

#[test]
fn campaign_lints_its_design_once() {
    // The findings are the linter's over the implemented bitstream, and
    // every later call reads the same memoised list.
    let (nl, imp) = lfsr_campaign();
    let expected = fades_analysis::lint_quiet(&imp.bitstream);
    let campaign = Campaign::new(&nl, imp, &["q"], 100).unwrap();
    let first = campaign.lint();
    assert_eq!(first, expected.as_slice());
    assert!(std::ptr::eq(first, campaign.lint()));
}

#[test]
fn plan_rejects_empty_and_zero_cycle_duration_ranges() {
    // An inverted range would panic inside the sampler, and a zero-cycle
    // fault is one the scalar and lane engines disagree on: both are a
    // typed error before any fault is sampled.
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 100).unwrap();
    for (lo, hi) in [(5, 2), (0, 3)] {
        let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::Cycles(lo, hi));
        match campaign.plan(&load, 4, 1) {
            Err(fades_core::CoreError::InvalidDuration { lo: l, hi: h }) => {
                assert_eq!((l, h), (lo, hi));
            }
            other => panic!("Cycles({lo}, {hi}): expected InvalidDuration, got {other:?}"),
        }
    }
    for duration in [
        DurationRange::SHORT,
        DurationRange::MEDIUM,
        DurationRange::Cycles(3, 3),
        DurationRange::SubCycle,
        DurationRange::Permanent,
    ] {
        let load = FaultLoad::pulses(TargetClass::AllLuts, duration);
        assert_eq!(campaign.plan(&load, 4, 1).unwrap().len(), 4, "{duration:?}");
    }
}

/// What two engines must agree on in a verdict: plan index, outcome,
/// traffic and modelled-seconds bits, or the quarantine error and
/// attempts (host wall clock left out).
fn verdict_key(v: &fades_core::ExperimentVerdict) -> String {
    match v {
        fades_core::ExperimentVerdict::Completed {
            index,
            modelled_seconds,
            result,
            ..
        } => format!(
            "{index}: {:?} {:?} {:#x}",
            result.outcome,
            result.traffic,
            modelled_seconds.to_bits()
        ),
        fades_core::ExperimentVerdict::Quarantined {
            index,
            error,
            attempts,
        } => format!("{index}: quarantined after {attempts}: {error}"),
    }
}

#[test]
fn every_engine_rejects_a_hand_built_zero_cycle_schedule() {
    // `plan` never samples a zero-cycle fault or an injection outside the
    // run, but a plan is plain data: a hand-built bad schedule must be
    // the same typed error on every engine instead of reaching one
    // undefined.
    let (nl, imp) = lfsr_campaign();
    let config = fades_core::CampaignConfig {
        threads: 1,
        static_preclassify: false,
        ..fades_core::CampaignConfig::default()
    };
    let campaign = Campaign::with_config(&nl, imp, &["q"], 100, config).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    let zero = fades_core::CoreError::InvalidDuration { lo: 0, hi: 0 };
    let run = campaign.run_cycles();
    let outside = fades_core::CoreError::BadSchedule {
        at: run,
        run_cycles: run,
    };
    let mut bad_plans = Vec::new();
    let mut plan = campaign.plan(&load, 6, 3).unwrap();
    plan.experiments[2].schedule.duration = Some(0);
    bad_plans.push((plan, zero));
    let mut plan = campaign.plan(&load, 6, 3).unwrap();
    plan.experiments[4].schedule.inject_at = run;
    bad_plans.push((plan, outside));
    for (plan, error) in &bad_plans {
        let bad = plan
            .experiments
            .iter()
            .position(|e| e.schedule.duration == Some(0) || e.schedule.inject_at >= run)
            .unwrap() as u64;
        assert_eq!(&campaign.execute(plan, None).unwrap_err(), error);
        assert_eq!(&campaign.execute_batched(plan, None).unwrap_err(), error);
        // Under isolation both engines quarantine just that entry and
        // return the same verdicts.
        let verdicts = campaign.execute_isolated(plan, 1, None, None).unwrap();
        let batched = campaign
            .execute_batched_isolated(plan, 1, None, None)
            .unwrap();
        assert_eq!(
            batched.iter().map(verdict_key).collect::<Vec<_>>(),
            verdicts.iter().map(verdict_key).collect::<Vec<_>>(),
            "{error}"
        );
        assert_eq!(verdicts.len(), 6);
        for v in &verdicts {
            match v {
                fades_core::ExperimentVerdict::Quarantined {
                    index, error: e, ..
                } => {
                    assert_eq!((*index, e.as_str()), (bad, error.to_string().as_str()));
                }
                fades_core::ExperimentVerdict::Completed { index, .. } => assert_ne!(*index, bad),
            }
        }
    }
}

#[test]
fn empty_campaign_yields_zeroed_stats() {
    // Regression: n_faults = 0 used to panic in the executor's work
    // partitioning (`chunks(0)`); it must simply produce empty stats.
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 100).unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    let stats = campaign.run(&load, 0, 7).unwrap();
    assert_eq!(stats.total(), 0);
    assert_eq!(stats.emulation_seconds, 0.0);
    assert_eq!(stats.mean_seconds_per_fault(), 0.0);
    assert!(campaign
        .execute(&campaign.plan(&load, 0, 7).unwrap(), None)
        .unwrap()
        .is_empty());
}

#[test]
fn campaigns_are_deterministic_per_seed() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    let a = campaign
        .execute(&campaign.plan(&load, 16, 42).unwrap(), None)
        .unwrap();
    let b = campaign
        .execute(&campaign.plan(&load, 16, 42).unwrap(), None)
        .unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.fault, y.fault);
        assert_eq!(x.outcome, y.outcome);
    }
    let c = campaign
        .execute(&campaign.plan(&load, 16, 43).unwrap(), None)
        .unwrap();
    assert!(
        a.iter().zip(&c).any(|(x, y)| x.fault != y.fault),
        "different seeds draw different fault lists"
    );
}

#[test]
fn pulse_removal_restores_original_configuration() {
    // After a pulse campaign the per-experiment device must have been
    // restored each time: a fresh run with zero faults must match golden,
    // i.e. running the same campaign twice gives identical outcomes.
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 100).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let first = campaign.run(&load, 12, 5).unwrap();
    let second = campaign.run(&load, 12, 5).unwrap();
    assert_eq!(first.outcomes, second.outcomes);
}

#[test]
fn gsr_mechanism_moves_more_configuration_data_than_lsr() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 100).unwrap();
    let mut lsr = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    let mut gsr = lsr.clone();
    lsr.use_gsr = false;
    gsr.use_gsr = true;
    let lsr_res = campaign
        .execute(&campaign.plan(&lsr, 8, 11).unwrap(), None)
        .unwrap();
    let gsr_res = campaign
        .execute(&campaign.plan(&gsr, 8, 11).unwrap(), None)
        .unwrap();
    let bytes = |rs: &[fades_core::ExperimentResult]| -> u64 {
        rs.iter()
            .map(|r| r.traffic.readback_bytes + r.traffic.write_bytes)
            .sum()
    };
    // On this one-column design GSR costs exactly twice LSR; on real
    // multi-column designs the gap is much larger (see the
    // `ablation_gsr_vs_lsr` bench on the 8051).
    assert!(
        bytes(&gsr_res) >= 2 * bytes(&lsr_res),
        "GSR must be more expensive: {} vs {}",
        bytes(&gsr_res),
        bytes(&lsr_res)
    );
    // Same seeds target the same FFs, so functional outcomes agree.
    for (a, b) in lsr_res.iter().zip(&gsr_res) {
        assert_eq!(a.outcome, b.outcome, "GSR and LSR flips are equivalent");
    }
}

#[test]
fn oscillating_indetermination_reconfigures_every_cycle() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 100).unwrap();
    let fixed =
        FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::Cycles(15, 15), false);
    let osc = FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::Cycles(15, 15), true);
    let f = campaign.run(&fixed, 8, 3).unwrap();
    let o = campaign.run(&osc, 8, 3).unwrap();
    assert!(
        o.mean_seconds_per_fault() > 2.0 * f.mean_seconds_per_fault(),
        "oscillating {} vs fixed {}",
        o.mean_seconds_per_fault(),
        f.mean_seconds_per_fault()
    );
}

#[test]
fn delay_full_download_dominates_partial_cost() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 100).unwrap();
    let mut full = FaultLoad::delays(TargetClass::SequentialWires, DurationRange::SHORT);
    let mut partial = full.clone();
    full.delay_full_download = true;
    partial.delay_full_download = false;
    let f = campaign
        .execute(&campaign.plan(&full, 8, 9).unwrap(), None)
        .unwrap();
    let p = campaign
        .execute(&campaign.plan(&partial, 8, 9).unwrap(), None)
        .unwrap();
    let bulk = |rs: &[fades_core::ExperimentResult]| -> u64 {
        rs.iter().map(|r| r.traffic.bulk_bytes).sum()
    };
    let total = |rs: &[fades_core::ExperimentResult]| -> u64 {
        rs.iter()
            .map(|r| r.traffic.bulk_bytes + r.traffic.write_bytes + r.traffic.readback_bytes)
            .sum()
    };
    assert!(bulk(&p) == 0, "partial mode ships no full configurations");
    assert!(bulk(&f) > 0, "full-download mode ships full configurations");
    assert!(total(&f) > total(&p), "full downloads move more bytes");
}

#[test]
fn permanent_stuck_at_in_lfsr_feedback_fails() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 200).unwrap();
    let load = FaultLoad::permanent(PermanentFault::StuckAt, TargetClass::AllLuts);
    assert_eq!(load.model, FaultModel::Permanent(PermanentFault::StuckAt));
    let stats = campaign.run(&load, 16, 21).unwrap();
    // Every LUT of this design feeds the observed LFSR feedback, so a
    // permanently stuck function generator must corrupt the sequence.
    assert!(stats.outcomes.failures >= 14, "{:?}", stats.outcomes);
}

#[test]
fn silent_faults_exist_when_targeting_dead_logic() {
    // A LUT whose output feeds nothing observable: pulses there are
    // silent.
    let mut b = RtlBuilder::new("dead");
    let r = b.reg("cnt", 4, 0);
    let q = r.q().clone();
    let next = b.add_const(&q, 1);
    b.connect(r, &next);
    b.output("q", &q);
    // Dead logic: parity of the counter, unobserved but kept alive by an
    // unused output port.
    let mut dead = Vec::new();
    for i in 0..4 {
        dead.push(b.not_bit(q.bit(i)));
    }
    let dead_sig = fades_rtl::Signal::from_bits(dead);
    b.output("unused_dbg", &dead_sig);
    let nl = b.finish().unwrap();
    let imp = implement(&nl, ArchParams::small()).unwrap();
    // Observe only `q`: pulses into the inverters cannot reach it.
    let campaign = Campaign::new(&nl, imp, &["q"], 64).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let results = campaign
        .execute(&campaign.plan(&load, 20, 17).unwrap(), None)
        .unwrap();
    assert!(results.iter().any(|r| r.outcome == Outcome::Silent));
}

#[test]
fn screening_finds_sensitive_ffs() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let sensitive = campaign.screen_sensitive_ffs(2, 99).unwrap();
    // Every LFSR bit is observable, so all 8 FFs are eligible.
    assert_eq!(sensitive.len(), 8);
}

#[test]
fn memory_bit_flip_campaign_on_8051_data_mostly_fails() {
    use fades_mcu8051::{build_soc, workloads, OBSERVED_PORTS};
    let w = workloads::bubblesort();
    let soc = build_soc(&w.rom).unwrap();
    let imp = implement(&soc.netlist, ArchParams::virtex1000_like()).unwrap();
    let campaign = Campaign::new(&soc.netlist, imp, &OBSERVED_PORTS, 1330).unwrap();
    let load = FaultLoad::bit_flips(
        TargetClass::MemoryBits {
            name: "iram".into(),
            lo: w.data_range.0 as usize,
            hi: w.data_range.1 as usize,
        },
        DurationRange::SubCycle,
    );
    let stats = campaign.run(&load, 12, 2024).unwrap();
    // Paper Fig. 11: bit-flips in the used memory positions very likely
    // cause failures (81% there). Require a clear majority.
    assert!(
        stats.outcomes.failures * 2 > stats.total(),
        "{:?}",
        stats.outcomes
    );
}

#[test]
fn multiple_bit_flips_fail_at_least_as_often_as_single() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let single = campaign
        .run(
            &FaultLoad::multiple_bit_flips(TargetClass::AllFfs, 1),
            16,
            31,
        )
        .unwrap();
    let triple = campaign
        .run(
            &FaultLoad::multiple_bit_flips(TargetClass::AllFfs, 3),
            16,
            31,
        )
        .unwrap();
    assert!(triple.outcomes.failures >= single.outcomes.failures.saturating_sub(1));
    assert_eq!(triple.total(), 16);
}

#[test]
fn multi_flip_flips_exactly_the_targeted_ffs() {
    use fades_core::strategies::{InjectionStrategy, MultiBitFlip};
    use fades_fpga::Device;
    use rand::SeedableRng;
    let (_nl, imp) = lfsr_campaign();
    let mut dev = Device::configure(imp.bitstream.clone()).unwrap();
    dev.run(13);
    let before: Vec<_> = imp
        .bitstream
        .used_ffs()
        .iter()
        .map(|&cb| (cb, dev.peek_ff(cb).unwrap()))
        .collect();
    let targets: Vec<_> = before.iter().take(3).map(|(cb, _)| *cb).collect();
    let mut strategy = MultiBitFlip::new(targets.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    strategy.inject(&mut dev, &mut rng).unwrap();
    for (cb, value) in before {
        let expect = value ^ targets.contains(&cb);
        assert_eq!(dev.peek_ff(cb).unwrap(), expect, "{cb}");
    }
}
