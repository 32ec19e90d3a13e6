//! Equivalence of the checkpointed fast-forward path with the full
//! simulation path.
//!
//! The fast path (golden-checkpoint restore plus early-stop convergence
//! detection) is a host-side shortcut: the emulated device still executes
//! the full workload and the strategy issues the same reconfigurations in
//! the same order. These tests pin that down — for every fault model,
//! identical seeds must give identical faults, outcomes, configuration
//! traffic and (bit-for-bit) modelled emulation time on both paths.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_core::strategies::strategy_for;
use fades_core::{
    run_experiment, sample_fault, Campaign, CampaignConfig, CoreError, DurationRange, FaultLoad,
    FaultSchedule, GoldenRun, Outcome, PermanentFault, ResolvedFault, TargetClass,
};
use fades_fpga::{ArchParams, Device};
use fades_netlist::UnitTag;
use fades_pnr::implement;
use fades_rtl::RtlBuilder;
use rand::SeedableRng;

/// The campaign-test LFSR: an 8-bit maximal-ish LFSR XOR-folded through
/// observable taps (same shape as the `campaigns.rs` fixture).
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
    let imp = implement(&netlist, ArchParams::small()).unwrap();
    (netlist, imp)
}

/// A counter whose inverted bits feed only an unobserved port: pulses
/// into the inverters are silent, so the post-removal state re-converges
/// with golden and the fast path can stop early.
fn dead_logic_design() -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    let mut b = RtlBuilder::new("dead");
    let r = b.reg("cnt", 4, 0);
    let q = r.q().clone();
    let next = b.add_const(&q, 1);
    b.connect(r, &next);
    b.output("q", &q);
    let mut dead = Vec::new();
    for i in 0..4 {
        dead.push(b.not_bit(q.bit(i)));
    }
    let dead_sig = fades_rtl::Signal::from_bits(dead);
    b.output("unused_dbg", &dead_sig);
    let nl = b.finish().unwrap();
    let imp = implement(&nl, ArchParams::small()).unwrap();
    (nl, imp)
}

fn config(fastpath: bool) -> CampaignConfig {
    CampaignConfig {
        threads: 2,
        margin_cycles: 64,
        fastpath,
        // Off: this suite compares the raw engines, not the plan-time skip.
        static_preclassify: false,
    }
}

fn assert_equivalent(
    nl: &fades_netlist::Netlist,
    imp: &fades_pnr::Implementation,
    ports: &[&str],
    workload_cycles: u64,
    load: &FaultLoad,
    n: usize,
    seed: u64,
) {
    let fast = Campaign::with_config(nl, imp.clone(), ports, workload_cycles, config(true))
        .expect("fast campaign");
    let slow = Campaign::with_config(nl, imp.clone(), ports, workload_cycles, config(false))
        .expect("slow campaign");
    let f = fast
        .execute(&fast.plan(load, n, seed).expect("plans"), None)
        .expect("fast run");
    let s = slow
        .execute(&slow.plan(load, n, seed).expect("plans"), None)
        .expect("slow run");
    assert_eq!(f.len(), s.len());
    for (a, b) in f.iter().zip(&s) {
        assert_eq!(a.fault, b.fault, "{load:?}");
        assert_eq!(a.schedule, b.schedule, "{load:?}");
        assert_eq!(a.outcome, b.outcome, "{load:?} fault {:?}", a.fault);
        assert_eq!(
            a.traffic, b.traffic,
            "{load:?} fault {:?}: configuration traffic must be identical",
            a.fault
        );
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(
            b.skipped_cycles, 0,
            "the full path never restores checkpoints"
        );
        assert_eq!(b.early_stop_cycles, 0, "the full path never stops early");
    }
    // The modelled campaign time — the paper's reported quantity — must
    // agree to the bit, not just approximately.
    let fs = fast.run(load, n, seed).expect("fast stats");
    let ss = slow.run(load, n, seed).expect("slow stats");
    assert_eq!(fs.outcomes, ss.outcomes, "{load:?}");
    assert_eq!(
        fs.emulation_seconds.to_bits(),
        ss.emulation_seconds.to_bits(),
        "{load:?}: modelled emulation time must be bit-identical"
    );
    // With a 150+-cycle run and 64-cycle checkpoints, at least one random
    // injection instant lands past the first checkpoint.
    assert!(
        f.iter().any(|r| r.skipped_cycles > 0),
        "{load:?}: fast-forward never engaged"
    );
}

#[test]
fn ff_bit_flips_match_full_simulation() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 12, 101);
}

#[test]
fn gsr_bit_flips_match_full_simulation() {
    let (nl, imp) = lfsr_design();
    let mut load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    load.use_gsr = true;
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 102);
}

#[test]
fn multiple_bit_flips_match_full_simulation() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::multiple_bit_flips(TargetClass::AllFfs, 3);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 103);
}

#[test]
fn lut_pulses_match_full_simulation() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 12, 104);
}

#[test]
fn cb_input_pulses_match_full_simulation() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::pulses(TargetClass::CbInputs, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 105);
}

#[test]
fn wire_delays_match_full_simulation() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::delays(TargetClass::SequentialWires, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 106);
}

#[test]
fn indeterminations_match_full_simulation() {
    let (nl, imp) = lfsr_design();
    for oscillating in [false, true] {
        let load =
            FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::SHORT, oscillating);
        assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 107);
    }
}

#[test]
fn permanent_faults_match_full_simulation() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::permanent(PermanentFault::StuckAt, TargetClass::AllLuts);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 108);
}

#[test]
fn memory_bit_flips_match_full_simulation() {
    use fades_mcu8051::{build_soc, workloads, OBSERVED_PORTS};
    let w = workloads::fibonacci();
    let soc = build_soc(&w.rom).unwrap();
    let imp = implement(&soc.netlist, ArchParams::virtex1000_like()).unwrap();
    let load = FaultLoad::bit_flips(
        TargetClass::MemoryBits {
            name: "iram".into(),
            lo: w.data_range.0 as usize,
            hi: w.data_range.1 as usize,
        },
        DurationRange::SubCycle,
    );
    assert_equivalent(&soc.netlist, &imp, &OBSERVED_PORTS, 700, &load, 6, 109);
}

/// Routing delays on the 8051 running Bubblesort for its full length,
/// clocked at `clock_period_ns`: `n` faults per download mode, compared
/// entry by entry against the full-simulation path. Most delays leave
/// every overshoot pristine and are decided without simulation; the rest
/// are simulated, and some of those fail and stop once the delay is gone.
fn assert_8051_delays_match_full_simulation(clock_period_ns: f64, n: usize, seed: u64) {
    use fades_mcu8051::{build_soc, workloads, Iss, OBSERVED_PORTS};
    let w = workloads::bubblesort();
    let soc = build_soc(&w.rom).unwrap();
    let arch = ArchParams {
        clock_period_ns,
        ..ArchParams::virtex1000_like()
    };
    let imp = implement(&soc.netlist, arch).unwrap();
    let cycles = Iss::new(w.rom.clone())
        .run_to_completion(100_000)
        .unwrap()
        .cycles;
    let campaign = |fastpath| {
        Campaign::with_config(
            &soc.netlist,
            imp.clone(),
            &OBSERVED_PORTS,
            cycles,
            config(fastpath),
        )
        .unwrap()
    };
    let (fast, slow) = (campaign(true), campaign(false));
    let mut dev = Device::configure(imp.bitstream.clone()).unwrap();
    for full_download in [true, false] {
        let what = format!("{clock_period_ns} ns, full download {full_download}");
        let mut load = FaultLoad::delays(TargetClass::CombinationalWires, DurationRange::SHORT);
        load.delay_full_download = full_download;
        let plan = fast.plan(&load, n, seed).unwrap();
        let decided = fades_telemetry::fastpath::DELAYS_DECIDED.get();
        let f = fast.execute(&plan, None).unwrap();
        let decided = fades_telemetry::fastpath::DELAYS_DECIDED.get() - decided;
        let s = slow.execute(&plan, None).unwrap();
        let seconds = |r: &fades_core::ExperimentResult| {
            fast.time_model()
                .experiment_seconds(&r.traffic, fast.run_cycles())
                .to_bits()
        };
        for (a, b) in f.iter().zip(&s) {
            assert_eq!(a.fault, b.fault, "{what}");
            assert_eq!(a.schedule, b.schedule, "{what}");
            assert_eq!(a.outcome, b.outcome, "{what}: fault {:?}", a.fault);
            assert_eq!(a.traffic, b.traffic, "{what}: fault {:?}", a.fault);
            assert_eq!(seconds(a), seconds(b), "{what}: fault {:?}", a.fault);
        }
        let total = |rs: &[fades_core::ExperimentResult]| {
            rs.iter()
                .map(|r| {
                    fast.time_model()
                        .experiment_seconds(&r.traffic, fast.run_cycles())
                })
                .sum::<f64>()
                .to_bits()
        };
        assert_eq!(total(&f), total(&s), "{what}: modelled seconds");
        // Which delays leave timing pristine, found independently by
        // injecting each one on a device of its own.
        let (run_cycles, interval) = (fast.run_cycles(), fast.golden().checkpoint_interval());
        let mut neutral = 0;
        for (e, r) in plan.experiments.iter().zip(&f) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(e.seed);
            strategy_for(&e.fault, false)
                .inject(&mut dev, &mut rng)
                .unwrap();
            if dev.timing_is_pristine() {
                neutral += 1;
                // A decided delay reports what its simulated run would:
                // the checkpoint it restores, and a stop once the delay
                // is gone, its state then equal to golden's.
                let gone = e.schedule.inject_at + e.schedule.duration.unwrap();
                assert_eq!(
                    (r.skipped_cycles, r.early_stop_cycles),
                    (
                        e.schedule.inject_at / interval * interval,
                        run_cycles - gone.min(run_cycles)
                    ),
                    "{what}: fault {:?} {:?}",
                    e.fault,
                    e.schedule
                );
            }
            dev.reset();
        }
        assert!(
            neutral > 0 && neutral < n,
            "{what}: {neutral} of {n} delays are timing-neutral, so one path went untested"
        );
        assert!(
            decided >= neutral as u64,
            "{what}: {decided} delays decided, {neutral} neutral"
        );
        assert!(
            f.iter()
                .any(|r| r.outcome == Outcome::Failure && r.early_stop_cycles > 0),
            "{what}: no Failure stopped early"
        );
    }
}

#[test]
fn delays_on_the_8051_match_full_simulation() {
    assert_8051_delays_match_full_simulation(80.0, 1000, 5);
}

#[test]
fn delays_on_a_marginally_timed_8051_match_full_simulation() {
    // At 66 ns the pristine design already overshoots the clock, so a
    // timing-neutral delay is one that leaves those overshoots unchanged,
    // not one that leaves them zero.
    assert_8051_delays_match_full_simulation(66.0, 300, 6);
}

#[test]
fn early_stop_engages_on_silent_faults() {
    let (nl, imp) = dead_logic_design();
    let campaign = Campaign::with_config(&nl, imp.clone(), &["q"], 150, config(true)).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    let results = campaign
        .execute(&campaign.plan(&load, 20, 17).expect("plans"), None)
        .expect("runs");
    // Pulses into the dead inverters leave the counter untouched: once
    // the fault is removed the state hash re-converges with golden and
    // the remaining tail is skipped.
    assert!(
        results
            .iter()
            .any(|r| r.outcome == Outcome::Silent && r.early_stop_cycles > 0),
        "no silent experiment stopped early: {:?}",
        results
            .iter()
            .map(|r| (r.outcome, r.early_stop_cycles))
            .collect::<Vec<_>>()
    );
    // Early stop must never fire while the outcome would still be open.
    let slow = Campaign::with_config(&nl, imp, &["q"], 150, config(false)).unwrap();
    let reference = slow
        .execute(&slow.plan(&load, 20, 17).expect("plans"), None)
        .expect("runs");
    for (a, b) in results.iter().zip(&reference) {
        assert_eq!(a.outcome, b.outcome, "fault {:?}", a.fault);
        assert_eq!(a.traffic, b.traffic);
    }
}

#[test]
fn overrunning_fault_charges_removal_on_both_paths() {
    // A fault whose schedule extends past the end of the run is removed
    // after the final cycle (paper Fig. 1 removes it before the next
    // experiment), so its removal reconfiguration must appear in the
    // ledger — and identically on both paths.
    let (_nl, imp) = lfsr_design();
    let mut dev = Device::configure(imp.bitstream.clone()).unwrap();
    let ports = vec!["q".to_string()];
    let golden = GoldenRun::capture(&mut dev, &ports, 100).unwrap();
    let cb = imp.bitstream.used_ffs()[0];
    let fault = ResolvedFault::CbInputPulse { cb };

    let mut run = |inject_at: u64, duration: u64, fastpath: bool| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        run_experiment(
            &mut dev,
            &golden,
            fault.clone(),
            strategy_for(&fault, false),
            FaultSchedule {
                inject_at,
                duration: Some(duration),
            },
            &ports,
            &mut rng,
            fastpath,
        )
        .expect("experiment")
    };

    // Ends inside the run: inject + in-loop removal.
    let inside = run(50, 10, false);
    // Overruns the run end: inject + end-of-run removal.
    let overrun_slow = run(95, 10, false);
    let overrun_fast = run(95, 10, true);

    assert_eq!(
        inside.traffic, overrun_slow.traffic,
        "an overrunning pulse must still be charged for its removal"
    );
    assert_eq!(overrun_slow.traffic, overrun_fast.traffic);
    assert_eq!(overrun_slow.outcome, overrun_fast.outcome);

    // The removal actually restored the configuration: a faultless replay
    // of the device still matches golden (run_experiment resets runtime
    // state but never re-configures).
    dev.reset();
    dev.run(100);
    assert_eq!(dev.state_snapshot().as_slice(), golden.final_state());
}

#[test]
fn multi_flip_samples_distinct_sites() {
    let (nl, imp) = lfsr_design();
    let sites =
        fades_core::resolve_targets(&nl, &imp.map, &imp.bitstream, &TargetClass::AllFfs).unwrap();
    let load = FaultLoad::multiple_bit_flips(TargetClass::AllFfs, 5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    for _ in 0..50 {
        match sample_fault(&load, &sites, &imp.bitstream, &mut rng).unwrap() {
            ResolvedFault::MultiFfBitFlip { cbs } => {
                assert_eq!(cbs.len(), 5);
                let distinct: std::collections::HashSet<_> = cbs.iter().collect();
                assert_eq!(distinct.len(), 5, "sampled sites repeat: {cbs:?}");
            }
            other => panic!("unexpected fault {other:?}"),
        }
    }
}

#[test]
fn multi_flip_rejects_oversized_requests() {
    // The LFSR has exactly 8 flip-flops; asking for 9 distinct flips
    // cannot be satisfied and must be a clean error, not a hang or a
    // duplicated site list.
    let (nl, imp) = lfsr_design();
    let sites =
        fades_core::resolve_targets(&nl, &imp.map, &imp.bitstream, &TargetClass::AllFfs).unwrap();
    let load = FaultLoad::multiple_bit_flips(TargetClass::AllFfs, 9);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    match sample_fault(&load, &sites, &imp.bitstream, &mut rng) {
        Err(CoreError::InsufficientTargets { needed, available }) => {
            assert_eq!((needed, available), (9, 8));
        }
        other => panic!("expected InsufficientTargets, got {other:?}"),
    }
}
