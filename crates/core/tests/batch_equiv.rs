//! Equivalence of the bit-parallel lane engine with the scalar
//! per-experiment path.
//!
//! The lane engine is a host-side shortcut: each faulty machine still
//! executes the full workload and its strategy issues the same
//! reconfigurations in the same order, just up to 511 machines per lane
//! word (63 per `u64`, with 1, 2, 4 or 8 `u64`s sized to the plan).
//! These tests pin that down for every fault load — identical seeds must
//! give identical faults, outcomes, configuration traffic and
//! (bit-for-bit) modelled emulation time on both paths, including for
//! loads whose faults the lane engine cannot express and routes to the
//! scalar fallback.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_core::{
    Campaign, CampaignConfig, CampaignPlan, CampaignStats, DurationRange, ExperimentResult,
    FaultLoad, PermanentFault, TargetClass,
};
use fades_mcu8051::OBSERVED_PORTS;
use fades_netlist::UnitTag;
use fades_pnr::implement;
use fades_rtl::RtlBuilder;

/// The campaign-test LFSR (same fixture shape as `fastpath.rs`).
fn lfsr_design() -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    lfsr_observing(8)
}

/// The campaign-test LFSR with only its top `width` bits on the observed
/// port `q`: a fault in a lower bit stays unobserved until it shifts up.
fn lfsr_observing(width: usize) -> (fades_netlist::Netlist, fades_pnr::Implementation) {
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
    let observed = fades_rtl::Signal::from_bits((8 - width..8).map(|i| q.bit(i)).collect());
    b.output("q", &observed);
    let netlist = b.finish().unwrap();
    let imp = implement(&netlist, fades_fpga::ArchParams::small()).unwrap();
    (netlist, imp)
}

fn config() -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        margin_cycles: 64,
        fastpath: true,
        // Off: the equivalence suite must exercise the engines for real.
        static_preclassify: false,
    }
}

/// Runs `load` on both paths of the *same* campaign and asserts the
/// per-experiment results and aggregated stats are identical — outcomes
/// and traffic exactly, modelled emulation seconds to the bit.
///
/// The sampled experiments then run twice more, retimed: once with every
/// injection in cycles 0–7 (no checkpoint past cycle 0, so every cohort
/// pass starts cold from `reset`; the window is narrow so that plans
/// larger than a word leave entries for cold refill passes), and once
/// with every injection after the last checkpoint (every pass
/// warm-starts from it).
fn assert_equivalent(
    nl: &fades_netlist::Netlist,
    imp: &fades_pnr::Implementation,
    ports: &[&str],
    workload_cycles: u64,
    load: &FaultLoad,
    n: usize,
    seed: u64,
) {
    let campaign =
        Campaign::with_config(nl, imp.clone(), ports, workload_cycles, config()).expect("campaign");
    let plan = campaign.plan(load, n, seed).expect("plan");
    assert_plan_equivalent(&campaign, &plan, &format!("{load:?}"));
    // The stats entry point folds the same results: the modelled
    // campaign time — the paper's reported quantity — must agree to the
    // bit, not just approximately.
    let bs = fold(
        &campaign,
        &campaign.execute_batched(&plan, None).expect("batched"),
    );
    let ss = campaign.run(load, n, seed).expect("scalar stats");
    assert_eq!(bs.outcomes, ss.outcomes, "{load:?}");
    assert_eq!(
        bs.emulation_seconds.to_bits(),
        ss.emulation_seconds.to_bits(),
        "{load:?}: modelled emulation time must be bit-identical"
    );

    let run_cycles = campaign.run_cycles();
    let interval = campaign.golden().checkpoint_interval();
    let last_checkpoint = (run_cycles - 1) / interval * interval;
    assert!(
        last_checkpoint > 0 && last_checkpoint + 1 < run_cycles,
        "the fixture needs cycles before and after its last checkpoint"
    );
    let cold = retimed(&plan, |at| at % 8);
    assert_plan_equivalent(&campaign, &cold, &format!("{load:?}, cold start"));
    let late = retimed(&plan, |at| {
        last_checkpoint + 1 + at % (run_cycles - last_checkpoint - 1)
    });
    assert_plan_equivalent(
        &campaign,
        &late,
        &format!("{load:?}, after the last checkpoint"),
    );
}

/// The stats a campaign run folds from `results`, in plan order.
fn fold(campaign: &Campaign<'_>, results: &[ExperimentResult]) -> CampaignStats {
    let mut stats = CampaignStats::default();
    for r in results {
        let seconds = campaign
            .time_model()
            .experiment_seconds(&r.traffic, campaign.run_cycles());
        stats.accumulate(r.outcome, seconds);
    }
    stats
}

/// `plan` with every injection instant mapped through `at`.
fn retimed(plan: &CampaignPlan, at: impl Fn(u64) -> u64) -> CampaignPlan {
    let mut plan = plan.clone();
    for e in &mut plan.experiments {
        e.schedule.inject_at = at(e.schedule.inject_at);
    }
    plan
}

/// Executes `plan` on the lane engine and on the scalar oracle and
/// asserts identical per-experiment results, identical outcome tallies
/// and bit-identical modelled seconds, folded in plan order.
fn assert_plan_equivalent(campaign: &Campaign<'_>, plan: &CampaignPlan, what: &str) {
    let batched = campaign.execute_batched(plan, None).expect("batched run");
    let scalar = campaign.execute(plan, None).expect("scalar run");
    assert_eq!(batched.len(), scalar.len(), "{what}");
    for (b, s) in batched.iter().zip(&scalar) {
        assert_eq!(b.fault, s.fault, "{what}");
        assert_eq!(b.schedule, s.schedule, "{what}");
        assert_eq!(b.outcome, s.outcome, "{what}: fault {:?}", b.fault);
        assert_eq!(
            b.traffic, s.traffic,
            "{what}: fault {:?}: configuration traffic must be identical",
            b.fault
        );
        assert_eq!(b.strategy, s.strategy, "{what}");
        if s.outcome == fades_core::Outcome::Failure {
            // Both engines stop a Failure once its fault is gone.
            assert_eq!(
                b.early_stop_cycles, s.early_stop_cycles,
                "{what}: fault {:?} {:?}: Failure early stop",
                b.fault, b.schedule
            );
        }
        let seconds = |r: &ExperimentResult| {
            campaign
                .time_model()
                .experiment_seconds(&r.traffic, campaign.run_cycles())
                .to_bits()
        };
        assert_eq!(seconds(b), seconds(s), "{what}: fault {:?}", b.fault);
    }
    let (bs, ss) = (fold(campaign, &batched), fold(campaign, &scalar));
    assert_eq!(bs.outcomes, ss.outcomes, "{what}");
    assert_eq!(
        bs.emulation_seconds.to_bits(),
        ss.emulation_seconds.to_bits(),
        "{what}: modelled emulation time must be bit-identical"
    );
}

#[test]
fn ff_bit_flips_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 12, 201);
}

#[test]
fn gsr_bit_flips_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    let mut load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    load.use_gsr = true;
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 202);
}

#[test]
fn multiple_bit_flips_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::multiple_bit_flips(TargetClass::AllFfs, 3);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 203);
}

#[test]
fn lut_pulses_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 12, 204);
}

#[test]
fn cb_input_pulses_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::pulses(TargetClass::CbInputs, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 205);
}

#[test]
fn wire_delays_fall_back_to_scalar_and_match() {
    // Routing delays are not lane-expressible: the whole load routes to
    // the scalar fallback inside `execute_batched`, which must still produce
    // results identical to a plain scalar run.
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::delays(TargetClass::SequentialWires, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 206);
}

#[test]
fn indeterminations_match_scalar_path() {
    // `oscillating: false` runs on the lanes; `oscillating: true`
    // re-randomises every cycle and falls back to the scalar path.
    let (nl, imp) = lfsr_design();
    for oscillating in [false, true] {
        let load =
            FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::SHORT, oscillating);
        assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 207);
    }
}

#[test]
fn lut_indeterminations_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    for oscillating in [false, true] {
        let load =
            FaultLoad::indeterminations(TargetClass::AllLuts, DurationRange::SHORT, oscillating);
        assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 208);
    }
}

#[test]
fn permanent_stuck_at_faults_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::permanent(PermanentFault::StuckAt, TargetClass::AllLuts);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 209);
}

#[test]
fn permanent_stuck_ff_faults_match_scalar_path() {
    // Stuck-at on a flip-flop resolves to the StuckFf strategy, which
    // re-asserts its level through the LSR every cycle — per-cycle PulseLsr
    // traffic the lanes must charge identically.
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::permanent(PermanentFault::StuckAt, TargetClass::AllFfs);
    assert_equivalent(&nl, &imp, &["q"], 150, &load, 10, 210);
}

#[test]
fn permanent_open_line_faults_match_scalar_path() {
    let (nl, imp) = lfsr_design();
    for kind in [
        PermanentFault::OpenLine,
        PermanentFault::Bridging,
        PermanentFault::StuckOpen,
    ] {
        let load = FaultLoad::permanent(kind, TargetClass::AllLuts);
        assert_equivalent(&nl, &imp, &["q"], 150, &load, 8, 216);
    }
}

#[test]
fn memory_bit_flips_match_scalar_path() {
    use fades_mcu8051::{build_soc, workloads};
    let w = workloads::fibonacci();
    let soc = build_soc(&w.rom).unwrap();
    let imp = implement(&soc.netlist, fades_fpga::ArchParams::virtex1000_like()).unwrap();
    let load = FaultLoad::bit_flips(
        TargetClass::MemoryBits {
            name: "iram".into(),
            lo: w.data_range.0 as usize,
            hi: w.data_range.1 as usize,
        },
        DurationRange::SubCycle,
    );
    for seed in [211, 219] {
        assert_equivalent(&soc.netlist, &imp, &OBSERVED_PORTS, 700, &load, 6, seed);
    }
}

#[test]
fn cohort_overflow_refills_and_multi_pass() {
    // More experiments than lanes: the runner must refill retired lanes
    // and, when an entry's injection instant has already passed, carry it
    // into a later pass — all without disturbing equivalence.
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    for seed in [212, 218] {
        assert_equivalent(&nl, &imp, &["q"], 150, &load, 100, seed);
    }
}

#[test]
fn wide_lane_words_match_scalar_path() {
    // 254 lane entries fill a 127-lane word twice and select it; 510 fill
    // a 255-lane word twice. Both run against the scalar oracle, cold
    // and warm-started, as every other load does.
    let (nl, imp) = lfsr_design();
    let flips = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &flips, 254, 223);
    let pulses = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &pulses, 510, 224);
}

#[test]
fn widest_lane_word_matches_its_shards_and_the_scalar_path() {
    // 1022 lane entries fill a 511-lane word twice and select it; its
    // results must equal the scalar oracle's, cold and warm-started.
    let (nl, imp) = lfsr_design();
    let flips = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    assert_equivalent(&nl, &imp, &["q"], 150, &flips, 1022, 225);
    // And the same verdicts as its three shards, each small enough
    // (367 entries) to run on a 127-lane word: the word width is a
    // packing choice only.
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config()).unwrap();
    let pulses = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    let plan = campaign.plan(&pulses, 1100, 226).unwrap();
    let whole = campaign
        .execute_batched_isolated(&plan, 1, None, None)
        .unwrap();
    let mut sharded = Vec::new();
    for shard in 0..3 {
        let sub = plan.shard(shard, 3);
        sharded.extend(
            campaign
                .execute_batched_isolated(&sub, 1, None, None)
                .unwrap(),
        );
    }
    sharded.sort_by_key(fades_core::ExperimentVerdict::index);
    assert_verdicts_equivalent(&whole, &sharded);
}

/// One plan mixing every shape of lane schedule: one-cycle faults
/// (injection and removal in the same cycle), multi-cycle faults,
/// permanent faults that tick every cycle, stuck-at flip-flops held for
/// a few cycles (ticks that cost traffic, then stop at removal), faults
/// that outlive the run, and — four times as many entries as a 64-lane
/// word holds, injected in a window of six cycles — injections that fall
/// on the cycles lanes are refilled.
fn mixed_schedule_plan(campaign: &Campaign<'_>) -> CampaignPlan {
    let run_cycles = campaign.run_cycles();
    let loads = [
        FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::SHORT, false),
        FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT),
        FaultLoad::permanent(PermanentFault::StuckAt, TargetClass::AllFfs),
        FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT),
    ];
    let mut experiments = Vec::new();
    for (k, load) in loads.iter().enumerate() {
        experiments.extend(campaign.plan(load, 64, 230 + k as u64).unwrap().experiments);
    }
    for (i, e) in experiments.iter_mut().enumerate() {
        let i = i as u64;
        e.index = i;
        let outliving = i % 7 == 3;
        e.schedule.inject_at = if outliving {
            run_cycles - 1 - i % 4
        } else {
            40 + i % 6
        };
        // Every other stuck-at flip-flop is held for a while only.
        let held = e.schedule.duration.is_none() && (i / 2).is_multiple_of(2);
        if e.schedule.duration.is_some() || held {
            e.schedule.duration = Some(match (i / 6) % 3 {
                _ if outliving => 5 + i % 3,
                0 => 1,
                1 => 2 + i % 9,
                _ => 12,
            });
        }
    }
    CampaignPlan {
        target: "mixed schedules".into(),
        sub_cycle: false,
        seed: 230,
        n_total: experiments.len(),
        experiments,
    }
}

#[test]
fn every_lane_schedule_shape_matches_scalar_path() {
    // Observed in full, a diverged lane fails at once and is snapped and
    // retired as soon as its fault is gone; observed through the top
    // bit only, it lingers unobserved for a few cycles after its fault
    // is gone.
    for bits in [8, 1] {
        let (nl, imp) = lfsr_observing(bits);
        let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config()).unwrap();
        let plan = mixed_schedule_plan(&campaign);
        let run_cycles = campaign.run_cycles();
        let s = |e: &fades_core::PlannedExperiment| e.schedule;
        assert!(plan.experiments.iter().any(|e| s(e).duration == Some(1)));
        assert!(plan.experiments.iter().any(|e| s(e).duration.is_none()));
        assert!(plan
            .experiments
            .iter()
            .any(|e| s(e).duration.is_some() && s(e).outlives(run_cycles)));
        let what = format!("mixed schedules, {bits} observed bit(s)");
        assert_plan_equivalent(&campaign, &plan, &what);
        let batched = campaign
            .execute_batched_isolated(&plan, 1, None, None)
            .unwrap();
        let scalar = campaign.execute_isolated(&plan, 1, None, None).unwrap();
        assert_verdicts_equivalent(&batched, &scalar);
    }
}

#[test]
fn batched_execution_composes_with_shards() {
    // `execute_batched` accepts shards, which is how it composes with
    // `fades-dispatch`: the union of per-shard results must equal the
    // monolithic run.
    let (nl, imp) = lfsr_design();
    // Warm-start picks its checkpoint from each shard's own earliest
    // injection, so this also pins that choice.
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config()).unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    for seed in [213, 222] {
        let plan = campaign.plan(&load, 20, seed).unwrap();
        let whole = campaign.execute_batched(&plan, None).unwrap();
        let mut sharded = Vec::new();
        for shard in 0..3 {
            let sub = plan.shard(shard, 3);
            sharded.extend(
                campaign
                    .execute_batched(&sub, None)
                    .unwrap()
                    .into_iter()
                    .zip(sub.experiments.iter().map(|e| e.index)),
            );
        }
        sharded.sort_by_key(|(_, index)| *index);
        assert_eq!(whole.len(), sharded.len());
        for (w, (s, _)) in whole.iter().zip(&sharded) {
            assert_eq!(w.fault, s.fault);
            assert_eq!(w.outcome, s.outcome);
            assert_eq!(w.traffic, s.traffic);
        }
    }
}

/// Asserts two isolated-executor verdict streams are equivalent:
/// identical indices, outcomes, traffic and bit-identical modelled
/// seconds.
fn assert_verdicts_equivalent(
    batched: &[fades_core::ExperimentVerdict],
    scalar: &[fades_core::ExperimentVerdict],
) {
    use fades_core::ExperimentVerdict as V;
    assert_eq!(batched.len(), scalar.len());
    for (b, s) in batched.iter().zip(scalar) {
        assert_eq!(b.index(), s.index());
        match (b, s) {
            (
                V::Completed {
                    modelled_seconds: bm,
                    result: br,
                    ..
                },
                V::Completed {
                    modelled_seconds: sm,
                    result: sr,
                    ..
                },
            ) => {
                assert_eq!(br.outcome, sr.outcome, "index {}", b.index());
                assert_eq!(br.traffic, sr.traffic, "index {}", b.index());
                assert_eq!(
                    bm.to_bits(),
                    sm.to_bits(),
                    "index {}: modelled seconds must be bit-identical",
                    b.index()
                );
            }
            (V::Quarantined { .. }, V::Quarantined { .. }) => {}
            other => panic!("verdict kinds diverge at index {}: {other:?}", b.index()),
        }
    }
}

#[test]
fn batched_isolated_matches_scalar_isolated_bitwise() {
    // The tentpole contract: the lane engine under the isolation
    // contract produces verdicts bit-identical to the scalar isolated
    // executor, and its observer fires exactly once per experiment — at
    // lane retirement, i.e. interleaved with execution, not after it.
    let (nl, imp) = lfsr_design();
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config()).unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    for seed in [215, 220] {
        let plan = campaign.plan(&load, 70, seed).unwrap();

        let observed = std::sync::Mutex::new(Vec::new());
        let observer = |v: &fades_core::ExperimentVerdict| observed.lock().unwrap().push(v.index());
        let batched = campaign
            .execute_batched_isolated(&plan, 1, None, Some(&observer))
            .unwrap();
        let scalar = campaign.execute_isolated(&plan, 1, None, None).unwrap();
        assert_verdicts_equivalent(&batched, &scalar);

        let mut seen = observed.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..70).collect::<Vec<u64>>(),
            "observer must fire exactly once per experiment"
        );
    }
}

#[test]
fn batched_isolated_scalar_fallback_load_matches() {
    // A load the lane engine cannot express at all (routing delays):
    // `execute_batched_isolated` must route it wholesale to the scalar
    // isolated path and stay equivalent.
    let (nl, imp) = lfsr_design();
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config()).unwrap();
    let load = FaultLoad::delays(TargetClass::SequentialWires, DurationRange::SHORT);
    let plan = campaign.plan(&load, 10, 217).unwrap();
    let batched = campaign
        .execute_batched_isolated(&plan, 1, None, None)
        .unwrap();
    let scalar = campaign.execute_isolated(&plan, 1, None, None).unwrap();
    assert_verdicts_equivalent(&batched, &scalar);
}

/// A counter whose inverted bits feed only an unobserved port (same
/// fixture shape as `fastpath.rs`): pulses into the inverters are silent
/// and the lane re-converges with golden once the fault is removed.
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
    let imp = implement(&nl, fades_fpga::ArchParams::small()).unwrap();
    (nl, imp)
}

/// Held by the tests that read the process-wide `sim` counters, so that
/// one test's reset cannot land between another's run and its reading.
static SIM_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn silent_faults_retire_lanes_early() {
    // Guard against the differential suite silently passing because the
    // batch path quietly fell back to scalar for everything — and check
    // the batch analogue of early stop: pulses into the dead inverters
    // reconverge with lane 0 once removed, so those lanes must retire.
    let (nl, imp) = dead_logic_design();
    let campaign = Campaign::with_config(&nl, imp.clone(), &["q"], 150, config()).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    let _counters = SIM_COUNTERS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    fades_telemetry::sim::reset();
    let plan = campaign.plan(&load, 20, 17).unwrap();
    let batched = campaign.execute_batched(&plan, None).unwrap();
    assert!(
        fades_telemetry::sim::LANE_CYCLES.get() > 0,
        "the lane engine never ran"
    );
    assert!(
        fades_telemetry::sim::LANE_RETIREMENTS.get() > 0,
        "no lane ever retired early on reconvergence"
    );
    fades_telemetry::sim::reset();
    assert!(
        batched
            .iter()
            .any(|r| r.outcome == fades_core::Outcome::Silent && r.early_stop_cycles > 0),
        "no silent experiment retired early: {:?}",
        batched
            .iter()
            .map(|r| (r.outcome, r.early_stop_cycles))
            .collect::<Vec<_>>()
    );
    // And the retired outcomes still match the scalar reference.
    let scalar = campaign.execute(&plan, None).unwrap();
    for (b, s) in batched.iter().zip(&scalar) {
        assert_eq!(b.outcome, s.outcome, "fault {:?}", b.fault);
        assert_eq!(b.traffic, s.traffic);
    }
}

#[test]
fn multi_thread_batched_matches_single_thread_bitwise() {
    // Per-experiment results are cohort-composition-independent (lanes
    // interact only with the golden lane and timing draws are
    // lane-invariant), so chunking the sorted plan across worker threads
    // must be invisible: threads=4 equals threads=1 equals scalar, to the
    // bit.
    let (nl, imp) = lfsr_design();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    let with_threads = |threads| {
        let config = CampaignConfig {
            threads,
            ..config()
        };
        Campaign::with_config(&nl, imp.clone(), &["q"], 150, config).unwrap()
    };
    let (mt, st) = (with_threads(4), with_threads(1));
    // Several cohorts, so the chunking actually splits work.
    let plan = st.plan(&load, 150, 221).unwrap();
    let threaded = mt.execute_batched(&plan, None).unwrap();
    let single = st.execute_batched(&plan, None).unwrap();
    let scalar = st.execute(&plan, None).unwrap();
    assert_eq!(threaded.len(), single.len());
    assert_eq!(threaded.len(), scalar.len());
    for ((t, o), s) in threaded.iter().zip(&single).zip(&scalar) {
        assert_eq!(t.fault, s.fault);
        assert_eq!(t.outcome, o.outcome, "fault {:?}", t.fault);
        assert_eq!(t.outcome, s.outcome, "fault {:?}", t.fault);
        assert_eq!(t.traffic, o.traffic, "fault {:?}", t.fault);
        assert_eq!(t.traffic, s.traffic, "fault {:?}", t.fault);
    }
    let (ts, os) = (fold(&mt, &threaded), fold(&st, &single));
    assert_eq!(ts.outcomes, os.outcomes);
    assert_eq!(
        ts.emulation_seconds.to_bits(),
        os.emulation_seconds.to_bits(),
        "modelled time must not depend on the thread count"
    );

    // The isolated driver splits the same way: 1,100 entries take the
    // 512-lane word, two or three words' worth, one per worker. Every
    // worker's observer calls reach the one observer exactly once per
    // experiment.
    let plan = st.plan(&load, 1100, 222).unwrap();
    let single = st.execute_batched_isolated(&plan, 1, None, None).unwrap();
    let scalar = st.execute_isolated(&plan, 1, None, None).unwrap();
    assert_verdicts_equivalent(&single, &scalar);
    for threads in [2, 3] {
        let observed = std::sync::Mutex::new(Vec::new());
        let observer = |v: &fades_core::ExperimentVerdict| observed.lock().unwrap().push(v.index());
        let threaded = with_threads(threads)
            .execute_batched_isolated(&plan, 1, None, Some(&observer))
            .unwrap();
        assert_verdicts_equivalent(&threaded, &single);
        let mut seen = observed.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..1100).collect::<Vec<u64>>(),
            "threads = {threads}: the observer must see every experiment once"
        );
    }
}

/// The 8051 running Bubblesort, implemented for `arch`: its netlist,
/// implementation, full workload length and internal-RAM data range.
fn bubblesort_8051(
    arch: fades_fpga::ArchParams,
) -> (
    fades_netlist::Netlist,
    fades_pnr::Implementation,
    u64,
    (u8, u8),
) {
    use fades_mcu8051::{build_soc, workloads, Iss};
    let w = workloads::bubblesort();
    let soc = build_soc(&w.rom).unwrap();
    let imp = implement(&soc.netlist, arch).unwrap();
    let cycles = Iss::new(w.rom.clone())
        .run_to_completion(100_000)
        .unwrap()
        .cycles;
    (soc.netlist, imp, cycles, w.data_range)
}

/// The paper-campaign fault load `name`, with memory flips over
/// `data_range`.
fn paper_load(name: &str, data_range: (u8, u8)) -> FaultLoad {
    match name {
        "bitflip-mem" => FaultLoad::bit_flips(
            TargetClass::MemoryBits {
                name: "iram".into(),
                lo: data_range.0 as usize,
                hi: data_range.1 as usize,
            },
            DurationRange::SubCycle,
        ),
        "bitflip-ffs" => FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle),
        "pulse-luts" => FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle),
        "indet-ffs" => {
            FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::SHORT, false)
        }
        other => unreachable!("no load {other}"),
    }
}

/// Runs `n` faults of each load on the 8051 running Bubblesort for its
/// full length, implemented for `arch`, on the lane engine and on the
/// scalar oracle, asserts every experiment matches, and asserts the lane
/// engine merged lanes on every load.
fn assert_merges_match_scalar(arch: fades_fpga::ArchParams, loads: &[&str], n: usize, seed: u64) {
    let (netlist, imp, cycles, data_range) = bubblesort_8051(arch);
    let campaign = Campaign::with_config(&netlist, imp, &OBSERVED_PORTS, cycles, config()).unwrap();
    for (k, &name) in loads.iter().enumerate() {
        let plan = campaign
            .plan(&paper_load(name, data_range), n, seed + k as u64)
            .unwrap();
        {
            let _counters = SIM_COUNTERS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let merges = fades_telemetry::sim::LANE_MERGES.get();
            campaign.execute_batched(&plan, None).unwrap();
            assert!(
                fades_telemetry::sim::LANE_MERGES.get() > merges,
                "{name}: no lane was merged, so the merge path went untested"
            );
        }
        assert_plan_equivalent(&campaign, &plan, name);
    }
}

#[test]
fn engines_stop_8051_failures_at_the_same_cycle() {
    // A Failure is decided once its fault is gone: the lane engine
    // retires the lane and the scalar engine stops there too, so both
    // report the same early stop (`assert_plan_equivalent` compares it
    // for every Failure).
    let (netlist, imp, cycles, data_range) =
        bubblesort_8051(fades_fpga::ArchParams::virtex1000_like());
    let campaign = Campaign::with_config(&netlist, imp, &OBSERVED_PORTS, cycles, config()).unwrap();
    for name in ["bitflip-ffs", "pulse-luts", "indet-ffs", "bitflip-mem"] {
        let plan = campaign
            .plan(&paper_load(name, data_range), 300, 5)
            .unwrap();
        assert_plan_equivalent(&campaign, &plan, name);
        assert!(
            campaign
                .execute(&plan, None)
                .unwrap()
                .iter()
                .any(|r| r.outcome == fades_core::Outcome::Failure && r.early_stop_cycles > 0),
            "{name}: no Failure stopped early, so the comparison is vacuous"
        );
    }
}

#[test]
fn merged_lanes_match_the_scalar_path_on_the_8051() {
    // The paper's campaign design and loads. Memory flips mostly fail
    // late, flip-flop flips and indeterminations often stay latent, so
    // many lanes reach the same state as another and are merged while
    // later entries wait for a lane. Every experiment must still match
    // the scalar oracle: outcome, traffic, strategy and modelled seconds
    // to the bit.
    assert_merges_match_scalar(
        fades_fpga::ArchParams::virtex1000_like(),
        &["bitflip-mem", "bitflip-ffs", "indet-ffs"],
        600,
        231,
    );
}

#[test]
fn merged_lanes_match_the_scalar_path_on_a_marginally_timed_8051() {
    // At a 66 ns clock 17 flip-flops and the memory block's write port
    // miss some captures and take their previous operands instead, as a
    // delayed data path does (paper §4.3). The previous-D and write-port
    // shadows then decide a lane's future, so two lanes with equal
    // flip-flops and memory but different shadows must not merge (on
    // this plan, a key without the previous-D shadows gives wrong
    // outcomes). At the paper's 80 ns clock nothing misses and the
    // shadows never matter. Memory flips are not here: at 66 ns the
    // golden run never selects a word of the data range again after any
    // of this plan's injections, so every one is decided Latent without a
    // lane and none can merge; `flip_collapse.rs` checks them against the
    // scalar oracle at this clock.
    let arch = fades_fpga::ArchParams {
        clock_period_ns: 66.0,
        ..fades_fpga::ArchParams::virtex1000_like()
    };
    assert_merges_match_scalar(arch, &["indet-ffs", "bitflip-ffs"], 600, 241);
}
