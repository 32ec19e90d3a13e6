//! Equivalence of the bit-parallel lane engine with the scalar
//! per-experiment path.
//!
//! The lane engine is a host-side shortcut: each faulty machine still
//! executes the full workload and its strategy issues the same
//! reconfigurations in the same order, just 63 machines per `u64` word.
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
use fades_netlist::UnitTag;
use fades_pnr::implement;
use fades_rtl::RtlBuilder;

/// The campaign-test LFSR (same fixture shape as `fastpath.rs`).
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

fn config(batch: bool) -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        margin_cycles: 64,
        fastpath: true,
        batch,
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
    let campaign = Campaign::with_config(nl, imp.clone(), ports, workload_cycles, config(true))
        .expect("campaign");
    let plan = campaign.plan(load, n, seed).expect("plan");
    assert_plan_equivalent(&campaign, &plan, &format!("{load:?}"));
    // The stats entry points fold the same results: the modelled
    // campaign time — the paper's reported quantity — must agree to the
    // bit, not just approximately.
    let bs = campaign.run_batched(load, n, seed).expect("batched stats");
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
    }
    let fold = |results: &[ExperimentResult]| {
        let mut stats = CampaignStats::default();
        for r in results {
            let seconds = campaign
                .time_model()
                .experiment_seconds(&r.traffic, campaign.run_cycles());
            stats.accumulate(r.outcome, seconds);
        }
        stats
    };
    let (bs, ss) = (fold(&batched), fold(&scalar));
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
    // the scalar fallback inside `run_batched`, which must still produce
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
    use fades_mcu8051::{build_soc, workloads, OBSERVED_PORTS};
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
fn batched_execution_composes_with_shards() {
    // `execute_batched` accepts shards, which is how it composes with
    // `fades-dispatch`: the union of per-shard results must equal the
    // monolithic run.
    let (nl, imp) = lfsr_design();
    // Warm-start picks its checkpoint from each shard's own earliest
    // injection, so this also pins that choice.
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config(true)).unwrap();
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

#[test]
fn disabling_batch_makes_run_batched_scalar() {
    // With `batch: false` the batched entry points must route everything
    // through the scalar executor. Observable per result: only the scalar
    // fast path fast-forwards a golden prefix (`skipped_cycles > 0`); a
    // lane never does. (The process-global lane counters cannot show
    // this: the other tests of this binary run lanes concurrently.)
    let (nl, imp) = lfsr_design();
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config(false)).unwrap();
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT);
    let scalar = campaign.run_detailed(&load, 8, 214).unwrap();
    let batched = campaign.run_batched_detailed(&load, 8, 214).unwrap();
    assert!(
        scalar.iter().any(|s| s.skipped_cycles > 0),
        "the fixture must fast-forward at least one experiment"
    );
    for (b, s) in batched.iter().zip(&scalar) {
        assert_eq!(b.outcome, s.outcome);
        assert_eq!(b.traffic, s.traffic);
        assert_eq!(
            (b.skipped_cycles, b.early_stop_cycles),
            (s.skipped_cycles, s.early_stop_cycles),
            "batch: false must never touch the lane engine"
        );
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
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config(true)).unwrap();
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
    let campaign = Campaign::with_config(&nl, imp, &["q"], 150, config(true)).unwrap();
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

#[test]
fn silent_faults_retire_lanes_early() {
    // Guard against the differential suite silently passing because the
    // batch path quietly fell back to scalar for everything — and check
    // the batch analogue of early stop: pulses into the dead inverters
    // reconverge with lane 0 once removed, so those lanes must retire.
    let (nl, imp) = dead_logic_design();
    let campaign = Campaign::with_config(&nl, imp.clone(), &["q"], 150, config(true)).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    fades_telemetry::sim::reset();
    let batched = campaign.run_batched_detailed(&load, 20, 17).unwrap();
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
    let scalar = campaign.run_detailed(&load, 20, 17).unwrap();
    for (b, s) in batched.iter().zip(&scalar) {
        assert_eq!(b.outcome, s.outcome, "fault {:?}", b.fault);
        assert_eq!(b.traffic, s.traffic);
    }
}

#[test]
fn no_batch_escape_hatch_controls_the_default() {
    // Read per call (deliberately uncached) so one process can exercise
    // both settings; no other test in this binary consults the default.
    std::env::set_var("FADES_NO_BATCH", "1");
    assert!(!fades_core::batch_default());
    std::env::set_var("FADES_NO_BATCH", "0");
    assert!(fades_core::batch_default());
    std::env::set_var("FADES_NO_BATCH", "");
    assert!(fades_core::batch_default());
    std::env::remove_var("FADES_NO_BATCH");
    assert!(fades_core::batch_default());
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
    let n = 150; // several cohorts, so the chunking actually splits work
    let mt = Campaign::with_config(
        &nl,
        imp.clone(),
        &["q"],
        150,
        CampaignConfig {
            threads: 4,
            ..config(true)
        },
    )
    .unwrap();
    let st = Campaign::with_config(&nl, imp.clone(), &["q"], 150, config(true)).unwrap();
    let threaded = mt.run_batched_detailed(&load, n, 221).unwrap();
    let single = st.run_batched_detailed(&load, n, 221).unwrap();
    let scalar = st.run_detailed(&load, n, 221).unwrap();
    assert_eq!(threaded.len(), single.len());
    assert_eq!(threaded.len(), scalar.len());
    for ((t, o), s) in threaded.iter().zip(&single).zip(&scalar) {
        assert_eq!(t.fault, s.fault);
        assert_eq!(t.outcome, o.outcome, "fault {:?}", t.fault);
        assert_eq!(t.outcome, s.outcome, "fault {:?}", t.fault);
        assert_eq!(t.traffic, o.traffic, "fault {:?}", t.fault);
        assert_eq!(t.traffic, s.traffic, "fault {:?}", t.fault);
    }
    let ts = mt.run_batched(&load, n, 221).unwrap();
    let os = st.run_batched(&load, n, 221).unwrap();
    assert_eq!(ts.outcomes, os.outcomes);
    assert_eq!(
        ts.emulation_seconds.to_bits(),
        os.emulation_seconds.to_bits(),
        "modelled time must not depend on the thread count"
    );
}
