//! Soundness of the memory-flip collapse (DESIGN.md §5, *Memory-flip
//! collapse*).
//!
//! The lane driver runs one memory bit-flip per golden-access class and
//! decides the rest of the class with it, and decides a flip of a word
//! the golden run never selects again Latent without a lane. Every entry
//! decided either way must match the scalar oracle, which runs each
//! experiment on its own: fault, schedule, outcome, traffic, strategy and
//! modelled-seconds bits. These tests force whole plans through the
//! oracle, in both execution modes, on one and two workers, at the
//! paper's clock and at a clock where the memory write port misses
//! captures, and across shards whose class members fall in other shards.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::collections::HashMap;

use fades_core::{
    Campaign, CampaignConfig, CampaignPlan, DurationRange, ExperimentResult, ExperimentVerdict,
    FaultLoad, FaultSchedule, PlanAnnotation, PlannedExperiment, ResolvedFault, TargetClass,
};
use fades_mcu8051::{build_soc, workloads, Iss, OBSERVED_PORTS};
use fades_telemetry::sim::{FLIPS_COLLAPSED, FLIPS_DECIDED};

/// The 8051 running Bubblesort for its full length, implemented at
/// `clock_ns`.
struct Bench {
    soc: fades_mcu8051::Soc,
    imp: fades_pnr::Implementation,
    cycles: u64,
    data: (usize, usize),
}

impl Bench {
    fn new(clock_ns: f64) -> Bench {
        let w = workloads::bubblesort();
        let soc = build_soc(&w.rom).unwrap();
        let arch = fades_fpga::ArchParams {
            clock_period_ns: clock_ns,
            ..fades_fpga::ArchParams::virtex1000_like()
        };
        let imp = fades_pnr::implement(&soc.netlist, arch).unwrap();
        let cycles = Iss::new(w.rom.clone())
            .run_to_completion(100_000)
            .unwrap()
            .cycles;
        Bench {
            soc,
            imp,
            cycles,
            data: (w.data_range.0 as usize, w.data_range.1 as usize),
        }
    }

    fn campaign(&self, threads: usize) -> Campaign<'_> {
        let config = CampaignConfig {
            threads,
            static_preclassify: false,
            ..CampaignConfig::default()
        };
        Campaign::with_config(
            &self.soc.netlist,
            self.imp.clone(),
            &OBSERVED_PORTS,
            self.cycles,
            config,
        )
        .unwrap()
    }

    /// Bit-flips of the workload's data in internal RAM (the paper's
    /// memory load).
    fn memory_flips(&self) -> FaultLoad {
        let memory = TargetClass::MemoryBits {
            name: "iram".into(),
            lo: self.data.0,
            hi: self.data.1,
        };
        FaultLoad::bit_flips(memory, DurationRange::SubCycle)
    }
}

/// Asserts the lane driver's verdicts for `plan` equal the scalar
/// oracle's results for the same entries, one for one.
fn assert_verdicts_match(
    campaign: &Campaign<'_>,
    plan: &CampaignPlan,
    verdicts: &[ExperimentVerdict],
    oracle: &HashMap<u64, ExperimentResult>,
    what: &str,
) {
    assert_eq!(verdicts.len(), plan.len(), "{what}");
    for (v, e) in verdicts.iter().zip(&plan.experiments) {
        let ExperimentVerdict::Completed {
            index,
            result,
            modelled_seconds,
            ..
        } = v
        else {
            panic!("{what}: #{} quarantined: {v:?}", e.index);
        };
        assert_eq!(*index, e.index, "{what}");
        let want = &oracle[index];
        assert_eq!(result.fault, want.fault, "{what}: #{index}");
        assert_eq!(result.schedule, want.schedule, "{what}: #{index}");
        assert_eq!(result.outcome, want.outcome, "{what}: #{index}");
        assert_eq!(result.traffic, want.traffic, "{what}: #{index}");
        assert_eq!(result.strategy, want.strategy, "{what}: #{index}");
        let seconds = campaign
            .time_model()
            .experiment_seconds(&want.traffic, campaign.golden().cycles());
        assert_eq!(
            modelled_seconds.to_bits(),
            seconds.to_bits(),
            "{what}: #{index}"
        );
    }
}

/// Runs `plan` on the lane driver in both modes and asserts every entry
/// matches `oracle`.
fn assert_lanes_match(
    campaign: &Campaign<'_>,
    plan: &CampaignPlan,
    oracle: &HashMap<u64, ExperimentResult>,
    what: &str,
) {
    let fail_fast: Vec<ExperimentVerdict> = campaign
        .execute_batched(plan, None)
        .unwrap()
        .into_iter()
        .zip(&plan.experiments)
        .map(|(result, e)| ExperimentVerdict::Completed {
            index: e.index,
            modelled_seconds: campaign
                .time_model()
                .experiment_seconds(&result.traffic, campaign.golden().cycles()),
            attempts: 1,
            result,
        })
        .collect();
    assert_verdicts_match(
        campaign,
        plan,
        &fail_fast,
        oracle,
        &format!("{what}, fail-fast"),
    );
    let isolated = campaign
        .execute_batched_isolated(plan, 1, None, None)
        .unwrap();
    assert_verdicts_match(
        campaign,
        plan,
        &isolated,
        oracle,
        &format!("{what}, isolated"),
    );
}

/// The scalar engine's result for every entry of `plan`, by index.
fn oracle_of(campaign: &Campaign<'_>, plan: &CampaignPlan) -> HashMap<u64, ExperimentResult> {
    plan.experiments
        .iter()
        .map(|e| e.index)
        .zip(campaign.execute(plan, None).unwrap())
        .collect()
}

/// The golden-access class of a memory flip: (block, word, bit, first
/// cycle at or after injection on which golden selects the word), `None`
/// for a word golden never selects again.
fn class_of(campaign: &Campaign<'_>, e: &PlannedExperiment) -> Option<(usize, usize, u32, u64)> {
    let ResolvedFault::MemBitFlip { bram, addr, bit } = e.fault else {
        return None;
    };
    let at = campaign
        .golden()
        .first_access(bram.index(), addr, e.schedule.inject_at)?;
    Some((bram.index(), addr, bit, at))
}

#[test]
fn collapsed_and_decided_flips_match_the_scalar_oracle_on_the_8051() {
    let bench = Bench::new(80.0);
    let one = bench.campaign(1);
    let two = bench.campaign(2);
    let load = bench.memory_flips();
    // Three paper-sized plans, and one of the service's 128-fault jobs.
    for (n, seed) in [(3000, 5), (3000, 6), (3000, 7), (128, 231)] {
        let plan = one.plan(&load, n, seed).unwrap();
        let oracle = oracle_of(&two, &plan);
        let (collapsed, decided) = (FLIPS_COLLAPSED.get(), FLIPS_DECIDED.get());
        for campaign in [&one, &two] {
            let threads = campaign.config().threads;
            assert_lanes_match(
                campaign,
                &plan,
                &oracle,
                &format!("{n} flips, seed {seed}, {threads} workers"),
            );
        }
        assert!(
            FLIPS_COLLAPSED.get() > collapsed,
            "seed {seed}: nothing collapsed"
        );
        if n == 3000 {
            assert!(
                FLIPS_DECIDED.get() > decided,
                "seed {seed}: nothing decided"
            );
        }
        if seed != 5 {
            continue;
        }
        // Eight shards collapse each on its own: a class whose members
        // fall in several shards runs once in each of them, and every
        // shard still decides what the oracle does.
        let mut shards_of: HashMap<_, Vec<u64>> = HashMap::new();
        for e in &plan.experiments {
            if let Some(class) = class_of(&one, e) {
                shards_of.entry(class).or_default().push(e.index % 8);
            }
        }
        assert!(
            shards_of.values().any(|s| s.iter().any(|&k| k != s[0])),
            "no class spans two shards"
        );
        for k in 0..8 {
            let shard = plan.shard(k, 8);
            assert_lanes_match(&two, &shard, &oracle, &format!("seed 5, shard {k}/8"));
        }
    }
}

#[test]
fn flips_at_missed_write_captures_match_the_scalar_oracle() {
    // At a 66 ns clock the memory block's write port misses some
    // captures and performs the previous edge's write, to the previous
    // edge's address, while the read port already selects the next word.
    let bench = Bench::new(66.0);
    let campaign = bench.campaign(2);
    let golden = campaign.golden();
    let mut dev = fades_fpga::Device::configure(bench.imp.bitstream.clone()).unwrap();
    dev.reset();
    let mut missed = Vec::new();
    for cycle in 0..golden.cycles() {
        dev.settle();
        for b in 0..bench.imp.bitstream.brams().len() {
            if let (read, Some(written)) = dev.bram_selects(b) {
                if written != read {
                    missed.push((b, written, cycle));
                }
            }
        }
        dev.clock_edge();
    }
    assert!(!missed.is_empty(), "no write lands off the read address");
    // Flips of every bit of each such word, injected around the missed
    // capture: the ones before it are overwritten by that write, the ones
    // after it are not, so they must not share a class. Each lasts one
    // cycle or four: a flip still installed a cycle past the write
    // retires later than one that is not, so they must not share a class
    // either.
    let mut experiments = Vec::new();
    for &(b, word, cycle) in &missed {
        assert_eq!(golden.first_access(b, word, cycle), Some(cycle));
        let width = bench.imp.bitstream.brams()[b].width;
        for at in cycle.saturating_sub(3)..(cycle + 4).min(golden.cycles()) {
            for (bit, duration) in (0..width).flat_map(|bit| [(bit, 1), (bit, 4)]) {
                let index = experiments.len() as u64;
                experiments.push(PlannedExperiment {
                    index,
                    fault: ResolvedFault::MemBitFlip {
                        bram: fades_fpga::BramId::from_index(b),
                        addr: word,
                        bit,
                    },
                    schedule: FaultSchedule {
                        inject_at: at,
                        duration: Some(duration),
                    },
                    seed: index,
                    annotation: PlanAnnotation::None,
                });
            }
        }
    }
    let plan = CampaignPlan {
        target: "missed write captures".into(),
        sub_cycle: true,
        seed: 0,
        n_total: experiments.len(),
        experiments,
    };
    let oracle = oracle_of(&campaign, &plan);
    assert_lanes_match(&campaign, &plan, &oracle, "flips around missed captures");
    // A class member's result is the one its own lane would give, early
    // stop included: run alone, no entry has a class to join.
    let together = campaign.execute_batched(&plan, None).unwrap();
    for (e, result) in plan.experiments.iter().zip(&together) {
        let alone = CampaignPlan {
            experiments: vec![e.clone()],
            ..plan.clone()
        };
        let own = &campaign.execute_batched(&alone, None).unwrap()[0];
        assert_eq!(
            (
                result.outcome,
                result.early_stop_cycles,
                result.skipped_cycles
            ),
            (own.outcome, own.early_stop_cycles, own.skipped_cycles),
            "#{}",
            e.index
        );
    }

    // The paper's memory load at this clock: golden never selects a word
    // of the data range again after any of these injections, so every
    // flip is decided Latent without a lane.
    let plan = campaign.plan(&bench.memory_flips(), 600, 241).unwrap();
    let oracle = oracle_of(&campaign, &plan);
    let decided = FLIPS_DECIDED.get();
    assert_lanes_match(&campaign, &plan, &oracle, "600 flips at 66 ns");
    assert!(FLIPS_DECIDED.get() > decided, "nothing decided at 66 ns");
}
