//! Property-based equivalence of the lane engine: random small netlists,
//! random fault loads, and the `CampaignStats` — outcome tallies *and*
//! the bit pattern of the modelled emulation seconds — must be identical
//! between `execute_batched`, the scalar path, and the scalar path with the
//! fast path disabled (`FADES_NO_FASTPATH`'s effect, set here through
//! [`CampaignConfig::fastpath`] so cases cannot race on the environment).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_core::{
    Campaign, CampaignConfig, CampaignStats, DurationRange, FaultLoad, PermanentFault, TargetClass,
};
use fades_rtl::{RtlBuilder, Signal};
use proptest::prelude::*;

/// Builds one of three random register-feedback designs:
/// a counter, a two-tap XOR LFSR, or an inverting ring.
fn random_design(
    topology: u8,
    width: usize,
    init: u64,
    taps: (usize, usize),
) -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    let mut b = RtlBuilder::new("prop");
    let r = b.reg("state", width, init & ((1 << width) - 1));
    let q = r.q().clone();
    let next = match topology % 3 {
        0 => b.add_const(&q, 1),
        1 => {
            let fb = b.xor_bit(q.bit(taps.0 % width), q.bit(taps.1 % width));
            let mut bits = vec![fb];
            bits.extend((0..width - 1).map(|i| q.bit(i)));
            Signal::from_bits(bits)
        }
        _ => {
            let bits = (0..width)
                .map(|i| b.not_bit(q.bit((i + 1) % width)))
                .collect();
            Signal::from_bits(bits)
        }
    };
    b.connect(r, &next);
    b.output("q", &q);
    let nl = b.finish().unwrap();
    let imp = fades_pnr::implement(&nl, fades_fpga::ArchParams::small()).unwrap();
    (nl, imp)
}

/// Picks one of the campaign fault loads, covering lane-expressible
/// models and the scalar-fallback ones (delays, oscillating
/// indeterminations).
fn random_load(pick: u8, oscillating: bool) -> FaultLoad {
    match pick % 7 {
        0 => FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SHORT),
        1 => FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle),
        2 => FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT),
        3 => FaultLoad::pulses(TargetClass::CbInputs, DurationRange::SHORT),
        4 => FaultLoad::indeterminations(TargetClass::AllFfs, DurationRange::SHORT, oscillating),
        5 => FaultLoad::permanent(PermanentFault::StuckAt, TargetClass::AllLuts),
        _ => FaultLoad::delays(TargetClass::SequentialWires, DurationRange::SHORT),
    }
}

proptest! {
    /// The paper-reported statistics are a pure function of the plan, not
    /// of the execution engine: lanes, scalar, and scalar-without-fastpath
    /// must agree outcome-for-outcome and bit-for-bit on modelled time.
    #[test]
    fn stats_identical_across_all_three_paths(
        topology in 0u8..3,
        width in 2usize..7,
        init in any::<u64>(),
        taps in (0usize..8, 0usize..8),
        pick in 0u8..7,
        oscillating in any::<bool>(),
        n in 3usize..8,
        cycles in 90u64..140,
        seed in any::<u64>(),
    ) {
        let (nl, imp) = random_design(topology, width, init, taps);
        let load = random_load(pick, oscillating);
        let fast = Campaign::with_config(
            &nl,
            imp.clone(),
            &["q"],
            cycles,
            CampaignConfig {
                threads: 1, margin_cycles: 32, fastpath: true,
                static_preclassify: false,
            },
        )
        .expect("campaign");
        let slow = Campaign::with_config(
            &nl,
            imp,
            &["q"],
            cycles,
            CampaignConfig {
                threads: 1, margin_cycles: 32, fastpath: false,
                static_preclassify: false,
            },
        )
        .expect("campaign");

        let plan = fast.plan(&load, n, seed).expect("plan");
        let mut batched = CampaignStats::default();
        for r in fast.execute_batched(&plan, None).expect("batched") {
            let seconds = fast.time_model().experiment_seconds(&r.traffic, fast.golden().cycles());
            batched.accumulate(r.outcome, seconds);
        }
        let scalar = fast.run(&load, n, seed).expect("scalar");
        let no_fastpath = slow.run(&load, n, seed).expect("no fastpath");

        prop_assert_eq!(&batched.outcomes, &scalar.outcomes, "batched vs scalar");
        prop_assert_eq!(&scalar.outcomes, &no_fastpath.outcomes, "scalar vs no-fastpath");
        prop_assert_eq!(
            batched.emulation_seconds.to_bits(),
            scalar.emulation_seconds.to_bits(),
            "batched vs scalar emulation_seconds"
        );
        prop_assert_eq!(
            scalar.emulation_seconds.to_bits(),
            no_fastpath.emulation_seconds.to_bits(),
            "scalar vs no-fastpath emulation_seconds"
        );
    }
}
