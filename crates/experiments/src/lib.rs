//! Regeneration of every table and figure of the paper's evaluation.
//!
//! Each module reproduces one artefact of the paper's Section 6 (plus
//! Table 1 from Section 4 and Table 4 from Section 7):
//!
//! | Module | Artefact | Content |
//! |---|---|---|
//! | [`table1`] | Table 1 | fault-model → FPGA-target capability matrix |
//! | [`fig10`]  | Figure 10 | mean emulation time per fault model via FADES |
//! | [`table2`] | Table 2 | FADES vs VFIT speed-up |
//! | [`fig11`]  | Figure 11 | bit-flip outcomes (screened registers, RAM) |
//! | [`fig12`]  | Figure 12 | delay & indetermination in sequential logic |
//! | [`fig13`]  | Figure 13 | pulses in combinational logic per unit |
//! | [`fig14`]  | Figure 14 | indeterminations in combinational logic per unit |
//! | [`fig15`]  | Figure 15 | delays in combinational logic per unit |
//! | [`table3`] | Table 3 | FADES vs VFIT failure-rate comparison |
//! | [`table4`] | Table 4 | one combinational pulse → multiple register flips |
//! | [`permanent`] | §8 extension | permanent fault models |
//! | [`scaling`] | §7.1 | speed-up vs workload length |
//! | [`techniques`] | §7.3 | RTR vs CTR vs simulation |
//! | [`batchspeed`] | §7 extension | scalar vs bit-parallel lane engine |
//! | [`kernels`] | host timings | lane-engine settle, edge and merge scan per word width |
//!
//! Runners take an [`ExperimentContext`] (the implemented 8051 running
//! Bubblesort) and a fault count; the `fades-experiments` binary renders
//! their results as text tables, and `EXPERIMENTS.md` records a
//! paper-vs-measured comparison produced this way. Absolute seconds come
//! from the calibrated [`fades_core::TimeModel`]; outcome percentages are
//! genuine fault-injection results on the simulated device.

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)
)]

pub mod analyze_cli;
pub mod batchspeed;
mod context;
pub mod dispatch_cli;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod kernels;
pub mod per_unit;
pub mod permanent;
pub mod scaling;
pub mod service_cli;
pub mod status_cli;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
mod tablefmt;
pub mod techniques;

pub use context::ExperimentContext;
pub use tablefmt::TextTable;

/// Default number of faults per campaign. The paper uses 3000; the
/// default here keeps a full regeneration pass fast. Override with the
/// `FADES_FAULTS` environment variable.
pub const DEFAULT_FAULTS: usize = 300;

/// Reads the per-campaign fault count from `FADES_FAULTS`.
pub fn fault_count_from_env() -> usize {
    match std::env::var("FADES_FAULTS") {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("warning: ignoring non-numeric FADES_FAULTS={v:?}, using {DEFAULT_FAULTS}");
            DEFAULT_FAULTS
        }),
        Err(_) => DEFAULT_FAULTS,
    }
}

/// Reads the campaign seed from `FADES_SEED` (default: 20060625, the
/// conference date of DSN'06).
pub fn seed_from_env() -> u64 {
    std::env::var("FADES_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_060_625)
}
