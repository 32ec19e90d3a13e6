//! FADES: run-time-reconfiguration fault emulation for VLSI models.
//!
//! This crate is the reproduction of the paper's contribution — an
//! FPGA-based framework for the analysis of the dependability of embedded
//! systems. Given an implemented design (a bitstream plus the
//! HDL-element → resource map from `fades-pnr`), it emulates transient
//! faults *purely through run-time reconfiguration* of the simulated
//! device's configuration memory:
//!
//! | Fault model | FPGA target | Mechanism |
//! |---|---|---|
//! | Bit-flip | flip-flops | LSR pulse after reconfiguring the set/reset muxes (or the slow GSR variant) |
//! | Bit-flip | memory blocks | readback frame, flip bit, write frame |
//! | Pulse | LUTs | truth-table rewrite (output / input / internal line) |
//! | Pulse | CB inputs | toggle the `InvertFFinMux` control bit |
//! | Delay | routed wires | extra pass-transistor fan-out (small) or reroute through spare LUTs (large) |
//! | Indetermination | FFs / LUTs | randomised final logic value, optionally re-randomised every cycle |
//!
//! plus, as the paper's announced future work, the permanent fault models
//! stuck-at, open-line, bridging and stuck-open (see
//! [`models::PermanentFault`]).
//!
//! Campaigns ([`Campaign`]) run thousands of single-fault experiments,
//! classify each outcome as **Failure / Latent / Silent** against a golden
//! run, and account every configuration-port operation so that
//! [`TimeModel`] can report emulation time the way the paper's Figure 10
//! and Table 2 do.
//!
//! # Example
//!
//! ```
//! use fades_core::{Campaign, CampaignConfig, FaultLoad, TargetClass, DurationRange};
//! use fades_mcu8051::{build_soc, workloads};
//! use fades_fpga::ArchParams;
//!
//! let soc = build_soc(&workloads::bubblesort().rom)?;
//! let imp = fades_pnr::implement(&soc.netlist, ArchParams::virtex1000_like())?;
//! let campaign = Campaign::new(&soc.netlist, imp, &["p1", "p2"], 1400)?;
//!
//! let faultload = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
//! let stats = campaign.run(&faultload, 20, 0xC0FFEE)?;
//! assert_eq!(stats.total(), 20);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)
)]

mod batch;
mod campaign;
mod classify;
mod error;
mod experiment;
mod golden;
mod location;
pub mod models;
mod plan;
pub mod strategies;
mod timing;

pub use batch::{PASS_PHASES, PASS_TOTAL, WIDEST_WORD_COHORT};
pub use campaign::{worker_threads, Campaign, CampaignConfig, CampaignStats};
pub use classify::{classify, Outcome, OutcomeStats};
pub use error::CoreError;
pub use experiment::{run_experiment, ExperimentResult, FaultSchedule};
pub use golden::{GoldenRun, DEFAULT_CHECKPOINT_INTERVAL};
pub use location::{
    resolve_targets, sample_fault, DurationRange, FaultLoad, ResolvedFault, TargetClass, TargetSite,
};
pub use models::{FaultModel, PermanentFault};
pub use plan::{CampaignPlan, ExperimentVerdict, PlanAnnotation, PlannedExperiment};
pub use timing::TimeModel;
