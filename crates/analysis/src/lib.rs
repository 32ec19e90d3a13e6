//! Static analysis over implemented FADES designs.
//!
//! Everything in this crate runs *before* any experiment executes, on the
//! pristine [`Bitstream`](fades_fpga::Bitstream) the implementation flow
//! produced:
//!
//! * [`lint()`] — a structural linter over the placed design: combinational
//!   cycles, floating LUTs, dangling nets, constant truth tables, dead
//!   flip-flops, unused-site inventory and lane-engine obstacles, each
//!   reported as a structured [`Diagnostic`].
//! * [`ConeIndex`] — the cone-of-influence index behind the static fault
//!   pre-classifier: for every wire of the design it answers whether a
//!   value change on that wire can ever reach the observation frontier.
//!   `fades-core` uses it at plan time to mark faults in provably dead
//!   logic as statically Silent, so campaign engines can skip their
//!   simulation while still charging the exact modelled reconfiguration
//!   traffic a real execution would have produced.
//!
//! The crate is std-only and pure: no I/O, no randomness, deterministic
//! output for a given bitstream regardless of thread count.

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)
)]

mod cone;
mod diag;
mod lint;

pub use cone::ConeIndex;
pub use diag::{Diagnostic, Severity};
pub use lint::{lint, lint_quiet, worst};
