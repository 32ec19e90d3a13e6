//! Generic SRAM-based FPGA model for run-time-reconfiguration fault
//! emulation.
//!
//! This crate is the hardware substrate of the FADES reproduction. It
//! implements the "generic FPGA architecture" of the paper's Section 3:
//!
//! * a grid of configurable blocks ([`CbConfig`]) — each a 4-input LUT, a
//!   D-type flip-flop and the multiplexers (`InvertFFinMux`,
//!   `InvertLSRMux`, `CLRMux`/`PRMux`, `LUTorFFMux`) that wire them up,
//! * programmable interconnect ([`WireConfig`]) whose pass transistors
//!   determine routing, fan-out and — crucially for delay faults —
//!   propagation delay,
//! * embedded memory blocks ([`BramConfig`]),
//! * global and local set/reset lines (GSR / LSR),
//! * a frame-organised configuration memory ([`Bitstream`], [`FrameAddr`])
//!   that controls *all* of the above.
//!
//! The [`Device`] runtime compiles a bitstream into an executable circuit
//! and only ever changes behaviour through configuration-memory operations
//! ([`Mutation`]), exactly like real silicon: this is what makes the
//! fault-emulation strategies in `fades-core` honest run-time
//! reconfiguration rather than simulator back-doors. Every reconfiguration
//! and readback is accounted in a [`TransferLedger`], from which the
//! emulation-time model derives the paper's Figure 10 / Table 2 results.
//!
//! # Example
//!
//! ```
//! use fades_fpga::{ArchParams, Bitstream, CbCoord, Device, Mutation};
//!
//! // A bitstream with a single inverter LUT: out = !in.
//! let arch = ArchParams::small();
//! let mut bs = Bitstream::new(arch);
//! let input = bs.add_input("a", 1);
//! let cb = CbCoord::new(0, 0);
//! let lut_out = bs.add_lut(cb, 0x5555, [Some(input[0]), None, None, None])?;
//! bs.add_output("y", &[lut_out])?;
//!
//! let mut dev = Device::configure(bs)?;
//! dev.set_input("a", &[false])?;
//! dev.settle();
//! assert_eq!(dev.output_u64("y")?, 1);
//!
//! // Run-time reconfiguration: invert the truth table (a pulse fault).
//! dev.apply(&Mutation::SetLutTable { cb, table: !0x5555 })?;
//! dev.settle();
//! assert_eq!(dev.output_u64("y")?, 0);
//! # Ok::<(), fades_fpga::FpgaError>(())
//! ```

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)
)]

mod arch;
mod batch;
mod bitstream;
mod bram;
mod cb;
mod coords;
mod device;
mod error;
mod file;
mod frames;
mod ledger;
mod reconfig;
mod routing;
mod state;
mod timing;

pub use arch::ArchParams;
pub use batch::{
    lane_obstacles, BatchDevice, ConfigAccess, LaneDevice, LaneObstacle, GOLDEN_LANE_MASK, LANES,
};
pub use bitstream::Bitstream;
pub use bram::BramConfig;
pub use cb::{CbConfig, FfDSrc, SetReset};
pub use coords::{BramId, CbCoord, WireId};
pub use device::Device;
pub use error::FpgaError;
pub use frames::{FrameAddr, FrameSet};
pub use ledger::{TransferKind, TransferLedger, TransferOp};
pub use reconfig::Mutation;
pub use routing::{WireConfig, WireDriver, WireSink};
pub use state::DeviceState;
pub use timing::TimingReport;
