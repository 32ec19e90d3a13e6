//! Error type for the fault-emulation framework.

use std::error::Error;
use std::fmt;

use fades_fpga::FpgaError;
use fades_netlist::NetlistError;

/// Errors from campaign setup and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The requested target class resolved to no injectable resources.
    EmptyTargetSet(String),
    /// An observed port does not exist on the design.
    UnknownPort(String),
    /// The injection window is empty or outside the run length.
    BadSchedule {
        /// Requested injection cycle.
        at: u64,
        /// Experiment run length.
        run_cycles: u64,
    },
    /// A fault load's duration range is empty (`lo > hi`) or admits
    /// zero-cycle faults (`lo == 0`), which the scalar and lane engines
    /// would not agree on. Raised by `Campaign::plan` before any fault is
    /// sampled, and as `0..=0` by every engine for a hand-built schedule
    /// of zero cycles.
    InvalidDuration {
        /// Shortest duration asked for, in cycles.
        lo: u64,
        /// Longest duration asked for, in cycles.
        hi: u64,
    },
    /// A shard request names an impossible geometry: zero shards, or a
    /// shard index at or beyond the count. Catching this before
    /// execution prevents both the panic (`index >= count`) and the
    /// silently empty campaign (`count == 0` would keep nothing).
    ShardGeometry {
        /// Requested shard index.
        index: u32,
        /// Requested shard count.
        count: u32,
    },
    /// A multi-site fault load asked for more distinct targets than the
    /// resolved pool holds (e.g. a 4-bit multiple bit-flip on a design
    /// with 3 flip-flops).
    InsufficientTargets {
        /// Distinct sites the fault model requires.
        needed: usize,
        /// Distinct sites the pool holds.
        available: usize,
    },
    /// A campaign worker thread panicked outside the isolating executor.
    /// Names the experiment that was in flight so the failure is
    /// actionable (re-run just that index, or quarantine it via the
    /// isolated executor) instead of aborting the process anonymously.
    ExperimentPanic {
        /// Global plan index of the experiment the worker was running
        /// (`u64::MAX` if the worker died before starting one).
        index: u64,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The synthesis/implementation flow failed (wrapped message, since
    /// `fades-core` does not depend on `fades-pnr`).
    Implementation(String),
    /// An error raised by the FPGA model.
    Fpga(FpgaError),
    /// An error raised by the netlist layer.
    Netlist(NetlistError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyTargetSet(c) => write!(f, "no injectable resources for {c}"),
            CoreError::UnknownPort(p) => write!(f, "unknown observed port `{p}`"),
            CoreError::BadSchedule { at, run_cycles } => {
                write!(
                    f,
                    "injection at cycle {at} outside run of {run_cycles} cycles"
                )
            }
            CoreError::InvalidDuration { lo, hi } => write!(
                f,
                "invalid fault duration range {lo}..={hi} cycles (need 1 <= lo <= hi)"
            ),
            CoreError::ShardGeometry { index, count } => {
                write!(f, "invalid shard geometry: shard {index} of {count}")
            }
            CoreError::InsufficientTargets { needed, available } => {
                write!(
                    f,
                    "fault model needs {needed} distinct targets but the pool has {available}"
                )
            }
            CoreError::ExperimentPanic { index, message } => {
                write!(f, "experiment {index} panicked: {message}")
            }
            CoreError::Implementation(msg) => write!(f, "implementation failed: {msg}"),
            CoreError::Fpga(e) => write!(f, "fpga: {e}"),
            CoreError::Netlist(e) => write!(f, "netlist: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Fpga(e) => Some(e),
            CoreError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FpgaError> for CoreError {
    fn from(e: FpgaError) -> Self {
        CoreError::Fpga(e)
    }
}

impl From<NetlistError> for CoreError {
    fn from(e: NetlistError) -> Self {
        CoreError::Netlist(e)
    }
}
