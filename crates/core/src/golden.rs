//! Golden (fault-free) runs.

use fades_fpga::{Device, DeviceState};
use fades_netlist::OutputTrace;

use crate::error::CoreError;
use crate::experiment::resolve_ports;

/// Default checkpointing interval (cycles between saved device states).
///
/// Checkpoints cost memory (`O(state)` each) while halving nothing but
/// the *residual* prefix an experiment must re-execute, which averages
/// `K / 2` cycles; 64 keeps the residual negligible against the
/// 1000-cycle-class workloads of the paper while storing only a few
/// dozen snapshots.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 64;

/// A fault-free reference execution of the configured design.
///
/// Campaigns capture one golden run up front: the cycle-by-cycle values of
/// the observed output ports, plus the final sequential state (flip-flops
/// and memory contents). Every experiment's classification compares
/// against it (paper §5, "results analysis module").
///
/// The capture additionally records fast-forward data for the
/// checkpointed experiment path (see `run_experiment`):
///
/// * a full device-state checkpoint every
///   [`DEFAULT_CHECKPOINT_INTERVAL`] cycles, so experiments can skip the
///   fault-free prefix by restoring the nearest checkpoint at or before
///   their injection cycle, and
/// * a cheap per-cycle state hash, so experiments whose fault has been
///   removed can detect reconvergence with the golden state and stop
///   early, and
/// * the words each memory block selects on each cycle, so the lane
///   driver can tell which memory bit-flips are the same faulty machine
///   (see [`first_access`](GoldenRun::first_access)).
#[derive(Debug, Clone)]
pub struct GoldenRun {
    trace: OutputTrace,
    final_state: Vec<u64>,
    cycles: u64,
    interval: u64,
    /// Checkpoint `i` holds the state at the top of cycle `i * interval`.
    checkpoints: Vec<DeviceState>,
    /// `hashes[c]` is the state hash at the top of cycle `c`, for
    /// `c in 0..=cycles` (the last entry is the post-run state).
    hashes: Vec<u64>,
    /// `accesses[b]` lists `(word, cycle)` for every cycle on which
    /// memory block `b` reads that word or writes it at the clock edge,
    /// sorted and without repeats.
    accesses: Vec<Vec<(u32, u32)>>,
}

impl GoldenRun {
    /// Runs the device for `cycles` cycles from reset, recording the
    /// observed ports each cycle, plus checkpoints every
    /// [`DEFAULT_CHECKPOINT_INTERVAL`] cycles and a per-cycle state hash.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownPort`] if an observed port does not
    /// exist.
    pub fn capture(dev: &mut Device, ports: &[String], cycles: u64) -> Result<Self, CoreError> {
        Self::capture_with_interval(dev, ports, cycles, DEFAULT_CHECKPOINT_INTERVAL)
    }

    /// [`capture`](Self::capture) with an explicit checkpoint interval
    /// (tests use small intervals to exercise boundary alignment).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownPort`] if an observed port does not
    /// exist.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn capture_with_interval(
        dev: &mut Device,
        ports: &[String],
        cycles: u64,
        interval: u64,
    ) -> Result<Self, CoreError> {
        assert!(interval >= 1, "checkpoint interval must be at least 1");
        dev.reset();
        let port_wires = resolve_ports(dev, ports)?;
        let mut trace = OutputTrace::new(ports.to_vec());
        let mut checkpoints = Vec::new();
        let mut hashes = Vec::with_capacity(cycles as usize + 1);
        let mut accesses = vec![Vec::new(); dev.bitstream().brams().len()];
        for cycle in 0..cycles {
            hashes.push(dev.state_hash());
            if cycle % interval == 0 {
                checkpoints.push(dev.save_state());
            }
            dev.settle();
            trace.push_cycle(port_wires.iter().map(|w| dev.wires_u64(w)).collect());
            for (b, words) in accesses.iter_mut().enumerate() {
                let (read, written) = dev.bram_selects(b);
                words.push((read as u32, cycle as u32));
                if let Some(w) = written.filter(|&w| w != read) {
                    words.push((w as u32, cycle as u32));
                }
            }
            dev.clock_edge();
        }
        hashes.push(dev.state_hash());
        for words in &mut accesses {
            words.sort_unstable();
            words.dedup();
        }
        let final_state = dev.state_snapshot();
        Ok(GoldenRun {
            trace,
            final_state,
            cycles,
            interval,
            checkpoints,
            hashes,
            accesses,
        })
    }

    /// The golden output trace.
    pub fn trace(&self) -> &OutputTrace {
        &self.trace
    }

    /// The golden final sequential state.
    pub fn final_state(&self) -> &[u64] {
        &self.final_state
    }

    /// Run length in cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The checkpoint interval this run was captured with.
    pub fn checkpoint_interval(&self) -> u64 {
        self.interval
    }

    /// Number of stored checkpoints.
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// The latest checkpoint taken at or before the top of `cycle`
    /// (`None` only when the run recorded no checkpoints, i.e. zero
    /// cycles).
    pub fn checkpoint_at_or_before(&self, cycle: u64) -> Option<&DeviceState> {
        if self.checkpoints.is_empty() {
            return None;
        }
        let idx = ((cycle / self.interval) as usize).min(self.checkpoints.len() - 1);
        Some(&self.checkpoints[idx])
    }

    /// The golden state hash at the top of `cycle` (valid for
    /// `cycle <= cycles`; the last entry is the post-run state).
    pub fn state_hash_at(&self, cycle: u64) -> u64 {
        self.hashes[cycle as usize]
    }

    /// The first cycle at or after `from` on which the golden run selects
    /// word `addr` of memory block `bram`: its read port reads the word
    /// once the cycle has settled, or the cycle's clock edge writes it
    /// (on a missed capture, the edge performs the previous edge's
    /// write). `None` when no later cycle of the run selects it, or the
    /// block or word does not exist.
    ///
    /// A flip of a stored bit cannot be seen before that cycle, so two
    /// flips of one bit that share it are the same faulty machine from
    /// then on, and a flip of a word the run never selects again stays
    /// in the final state unseen (DESIGN.md §5, *Memory-flip collapse*).
    pub fn first_access(&self, bram: usize, addr: usize, from: u64) -> Option<u64> {
        let words = self.accesses.get(bram)?;
        let addr = u32::try_from(addr).ok()?;
        let from = u32::try_from(from).unwrap_or(u32::MAX);
        let at = words.partition_point(|&e| e < (addr, from));
        words
            .get(at)
            .filter(|&&(word, _)| word == addr)
            .map(|&(_, cycle)| u64::from(cycle))
    }
}
