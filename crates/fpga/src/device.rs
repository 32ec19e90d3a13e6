//! The configured device: compiles a bitstream into an executable circuit
//! and runs it cycle by cycle.

use std::sync::Arc;

use crate::arch::ArchParams;
use crate::bitstream::{Bitstream, PortDef};
use crate::cb::{CbConfig, FfDSrc, SetReset};
use crate::coords::{BramId, CbCoord, WireId};
use crate::error::FpgaError;
use crate::frames::{CbField, FrameSet};
use crate::ledger::{TransferKind, TransferLedger, TransferOp};
use crate::reconfig::Mutation;
use crate::routing::{WireConfig, WireDriver};
use crate::state::{self, DeviceState};
use crate::timing::TimingReport;

/// Data source of a flip-flop node, resolved at compile time.
///
/// Crate-visible so the bit-parallel lane engine (`batch` module) can run
/// the same compiled structures `64 * W` lanes at a time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FfData {
    /// Output of the LUT node with this index.
    LutInternal(u32),
    /// Value of the wire with this index.
    Wire(u32),
}

/// Marks a missing wire in packed compiled records.
pub(crate) const NO_WIRE: u32 = u32::MAX;

/// Kind of a combinational node on the evaluation tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// A LUT; `TapeOp::target` is its LUT node index.
    Lut,
    /// A block-RAM read port; `TapeOp::target` is the block index.
    Bram,
}

/// One record of the compiled evaluation tape: everything the settle
/// sweep needs to evaluate one combinational node, packed inline.
///
/// A LUT's connected pins are compacted into the low `arity` slots of
/// `pins`, and its truth table is held permuted to match: bit `j` of
/// `table` is the entry selected when connected pin `k` carries bit `k`
/// of `j`, which is exact because an unconnected pin always reads 0.
/// The unconnected slots are masked rather than skipped: they repeat
/// slot 0, and the table repeats every `1 << arity` bits, so whatever
/// they read selects the same entry. Evaluation is then one branch-free
/// four-pin lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapeOp {
    pub(crate) pins: [u32; 4],
    /// Wire the node drives (`NO_WIRE` for a LUT without one; unused for
    /// a BRAM, whose outputs are `Device::bram_dout_wires`).
    pub(crate) out_wire: u32,
    pub(crate) target: u32,
    /// Live compact truth table (LUT only).
    pub(crate) table: u16,
    pub(crate) arity: u8,
    pub(crate) kind: NodeKind,
}

#[derive(Debug, Clone)]
pub(crate) struct LutNode {
    pub(crate) cb_flat: u32,
    /// Position of this LUT's record on the tape.
    pub(crate) tape: u32,
    /// Compact-index → full-table-index map; the pattern repeats every
    /// `1 << arity` entries, as the compact table does.
    pub(crate) cfull: [u8; 16],
}

/// Permutes a full 16-entry truth table into the compact index space
/// described by `cfull` (see [`TapeOp`]).
pub(crate) fn compact_table(table: u16, cfull: &[u8; 16]) -> u16 {
    let mut compact = 0u16;
    for (j, &full) in cfull.iter().enumerate() {
        compact |= ((table >> full) & 1) << j;
    }
    compact
}

#[derive(Debug, Clone)]
pub(crate) struct FfNode {
    pub(crate) cb_flat: u32,
    pub(crate) data: FfData,
    pub(crate) out_wire: Option<u32>,
}

/// A memory block's write at a clock edge: (write enable, address,
/// data).
type BramWrite = (bool, usize, u64);

#[derive(Debug, Clone)]
pub(crate) struct BramWritePort {
    pub(crate) we: Option<u32>,
    pub(crate) addr: Vec<u32>,
    pub(crate) din: Vec<u32>,
}

/// A set of configuration cells (by flat index), each listed once.
#[derive(Debug, Clone, Default)]
struct DirtySet {
    list: Vec<u32>,
    marked: Vec<bool>,
}

impl DirtySet {
    fn new(len: usize) -> Self {
        DirtySet {
            list: Vec::new(),
            marked: vec![false; len],
        }
    }

    fn mark(&mut self, i: usize) {
        if !self.marked[i] {
            self.marked[i] = true;
            self.list.push(i as u32);
        }
    }

    fn clear(&mut self) {
        for &i in &self.list {
            self.marked[i as usize] = false;
        }
        self.list.clear();
    }
}

/// A configured, running FPGA.
///
/// Created with [`Device::configure`], which models downloading the
/// configuration file into the device. All subsequent behavioural changes
/// go through [`Device::apply`] (partial reconfiguration) or the readback
/// methods, and are accounted in the [`TransferLedger`].
///
/// See the crate-level documentation for an example.
#[derive(Debug, Clone)]
pub struct Device {
    /// Live configuration memory.
    bits: Bitstream,
    /// Pristine copy for per-experiment reset (the tool keeps the original
    /// configuration file on the host; restoring state between experiments
    /// is the workload's own initialisation plus this host-side copy).
    /// Shared, never written: clones of the device and the lane program
    /// built from it hold the same copy.
    pub(crate) pristine: Arc<Bitstream>,
    ledger: TransferLedger,
    cycle: u64,

    // Compiled structures. Connectivity never changes at run time. The
    // settle sweep and the clock edge read the configuration through two
    // mirrors of `bits` — the LUT tables inline on `tape` and the per-FF
    // `ff_invert` — so they never touch the block array. `bits` stays
    // authoritative: the mirrors are written only where `bits` is, by
    // `apply_inner` (through `refresh_mirrors`) and by `reset` when it
    // restores a cell. Memory contents and routing delays are read live
    // from `bits`. Crate-visible so the lane engine can harvest them.
    /// Combinational nodes in topological order, one packed record each.
    pub(crate) tape: Vec<TapeOp>,
    pub(crate) luts: Vec<LutNode>,
    pub(crate) ffs: Vec<FfNode>,
    /// Mirror of each flip-flop's `invert_ff_in` cell.
    ff_invert: Vec<bool>,
    /// Flip-flop node index per CB (u32::MAX if none). Shared, like
    /// `pristine`: it never changes after `compile`.
    pub(crate) ff_of_cb: Arc<[u32]>,
    /// LUT node index per CB (u32::MAX if none).
    pub(crate) lut_of_cb: Arc<[u32]>,
    pub(crate) bram_write_ports: Vec<BramWritePort>,
    pub(crate) bram_dout_wires: Vec<Vec<Option<u32>>>,

    /// Blocks and wires whose configuration was written since the last
    /// [`reset`](Self::reset), which restores exactly these.
    dirty_cbs: DirtySet,
    dirty_wires: DirtySet,

    // Runtime state.
    wire_values: Vec<bool>,
    lut_values: Vec<bool>,
    ff_state: Vec<bool>,
    ff_prev_d: Vec<bool>,
    bram_prev_write: Vec<BramWrite>,
    timing: TimingReport,
    /// Static timing of the pristine configuration, computed once at
    /// configure time: `reset` after a routing fault, and any routing
    /// write that leaves every written wire pristine again, copy it
    /// instead of re-running the analysis.
    pub(crate) pristine_timing: TimingReport,

    // Incremental digests for state-hash convergence checks (see the
    // `state` module). `behav_hash` covers behaviour-affecting
    // configuration cells, `bram_hash` covers memory contents; both are
    // updated in O(1) per mutation/write. The pristine values are cached
    // at configure time so `reset` does not rescan the bitstream.
    behav_hash: u64,
    bram_hash: u64,
    pristine_behav_hash: u64,
    pristine_bram_hash: u64,
}

impl Device {
    /// Downloads a configuration into a fresh device.
    ///
    /// Records one full-download operation in the ledger.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::CombinationalLoop`] if the configured LUT
    /// network contains a cycle.
    pub fn configure(bitstream: Bitstream) -> Result<Self, FpgaError> {
        let pristine = Arc::new(bitstream.clone());
        let mut dev = Device {
            bits: bitstream,
            pristine,
            ledger: TransferLedger::new(),
            cycle: 0,
            tape: Vec::new(),
            luts: Vec::new(),
            ffs: Vec::new(),
            ff_invert: Vec::new(),
            ff_of_cb: Arc::from([]),
            lut_of_cb: Arc::from([]),
            bram_write_ports: Vec::new(),
            bram_dout_wires: Vec::new(),
            dirty_cbs: DirtySet::default(),
            dirty_wires: DirtySet::default(),
            wire_values: Vec::new(),
            lut_values: Vec::new(),
            ff_state: Vec::new(),
            ff_prev_d: Vec::new(),
            bram_prev_write: Vec::new(),
            timing: TimingReport::default(),
            pristine_timing: TimingReport::default(),
            behav_hash: 0,
            bram_hash: 0,
            pristine_behav_hash: 0,
            pristine_bram_hash: 0,
        };
        dev.compile()?;
        dev.pristine_behav_hash = state::behaviour_hash(&dev.pristine);
        dev.pristine_bram_hash = state::bram_hash(&dev.pristine);
        dev.reset();
        let arch = *dev.bits.arch();
        dev.ledger.record(TransferOp {
            kind: TransferKind::FullDownload,
            frames: arch.total_frames(),
            bytes: arch.full_config_bytes(),
        });
        dev.pristine_timing = dev.static_timing(&dev.pristine);
        dev.timing.clone_from(&dev.pristine_timing);
        Ok(dev)
    }

    fn compile(&mut self) -> Result<(), FpgaError> {
        let n_cbs = self.bits.arch().cb_count();
        let rows = self.bits.arch().rows;
        let mut lut_of_cb = vec![u32::MAX; n_cbs];
        let mut ff_of_cb = vec![u32::MAX; n_cbs];
        self.luts.clear();
        self.ffs.clear();

        // Wire index driven by each LUT / FF / BRAM dout.
        let n_wires = self.bits.wires().len();
        let mut lut_out_wire = vec![None::<u32>; n_cbs];
        let mut ff_out_wire = vec![None::<u32>; n_cbs];
        let mut bram_dout: Vec<Vec<Option<u32>>> = vec![Vec::new(); self.bits.brams().len()];
        for (b, cfg) in self.bits.brams().iter().enumerate() {
            bram_dout[b] = vec![None; cfg.width as usize];
        }
        for (wi, w) in self.bits.wires().iter().enumerate() {
            match &w.driver {
                WireDriver::CbLut(cb) => lut_out_wire[cb.flat_index(rows)] = Some(wi as u32),
                WireDriver::CbFf(cb) => ff_out_wire[cb.flat_index(rows)] = Some(wi as u32),
                WireDriver::BramDout { bram, bit } => {
                    bram_dout[bram.index()][*bit as usize] = Some(wi as u32);
                }
                WireDriver::PrimaryInput { .. } => {}
            }
        }
        self.bram_dout_wires = bram_dout;

        // Each LUT's record, arity-compacted: its connected pins gathered
        // into the low slots and its table permuted to match. The tape
        // position is filled in once the order is known.
        let mut lut_ops = Vec::new();
        for (flat, &out_wire) in lut_out_wire.iter().enumerate() {
            let cfg = &self.bits.cbs()[flat];
            if cfg.lut_used {
                let mut pins = [0u32; 4];
                let mut used = [0u8; 4];
                let mut arity = 0u8;
                for (k, pin) in cfg.lut_pins.iter().enumerate() {
                    if let Some(w) = pin {
                        pins[arity as usize] = w.raw();
                        used[arity as usize] = k as u8;
                        arity += 1;
                    }
                }
                for k in arity as usize..4 {
                    pins[k] = pins[0];
                }
                // Index bits at and above `arity` are ignored, so the map
                // (and the compact table) repeats every `1 << arity`.
                let mut cfull = [0u8; 16];
                for (j, cf) in cfull.iter_mut().enumerate() {
                    for (k, &pos) in used.iter().enumerate().take(arity as usize) {
                        *cf |= (((j >> k) & 1) as u8) << pos;
                    }
                }
                let li = self.luts.len() as u32;
                lut_of_cb[flat] = li;
                self.luts.push(LutNode {
                    cb_flat: flat as u32,
                    tape: 0,
                    cfull,
                });
                lut_ops.push(TapeOp {
                    pins,
                    out_wire: out_wire.unwrap_or(NO_WIRE),
                    target: li,
                    table: compact_table(cfg.lut_table, &cfull),
                    arity,
                    kind: NodeKind::Lut,
                });
            }
        }
        for (flat, &out_wire) in ff_out_wire.iter().enumerate() {
            let cfg = &self.bits.cbs()[flat];
            if cfg.ff_used {
                let data = match cfg.ff_d_src {
                    FfDSrc::LutOut => FfData::LutInternal(lut_of_cb[flat]),
                    FfDSrc::Direct(w) => FfData::Wire(w.raw()),
                };
                ff_of_cb[flat] = self.ffs.len() as u32;
                self.ffs.push(FfNode {
                    cb_flat: flat as u32,
                    data,
                    out_wire,
                });
            }
        }
        self.lut_of_cb = lut_of_cb.into();
        self.ff_of_cb = ff_of_cb.into();
        self.ff_invert = self
            .ffs
            .iter()
            .map(|ff| self.bits.cbs()[ff.cb_flat as usize].invert_ff_in)
            .collect();

        self.bram_write_ports = self
            .bits
            .brams()
            .iter()
            .map(|b| BramWritePort {
                we: b.we_pin.map(WireId::raw),
                addr: b.addr_pins.iter().map(|w| w.raw()).collect(),
                din: b.din_pins.iter().map(|w| w.raw()).collect(),
            })
            .collect();

        let bram_ops = (0..self.bits.brams().len()).map(|bi| TapeOp {
            pins: [0; 4],
            out_wire: NO_WIRE,
            target: bi as u32,
            table: 0,
            arity: 0,
            kind: NodeKind::Bram,
        });
        let nodes: Vec<TapeOp> = lut_ops.into_iter().chain(bram_ops).collect();
        self.tape = self.levelize(&nodes, n_wires)?;
        for (pos, op) in self.tape.iter().enumerate() {
            if op.kind == NodeKind::Lut {
                self.luts[op.target as usize].tape = pos as u32;
            }
        }
        self.dirty_cbs = DirtySet::new(n_cbs);
        self.dirty_wires = DirtySet::new(n_wires);
        self.wire_values = vec![false; n_wires];
        self.lut_values = vec![false; self.luts.len()];
        self.ff_state = vec![false; self.ffs.len()];
        self.ff_prev_d = vec![false; self.ffs.len()];
        self.bram_prev_write = vec![(false, 0, 0); self.bits.brams().len()];
        Ok(())
    }

    /// Combinational input wires of a tape node. BRAM reads depend
    /// combinationally on the address only.
    pub(crate) fn node_inputs<'a>(&'a self, op: &'a TapeOp) -> &'a [u32] {
        match op.kind {
            NodeKind::Lut => &op.pins[..op.arity as usize],
            NodeKind::Bram => &self.bram_write_ports[op.target as usize].addr,
        }
    }

    /// Wires a tape node drives.
    pub(crate) fn node_outputs<'a>(&'a self, op: &'a TapeOp) -> impl Iterator<Item = u32> + 'a {
        let douts: &[Option<u32>] = match op.kind {
            NodeKind::Lut => &[],
            NodeKind::Bram => &self.bram_dout_wires[op.target as usize],
        };
        (op.out_wire != NO_WIRE)
            .then_some(op.out_wire)
            .into_iter()
            .chain(douts.iter().flatten().copied())
    }

    /// Topologically orders the combinational nodes (LUTs and BRAM read
    /// ports) into the evaluation tape.
    fn levelize(&self, nodes: &[TapeOp], n_wires: usize) -> Result<Vec<TapeOp>, FpgaError> {
        // Which node drives each wire, if any.
        let mut wire_src = vec![false; n_wires];
        for op in nodes {
            for w in self.node_outputs(op) {
                wire_src[w as usize] = true;
            }
        }
        let mut pending = vec![0u32; nodes.len()];
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); n_wires];
        for (n, op) in nodes.iter().enumerate() {
            for &w in self.node_inputs(op) {
                if wire_src[w as usize] {
                    readers[w as usize].push(n);
                    pending[n] += 1;
                }
            }
        }
        let mut order = Vec::with_capacity(nodes.len());
        let mut queue: Vec<usize> = (0..nodes.len()).filter(|&n| pending[n] == 0).collect();
        let mut done = vec![false; nodes.len()];
        while let Some(n) = queue.pop() {
            done[n] = true;
            order.push(nodes[n]);
            for out in self.node_outputs(&nodes[n]) {
                for &r in &readers[out as usize] {
                    pending[r] -= 1;
                    if pending[r] == 0 {
                        queue.push(r);
                    }
                }
            }
        }
        // A node the queue never reached sits on a cycle: report one of
        // its output wires for diagnosis.
        if let Some(stuck) = (0..nodes.len()).find(|&n| !done[n]) {
            let wire = self.node_outputs(&nodes[stuck]).next().unwrap_or(0);
            return Err(FpgaError::CombinationalLoop(WireId::from_index(
                wire as usize,
            )));
        }
        Ok(order)
    }

    /// The architecture of the configured device.
    pub fn arch(&self) -> &ArchParams {
        self.bits.arch()
    }

    /// The live configuration memory.
    pub fn bitstream(&self) -> &Bitstream {
        &self.bits
    }

    /// The pristine configuration downloaded at [`Device::configure`] time.
    pub fn pristine(&self) -> &Bitstream {
        &self.pristine
    }

    /// The configuration-traffic ledger.
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// Clears the configuration-traffic ledger (between experiments).
    pub fn clear_ledger(&mut self) {
        self.ledger.clear();
    }

    /// Cycles executed since the last [`reset`](Self::reset).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The current static-timing report.
    pub fn timing(&self) -> &TimingReport {
        &self.timing
    }

    /// Whether every flip-flop and memory write port overshoots the
    /// clock exactly as in the pristine configuration. Those overshoots
    /// are the only timing [`clock_edge`](Self::clock_edge) reads, so
    /// while this holds the device behaves cycle for cycle as the
    /// pristine one does, whatever delays its routing carries.
    ///
    /// The comparison is against the pristine report, not against zero:
    /// a design clocked close to its critical path already overshoots.
    pub fn timing_is_pristine(&self) -> bool {
        self.timing.ff_overshoot_ns == self.pristine_timing.ff_overshoot_ns
            && self.timing.bram_overshoot_ns == self.pristine_timing.bram_overshoot_ns
    }

    /// Restores the device to its initial state: flip-flops to their init
    /// values, configuration memory (including block-RAM contents and any
    /// injected routing faults) to the pristine configuration.
    ///
    /// This models the start of a new experiment (paper Fig. 1, "reset
    /// system to initial state") and is not charged to the ledger: the
    /// restoration of faulted frames is part of the *previous* experiment's
    /// removal phase, which the strategies charge explicitly.
    pub fn reset(&mut self) {
        // Only the blocks and wires written since the last reset can
        // differ from pristine; memory contents are restored wholesale.
        self.bits
            .restore_from(&self.pristine, &self.dirty_cbs.list, &self.dirty_wires.list);
        for k in 0..self.dirty_cbs.list.len() {
            self.refresh_mirrors(self.dirty_cbs.list[k] as usize);
        }
        self.dirty_cbs.clear();
        let routing_touched = !self.dirty_wires.list.is_empty();
        self.dirty_wires.clear();
        for (i, ff) in self.ffs.iter().enumerate() {
            let init = self.pristine.cbs()[ff.cb_flat as usize].ff_init;
            self.ff_state[i] = init;
            self.ff_prev_d[i] = init;
        }
        self.wire_values.fill(false);
        self.lut_values.fill(false);
        self.bram_prev_write.fill((false, 0, 0));
        self.cycle = 0;
        self.behav_hash = self.pristine_behav_hash;
        self.bram_hash = self.pristine_bram_hash;
        if routing_touched {
            self.timing.clone_from(&self.pristine_timing);
        }
    }

    /// Mutable access to one block's live configuration, recording the
    /// block for [`reset`](Self::reset) before anything can fail on it.
    fn cb_mut(&mut self, cb: CbCoord) -> Result<&mut CbConfig, FpgaError> {
        let rows = self.bits.arch().rows;
        let cfg = self.bits.cb_mut(cb)?;
        self.dirty_cbs.mark(cb.flat_index(rows));
        Ok(cfg)
    }

    /// Mutable access to one wire's live configuration, recording the
    /// wire for [`reset`](Self::reset).
    fn wire_mut(&mut self, wire: WireId) -> Result<&mut WireConfig, FpgaError> {
        let w = self.bits.wire_mut(wire)?;
        self.dirty_wires.mark(wire.index());
        Ok(w)
    }

    /// Re-derives the evaluation mirrors of one block (its LUT's tape
    /// table, its flip-flop's input inverter) from the live `bits`.
    fn refresh_mirrors(&mut self, flat: usize) {
        let cfg = &self.bits.cbs()[flat];
        let li = self.lut_of_cb[flat];
        if li != u32::MAX {
            let lut = &self.luts[li as usize];
            let op = &mut self.tape[lut.tape as usize];
            op.table = compact_table(cfg.lut_table, &lut.cfull);
        }
        let fi = self.ff_of_cb[flat];
        if fi != u32::MAX {
            self.ff_invert[fi as usize] = cfg.invert_ff_in;
        }
    }

    /// Drives an input port.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown port or wrong width.
    pub fn set_input(&mut self, name: &str, bits: &[bool]) -> Result<(), FpgaError> {
        let port = self
            .bits
            .inputs()
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| FpgaError::UnknownPort(name.to_string()))?;
        if port.wires.len() != bits.len() {
            return Err(FpgaError::WidthMismatch {
                name: name.to_string(),
                expected: port.wires.len(),
                actual: bits.len(),
            });
        }
        for (w, &v) in port.wires.iter().zip(bits) {
            self.wire_values[w.index()] = v;
        }
        Ok(())
    }

    fn output_port(&self, name: &str) -> Result<&PortDef, FpgaError> {
        self.bits
            .outputs()
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| FpgaError::UnknownPort(name.to_string()))
    }

    /// Reads an output port as bits (LSB first); call after
    /// [`settle`](Self::settle).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::UnknownPort`] for an unknown port.
    pub fn output_bits(&self, name: &str) -> Result<Vec<bool>, FpgaError> {
        let port = self.output_port(name)?;
        Ok(port
            .wires
            .iter()
            .map(|w| self.wire_values[w.index()])
            .collect())
    }

    /// Reads an output port as an integer (at most 64 bits).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::UnknownPort`] for an unknown port.
    pub fn output_u64(&self, name: &str) -> Result<u64, FpgaError> {
        let port = self.output_port(name)?;
        let mut v = 0u64;
        for (i, w) in port.wires.iter().enumerate().take(64) {
            v |= (self.wire_values[w.index()] as u64) << i;
        }
        Ok(v)
    }

    /// The wire indices of an output port, LSB first (resolve once, then
    /// read per cycle with [`wires_u64`](Self::wires_u64)).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::UnknownPort`] for an unknown port.
    pub fn output_wires(&self, name: &str) -> Result<Vec<u32>, FpgaError> {
        let port = self.output_port(name)?;
        Ok(port.wires.iter().map(|w| w.index() as u32).collect())
    }

    /// Reads wires resolved by [`output_wires`](Self::output_wires) as an
    /// integer, LSB first; only the first 64 count, exactly as in
    /// [`output_u64`](Self::output_u64). Call after
    /// [`settle`](Self::settle).
    ///
    /// # Panics
    ///
    /// Panics if a wire index is out of range for this device.
    pub fn wires_u64(&self, wires: &[u32]) -> u64 {
        let mut v = 0u64;
        for (i, &w) in wires.iter().enumerate().take(64) {
            v |= (self.wire_values[w as usize] as u64) << i;
        }
        v
    }

    /// Propagates values through the combinational fabric: presents every
    /// flip-flop's state on its output wire, then walks the tape.
    pub fn settle(&mut self) {
        let wv = &mut self.wire_values;
        for (ff, &q) in self.ffs.iter().zip(&self.ff_state) {
            if let Some(w) = ff.out_wire {
                wv[w as usize] = q;
            }
        }
        for op in &self.tape {
            match op.kind {
                NodeKind::Lut => {
                    // A constant (pinless) LUT has no wire to read.
                    let idx = if op.arity == 0 {
                        0
                    } else {
                        let [a, b, c, d] = op.pins.map(|p| wv[p as usize] as u32);
                        a | (b << 1) | (c << 2) | (d << 3)
                    };
                    let v = (op.table >> idx) & 1 == 1;
                    self.lut_values[op.target as usize] = v;
                    if op.out_wire != NO_WIRE {
                        wv[op.out_wire as usize] = v;
                    }
                }
                NodeKind::Bram => {
                    let bi = op.target as usize;
                    let addr = read_bus(wv, &self.bram_write_ports[bi].addr);
                    let word = self.bits.brams()[bi].contents[addr];
                    for (bit, w) in self.bram_dout_wires[bi].iter().enumerate() {
                        if let Some(w) = w {
                            wv[*w as usize] = (word >> bit) & 1 == 1;
                        }
                    }
                }
            }
        }
    }

    /// Applies the clock edge: flip-flops capture their data inputs (the
    /// previous cycle's value if their path violates setup), memory blocks
    /// perform enabled writes.
    pub fn clock_edge(&mut self) {
        let spread = self.bits.arch().arrival_spread_ns;
        // A flip-flop's capture reads only combinational values and its
        // own shadow, so capturing in place is order-independent.
        for (i, ff) in self.ffs.iter().enumerate() {
            let raw = match ff.data {
                FfData::LutInternal(li) => self.lut_values[li as usize],
                FfData::Wire(w) => self.wire_values[w as usize],
            };
            let d = raw ^ self.ff_invert[i];
            let overshoot = self.timing.ff_overshoot_ns.get(i).copied().unwrap_or(0.0);
            self.ff_state[i] = if capture_misses(spread, self.cycle, overshoot, i as u64) {
                self.ff_prev_d[i]
            } else {
                d
            };
            self.ff_prev_d[i] = d;
        }
        for bi in 0..self.bram_write_ports.len() {
            let Some((now, (we_eff, addr_eff, din_eff))) = self.bram_write(bi) else {
                continue;
            };
            if we_eff {
                // Compiled port indices are valid by construction.
                let Ok(bram) = self.bits.bram_mut(BramId::from_index(bi)) else {
                    continue;
                };
                let old = bram.contents[addr_eff];
                bram.contents[addr_eff] = din_eff;
                let cell = ((bi as u64) << 32) | addr_eff as u64;
                self.bram_hash ^= state::mix(state::TAG_BRAM_WORD, cell, old)
                    ^ state::mix(state::TAG_BRAM_WORD, cell, din_eff);
            }
            self.bram_prev_write[bi] = now;
        }
        self.cycle += 1;
    }

    /// The write memory block `bi` presents to this cycle's clock edge,
    /// `(write enable, address, data)`, and the write the edge performs:
    /// the one presented, or the previous edge's when the block's write
    /// port misses this capture. `None` for a block without a write port.
    fn bram_write(&self, bi: usize) -> Option<(BramWrite, BramWrite)> {
        let port = &self.bram_write_ports[bi];
        let we = port.we?;
        let mut din = 0u64;
        for (bit, w) in port.din.iter().enumerate() {
            if self.wire_values[*w as usize] {
                din |= 1 << bit;
            }
        }
        let now = (
            self.wire_values[we as usize],
            read_bus(&self.wire_values, &port.addr),
            din,
        );
        let spread = self.bits.arch().arrival_spread_ns;
        let overshoot = self
            .timing
            .bram_overshoot_ns
            .get(bi)
            .copied()
            .unwrap_or(0.0);
        let missed = capture_misses(spread, self.cycle, overshoot, 0x8000_0000 | bi as u64);
        Some((
            now,
            if missed {
                self.bram_prev_write[bi]
            } else {
                now
            },
        ))
    }

    /// The words memory block `bram` selects this cycle, once settled
    /// and before the clock edge: the word its asynchronous read port
    /// reads, and the word the coming edge writes (`None` when it writes
    /// nothing; on a missed capture, the word of the previous edge's
    /// write).
    ///
    /// # Panics
    ///
    /// Panics if `bram` is not a block of this device.
    pub fn bram_selects(&self, bram: usize) -> (usize, Option<usize>) {
        let read = read_bus(&self.wire_values, &self.bram_write_ports[bram].addr);
        let written = match self.bram_write(bram) {
            Some((_, (true, addr, _))) => Some(addr),
            _ => None,
        };
        (read, written)
    }

    /// Runs one full cycle: settle, then clock edge.
    pub fn step(&mut self) {
        self.settle();
        self.clock_edge();
    }

    /// Runs `n` full cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Applies a partial reconfiguration and records its frame traffic.
    ///
    /// # Errors
    ///
    /// Returns an error if the mutation's target does not exist or is not
    /// configured.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<(), FpgaError> {
        self.apply_inner(mutation, false)
    }

    /// Applies a reconfiguration shipped inside a full configuration
    /// download: the semantic change takes effect, but the ledger records
    /// one bulk download instead of the touched frames (the paper's §6.2
    /// delay experiments were forced into this mode by driver problems).
    ///
    /// # Errors
    ///
    /// Same conditions as [`apply`](Self::apply).
    pub fn apply_via_full_download(&mut self, mutation: &Mutation) -> Result<(), FpgaError> {
        self.apply_inner(mutation, true)
    }

    fn apply_inner(&mut self, mutation: &Mutation, full_download: bool) -> Result<(), FpgaError> {
        let arch = *self.bits.arch();
        let frames = mutation.frames(&arch, &self.bits);
        // PulseLsr writes its single frame twice (toggle + restore).
        let writes = match mutation {
            Mutation::PulseLsr { .. } => 2,
            _ => 1,
        } * frames.len() as u32;
        match mutation {
            Mutation::SetLutTable { cb, table } => {
                let flat = cb.flat_index(arch.rows);
                let cfg = self.cb_mut(*cb)?;
                if !cfg.lut_used {
                    return Err(FpgaError::ResourceUnused(*cb));
                }
                let old = std::mem::replace(&mut cfg.lut_table, *table);
                self.behav_hash ^= state::mix(state::TAG_LUT_TABLE, flat as u64, old as u64)
                    ^ state::mix(state::TAG_LUT_TABLE, flat as u64, *table as u64);
                self.refresh_mirrors(flat);
            }
            Mutation::SetInvertFfIn { cb, invert } => {
                let flat = cb.flat_index(arch.rows);
                let cfg = self.cb_mut(*cb)?;
                if !cfg.ff_used {
                    return Err(FpgaError::ResourceUnused(*cb));
                }
                let old = std::mem::replace(&mut cfg.invert_ff_in, *invert);
                self.behav_hash ^= state::mix(state::TAG_INVERT_FF_IN, flat as u64, old as u64)
                    ^ state::mix(state::TAG_INVERT_FF_IN, flat as u64, *invert as u64);
                self.refresh_mirrors(flat);
            }
            Mutation::SetLsrDrive { cb, drive } => {
                let cfg = self.cb_mut(*cb)?;
                if !cfg.ff_used {
                    return Err(FpgaError::ResourceUnused(*cb));
                }
                cfg.lsr_drive = *drive;
            }
            Mutation::PulseLsr { cb } => {
                let cfg = self.bits.cb(*cb)?;
                if !cfg.ff_used {
                    return Err(FpgaError::ResourceUnused(*cb));
                }
                let drive = cfg.lsr_drive;
                self.force_ff(*cb, drive);
            }
            Mutation::PulseGsr => {
                let rows = arch.rows;
                for i in 0..self.ffs.len() {
                    let flat = self.ffs[i].cb_flat;
                    let cb = CbCoord::from_flat_index(flat as usize, rows);
                    let drive = self.bits.cb(cb)?.lsr_drive;
                    self.ff_state[i] = drive.value();
                }
                self.ledger.record(TransferOp {
                    kind: TransferKind::GlobalPulse,
                    frames: 0,
                    bytes: 0,
                });
                return Ok(());
            }
            Mutation::SetBramBit {
                bram,
                addr,
                bit,
                value,
            } => {
                // Memory contents are restored wholesale by `reset`.
                let b = self.bits.bram_mut(*bram)?;
                if *addr >= b.depth() || *bit >= b.width {
                    return Err(FpgaError::BadBramLocation {
                        bram: *bram,
                        addr: *addr,
                        bit: *bit,
                    });
                }
                let cell = ((bram.index() as u64) << 32) | *addr as u64;
                let old = b.contents[*addr];
                if *value {
                    b.contents[*addr] |= 1 << bit;
                } else {
                    b.contents[*addr] &= !(1 << bit);
                }
                self.bram_hash ^= state::mix(state::TAG_BRAM_WORD, cell, old)
                    ^ state::mix(state::TAG_BRAM_WORD, cell, b.contents[*addr]);
            }
            Mutation::SetWireFanout { wire, extra } => {
                let old = std::mem::replace(&mut self.wire_mut(*wire)?.extra_fanout, *extra);
                let wi = wire.index() as u64;
                self.behav_hash ^= state::mix(state::TAG_WIRE_FANOUT, wi, old as u64)
                    ^ state::mix(state::TAG_WIRE_FANOUT, wi, *extra as u64);
            }
            Mutation::SetWireDetour { wire, luts } => {
                let old = std::mem::replace(&mut self.wire_mut(*wire)?.detour_luts, *luts);
                let wi = wire.index() as u64;
                self.behav_hash ^= state::mix(state::TAG_WIRE_DETOUR, wi, old as u64)
                    ^ state::mix(state::TAG_WIRE_DETOUR, wi, *luts as u64);
            }
            Mutation::ReRandomiseFf { cb, drive } => {
                let cfg = self.cb_mut(*cb)?;
                if !cfg.ff_used {
                    return Err(FpgaError::ResourceUnused(*cb));
                }
                cfg.lsr_drive = *drive;
                let drive = *drive;
                self.force_ff(*cb, drive);
            }
        }
        if full_download {
            self.ledger.record(TransferOp {
                kind: TransferKind::FullDownload,
                frames: arch.total_frames(),
                bytes: arch.full_config_bytes(),
            });
        } else {
            self.ledger.record(TransferOp {
                kind: TransferKind::Write,
                frames: writes,
                bytes: writes as u64 * arch.frame_bytes as u64,
            });
        }
        if mutation.affects_timing() {
            self.refresh_timing();
        }
        Ok(())
    }

    /// Holds the local set/reset line of one block asserted across a clock
    /// edge: the flip-flop stays at its configured `CLRMux`/`PRMux` value
    /// regardless of its data input.
    ///
    /// This is the steady-state of an indetermination window: the line was
    /// asserted by an earlier [`Mutation::PulseLsr`]-style reconfiguration
    /// and simply *stays* asserted, so holding costs no configuration
    /// traffic — only the assert and the release reconfigurations do.
    pub fn hold_lsr(&mut self, cb: CbCoord) -> Result<(), FpgaError> {
        let cfg = self.bits.cb(cb)?;
        if !cfg.ff_used {
            return Err(FpgaError::ResourceUnused(cb));
        }
        let drive = cfg.lsr_drive;
        self.force_ff(cb, drive);
        Ok(())
    }

    fn force_ff(&mut self, cb: CbCoord, drive: SetReset) {
        let flat = cb.flat_index(self.bits.arch().rows);
        let idx = self.ff_of_cb[flat];
        if idx != u32::MAX {
            self.ff_state[idx as usize] = drive.value();
        }
    }

    /// Reconfigures the `CLRMux`/`PRMux` selection of many flip-flops in
    /// one partial-reconfiguration pass (the preparation step of the GSR
    /// bit-flip approach, which must make *every* FF's set/reset drive its
    /// current value before pulsing the global line).
    ///
    /// Recorded as a single write of all touched mux frames.
    ///
    /// # Errors
    ///
    /// Returns an error if any coordinate is invalid or has no used FF.
    pub fn bulk_set_lsr_drives(&mut self, drives: &[(CbCoord, SetReset)]) -> Result<(), FpgaError> {
        let arch = *self.bits.arch();
        let mut set = FrameSet::new();
        for (cb, drive) in drives {
            let cfg = self.cb_mut(*cb)?;
            if !cfg.ff_used {
                return Err(FpgaError::ResourceUnused(*cb));
            }
            cfg.lsr_drive = *drive;
            set.add_cb_field(&arch, *cb, CbField::LsrDrive);
        }
        self.ledger.record(TransferOp {
            kind: TransferKind::Write,
            frames: set.len() as u32,
            bytes: set.bytes(&arch),
        });
        Ok(())
    }

    /// Records the bulk download of a full configuration file without
    /// changing any state.
    ///
    /// The paper's delay-fault prototype hit driver limitations that forced
    /// it to ship a full configuration per reconfiguration; strategies call
    /// this to reproduce that cost model faithfully.
    pub fn charge_full_download(&mut self) {
        let arch = self.bits.arch();
        self.ledger.record(TransferOp {
            kind: TransferKind::FullDownload,
            frames: arch.total_frames(),
            bytes: arch.full_config_bytes(),
        });
    }

    /// Reads back the state of one flip-flop (one capture frame).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::ResourceUnused`] if the block's FF is unused.
    pub fn readback_ff(&mut self, cb: CbCoord) -> Result<bool, FpgaError> {
        let flat = cb.flat_index(self.bits.arch().rows);
        let idx = *self
            .ff_of_cb
            .get(flat)
            .ok_or(FpgaError::CoordOutOfRange(cb))?;
        if idx == u32::MAX {
            return Err(FpgaError::ResourceUnused(cb));
        }
        let mut set = FrameSet::new();
        set.add_cb_field(self.bits.arch(), cb, CbField::FfCapture);
        self.charge_readback(&set);
        Ok(self.ff_state[idx as usize])
    }

    /// Reads back the state of every used flip-flop (one capture frame per
    /// used column — the expensive step of the GSR bit-flip approach).
    pub fn readback_all_ffs(&mut self) -> Vec<(CbCoord, bool)> {
        let rows = self.bits.arch().rows;
        let mut set = FrameSet::new();
        set.add_ff_capture_columns(self.bits.ff_columns());
        self.charge_readback(&set);
        self.ffs
            .iter()
            .enumerate()
            .map(|(i, ff)| {
                (
                    CbCoord::from_flat_index(ff.cb_flat as usize, rows),
                    self.ff_state[i],
                )
            })
            .collect()
    }

    /// Reads back one word of a memory block (one content frame).
    ///
    /// # Errors
    ///
    /// Returns an error for a bad block id or address.
    pub fn readback_bram_word(&mut self, bram: BramId, addr: usize) -> Result<u64, FpgaError> {
        let b = self.bits.bram(bram)?;
        if addr >= b.depth() {
            return Err(FpgaError::BadBramLocation { bram, addr, bit: 0 });
        }
        let width = b.width;
        let word = b.contents[addr];
        let mut set = FrameSet::new();
        set.add_bram_word(self.bits.arch(), bram, addr, width);
        self.charge_readback(&set);
        Ok(word)
    }

    /// Reads back a LUT truth table (one configuration frame).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::ResourceUnused`] if the block's LUT is unused.
    pub fn readback_lut_table(&mut self, cb: CbCoord) -> Result<u16, FpgaError> {
        let cfg = *self.bits.cb(cb)?;
        if !cfg.lut_used {
            return Err(FpgaError::ResourceUnused(cb));
        }
        let mut set = FrameSet::new();
        set.add_cb_field(self.bits.arch(), cb, CbField::LutTable);
        self.charge_readback(&set);
        Ok(cfg.lut_table)
    }

    fn charge_readback(&mut self, set: &FrameSet) {
        self.ledger.record(TransferOp {
            kind: TransferKind::Readback,
            frames: set.len() as u32,
            bytes: set.bytes(self.bits.arch()),
        });
    }

    /// Direct (cost-free) view of a flip-flop's state, for assertions and
    /// golden-state snapshots. Fault-injection strategies must use
    /// [`readback_ff`](Self::readback_ff) instead.
    pub fn peek_ff(&self, cb: CbCoord) -> Option<bool> {
        let flat = cb.flat_index(self.bits.arch().rows);
        let idx = *self.ff_of_cb.get(flat)?;
        if idx == u32::MAX {
            None
        } else {
            Some(self.ff_state[idx as usize])
        }
    }

    /// Whether the flip-flop at `cb` has a setup-time violation in the
    /// *pristine* timing report (its data arrival overshoots the clock
    /// period, so it captures the previous cycle's value). `false` for
    /// coordinates without a used flip-flop.
    ///
    /// The static fault pre-classifier uses this: a violated register
    /// heals one cycle later than a clean one, so the conservative
    /// plan-time rules simply refuse to pre-classify faults on it.
    pub fn ff_timing_violated(&self, cb: CbCoord) -> bool {
        let flat = cb.flat_index(self.bits.arch().rows);
        match self.ff_of_cb.get(flat) {
            Some(&idx) if idx != u32::MAX => self
                .pristine_timing
                .ff_violated
                .get(idx as usize)
                .copied()
                .unwrap_or(true),
            _ => false,
        }
    }

    /// Snapshot of all sequential state (flip-flops then memory words),
    /// used for Latent-fault classification at experiment end.
    pub fn state_snapshot(&self) -> Vec<u64> {
        let mut snap = Vec::new();
        let mut acc = 0u64;
        let mut nbits = 0;
        for &s in &self.ff_state {
            if s {
                acc |= 1 << nbits;
            }
            nbits += 1;
            if nbits == 64 {
                snap.push(acc);
                acc = 0;
                nbits = 0;
            }
        }
        if nbits > 0 {
            snap.push(acc);
        }
        for b in self.bits.brams() {
            snap.extend_from_slice(&b.contents);
        }
        snap
    }

    /// Snapshots the full runtime state (cycle counter, wire/LUT values,
    /// flip-flop state, pending BRAM captures, memory contents) for later
    /// [`restore_state`](Self::restore_state).
    ///
    /// Host-side and free: the snapshot lives on the controlling PC, not
    /// in the device, so nothing is charged to the ledger.
    pub fn save_state(&self) -> DeviceState {
        DeviceState {
            cycle: self.cycle,
            wire_values: self.wire_values.clone(),
            lut_values: self.lut_values.clone(),
            ff_state: self.ff_state.clone(),
            ff_prev_d: self.ff_prev_d.clone(),
            bram_prev_write: self.bram_prev_write.clone(),
            bram_contents: self
                .bits
                .brams()
                .iter()
                .map(|b| b.contents.clone())
                .collect(),
            bram_hash: self.bram_hash,
        }
    }

    /// Restores a snapshot taken by [`save_state`](Self::save_state) on a
    /// device with the same compiled configuration.
    ///
    /// The caller must ensure the device's configuration memory equals
    /// the configuration the snapshot was taken under (in practice: call
    /// right after [`reset`](Self::reset), before injecting any fault).
    /// Like `reset`, this is a host-side operation and is not charged to
    /// the ledger: it models the controller fast-forwarding a worker to a
    /// known golden state instead of re-running the prefix.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's dimensions do not match this device.
    pub fn restore_state(&mut self, snap: &DeviceState) {
        self.cycle = snap.cycle;
        self.wire_values.copy_from_slice(&snap.wire_values);
        self.lut_values.copy_from_slice(&snap.lut_values);
        self.ff_state.copy_from_slice(&snap.ff_state);
        self.ff_prev_d.copy_from_slice(&snap.ff_prev_d);
        self.bram_prev_write.copy_from_slice(&snap.bram_prev_write);
        assert_eq!(
            snap.bram_contents.len(),
            self.bits.brams().len(),
            "snapshot BRAM count matches device"
        );
        for (bi, contents) in snap.bram_contents.iter().enumerate() {
            let Ok(b) = self.bits.bram_mut(BramId::from_index(bi)) else {
                continue;
            };
            b.contents.copy_from_slice(contents);
        }
        self.bram_hash = snap.bram_hash;
    }

    /// Digest of everything that determines the device's evolution from
    /// here under free-running clocking: the cycle counter, sequential
    /// state (flip-flops, previous-D shadows, pending BRAM captures),
    /// memory contents, and the behaviour-affecting configuration cells.
    ///
    /// Primary inputs are not hashed: campaign workloads are self-driving
    /// (inputs stay at their reset values), which is what makes "hash
    /// equals the golden hash at the same cycle" imply "all future cycles
    /// are identical". Combinational wire/LUT values are recomputed by
    /// [`settle`](Self::settle) and need no hashing either.
    pub fn state_hash(&self) -> u64 {
        let mut h = state::splitmix(self.cycle ^ 0x5851_F42D_4C95_7F2D);
        let mut acc = 0u64;
        let mut n = 0u32;
        for (&s, &p) in self.ff_state.iter().zip(&self.ff_prev_d) {
            acc = (acc << 2) | ((s as u64) << 1) | (p as u64);
            n += 1;
            if n == 32 {
                h = state::splitmix(h ^ acc);
                acc = 0;
                n = 0;
            }
        }
        if n > 0 {
            h = state::splitmix(h ^ acc ^ ((n as u64) << 56));
        }
        for &(we, addr, din) in &self.bram_prev_write {
            h = state::splitmix(h ^ ((we as u64) << 63) ^ addr as u64);
            h = state::splitmix(h ^ din);
        }
        h ^ self.bram_hash ^ self.behav_hash
    }

    /// Whether the behaviour-affecting configuration equals the pristine
    /// configuration (LUT tables, FF-input inverters, wire fault state).
    ///
    /// `lsr_drive` reprogramming is deliberately ignored — a removed
    /// bit-flip fault leaves the set/reset mux reconfigured without
    /// affecting free-running behaviour.
    pub fn config_behaviourally_pristine(&self) -> bool {
        self.behav_hash == self.pristine_behav_hash
    }

    /// Recomputes static timing for the current configuration.
    pub fn recompute_timing(&mut self) {
        self.timing = self.static_timing(&self.bits);
    }

    /// Brings the timing report up to date after a routing write: a copy
    /// of the pristine report when every wire written since the last
    /// [`reset`](Self::reset) is back at its pristine configuration (a
    /// delay fault's removal), a full analysis otherwise.
    fn refresh_timing(&mut self) {
        let (live, pristine) = (self.bits.wires(), self.pristine.wires());
        if self
            .dirty_wires
            .list
            .iter()
            .all(|&w| live[w as usize] == pristine[w as usize])
        {
            self.timing.clone_from(&self.pristine_timing);
        } else {
            self.recompute_timing();
        }
    }

    /// Static timing of this device's compiled circuit under the routing
    /// delays of `bits` (the live or the pristine configuration).
    pub(crate) fn static_timing(&self, bits: &Bitstream) -> TimingReport {
        let arch = *bits.arch();
        let wires = bits.wires();
        let mut arrival = vec![0.0f64; wires.len()];
        let mut lut_ready = vec![0.0f64; self.luts.len()];

        // Source wires (inputs, FF outputs) are ready at t=0 plus their own
        // wire delay.
        for (wi, w) in wires.iter().enumerate() {
            if matches!(
                w.driver,
                WireDriver::PrimaryInput { .. } | WireDriver::CbFf(_)
            ) {
                arrival[wi] = w.delay_ns(&arch);
            }
        }
        for op in &self.tape {
            let mut t: f64 = 0.0;
            for &w in self.node_inputs(op) {
                t = t.max(arrival[w as usize]);
            }
            let ready = t + match op.kind {
                NodeKind::Lut => arch.lut_delay_ns,
                NodeKind::Bram => arch.bram_read_ns,
            };
            if op.kind == NodeKind::Lut {
                lut_ready[op.target as usize] = ready;
            }
            for w in self.node_outputs(op) {
                arrival[w as usize] = ready + wires[w as usize].delay_ns(&arch);
            }
        }
        let limit = arch.usable_period_ns();
        let mut critical: f64 = 0.0;
        let ff_overshoot_ns: Vec<f64> = self
            .ffs
            .iter()
            .map(|ff| {
                let t = match ff.data {
                    FfData::LutInternal(li) => lut_ready[li as usize],
                    FfData::Wire(w) => arrival[w as usize],
                };
                critical = critical.max(t);
                (t - limit).max(0.0)
            })
            .collect();
        let bram_overshoot_ns: Vec<f64> = self
            .bram_write_ports
            .iter()
            .map(|p| {
                let mut t: f64 = 0.0;
                for w in p.addr.iter().chain(&p.din).chain(p.we.iter()) {
                    t = t.max(arrival[*w as usize]);
                }
                critical = critical.max(t);
                (t - limit).max(0.0)
            })
            .collect();
        TimingReport {
            wire_arrival_ns: arrival,
            ff_violated: ff_overshoot_ns.iter().map(|&o| o > 0.0).collect(),
            ff_overshoot_ns,
            bram_write_violated: bram_overshoot_ns.iter().map(|&o| o > 0.0).collect(),
            bram_overshoot_ns,
            critical_path_ns: critical,
        }
    }
}

/// Reads a bus of wires as an integer, LSB first.
fn read_bus(wire_values: &[bool], wires: &[u32]) -> usize {
    let mut v = 0usize;
    for (bit, w) in wires.iter().enumerate() {
        if wire_values[*w as usize] {
            v |= 1 << bit;
        }
    }
    v
}

/// Whether a marginal setup violation corrupts *this* cycle's capture.
///
/// The static analysis gives worst-case arrival; the path actually
/// exercised depends on the cycle's data, so an overshoot of `o` ns
/// misses the edge with probability `min(1, o / arrival_spread_ns)`.
/// The draw is a deterministic hash of (cycle, element), keeping
/// experiments reproducible. Shared by both engines, which is what keeps
/// batched and scalar runs cycle-exact on designs with marginal timing.
#[inline]
pub(crate) fn capture_misses(spread_ns: f64, cycle: u64, overshoot: f64, element: u64) -> bool {
    if overshoot <= 0.0 {
        return false;
    }
    let p = (overshoot / spread_ns).min(1.0);
    if p >= 1.0 {
        return true;
    }
    let mut h =
        cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ element.wrapping_mul(0xD1B5_4A32_D192_ED03);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    ((h >> 11) as f64 / (1u64 << 53) as f64) < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cb::FfDSrc;
    use crate::routing::WireSink;

    fn inverter_loop_device() -> Device {
        // Packed CB: LUT inverts pin0, FF registers the LUT output, and the
        // LUT's pin0 reads the FF output (feedback) — q toggles each cycle.
        // The LUT is created with no pins and patched afterwards because
        // the feedback wire only exists once the FF does.
        let mut bs = Bitstream::new(ArchParams::small());
        let cb = CbCoord::new(2, 3);
        let _lut_out = bs.add_lut(cb, 0x5555, [None, None, None, None]).unwrap();
        let ff_out = bs.add_ff(cb, false, FfDSrc::LutOut).unwrap();
        bs.cb_mut(cb).unwrap().lut_pins[0] = Some(ff_out);
        bs.wire_mut(ff_out)
            .unwrap()
            .sinks
            .push(WireSink::LutPin { cb, pin: 0 });
        bs.add_output("q", &[ff_out]).unwrap();
        Device::configure(bs).unwrap()
    }

    #[test]
    fn toggle_ff_toggles() {
        let mut dev = inverter_loop_device();
        let mut seen = Vec::new();
        for _ in 0..4 {
            dev.settle();
            seen.push(dev.output_u64("q").unwrap());
            dev.clock_edge();
        }
        assert_eq!(seen, vec![0, 1, 0, 1]);
    }

    #[test]
    fn lsr_pulse_flips_ff_and_charges_frames() {
        let mut dev = inverter_loop_device();
        dev.clear_ledger();
        dev.settle();
        let cb = CbCoord::new(2, 3);
        assert_eq!(dev.peek_ff(cb), Some(false));
        dev.apply(&Mutation::SetLsrDrive {
            cb,
            drive: SetReset::Set,
        })
        .unwrap();
        dev.apply(&Mutation::PulseLsr { cb }).unwrap();
        assert_eq!(dev.peek_ff(cb), Some(true));
        // One frame for the drive mux, two writes of the InvertLSR frame.
        assert_eq!(dev.ledger().total_frames(), 3);
    }

    #[test]
    fn bram_bit_mutation_changes_memory() {
        let mut bs = Bitstream::new(ArchParams::small());
        let addr = bs.add_input("addr", 4);
        let dout = bs
            .add_bram("m", &addr, &[], None, 8, &[7, 0, 0, 0])
            .unwrap();
        bs.add_output("dout", &dout).unwrap();
        let mut dev = Device::configure(bs).unwrap();
        dev.set_input("addr", &[false; 4]).unwrap();
        dev.settle();
        assert_eq!(dev.output_u64("dout").unwrap(), 7);
        dev.apply(&Mutation::SetBramBit {
            bram: BramId::from_index(0),
            addr: 0,
            bit: 3,
            value: true,
        })
        .unwrap();
        dev.settle();
        assert_eq!(dev.output_u64("dout").unwrap(), 15);
    }

    #[test]
    fn detour_causes_timing_violation_and_stale_capture() {
        let mut dev = inverter_loop_device();
        // Without faults the FF toggles; with a huge detour on its feedback
        // wire, the FF starts capturing stale data.
        dev.settle();
        dev.clock_edge();
        let cb = CbCoord::new(2, 3);
        assert_eq!(dev.peek_ff(cb), Some(true));
        assert!(!dev.timing().any_violation());
        // Feedback wire is the FF output wire (index of the second wire
        // created in the builder). Find it via the bitstream.
        let wire = dev
            .bitstream()
            .wires()
            .iter()
            .enumerate()
            .find(|(_, w)| matches!(w.driver, WireDriver::CbFf(_)))
            .map(|(i, _)| WireId::from_index(i))
            .unwrap();
        let luts_needed = (dev.arch().usable_period_ns()
            / (dev.arch().lut_delay_ns + dev.arch().wire_base_ns))
            .ceil() as u32
            + 1;
        dev.apply(&Mutation::SetWireDetour {
            wire,
            luts: luts_needed,
        })
        .unwrap();
        assert!(dev.timing().any_violation());
        // With a setup violation the FF repeatedly captures the previous D,
        // so its value lags: run two cycles and compare against the
        // fault-free toggle pattern.
        let before = dev.peek_ff(cb).unwrap();
        dev.step();
        // Fault-free it would invert; stale capture keeps the old D (which
        // equals the inverted-previous value), so after removal the state
        // sequence deviates from a pure toggle. At minimum, the report must
        // flag the violation; the functional effect is asserted by the
        // campaign-level tests in fades-core.
        let _ = before;
    }

    #[test]
    fn timing_report_stays_exact_across_routing_writes_and_reset() {
        let mut dev = inverter_loop_device();
        let exact = |dev: &Device| dev.timing() == &dev.static_timing(dev.bitstream());
        let violating = (dev.arch().usable_period_ns()
            / (dev.arch().lut_delay_ns + dev.arch().wire_base_ns))
            .ceil() as u32
            + 1;
        let n_wires = dev.bitstream().wires().len();
        assert!(exact(&dev) && dev.timing_is_pristine());
        assert!(dev
            .bitstream()
            .wires()
            .iter()
            .any(|w| matches!(w.driver, WireDriver::CbFf(_))));
        // A fan-out load too small to violate, a detour that violates and
        // their removals, on every wire, shipped both ways. Timing that
        // differs from pristine only in wire arrivals still counts as
        // pristine: capture reads the overshoots alone.
        for full in [false, true] {
            for w in 0..n_wires {
                let wire = WireId::from_index(w);
                // Only the feedback wire lies on the flip-flop's data
                // path; the LUT output reaches the flip-flop inside its
                // block.
                let on_path = matches!(dev.bitstream().wires()[w].driver, WireDriver::CbFf(_));
                let steps = [
                    (Mutation::SetWireFanout { wire, extra: 1 }, true),
                    (
                        Mutation::SetWireDetour {
                            wire,
                            luts: violating,
                        },
                        !on_path,
                    ),
                    (Mutation::SetWireFanout { wire, extra: 0 }, !on_path),
                    (Mutation::SetWireDetour { wire, luts: 0 }, true),
                ];
                for (mutation, neutral) in steps {
                    if full {
                        dev.apply_via_full_download(&mutation).unwrap();
                    } else {
                        dev.apply(&mutation).unwrap();
                    }
                    assert!(exact(&dev), "{mutation:?}");
                    assert_eq!(dev.timing_is_pristine(), neutral, "{mutation:?}");
                }
                assert_eq!(dev.timing(), &dev.pristine_timing);
                dev.apply(&Mutation::SetWireDetour {
                    wire,
                    luts: violating,
                })
                .unwrap();
                dev.reset();
                assert!(exact(&dev) && dev.timing_is_pristine());
                assert_eq!(dev.timing(), &dev.pristine_timing);
            }
        }
    }
}
