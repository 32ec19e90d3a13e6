//! Bit-parallel lane engine: 63 faulty machines plus one golden machine
//! per `u64` word.
//!
//! [`BatchDevice`] replicates the dynamics of [`Device`] with every piece
//! of per-element runtime state widened from `bool` to `u64`: bit `l` of a
//! word is the value that element holds in *lane* `l`. Lane 0 is reserved
//! for the golden (fault-free) run; lanes `1..=63` each carry one
//! independent fault-injection experiment. LUT evaluation becomes a
//! branch-free mux tree over input words, flip-flop captures and
//! block-RAM writes are lane-masked word operations, and every
//! reconfiguration a strategy performs goes through a [`LaneDevice`]
//! facade that touches only its own lane's bit while charging that lane's
//! own [`TransferLedger`].
//!
//! The engine is honest in the same sense the scalar device is: strategies
//! drive it through the [`ConfigAccess`] trait — the exact
//! readback/reconfigure surface of [`Device`] — so a strategy cannot tell
//! whether it is reconfiguring a real (scalar) device or one lane of the
//! batch engine, and the per-lane ledger records byte-for-byte the traffic
//! the scalar run would have recorded.
//!
//! Lanes never mutate routing: wire mutations change static timing, which
//! all lanes share (the capture-miss draw of a marginal setup path must be
//! lane-uniform for whole-word selects to be exact). The campaign layer
//! partitions such faults onto the scalar path.

use crate::arch::ArchParams;
use crate::bitstream::Bitstream;
use crate::cb::SetReset;
use crate::coords::{BramId, CbCoord};
use crate::device::{capture_misses, compact_table, Device, FfData, FfNode, NodeKind, NO_WIRE};
use crate::error::FpgaError;
use crate::frames::{CbField, FrameSet};
use crate::ledger::{TransferKind, TransferLedger, TransferOp};
use crate::reconfig::Mutation;
use crate::state::DeviceState;

/// Number of lanes in one batch word.
pub const LANES: usize = 64;

/// Lane-mask of the golden lane (lane 0, never faulted).
pub const GOLDEN_LANE_MASK: u64 = 1;

/// Broadcasts a boolean across all 64 lanes.
#[inline(always)]
fn splat(b: bool) -> u64 {
    0u64.wrapping_sub(b as u64)
}

/// Broadcasts lane 0 of a word across all 64 lanes.
#[inline(always)]
fn splat_lane0(w: u64) -> u64 {
    0u64.wrapping_sub(w & 1)
}

/// True if every lane of the word holds the same value.
#[inline(always)]
fn uniform(w: u64) -> bool {
    w == 0 || w == u64::MAX
}

/// The readback/reconfigure surface injection strategies drive.
///
/// [`Device`] implements it by delegating to its inherent methods; a
/// [`LaneDevice`] implements it against one lane of a [`BatchDevice`].
/// Fault-injection strategies are written against this trait, which is
/// what lets the same strategy code run one experiment on a scalar device
/// or 63 at once on the lane engine.
pub trait ConfigAccess {
    /// Reads back the state of one flip-flop (one capture frame).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::ResourceUnused`] if the block's FF is unused.
    fn readback_ff(&mut self, cb: CbCoord) -> Result<bool, FpgaError>;

    /// Reads back the state of every used flip-flop (one capture frame
    /// per used column).
    fn readback_all_ffs(&mut self) -> Vec<(CbCoord, bool)>;

    /// Reads back one word of a memory block (one content frame).
    ///
    /// # Errors
    ///
    /// Returns an error for a bad block id or address.
    fn readback_bram_word(&mut self, bram: BramId, addr: usize) -> Result<u64, FpgaError>;

    /// Reads back a LUT truth table (one configuration frame).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::ResourceUnused`] if the block's LUT is unused.
    fn readback_lut_table(&mut self, cb: CbCoord) -> Result<u16, FpgaError>;

    /// Applies a partial reconfiguration and records its frame traffic.
    ///
    /// # Errors
    ///
    /// Returns an error if the mutation's target does not exist or is not
    /// configured.
    fn apply(&mut self, mutation: &Mutation) -> Result<(), FpgaError>;

    /// Applies a reconfiguration shipped inside a full configuration
    /// download (semantic change plus one bulk-download ledger entry).
    ///
    /// # Errors
    ///
    /// Same conditions as [`apply`](Self::apply).
    fn apply_via_full_download(&mut self, mutation: &Mutation) -> Result<(), FpgaError>;

    /// Reconfigures the `CLRMux`/`PRMux` selection of many flip-flops in
    /// one partial-reconfiguration pass.
    ///
    /// # Errors
    ///
    /// Returns an error if any coordinate is invalid or has no used FF.
    fn bulk_set_lsr_drives(&mut self, drives: &[(CbCoord, SetReset)]) -> Result<(), FpgaError>;

    /// Holds the local set/reset line of one block asserted across a
    /// clock edge (no configuration traffic).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::ResourceUnused`] if the block's FF is unused.
    fn hold_lsr(&mut self, cb: CbCoord) -> Result<(), FpgaError>;
}

impl ConfigAccess for Device {
    fn readback_ff(&mut self, cb: CbCoord) -> Result<bool, FpgaError> {
        Device::readback_ff(self, cb)
    }

    fn readback_all_ffs(&mut self) -> Vec<(CbCoord, bool)> {
        Device::readback_all_ffs(self)
    }

    fn readback_bram_word(&mut self, bram: BramId, addr: usize) -> Result<u64, FpgaError> {
        Device::readback_bram_word(self, bram, addr)
    }

    fn readback_lut_table(&mut self, cb: CbCoord) -> Result<u16, FpgaError> {
        Device::readback_lut_table(self, cb)
    }

    fn apply(&mut self, mutation: &Mutation) -> Result<(), FpgaError> {
        Device::apply(self, mutation)
    }

    fn apply_via_full_download(&mut self, mutation: &Mutation) -> Result<(), FpgaError> {
        Device::apply_via_full_download(self, mutation)
    }

    fn bulk_set_lsr_drives(&mut self, drives: &[(CbCoord, SetReset)]) -> Result<(), FpgaError> {
        Device::bulk_set_lsr_drives(self, drives)
    }

    fn hold_lsr(&mut self, cb: CbCoord) -> Result<(), FpgaError> {
        Device::hold_lsr(self, cb)
    }
}

/// One memory block, lane-parallel: contents are stored transposed, one
/// lane word per (address, bit) cell.
#[derive(Debug, Clone)]
struct LaneBram {
    we: Option<u32>,
    addr_wires: Vec<u32>,
    din_wires: Vec<u32>,
    dout_wires: Vec<Option<u32>>,
    width: usize,
    depth: usize,
    /// `contents[addr * width + bit]` is the lane word of that bit.
    contents: Vec<u64>,
    /// Scalar pristine words, for broadcast reset.
    pristine_words: Vec<u64>,
    /// Indices into `contents` that may differ across lanes. Lazily swept
    /// by the divergence scan; the invariant is that every non-uniform
    /// content word is on this list.
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
    prev_we: u64,
    prev_addr: Vec<u64>,
    prev_din: Vec<u64>,
}

/// Evaluation descriptor of one combinational node, packed so the
/// settle sweep streams one small record per node instead of gathering
/// from several scattered arrays. For a LUT node: `target` is the LUT
/// index, `table_off` its slice start in `compact_tables`, `arity`/`pins`
/// the connected pin count and wires. For a BRAM node (`is_bram != 0`):
/// `target` is the BRAM index and the rest is unused.
#[derive(Debug, Clone, Copy)]
struct NodeDesc {
    target: u32,
    out_wire: u32,
    table_off: u32,
    arity: u8,
    is_bram: u8,
    pins: [u32; 4],
}

impl LaneBram {
    fn mark_dirty(&mut self, idx: usize) {
        if !self.is_dirty[idx] {
            self.is_dirty[idx] = true;
            self.dirty.push(idx as u32);
        }
    }

    fn reset(&mut self) {
        for (addr, &w) in self.pristine_words.iter().enumerate() {
            for bit in 0..self.width {
                self.contents[addr * self.width + bit] = splat((w >> bit) & 1 == 1);
            }
        }
        for &idx in &self.dirty {
            self.is_dirty[idx as usize] = false;
        }
        self.dirty.clear();
        self.prev_we = 0;
        for w in self.prev_addr.iter_mut() {
            *w = 0;
        }
        for w in self.prev_din.iter_mut() {
            *w = 0;
        }
    }
}

/// A lane-parallel replica of one configured [`Device`]: 64 copies of the
/// compiled circuit advance together, one `u64` lane word per wire, LUT,
/// flip-flop and memory bit.
///
/// Constructed from a configured device with [`BatchDevice::new`]; the
/// compiled structures, pristine configuration and (pristine) static
/// timing are harvested once and shared by all lanes. Per-lane
/// reconfiguration goes through [`BatchDevice::lane`].
#[derive(Debug, Clone)]
pub struct BatchDevice {
    arch: ArchParams,
    pristine: Bitstream,
    ffs: Vec<FfNode>,
    ff_of_cb: Vec<u32>,
    lut_of_cb: Vec<u32>,
    ff_overshoot_ns: Vec<f64>,
    bram_overshoot_ns: Vec<f64>,
    ff_columns: Vec<u16>,

    // Pristine per-node configuration (broadcast targets for reset and
    // the reference side of the config-divergence accounting).
    pristine_tables: Vec<u16>,
    pristine_invert: Vec<bool>,
    pristine_drive: Vec<bool>,
    ff_init: Vec<bool>,

    // Lane configuration state. A LUT table is 16 lane words: bit `l` of
    // `lut_tables[li][k]` is truth-table entry `k` in lane `l`. This is
    // the readback/bookkeeping representation; evaluation uses the
    // arity-compacted mirror below.
    lut_tables: Vec<[u64; 16]>,
    /// Number of connected pins per LUT (structural: mutations rewrite
    /// tables, never routing, so this is lane-invariant and constant).
    lut_arity: Vec<u8>,
    /// Compact-index → full-table-index map per LUT (first `1 << arity`
    /// entries valid): compact bit `k` corresponds to connected pin `k`.
    lut_cfull: Vec<[u8; 16]>,
    /// Pristine truth table in compact index space.
    lut_cpristine: Vec<u16>,
    /// Start of each LUT's slice in `compact_tables` (length `1 << arity`).
    lut_coff: Vec<u32>,
    /// Lane-word truth tables in compact index space, arity-packed flat —
    /// the evaluation mirror of `lut_tables`. Unconnected pins always
    /// present a constant-0 word, so only the `1 << arity` entries with
    /// those index bits clear are reachable; restricting the mux tree to
    /// them is exact for pristine *and* mutated tables.
    compact_tables: Vec<u64>,
    /// Lanes whose table differs from pristine, per LUT node.
    lut_table_diff: Vec<u64>,
    invert_ff_in: Vec<u64>,
    /// Lanes whose inverter differs from pristine, per FF node.
    invert_diff: Vec<u64>,
    lsr_drive: Vec<u64>,
    /// Per lane: number of configuration cells (LUT tables + inverters)
    /// currently differing from pristine. Zero means the lane is
    /// behaviourally pristine (`lsr_drive` deliberately excluded, exactly
    /// like [`Device::config_behaviourally_pristine`]).
    config_diff_count: [u32; LANES],

    // Lane runtime state.
    cycle: u64,
    wire_values: Vec<u64>,
    lut_values: Vec<u64>,
    ff_state: Vec<u64>,
    ff_prev_d: Vec<u64>,
    brams: Vec<LaneBram>,
    ledgers: Vec<TransferLedger>,

    /// Per-tape-position evaluation descriptor, in topological
    /// order: the settle sweep walks this array front to back.
    node_descs: Vec<NodeDesc>,

    // Incremental retirement mask (see `seq_divergence`): the flip-flop
    // and capture-shadow components are folded during `clock_edge`, so
    // the per-cycle retirement check no longer rescans every word.
    seq_div_ff: u64,
    seq_div_shadow: u64,
    /// A set/reset pulse mutated `ff_state` after the last edge, so the
    /// cached `seq_div_ff` fold may be stale.
    ff_touched_since_edge: bool,
}

/// One reason a pristine configuration cannot be represented bit-exactly
/// by the transposed lane store of [`BatchDevice`].
///
/// Campaign engines fall back to scalar execution when any obstacle is
/// present; the `lane-obstacle` lint rule in `fades-analysis` reports the
/// same findings as diagnostics so the fallback is explained instead of
/// showing up as an unexplained scalar run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneObstacle {
    /// A memory word wider than the 64-bit lane word.
    WordTooWide {
        /// The offending memory block.
        bram: crate::coords::BramId,
        /// Its declared word width.
        width: u32,
    },
    /// Pristine memory words carrying bits at or above the declared
    /// width. The scalar device preserves such stray bits in state
    /// snapshots until the word is first written; the lane store cannot,
    /// so the engines would disagree on `Latent` classification.
    StrayBits {
        /// The offending memory block.
        bram: crate::coords::BramId,
        /// Word addresses with stray bits, ascending.
        addrs: Vec<usize>,
    },
}

impl std::fmt::Display for LaneObstacle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneObstacle::WordTooWide { bram, width } => {
                write!(
                    f,
                    "bram{} word width {width} exceeds the 64-bit lane word",
                    bram.0
                )
            }
            LaneObstacle::StrayBits { bram, addrs } => {
                write!(
                    f,
                    "bram{} has stray bits above the declared width at word address(es) {addrs:?}",
                    bram.0
                )
            }
        }
    }
}

/// Enumerates everything that stops [`BatchDevice::new`] from lane-encoding
/// `bitstream`. Empty means the lane engine can represent the design
/// bit-exactly. Deterministic: blocks in id order, addresses ascending.
pub fn lane_obstacles(bitstream: &Bitstream) -> Vec<LaneObstacle> {
    let mut out = Vec::new();
    for (i, b) in bitstream.brams().iter().enumerate() {
        let bram = crate::coords::BramId(i as u16);
        let width = b.width as usize;
        if width > 64 {
            out.push(LaneObstacle::WordTooWide {
                bram,
                width: b.width,
            });
        } else if width < 64 {
            let addrs: Vec<usize> = b
                .contents
                .iter()
                .enumerate()
                .filter(|(_, &w)| w >> width != 0)
                .map(|(a, _)| a)
                .collect();
            if !addrs.is_empty() {
                out.push(LaneObstacle::StrayBits { bram, addrs });
            }
        }
    }
    out
}

impl BatchDevice {
    /// Builds a lane engine from a configured device.
    ///
    /// Harvests the device's compiled tape and structures by borrow and
    /// reads configuration and static timing from its *pristine*
    /// configuration, so the engine always starts pristine regardless of
    /// what the caller has done to `dev` since configuring it.
    ///
    /// Returns `None` for configurations the engine cannot represent
    /// bit-exactly (see [`lane_obstacles`]), counting the refusal in
    /// `fades_telemetry::analysis::LANE_FALLBACKS` so the resulting
    /// scalar fallback is visible on `/metrics`.
    #[must_use]
    pub fn new(dev: &Device) -> Option<Self> {
        let pristine = &dev.pristine;
        if !lane_obstacles(pristine).is_empty() {
            fades_telemetry::analysis::LANE_FALLBACKS.inc();
            return None;
        }
        let arch = *pristine.arch();
        let timing = dev.static_timing(pristine);
        let ffs = dev.ffs.clone();

        let cbs = pristine.cbs();
        let pristine_tables: Vec<u16> = dev
            .luts
            .iter()
            .map(|l| cbs[l.cb_flat as usize].lut_table)
            .collect();
        let pristine_invert: Vec<bool> = ffs
            .iter()
            .map(|f| cbs[f.cb_flat as usize].invert_ff_in)
            .collect();
        let pristine_drive: Vec<bool> = ffs
            .iter()
            .map(|f| cbs[f.cb_flat as usize].lsr_drive.value())
            .collect();
        let ff_init: Vec<bool> = ffs
            .iter()
            .map(|f| cbs[f.cb_flat as usize].ff_init)
            .collect();

        // The tape is arity-compacted (see `TapeOp`): each LUT evaluates
        // a `2^arity`-word mux tree over its compact table slice.
        let mut lut_arity = Vec::with_capacity(dev.luts.len());
        let mut lut_cfull = Vec::with_capacity(dev.luts.len());
        let mut lut_cpristine = Vec::with_capacity(dev.luts.len());
        let mut lut_coff = Vec::with_capacity(dev.luts.len());
        let mut coff = 0u32;
        for (l, &table) in dev.luts.iter().zip(&pristine_tables) {
            let arity = dev.tape[l.tape as usize].arity;
            lut_arity.push(arity);
            lut_cfull.push(l.cfull);
            lut_cpristine.push(compact_table(table, &l.cfull));
            lut_coff.push(coff);
            coff += 1u32 << arity;
        }

        let brams: Vec<LaneBram> = pristine
            .brams()
            .iter()
            .zip(&dev.bram_write_ports)
            .zip(&dev.bram_dout_wires)
            .map(|((cfg, port), douts)| {
                let width = cfg.width as usize;
                let depth = cfg.depth();
                LaneBram {
                    we: port.we,
                    addr_wires: port.addr.clone(),
                    din_wires: port.din.clone(),
                    dout_wires: douts.clone(),
                    width,
                    depth,
                    contents: vec![0; depth * width],
                    pristine_words: cfg.contents.clone(),
                    dirty: Vec::new(),
                    is_dirty: vec![false; depth * width],
                    prev_we: 0,
                    prev_addr: vec![0; port.addr.len()],
                    prev_din: vec![0; port.din.len()],
                }
            })
            .collect();

        let n_wires = pristine.wires().len();
        let ff_columns = pristine.ff_columns();
        let n_luts = dev.luts.len();
        let n_ffs = ffs.len();

        let node_descs: Vec<NodeDesc> = dev
            .tape
            .iter()
            .map(|op| match op.kind {
                NodeKind::Lut => NodeDesc {
                    target: op.target,
                    out_wire: op.out_wire,
                    table_off: lut_coff[op.target as usize],
                    arity: op.arity,
                    is_bram: 0,
                    pins: op.pins,
                },
                NodeKind::Bram => NodeDesc {
                    target: op.target,
                    out_wire: NO_WIRE,
                    table_off: 0,
                    arity: 0,
                    is_bram: 1,
                    pins: [0; 4],
                },
            })
            .collect();

        let mut engine = BatchDevice {
            arch,
            pristine: pristine.clone(),
            ffs,
            ff_of_cb: dev.ff_of_cb.clone(),
            lut_of_cb: dev.lut_of_cb.clone(),
            ff_overshoot_ns: timing.ff_overshoot_ns,
            bram_overshoot_ns: timing.bram_overshoot_ns,
            ff_columns,
            pristine_tables,
            pristine_invert,
            pristine_drive,
            ff_init,
            lut_tables: vec![[0u64; 16]; n_luts],
            lut_arity,
            lut_cfull,
            lut_cpristine,
            lut_coff,
            compact_tables: vec![0u64; coff as usize],
            lut_table_diff: vec![0; n_luts],
            invert_ff_in: vec![0; n_ffs],
            invert_diff: vec![0; n_ffs],
            lsr_drive: vec![0; n_ffs],
            config_diff_count: [0; LANES],
            cycle: 0,
            wire_values: vec![0; n_wires],
            lut_values: vec![0; n_luts],
            ff_state: vec![0; n_ffs],
            ff_prev_d: vec![0; n_ffs],
            brams,
            ledgers: vec![TransferLedger::new(); LANES],
            node_descs,
            seq_div_ff: 0,
            seq_div_shadow: 0,
            ff_touched_since_edge: false,
        };
        engine.reset();
        Some(engine)
    }

    /// The architecture of the underlying device.
    pub fn arch(&self) -> &ArchParams {
        &self.arch
    }

    /// Cycles executed since the last [`reset`](Self::reset).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Broadcast-splats every LUT's pristine truth table into both the
    /// full (readback) and compact (evaluation) lane representations and
    /// clears the table-diff masks.
    fn rebuild_pristine_tables(&mut self) {
        for li in 0..self.pristine_tables.len() {
            let table = self.pristine_tables[li];
            for (k, w) in self.lut_tables[li].iter_mut().enumerate() {
                *w = splat((table >> k) & 1 == 1);
            }
            let ct = self.lut_cpristine[li];
            let off = self.lut_coff[li] as usize;
            for k in 0..(1usize << self.lut_arity[li]) {
                self.compact_tables[off + k] = splat((ct >> k) & 1 == 1);
            }
            self.lut_table_diff[li] = 0;
        }
    }

    /// Restores every lane to the device's initial state: flip-flops to
    /// their init values, configuration (LUT tables, inverters, set/reset
    /// muxes, memory contents) to pristine, and clears all lane ledgers.
    pub fn reset(&mut self) {
        self.rebuild_pristine_tables();
        for i in 0..self.ffs.len() {
            self.invert_ff_in[i] = splat(self.pristine_invert[i]);
            self.invert_diff[i] = 0;
            self.lsr_drive[i] = splat(self.pristine_drive[i]);
            let init = splat(self.ff_init[i]);
            self.ff_state[i] = init;
            self.ff_prev_d[i] = init;
        }
        self.config_diff_count = [0; LANES];
        for w in self.wire_values.iter_mut() {
            *w = 0;
        }
        for v in self.lut_values.iter_mut() {
            *v = 0;
        }
        for b in self.brams.iter_mut() {
            b.reset();
        }
        for l in self.ledgers.iter_mut() {
            l.clear();
        }
        self.cycle = 0;
        self.seq_div_ff = 0;
        self.seq_div_shadow = 0;
        self.ff_touched_since_edge = false;
    }

    /// Splat-loads every lane from one scalar golden-run snapshot:
    /// configuration back to pristine (exactly as [`reset`](Self::reset)
    /// does), runtime state broadcast from the snapshot, ledgers cleared,
    /// and the cycle counter set to the snapshot's cycle.
    ///
    /// This is the warm-start primitive: a cohort whose earliest
    /// injection instant is `c` can restore the nearest golden checkpoint
    /// at or before `c` and skip re-simulating the pristine prefix, and
    /// the result is bit-identical by construction — every lane's state
    /// is exactly what replaying the prefix would have produced, because
    /// until its injection a lane *is* the golden run.
    ///
    /// Checkpoints are captured post-edge, pre-settle: the snapshot's
    /// wire and LUT values are the fixpoint of the *previous* cycle's
    /// presentation, stale against its `ff_state` and memory contents.
    /// That is harmless because every [`settle`](Self::settle) recomputes
    /// every combinational word from the sequential state.
    pub fn restore_broadcast(&mut self, snap: &DeviceState) {
        self.rebuild_pristine_tables();
        for i in 0..self.ffs.len() {
            self.invert_ff_in[i] = splat(self.pristine_invert[i]);
            self.invert_diff[i] = 0;
            self.lsr_drive[i] = splat(self.pristine_drive[i]);
            self.ff_state[i] = splat(snap.ff_state[i]);
            self.ff_prev_d[i] = splat(snap.ff_prev_d[i]);
        }
        self.config_diff_count = [0; LANES];
        for (w, &v) in self.wire_values.iter_mut().zip(&snap.wire_values) {
            *w = splat(v);
        }
        for (w, &v) in self.lut_values.iter_mut().zip(&snap.lut_values) {
            *w = splat(v);
        }
        for (bi, b) in self.brams.iter_mut().enumerate() {
            for (addr, &word) in snap.bram_contents[bi].iter().enumerate() {
                for bit in 0..b.width {
                    b.contents[addr * b.width + bit] = splat((word >> bit) & 1 == 1);
                }
            }
            for &idx in &b.dirty {
                b.is_dirty[idx as usize] = false;
            }
            b.dirty.clear();
            let (we, addr, din) = snap.bram_prev_write[bi];
            b.prev_we = splat(we);
            for (k, w) in b.prev_addr.iter_mut().enumerate() {
                *w = splat((addr >> k) & 1 == 1);
            }
            for (k, w) in b.prev_din.iter_mut().enumerate() {
                *w = splat((din >> k) & 1 == 1);
            }
        }
        for l in self.ledgers.iter_mut() {
            l.clear();
        }
        self.cycle = snap.cycle;
        self.seq_div_ff = 0;
        self.seq_div_shadow = 0;
        self.ff_touched_since_edge = false;
    }

    /// Drives an input port with the same bits on every lane.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown port or wrong width.
    pub fn set_input(&mut self, name: &str, bits: &[bool]) -> Result<(), FpgaError> {
        let port = self
            .pristine
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
            self.wire_values[w.index()] = splat(v);
        }
        Ok(())
    }

    /// The wire indices of an output port, LSB first (resolve once, then
    /// read per cycle with [`port_divergence`](Self::port_divergence)).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::UnknownPort`] for an unknown port.
    pub fn output_wires(&self, name: &str) -> Result<Vec<u32>, FpgaError> {
        let port = self
            .pristine
            .outputs()
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| FpgaError::UnknownPort(name.to_string()))?;
        Ok(port.wires.iter().map(|w| w.index() as u32).collect())
    }

    /// Lanes (bit set) whose value on the given port wires differs from
    /// the expected golden value; call after [`settle`](Self::settle).
    /// Only the first 64 wires are compared, mirroring
    /// [`Device::output_u64`].
    pub fn port_divergence(&self, wires: &[u32], golden: u64) -> u64 {
        let mut d = 0u64;
        for (bit, &w) in wires.iter().enumerate().take(64) {
            d |= self.wire_values[w as usize] ^ splat((golden >> bit) & 1 == 1);
        }
        d
    }

    /// Reads an output port as an integer for one lane (test/debug aid).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::UnknownPort`] for an unknown port.
    pub fn output_u64_lane(&self, name: &str, lane: usize) -> Result<u64, FpgaError> {
        let wires = self.output_wires(name)?;
        let mut v = 0u64;
        for (bit, &w) in wires.iter().enumerate().take(64) {
            v |= ((self.wire_values[w as usize] >> lane) & 1) << bit;
        }
        Ok(v)
    }

    /// Propagates values through the combinational fabric, all lanes at
    /// once: presents every flip-flop's state word on its output wire,
    /// then evaluates every combinational node in topological order.
    pub fn settle(&mut self) {
        for (i, ff) in self.ffs.iter().enumerate() {
            if let Some(w) = ff.out_wire {
                self.wire_values[w as usize] = self.ff_state[i];
            }
        }
        for idx in 0..self.node_descs.len() {
            let d = self.node_descs[idx];
            if d.is_bram == 0 {
                let v = self.eval_lut_lanes(&d);
                self.lut_values[d.target as usize] = v;
                if d.out_wire != u32::MAX {
                    self.wire_values[d.out_wire as usize] = v;
                }
            } else {
                let b = &self.brams[d.target as usize];
                let all_uniform = b
                    .addr_wires
                    .iter()
                    .all(|&w| uniform(self.wire_values[w as usize]));
                if all_uniform {
                    let mut addr = 0usize;
                    for (k, &w) in b.addr_wires.iter().enumerate() {
                        addr |= ((self.wire_values[w as usize] & 1) as usize) << k;
                    }
                    let base = addr * b.width;
                    for (bit, dw) in b.dout_wires.iter().enumerate() {
                        if let Some(w) = dw {
                            self.wire_values[*w as usize] = b.contents[base + bit];
                        }
                    }
                } else {
                    let mut addrs = [0usize; LANES];
                    for (k, &w) in b.addr_wires.iter().enumerate() {
                        let word = self.wire_values[w as usize];
                        for (lane, a) in addrs.iter_mut().enumerate() {
                            *a |= (((word >> lane) & 1) as usize) << k;
                        }
                    }
                    for (bit, dw) in b.dout_wires.iter().enumerate() {
                        if let Some(w) = dw {
                            let mut out = 0u64;
                            for (lane, &a) in addrs.iter().enumerate() {
                                out |= ((b.contents[a * b.width + bit] >> lane) & 1) << lane;
                            }
                            self.wire_values[*w as usize] = out;
                        }
                    }
                }
            }
        }
    }

    /// Evaluates one LUT over all lanes with a mux tree sized to its
    /// connected-pin count. Bit-identical to the full 4-variable tree:
    /// unconnected pins present constant-0 words, so the full tree only
    /// ever selects the table entries the compact tree holds.
    #[inline]
    fn eval_lut_lanes(&self, d: &NodeDesc) -> u64 {
        let ct = &self.compact_tables[d.table_off as usize..];
        let wv = &self.wire_values;
        match d.arity {
            0 => ct[0],
            1 => mux2(ct[0], ct[1], wv[d.pins[0] as usize]),
            2 => {
                let a = wv[d.pins[0] as usize];
                let b = wv[d.pins[1] as usize];
                mux2(mux2(ct[0], ct[1], a), mux2(ct[2], ct[3], a), b)
            }
            3 => {
                let a = wv[d.pins[0] as usize];
                let b = wv[d.pins[1] as usize];
                let c = wv[d.pins[2] as usize];
                let n0 = mux2(mux2(ct[0], ct[1], a), mux2(ct[2], ct[3], a), b);
                let n1 = mux2(mux2(ct[4], ct[5], a), mux2(ct[6], ct[7], a), b);
                mux2(n0, n1, c)
            }
            _ => {
                let p = [
                    wv[d.pins[0] as usize],
                    wv[d.pins[1] as usize],
                    wv[d.pins[2] as usize],
                    wv[d.pins[3] as usize],
                ];
                eval_lane_table(ct, p)
            }
        }
    }

    /// Applies the clock edge on every lane: flip-flop captures (with the
    /// same deterministic setup-violation model as the scalar device) and
    /// lane-masked memory writes.
    pub fn clock_edge(&mut self) {
        // Fold the flip-flop and capture-shadow components of the
        // retirement divergence mask while the words are already in hand,
        // so `seq_divergence` does not rescan them per cycle.
        let mut div_ff = 0u64;
        let mut div_shadow = 0u64;
        for i in 0..self.ffs.len() {
            let raw = match self.ffs[i].data {
                FfData::LutInternal(li) => self.lut_values[li as usize],
                FfData::Wire(w) => self.wire_values[w as usize],
            };
            let d = raw ^ self.invert_ff_in[i];
            let overshoot = self.ff_overshoot_ns.get(i).copied().unwrap_or(0.0);
            // Timing is pristine and lane-invariant (lanes cannot touch
            // routing), so the miss decision is one whole-word select.
            let captured =
                if capture_misses(self.arch.arrival_spread_ns, self.cycle, overshoot, i as u64) {
                    self.ff_prev_d[i]
                } else {
                    d
                };
            self.ff_state[i] = captured;
            self.ff_prev_d[i] = d;
            div_ff |= captured ^ splat_lane0(captured);
            div_shadow |= d ^ splat_lane0(d);
        }
        for bi in 0..self.brams.len() {
            let overshoot = self.bram_overshoot_ns.get(bi).copied().unwrap_or(0.0);
            let miss = capture_misses(
                self.arch.arrival_spread_ns,
                self.cycle,
                overshoot,
                0x8000_0000 | bi as u64,
            );
            let b = &mut self.brams[bi];
            let Some(we) = b.we else { continue };
            let we_now = self.wire_values[we as usize];
            let mut addr_now = [0u64; 32];
            let naddr = b.addr_wires.len();
            for (k, &w) in b.addr_wires.iter().enumerate() {
                addr_now[k] = self.wire_values[w as usize];
            }
            let mut din_now = [0u64; 64];
            let ndin = b.din_wires.len();
            for (k, &w) in b.din_wires.iter().enumerate() {
                din_now[k] = self.wire_values[w as usize];
            }
            {
                // Copy the effective write operands to the stack so the
                // content writes below don't alias `prev_*`.
                let we_eff;
                let mut addr_buf = [0u64; 32];
                let mut din_buf = [0u64; 64];
                if miss {
                    we_eff = b.prev_we;
                    addr_buf[..naddr].copy_from_slice(&b.prev_addr);
                    din_buf[..ndin].copy_from_slice(&b.prev_din);
                } else {
                    we_eff = we_now;
                    addr_buf = addr_now;
                    din_buf = din_now;
                }
                let addr_eff = &addr_buf[..naddr];
                let din_eff = &din_buf[..ndin];
                if we_eff == u64::MAX && addr_eff.iter().all(|&w| uniform(w)) {
                    // Whole-word fast path: every lane writes the same
                    // address, so each bit cell takes its din word.
                    let mut addr = 0usize;
                    for (k, &w) in addr_eff.iter().enumerate() {
                        addr |= ((w & 1) as usize) << k;
                    }
                    let base = addr * b.width;
                    for bit in 0..b.width {
                        let w = din_eff.get(bit).copied().unwrap_or(0);
                        let idx = base + bit;
                        if b.contents[idx] != w {
                            b.contents[idx] = w;
                            if !uniform(w) {
                                b.mark_dirty(idx);
                            }
                        }
                    }
                } else if we_eff != 0 {
                    let mut lanes = we_eff;
                    while lanes != 0 {
                        let lane = lanes.trailing_zeros() as usize;
                        lanes &= lanes - 1;
                        let m = 1u64 << lane;
                        let mut addr = 0usize;
                        for (k, &w) in addr_eff.iter().enumerate() {
                            addr |= (((w >> lane) & 1) as usize) << k;
                        }
                        let base = addr * b.width;
                        for bit in 0..b.width {
                            let v = din_eff.get(bit).copied().unwrap_or(0) & m;
                            let idx = base + bit;
                            let new = (b.contents[idx] & !m) | v;
                            if new != b.contents[idx] {
                                b.contents[idx] = new;
                                if !uniform(new) {
                                    b.mark_dirty(idx);
                                }
                            }
                        }
                    }
                }
            }
            b.prev_we = we_now;
            b.prev_addr.copy_from_slice(&addr_now[..naddr]);
            b.prev_din.copy_from_slice(&din_now[..ndin]);
            div_shadow |= we_now ^ splat_lane0(we_now);
            for &w in &addr_now[..naddr] {
                div_shadow |= w ^ splat_lane0(w);
            }
            for &w in &din_now[..ndin] {
                div_shadow |= w ^ splat_lane0(w);
            }
        }
        self.seq_div_ff = div_ff;
        self.seq_div_shadow = div_shadow;
        self.ff_touched_since_edge = false;
        self.cycle += 1;
    }

    /// Runs one full cycle on every lane: settle, then clock edge.
    pub fn step(&mut self) {
        self.settle();
        self.clock_edge();
    }

    /// Lanes (bit set) whose sequential state — flip-flops, previous-D
    /// shadows, pending memory captures, memory contents — differs from
    /// lane 0. A lane with a clear bit here *and* in
    /// [`config_divergence`](Self::config_divergence) evolves identically
    /// to the golden lane forever (the batch analogue of the scalar
    /// early-stop hash check, but by true equality).
    ///
    /// Takes `&mut self` to lazily sweep reconverged memory words off the
    /// dirty list.
    ///
    /// The flip-flop and capture-shadow components are incremental: they
    /// were folded while [`clock_edge`](Self::clock_edge) rewrote the
    /// words, so the per-cycle cost here is the (divergence-proportional)
    /// memory dirty-list sweep plus two cached words. A set/reset pulse
    /// that mutates `ff_state` between edges flips
    /// `ff_touched_since_edge`, and the flip-flop component is then
    /// recomputed directly (the shadow words are only ever written at the
    /// edge, so their fold cannot go stale).
    pub fn seq_divergence(&mut self) -> u64 {
        let ff_part = if self.ff_touched_since_edge {
            let mut d = 0u64;
            for &w in &self.ff_state {
                d |= w ^ splat_lane0(w);
            }
            d
        } else {
            self.seq_div_ff
        };
        let mut d = ff_part | self.seq_div_shadow;
        for b in self.brams.iter_mut() {
            let mut k = 0;
            while k < b.dirty.len() {
                let idx = b.dirty[k] as usize;
                let w = b.contents[idx];
                let x = w ^ splat_lane0(w);
                if x == 0 {
                    b.is_dirty[idx] = false;
                    b.dirty.swap_remove(k);
                } else {
                    d |= x;
                    k += 1;
                }
            }
        }
        debug_assert_eq!(
            d,
            self.seq_divergence_scan(),
            "incremental divergence mask diverged from the full scan"
        );
        d
    }

    /// Ground-truth divergence mask: rescans every flip-flop, shadow and
    /// memory word. Only used to validate the incremental mask in debug
    /// builds.
    fn seq_divergence_scan(&self) -> u64 {
        let mut d = 0u64;
        for i in 0..self.ffs.len() {
            d |= self.ff_state[i] ^ splat_lane0(self.ff_state[i]);
            d |= self.ff_prev_d[i] ^ splat_lane0(self.ff_prev_d[i]);
        }
        for b in &self.brams {
            d |= b.prev_we ^ splat_lane0(b.prev_we);
            for &w in &b.prev_addr {
                d |= w ^ splat_lane0(w);
            }
            for &w in &b.prev_din {
                d |= w ^ splat_lane0(w);
            }
            for &w in &b.contents {
                d |= w ^ splat_lane0(w);
            }
        }
        d
    }

    /// Lanes (bit set) whose behaviour-affecting configuration differs
    /// from pristine (LUT tables and FF-input inverters; `lsr_drive` is
    /// deliberately excluded, matching
    /// [`Device::config_behaviourally_pristine`]).
    pub fn config_divergence(&self) -> u64 {
        let mut d = 0u64;
        for (lane, &c) in self.config_diff_count.iter().enumerate() {
            if c != 0 {
                d |= 1 << lane;
            }
        }
        d
    }

    /// One lane's sequential-state snapshot in exactly the layout of
    /// [`Device::state_snapshot`] (packed flip-flop bits, then memory
    /// words), for Latent-fault classification.
    pub fn state_snapshot_lane(&self, lane: usize) -> Vec<u64> {
        let mut snap = Vec::new();
        let mut acc = 0u64;
        let mut nbits = 0;
        for w in &self.ff_state {
            acc |= ((w >> lane) & 1) << nbits;
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
        for b in &self.brams {
            for addr in 0..b.depth {
                let mut word = 0u64;
                for bit in 0..b.width {
                    word |= ((b.contents[addr * b.width + bit] >> lane) & 1) << bit;
                }
                snap.push(word);
            }
        }
        snap
    }

    /// One lane's configuration-traffic ledger.
    pub fn ledger(&self, lane: usize) -> &TransferLedger {
        &self.ledgers[lane]
    }

    /// Clears one lane's ledger (between experiments).
    pub fn clear_ledger(&mut self, lane: usize) {
        self.ledgers[lane].clear();
    }

    /// Rewrites one lane's sequential state — flip-flops, capture
    /// shadows, memory contents and write-port shadows — to the golden
    /// lane's bits.
    ///
    /// This is the decided-lane shortcut: once an experiment's outcome
    /// is locked (observed-port divergence ⇒ Failure), its fault is
    /// inert (all reconfiguration traffic already issued) and its
    /// configuration is pristine, the lane's further evolution cannot
    /// influence anything observable — outcome, ledger and modelled
    /// emulation time are fixed. Snapping the lane onto the golden
    /// trajectory therefore keeps results bit-identical while letting
    /// the ordinary reconvergence retirement fire immediately, which
    /// frees the lane for the next pending experiment instead of
    /// carrying a hard-diverged machine to the end of the pass.
    ///
    /// Only sequential state is touched; the next
    /// [`settle`](Self::settle) recomputes the combinational words.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is 0 (the golden lane) or out of range.
    pub fn snap_lane_to_golden(&mut self, lane: usize) {
        assert!((1..LANES).contains(&lane), "lane {lane} out of range");
        let m = 1u64 << lane;
        let keep = !m;
        let snap = |w: u64| (w & keep) | ((w & 1) << lane);
        for w in self.ff_state.iter_mut().chain(self.ff_prev_d.iter_mut()) {
            *w = snap(*w);
        }
        for b in self.brams.iter_mut() {
            b.prev_we = snap(b.prev_we);
            for w in b.prev_addr.iter_mut().chain(b.prev_din.iter_mut()) {
                *w = snap(*w);
            }
            // Every content word diverging in this lane is on the dirty
            // list (the list's invariant), so this reaches all of them.
            for &idx in &b.dirty {
                let w = &mut b.contents[idx as usize];
                *w = snap(*w);
            }
        }
        // The cached retirement folds are per-lane ORs, so clearing the
        // snapped lane's bit keeps them exact (its true divergence is
        // now zero; other lanes' bits are untouched).
        self.seq_div_ff &= keep;
        self.seq_div_shadow &= keep;
    }

    /// Prepares a retired lane for a fresh experiment: restores its
    /// set/reset mux selections to pristine and clears its ledger.
    ///
    /// Everything else is already golden by the retirement contract (the
    /// caller verified the lane's sequential state equals lane 0 and its
    /// behaviour-affecting configuration is pristine; `lsr_drive` is the
    /// one configuration cell retirement ignores).
    pub fn refill_lane(&mut self, lane: usize) {
        let keep = !(1u64 << lane);
        for (i, w) in self.lsr_drive.iter_mut().enumerate() {
            *w = (*w & keep) | (splat(self.pristine_drive[i]) & !keep);
        }
        self.ledgers[lane].clear();
    }

    /// Direct (cost-free) view of one flip-flop's state on one lane, for
    /// assertions (the batch analogue of [`Device::peek_ff`]).
    pub fn peek_ff_lane(&self, cb: CbCoord, lane: usize) -> Option<bool> {
        let flat = cb.flat_index(self.arch.rows);
        let idx = *self.ff_of_cb.get(flat)?;
        if idx == u32::MAX {
            None
        } else {
            Some((self.ff_state[idx as usize] >> lane) & 1 == 1)
        }
    }

    /// A reconfiguration facade for one lane; `lane` must be in `1..64`
    /// (lane 0 is the golden lane and must never be reconfigured).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is 0 or ≥ 64.
    pub fn lane(&mut self, lane: usize) -> LaneDevice<'_> {
        assert!((1..LANES).contains(&lane), "lane {lane} out of range");
        LaneDevice { dev: self, lane }
    }

    fn set_lane_table(&mut self, li: usize, lane: usize, table: u16) {
        let m = 1u64 << lane;
        for (k, w) in self.lut_tables[li].iter_mut().enumerate() {
            if (table >> k) & 1 == 1 {
                *w |= m;
            } else {
                *w &= !m;
            }
        }
        let cfull = self.lut_cfull[li];
        let off = self.lut_coff[li] as usize;
        for (j, &cf) in cfull.iter().enumerate().take(1usize << self.lut_arity[li]) {
            let w = &mut self.compact_tables[off + j];
            if (table >> cf) & 1 == 1 {
                *w |= m;
            } else {
                *w &= !m;
            }
        }
        let was = self.lut_table_diff[li] & m != 0;
        let now = table != self.pristine_tables[li];
        if was != now {
            if now {
                self.lut_table_diff[li] |= m;
                self.config_diff_count[lane] += 1;
            } else {
                self.lut_table_diff[li] &= !m;
                self.config_diff_count[lane] -= 1;
            }
        }
    }

    /// Asserts one flip-flop's local set/reset line on the lanes of
    /// `mask`: those lanes take their `lsr_drive` value, the rest keep
    /// their state.
    fn pulse_lsr(&mut self, fi: usize, mask: u64) {
        self.ff_state[fi] = (self.ff_state[fi] & !mask) | (self.lsr_drive[fi] & mask);
        self.ff_touched_since_edge = true;
    }

    fn set_lane_invert(&mut self, fi: usize, lane: usize, invert: bool) {
        let m = 1u64 << lane;
        if invert {
            self.invert_ff_in[fi] |= m;
        } else {
            self.invert_ff_in[fi] &= !m;
        }
        let was = self.invert_diff[fi] & m != 0;
        let now = invert != self.pristine_invert[fi];
        if was != now {
            if now {
                self.invert_diff[fi] |= m;
                self.config_diff_count[lane] += 1;
            } else {
                self.invert_diff[fi] &= !m;
                self.config_diff_count[lane] -= 1;
            }
        }
    }
}

/// One lane of a [`BatchDevice`], presented through [`ConfigAccess`] so
/// injection strategies can reconfigure and read back exactly as they
/// would a scalar [`Device`] — same validation, same frame accounting,
/// charged to this lane's own ledger.
#[derive(Debug)]
pub struct LaneDevice<'a> {
    dev: &'a mut BatchDevice,
    lane: usize,
}

impl LaneDevice<'_> {
    fn mask(&self) -> u64 {
        1u64 << self.lane
    }

    fn flat(&self, cb: CbCoord) -> Result<usize, FpgaError> {
        let arch = &self.dev.arch;
        if cb.col >= arch.cols || cb.row >= arch.rows {
            return Err(FpgaError::CoordOutOfRange(cb));
        }
        Ok(cb.flat_index(arch.rows))
    }

    fn ff_node(&self, cb: CbCoord) -> Result<usize, FpgaError> {
        let idx = self.dev.ff_of_cb[self.flat(cb)?];
        if idx == u32::MAX {
            return Err(FpgaError::ResourceUnused(cb));
        }
        Ok(idx as usize)
    }

    fn record(&mut self, op: TransferOp) {
        self.dev.ledgers[self.lane].record(op);
    }

    fn charge_readback(&mut self, set: &FrameSet) {
        let bytes = set.bytes(&self.dev.arch);
        self.record(TransferOp {
            kind: TransferKind::Readback,
            frames: set.len() as u32,
            bytes,
        });
    }

    /// Mirror of `Device::apply_inner`, acting on one lane's bit of every
    /// touched cell and charging this lane's ledger with the identical
    /// frame traffic.
    fn apply_inner(&mut self, mutation: &Mutation, full_download: bool) -> Result<(), FpgaError> {
        let arch = self.dev.arch;
        let frames = mutation.frames(&arch, &self.dev.pristine);
        let writes = match mutation {
            Mutation::PulseLsr { .. } => 2,
            _ => 1,
        } * frames.len() as u32;
        let m = self.mask();
        match mutation {
            Mutation::SetLutTable { cb, table } => {
                let flat = self.flat(*cb)?;
                let li = self.dev.lut_of_cb[flat];
                if li == u32::MAX {
                    return Err(FpgaError::ResourceUnused(*cb));
                }
                self.dev.set_lane_table(li as usize, self.lane, *table);
            }
            Mutation::SetInvertFfIn { cb, invert } => {
                let fi = self.ff_node(*cb)?;
                self.dev.set_lane_invert(fi, self.lane, *invert);
            }
            Mutation::SetLsrDrive { cb, drive } => {
                let fi = self.ff_node(*cb)?;
                if drive.value() {
                    self.dev.lsr_drive[fi] |= m;
                } else {
                    self.dev.lsr_drive[fi] &= !m;
                }
            }
            Mutation::PulseLsr { cb } => {
                let fi = self.ff_node(*cb)?;
                self.dev.pulse_lsr(fi, m);
            }
            Mutation::PulseGsr => {
                for fi in 0..self.dev.ffs.len() {
                    self.dev.pulse_lsr(fi, m);
                }
                self.record(TransferOp {
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
                let b = self
                    .dev
                    .brams
                    .get_mut(bram.index())
                    .ok_or(FpgaError::BadBram(*bram))?;
                if *addr >= b.depth || *bit as usize >= b.width {
                    return Err(FpgaError::BadBramLocation {
                        bram: *bram,
                        addr: *addr,
                        bit: *bit,
                    });
                }
                let idx = addr * b.width + *bit as usize;
                let old = b.contents[idx];
                let new = if *value { old | m } else { old & !m };
                if new != old {
                    b.contents[idx] = new;
                    if !uniform(new) {
                        b.mark_dirty(idx);
                    }
                }
            }
            Mutation::SetWireFanout { .. } | Mutation::SetWireDetour { .. } => {
                return Err(FpgaError::LaneUnsupported("routing mutation"));
            }
            Mutation::ReRandomiseFf { cb, drive } => {
                let fi = self.ff_node(*cb)?;
                if drive.value() {
                    self.dev.lsr_drive[fi] |= m;
                } else {
                    self.dev.lsr_drive[fi] &= !m;
                }
                self.dev.pulse_lsr(fi, m);
            }
        }
        if full_download {
            self.record(TransferOp {
                kind: TransferKind::FullDownload,
                frames: arch.total_frames(),
                bytes: arch.full_config_bytes(),
            });
        } else {
            self.record(TransferOp {
                kind: TransferKind::Write,
                frames: writes,
                bytes: writes as u64 * arch.frame_bytes as u64,
            });
        }
        // Timing-affecting mutations (routing) were rejected above, so no
        // timing re-analysis can be needed here.
        Ok(())
    }
}

impl ConfigAccess for LaneDevice<'_> {
    fn readback_ff(&mut self, cb: CbCoord) -> Result<bool, FpgaError> {
        let fi = self.ff_node(cb)?;
        let arch = self.dev.arch;
        let mut set = FrameSet::new();
        set.add_cb_field(&arch, cb, CbField::FfCapture);
        self.charge_readback(&set);
        Ok(self.dev.ff_state[fi] & self.mask() != 0)
    }

    fn readback_all_ffs(&mut self) -> Vec<(CbCoord, bool)> {
        let arch = self.dev.arch;
        let mut set = FrameSet::new();
        set.add_ff_capture_columns(self.dev.ff_columns.iter().copied());
        self.charge_readback(&set);
        let m = self.mask();
        self.dev
            .ffs
            .iter()
            .enumerate()
            .map(|(i, ff)| {
                (
                    CbCoord::from_flat_index(ff.cb_flat as usize, arch.rows),
                    self.dev.ff_state[i] & m != 0,
                )
            })
            .collect()
    }

    fn readback_bram_word(&mut self, bram: BramId, addr: usize) -> Result<u64, FpgaError> {
        let arch = self.dev.arch;
        let lane = self.lane;
        let b = self
            .dev
            .brams
            .get(bram.index())
            .ok_or(FpgaError::BadBram(bram))?;
        if addr >= b.depth {
            return Err(FpgaError::BadBramLocation { bram, addr, bit: 0 });
        }
        let width = b.width;
        let mut word = 0u64;
        for bit in 0..width {
            word |= ((b.contents[addr * width + bit] >> lane) & 1) << bit;
        }
        let mut set = FrameSet::new();
        set.add_bram_word(&arch, bram, addr, width as u32);
        self.charge_readback(&set);
        Ok(word)
    }

    fn readback_lut_table(&mut self, cb: CbCoord) -> Result<u16, FpgaError> {
        let flat = self.flat(cb)?;
        let li = self.dev.lut_of_cb[flat];
        if li == u32::MAX {
            return Err(FpgaError::ResourceUnused(cb));
        }
        let mut table = 0u16;
        for (k, w) in self.dev.lut_tables[li as usize].iter().enumerate() {
            table |= (((w >> self.lane) & 1) as u16) << k;
        }
        let arch = self.dev.arch;
        let mut set = FrameSet::new();
        set.add_cb_field(&arch, cb, CbField::LutTable);
        self.charge_readback(&set);
        Ok(table)
    }

    fn apply(&mut self, mutation: &Mutation) -> Result<(), FpgaError> {
        self.apply_inner(mutation, false)
    }

    fn apply_via_full_download(&mut self, mutation: &Mutation) -> Result<(), FpgaError> {
        self.apply_inner(mutation, true)
    }

    fn bulk_set_lsr_drives(&mut self, drives: &[(CbCoord, SetReset)]) -> Result<(), FpgaError> {
        let arch = self.dev.arch;
        let m = self.mask();
        let mut set = FrameSet::new();
        for (cb, drive) in drives {
            let fi = self.ff_node(*cb)?;
            if drive.value() {
                self.dev.lsr_drive[fi] |= m;
            } else {
                self.dev.lsr_drive[fi] &= !m;
            }
            set.add_cb_field(&arch, *cb, CbField::LsrDrive);
        }
        let bytes = set.bytes(&arch);
        self.record(TransferOp {
            kind: TransferKind::Write,
            frames: set.len() as u32,
            bytes,
        });
        Ok(())
    }

    fn hold_lsr(&mut self, cb: CbCoord) -> Result<(), FpgaError> {
        let fi = self.ff_node(cb)?;
        self.dev.pulse_lsr(fi, self.mask());
        Ok(())
    }
}

/// One 64-lane 2:1 mux: per lane, `hi` where the select bit is set,
/// else `lo`.
#[inline(always)]
fn mux2(lo: u64, hi: u64, s: u64) -> u64 {
    (lo & !s) | (hi & s)
}

/// Evaluates a lane-word truth table (16 lane words, one per entry) on
/// four lane words.
#[inline]
fn eval_lane_table(t: &[u64], p: [u64; 4]) -> u64 {
    let [a, b, c, d] = p;
    let mut m = [0u64; 8];
    for (j, slot) in m.iter_mut().enumerate() {
        *slot = (t[2 * j] & !a) | (t[2 * j + 1] & a);
    }
    mux_tree(m, b, c, d)
}

#[inline(always)]
fn mux_tree(m: [u64; 8], b: u64, c: u64, d: u64) -> u64 {
    let n0 = (m[0] & !b) | (m[1] & b);
    let n1 = (m[2] & !b) | (m[3] & b);
    let n2 = (m[4] & !b) | (m[5] & b);
    let n3 = (m[6] & !b) | (m[7] & b);
    let p0 = (n0 & !c) | (n1 & c);
    let p1 = (n2 & !c) | (n3 & c);
    (p0 & !d) | (p1 & d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::Bitstream;
    use crate::cb::FfDSrc;
    use crate::routing::WireSink;

    /// Toggle FF: LUT inverts the FF's own output, FF registers the LUT.
    fn toggle_device() -> Device {
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
    fn all_lanes_track_the_scalar_device() {
        let mut dev = toggle_device();
        let mut batch = BatchDevice::new(&dev).unwrap();
        dev.reset();
        for _ in 0..8 {
            dev.settle();
            batch.settle();
            let expected = dev.output_u64("q").unwrap();
            for lane in 0..LANES {
                assert_eq!(batch.output_u64_lane("q", lane).unwrap(), expected);
            }
            assert_eq!(batch.seq_divergence(), 0);
            dev.clock_edge();
            batch.clock_edge();
        }
    }

    #[test]
    fn lane_pulse_diverges_and_reconverges() {
        let dev = toggle_device();
        let cb = CbCoord::new(2, 3);
        let mut batch = BatchDevice::new(&dev).unwrap();
        batch.step();
        batch.step();
        // Flip lane 5's FF via LSR drive + pulse; other lanes untouched.
        let current = batch.peek_ff_lane(cb, 5).unwrap();
        {
            let mut lane = batch.lane(5);
            lane.apply(&Mutation::SetLsrDrive {
                cb,
                drive: SetReset::driving(!current),
            })
            .unwrap();
            lane.apply(&Mutation::PulseLsr { cb }).unwrap();
        }
        assert_eq!(batch.peek_ff_lane(cb, 5), Some(!current));
        assert_eq!(batch.peek_ff_lane(cb, 4), Some(current));
        assert_ne!(batch.seq_divergence() & (1 << 5), 0);
        // The lane's config is behaviourally pristine (only lsr_drive
        // changed), and the toggle circuit never reconverges a flipped
        // bit, so divergence persists.
        assert_eq!(batch.config_divergence(), 0);
        batch.step();
        assert_ne!(batch.seq_divergence() & (1 << 5), 0);
        // Ledger accounting matches the scalar choreography: one drive
        // frame write plus a double-written pulse frame.
        assert_eq!(batch.ledger(5).total_frames(), 3);
        assert_eq!(batch.ledger(4).total_frames(), 0);
    }

    #[test]
    fn lane_lut_rewrite_tracks_config_divergence() {
        let dev = toggle_device();
        let cb = CbCoord::new(2, 3);
        let mut batch = BatchDevice::new(&dev).unwrap();
        let original = {
            let mut lane = batch.lane(9);
            let t = lane.readback_lut_table(cb).unwrap();
            lane.apply(&Mutation::SetLutTable { cb, table: !t })
                .unwrap();
            t
        };
        assert_eq!(batch.config_divergence(), 1 << 9);
        // Lane 9's LUT now passes the FF value through unchanged, so its
        // FF stops toggling while the others continue. (After an even
        // number of steps both are back at zero — the frozen lane
        // transiently reconverges — so observe after an odd step count.)
        batch.step();
        assert_ne!(batch.seq_divergence() & (1 << 9), 0);
        batch.step();
        assert_eq!(batch.seq_divergence() & (1 << 9), 0);
        {
            let mut lane = batch.lane(9);
            lane.apply(&Mutation::SetLutTable {
                cb,
                table: original,
            })
            .unwrap();
        }
        assert_eq!(batch.config_divergence(), 0);
    }

    #[test]
    fn routing_mutations_are_rejected_per_lane() {
        let dev = toggle_device();
        let mut batch = BatchDevice::new(&dev).unwrap();
        let err = batch.lane(1).apply(&Mutation::SetWireFanout {
            wire: crate::coords::WireId::from_index(0),
            extra: 3,
        });
        assert_eq!(err, Err(FpgaError::LaneUnsupported("routing mutation")));
    }
}
