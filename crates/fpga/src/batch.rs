//! Bit-parallel lane engine: `64 * W - 1` faulty machines plus one golden
//! machine per lane word.
//!
//! [`BatchDevice`] replicates the dynamics of [`Device`] with every piece
//! of per-element runtime state widened from `bool` to a [`Word<W>`] of
//! `64 * W` lanes: lane `l` of a word is the value that element holds in
//! *lane* `l`. Lane 0 (bit 0 of word 0) is reserved for the golden
//! (fault-free) run; every other lane carries one independent
//! fault-injection experiment. LUT evaluation becomes branch-free word
//! arithmetic over input words (a few word operations for a LUT whose
//! function falls in one of a handful of op classes, a mux tree
//! otherwise), flip-flop captures and block-RAM writes are
//! lane-masked word operations, and every reconfiguration a strategy
//! performs goes through a [`LaneDevice`] facade that touches only its own
//! lane's bit while charging that lane's own [`TransferLedger`].
//!
//! `W = 1` is the 64-lane engine on one `u64`; the campaign layer picks a
//! wider word only for cohorts large enough to fill it.
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

use std::sync::Arc;

use crate::arch::ArchParams;
use crate::bitstream::Bitstream;
use crate::cb::SetReset;
use crate::coords::{BramId, CbCoord};
use crate::device::{capture_misses, compact_table, Device, FfNode};
use crate::error::FpgaError;
use crate::frames::{CbField, FrameSet};
use crate::ledger::{TransferKind, TransferLedger, TransferOp};
use crate::reconfig::Mutation;
use crate::state::DeviceState;
use crate::sweep::{Fixups, Op, Sweep, SweepShape, CLASSES};
use crate::word::{lane_kernel, LaneBuf, LaneKernel, Word};

/// The readback/reconfigure surface injection strategies drive.
///
/// [`Device`] implements it by delegating to its inherent methods; a
/// [`LaneDevice`] implements it against one lane of a [`BatchDevice`].
/// Fault-injection strategies are written against this trait, which is
/// what lets the same strategy code run one experiment on a scalar device
/// or up to 511 at once on the lane engine.
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

/// The wiring and shape of one memory block, the same in every lane
/// engine of a [`LaneProgram`].
#[derive(Debug)]
pub(crate) struct BramPort {
    we: Option<u32>,
    addr_wires: Vec<u32>,
    din_wires: Vec<u32>,
    dout_wires: Vec<Option<u32>>,
    width: usize,
    depth: usize,
}

/// One memory block's lane state: contents are stored transposed, one
/// lane word per (address, bit) cell of its [`BramPort`]'s shape.
#[derive(Debug, Clone)]
pub(crate) struct LaneBram<const W: usize> {
    /// `contents[addr * width + bit]` is the lane word of that bit.
    contents: LaneBuf<W>,
    /// Indices into `contents` that may differ across lanes. Lazily swept
    /// by the divergence scan; the invariant is that every non-uniform
    /// content word is on this list.
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
    prev_we: Word<W>,
    prev_addr: Vec<Word<W>>,
    prev_din: Vec<Word<W>>,
    /// The write-port words presented at the current edge. Swapped with
    /// `prev_*` after the edge, so no operand is ever copied.
    now_addr: Vec<Word<W>>,
    now_din: Vec<Word<W>>,
}

/// Adds `idx` to a memory block's dirty list unless it is already on it.
fn mark_dirty(dirty: &mut Vec<u32>, is_dirty: &mut [bool], idx: usize) {
    if !is_dirty[idx] {
        is_dirty[idx] = true;
        dirty.push(idx as u32);
    }
}

impl<const W: usize> LaneBram<W> {
    /// A block of `port`'s shape, every word zero.
    fn new(port: &BramPort) -> Self {
        let cells = port.depth * port.width;
        LaneBram {
            contents: LaneBuf::new(cells, Word::ZERO),
            dirty: Vec::new(),
            is_dirty: vec![false; cells],
            prev_we: Word::ZERO,
            prev_addr: vec![Word::ZERO; port.addr_wires.len()],
            prev_din: vec![Word::ZERO; port.din_wires.len()],
            now_addr: vec![Word::ZERO; port.addr_wires.len()],
            now_din: vec![Word::ZERO; port.din_wires.len()],
        }
    }

    /// Splats one scalar memory image (and write-port shadow) of a block
    /// `width` bits wide across every lane and empties the dirty list.
    #[inline(always)]
    fn load_broadcast(&mut self, width: usize, words: &[u64], (we, addr, din): (bool, usize, u64)) {
        for (cells, &w) in self.contents.chunks_mut(width.max(1)).zip(words) {
            for (bit, cell) in cells.iter_mut().enumerate() {
                *cell = Word::splat((w >> bit) & 1 == 1);
            }
        }
        for &idx in &self.dirty {
            self.is_dirty[idx as usize] = false;
        }
        self.dirty.clear();
        self.prev_we = Word::splat(we);
        for (k, w) in self.prev_addr.iter_mut().enumerate() {
            *w = Word::splat((addr >> k) & 1 == 1);
        }
        for (k, w) in self.prev_din.iter_mut().enumerate() {
            *w = Word::splat((din >> k) & 1 == 1);
        }
    }

    /// Drives the read port's output wires from the current address
    /// words (asynchronous read).
    ///
    /// Every lane reads the golden lane's address as whole words; the
    /// lanes whose address differs from it are then served one distinct
    /// address at a time, as whole words under the mask of the lanes
    /// sharing it, so the cost follows the distinct diverged addresses,
    /// not the diverged lanes or the width of the word.
    #[inline(always)]
    pub(crate) fn read(&self, port: &BramPort, wv: &mut [Word<W>]) {
        let (golden, mut odd) = golden_address(port.addr_wires.iter().map(|&w| wv[w as usize]));
        let base = golden * port.width;
        for (bit, dw) in port.dout_wires.iter().enumerate() {
            if let Some(w) = dw {
                wv[*w as usize] = self.contents[base + bit];
            }
        }
        while let Some(lane) = odd.ones().next() {
            let bus = || port.addr_wires.iter().map(|&w| wv[w as usize]);
            let addr = lane_address(bus(), lane);
            let at = odd & lanes_at(bus(), addr);
            let base = addr * port.width;
            for (bit, dw) in port.dout_wires.iter().enumerate() {
                if let Some(w) = dw {
                    let out = &mut wv[*w as usize];
                    *out = Word::mux(*out, self.contents[base + bit], at);
                }
            }
            odd &= !at;
        }
    }
}

/// The content cells of one memory block, borrowed apart from its
/// write-port words for the clock edge's writes.
struct BramCells<'a, const W: usize> {
    contents: &'a mut [Word<W>],
    dirty: &'a mut Vec<u32>,
    is_dirty: &'a mut [bool],
    width: usize,
}

impl<const W: usize> BramCells<'_, W> {
    /// Writes the data words `din` (LSB first, missing bits 0) to word
    /// `addr` in the `lanes`, keeping the dirty list's invariant.
    #[inline(always)]
    fn write(&mut self, addr: usize, din: &[Word<W>], lanes: Word<W>) {
        let base = addr * self.width;
        for bit in 0..self.width {
            let din = din.get(bit).copied().unwrap_or(Word::ZERO);
            let idx = base + bit;
            let new = Word::mux(self.contents[idx], din, lanes);
            if self.contents[idx] != new {
                self.contents[idx] = new;
                if !new.is_uniform() {
                    mark_dirty(self.dirty, self.is_dirty, idx);
                }
            }
        }
    }
}

/// The golden lane's address on a bus of lane words (LSB first), and
/// the lanes whose address differs from it.
#[inline(always)]
fn golden_address<const W: usize>(bus: impl Iterator<Item = Word<W>>) -> (usize, Word<W>) {
    let mut addr = 0usize;
    let mut odd = Word::ZERO;
    for (k, w) in bus.enumerate() {
        addr |= ((w.0[0] & 1) as usize) << k;
        odd |= w ^ w.splat_lane0();
    }
    (addr, odd)
}

/// One lane's address on a bus of lane words (LSB first).
#[inline(always)]
fn lane_address<const W: usize>(bus: impl Iterator<Item = Word<W>>, lane: usize) -> usize {
    bus.enumerate()
        .fold(0, |addr, (k, w)| addr | usize::from(w.bit(lane)) << k)
}

/// The lanes whose address on a bus of lane words (LSB first) is `addr`.
#[inline(always)]
fn lanes_at<const W: usize>(bus: impl Iterator<Item = Word<W>>, addr: usize) -> Word<W> {
    bus.enumerate().fold(Word::ONES, |at, (k, w)| {
        at & (w ^ Word::splat((addr >> k) & 1 == 0))
    })
}

/// The width-independent part of the lane engine: what
/// [`BatchDevice::new`] harvests from a configured [`Device`] — compiled
/// structures, pristine configuration, the levelized settle sweep
/// and the pristine static timing.
///
/// Built once per design with [`LaneProgram::new`] and shared behind an
/// [`Arc`] by every engine built from it with
/// [`BatchDevice::from_program`], whatever its word width. Nothing in it
/// changes after the build, and its pristine [`Bitstream`] is the
/// device's own copy, not a clone.
#[derive(Debug)]
pub struct LaneProgram {
    arch: ArchParams,
    pristine: Arc<Bitstream>,
    ffs: Vec<FfNode>,
    ff_of_cb: Arc<[u32]>,
    lut_of_cb: Arc<[u32]>,
    ff_overshoot_ns: Vec<f64>,
    bram_overshoot_ns: Vec<f64>,
    ff_columns: Vec<u16>,

    // Pristine per-node configuration (broadcast targets for reset and
    // the reference side of the config-divergence accounting).
    pristine_tables: Vec<u16>,
    pristine_invert: Vec<bool>,
    pristine_drive: Vec<bool>,
    ff_init: Vec<bool>,

    /// Number of connected pins per LUT (structural: mutations rewrite
    /// tables, never routing, so this is lane-invariant and constant).
    lut_arity: Vec<u8>,
    /// Compact-index → full-table-index map per LUT (first `1 << arity`
    /// entries valid): compact bit `k` corresponds to connected pin `k`.
    lut_cfull: Vec<[u8; 16]>,
    /// Pristine truth table in compact index space.
    lut_cpristine: Vec<u16>,
    /// Start of each LUT's slice in an engine's compact tables (length
    /// `1 << arity`).
    lut_coff: Vec<u32>,
    /// Words of compact table, all LUTs together.
    compact_len: usize,

    /// The levelized settle sweep over the compiled tape.
    sweep: Sweep,
    /// The slot each flip-flop's data input reads.
    ff_d: Vec<u32>,
    /// Each memory block's wiring and shape.
    bram_ports: Vec<BramPort>,
}

impl LaneProgram {
    /// Harvests the lane program of a configured device.
    ///
    /// Borrows the device's compiled tape and structures and reads
    /// configuration and static timing from its *pristine* configuration,
    /// so engines built from the program always start pristine regardless
    /// of what the caller has done to `dev` since configuring it.
    ///
    /// Returns `None` for configurations the engine cannot represent
    /// bit-exactly (see [`lane_obstacles`]).
    #[must_use]
    pub fn new(dev: &Device) -> Option<Self> {
        let pristine = &dev.pristine;
        if !lane_obstacles(pristine).is_empty() {
            return None;
        }
        let timing = &dev.pristine_timing;
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

        // The tape is arity-compacted (see `TapeOp`): each LUT's compact
        // table slice, which a lane-overridden LUT evaluates as a
        // `2^arity`-word mux tree, starts out in every engine as the
        // pristine table splat across every lane.
        let mut lut_arity = Vec::with_capacity(dev.luts.len());
        let mut lut_cfull = Vec::with_capacity(dev.luts.len());
        let mut lut_cpristine = Vec::with_capacity(dev.luts.len());
        let mut lut_coff = Vec::with_capacity(dev.luts.len());
        let mut compact_len = 0u32;
        for (l, &table) in dev.luts.iter().zip(&pristine_tables) {
            let arity = dev.tape[l.tape as usize].arity;
            lut_arity.push(arity);
            lut_cfull.push(l.cfull);
            lut_cpristine.push(compact_table(table, &l.cfull));
            lut_coff.push(compact_len);
            compact_len += 1 << arity;
        }

        let bram_ports = pristine
            .brams()
            .iter()
            .zip(&dev.bram_write_ports)
            .zip(&dev.bram_dout_wires)
            .map(|((cfg, port), douts)| BramPort {
                we: port.we,
                addr_wires: port.addr.clone(),
                din_wires: port.din.clone(),
                dout_wires: douts.clone(),
                width: cfg.width as usize,
                depth: cfg.depth(),
            })
            .collect();

        let sweep = Sweep::new(dev, &lut_coff, &lut_cpristine);
        let ff_d = ffs.iter().map(|f| sweep.ff_slot(f.data)).collect();
        Some(LaneProgram {
            arch: *pristine.arch(),
            pristine: Arc::clone(pristine),
            ffs,
            ff_of_cb: Arc::clone(&dev.ff_of_cb),
            lut_of_cb: Arc::clone(&dev.lut_of_cb),
            ff_overshoot_ns: timing.ff_overshoot_ns.clone(),
            bram_overshoot_ns: timing.bram_overshoot_ns.clone(),
            ff_columns: pristine.ff_columns(),
            pristine_tables,
            pristine_invert,
            pristine_drive,
            ff_init,
            lut_arity,
            lut_cfull,
            lut_cpristine,
            lut_coff,
            compact_len: compact_len as usize,
            sweep,
            ff_d,
            bram_ports,
        })
    }

    /// The wire indices of an output port, LSB first (resolve once, then
    /// read per cycle with [`BatchDevice::port_divergence`]).
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
}

/// A lane-parallel replica of one configured [`Device`]: `64 * W` copies
/// of the compiled circuit advance together, one [`Word<W>`] per wire,
/// LUT, flip-flop and memory bit.
///
/// The engine is its [`LaneProgram`], shared, plus its own lane state:
/// built with [`BatchDevice::from_program`], or with
/// [`BatchDevice::new`] straight from a configured device. Per-lane
/// reconfiguration goes through [`BatchDevice::lane`].
#[derive(Debug, Clone)]
pub struct BatchDevice<const W: usize> {
    program: Arc<LaneProgram>,

    // Lane configuration state.
    /// Lane-word truth tables in compact index space, arity-packed flat.
    /// Unconnected pins always present a constant-0 word, so only the
    /// `1 << arity` entries with those index bits clear are reachable;
    /// restricting the mux tree to them is exact for pristine *and*
    /// mutated tables. A LUT's slice differs from the pristine splat only
    /// in lanes that hold an override for it in `lut_overrides`.
    compact_tables: LaneBuf<W>,
    /// Per lane: `(lut, table)` for every LUT whose full truth table in
    /// that lane differs from pristine. Readback answers from here (else
    /// from the pristine tables), and reset re-splats only the slices
    /// named here.
    lut_overrides: Vec<Vec<(u32, u16)>>,
    /// Lanes whose table differs from pristine, per LUT node.
    lut_table_diff: Vec<Word<W>>,
    /// The LUTs some lane overrides, which the settle sweep fixes up.
    fixups: Fixups,
    invert_ff_in: Vec<Word<W>>,
    /// Lanes whose inverter differs from pristine, per FF node.
    invert_diff: Vec<Word<W>>,
    lsr_drive: Vec<Word<W>>,
    /// Per lane: number of configuration cells (LUT tables + inverters)
    /// currently differing from pristine. Zero means the lane is
    /// behaviourally pristine (`lsr_drive` deliberately excluded, exactly
    /// like [`Device::config_behaviourally_pristine`]).
    config_diff_count: Vec<u32>,
    /// Lanes with a non-zero `config_diff_count`, maintained alongside it.
    config_div: Word<W>,

    // Lane runtime state.
    cycle: u64,
    /// One word per sweep slot: the wires, then the output of each LUT
    /// without an output wire.
    wire_values: LaneBuf<W>,
    ff_state: LaneBuf<W>,
    ff_prev_d: LaneBuf<W>,
    brams: Vec<LaneBram<W>>,
    ledgers: Vec<TransferLedger>,

    // Incremental retirement mask (see `seq_divergence`): the flip-flop
    // and capture-shadow components are folded during `clock_edge`, so
    // the per-cycle retirement check no longer rescans every word.
    seq_div_ff: Word<W>,
    seq_div_shadow: Word<W>,
    /// A set/reset pulse mutated `ff_state` after the last edge, so the
    /// cached `seq_div_ff` fold may be stale.
    ff_touched_since_edge: bool,
    /// The instruction-set level the per-cycle loops run at, chosen once
    /// in [`from_program`](Self::from_program).
    kernel: LaneKernel,
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

impl<const W: usize> BatchDevice<W> {
    /// Number of lanes in one batch word (the golden lane included).
    pub const LANES: usize = 64 * W;

    /// Lane-mask of the golden lane (lane 0, never faulted).
    pub const GOLDEN_LANE_MASK: Word<W> = {
        let mut w = [0u64; W];
        w[0] = 1;
        Word(w)
    };

    /// Builds a lane engine from a configured device: its
    /// [`LaneProgram`], then the engine on it.
    ///
    /// Returns `None` for configurations the engine cannot represent
    /// bit-exactly (see [`lane_obstacles`]).
    #[must_use]
    pub fn new(dev: &Device) -> Option<Self> {
        LaneProgram::new(dev).map(|program| Self::from_program(Arc::new(program)))
    }

    /// Builds an engine on a shared program: allocates the lane state
    /// and resets every lane to the device's initial state.
    #[must_use]
    pub fn from_program(program: Arc<LaneProgram>) -> Self {
        let p = &*program;
        let (n_luts, n_ffs) = (p.lut_arity.len(), p.ffs.len());
        let mut engine = BatchDevice {
            compact_tables: LaneBuf::new(p.compact_len, Word::ZERO),
            lut_overrides: vec![Vec::new(); Self::LANES],
            lut_table_diff: vec![Word::ZERO; n_luts],
            fixups: p.sweep.fixups(),
            invert_ff_in: vec![Word::ZERO; n_ffs],
            invert_diff: vec![Word::ZERO; n_ffs],
            lsr_drive: vec![Word::ZERO; n_ffs],
            config_diff_count: vec![0; Self::LANES],
            config_div: Word::ZERO,
            cycle: 0,
            wire_values: LaneBuf::new(p.sweep.slots(), Word::ZERO),
            ff_state: LaneBuf::new(n_ffs, Word::ZERO),
            ff_prev_d: LaneBuf::new(n_ffs, Word::ZERO),
            brams: p.bram_ports.iter().map(LaneBram::new).collect(),
            ledgers: vec![TransferLedger::new(); Self::LANES],
            seq_div_ff: Word::ZERO,
            seq_div_shadow: Word::ZERO,
            ff_touched_since_edge: false,
            kernel: LaneKernel::for_lanes(Self::LANES),
            program,
        };
        for li in 0..n_luts {
            engine.splat_pristine_table(li);
        }
        fades_telemetry::sim::LANE_KERNEL_BITS.set(u64::from(engine.kernel.vector_bits()));
        engine.reset();
        engine
    }

    /// The architecture of the underlying device.
    pub fn arch(&self) -> &ArchParams {
        &self.program.arch
    }

    /// Cycles executed since the last [`reset`](Self::reset).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Splats LUT `li`'s pristine compact table across every lane.
    #[inline(always)]
    fn splat_pristine_table(&mut self, li: usize) {
        let p = &*self.program;
        let ct = p.lut_cpristine[li];
        let off = p.lut_coff[li] as usize;
        let len = 1usize << p.lut_arity[li];
        for (k, w) in self.compact_tables[off..off + len].iter_mut().enumerate() {
            *w = Word::splat((ct >> k) & 1 == 1);
        }
    }

    /// Returns every lane's configuration to pristine: re-splats the
    /// compact table slices of the LUTs some lane overrode, restores the
    /// inverter and set/reset-mux words, and clears the divergence
    /// bookkeeping and all lane ledgers.
    ///
    /// Every pass starts with it (through [`reset`](Self::reset) or
    /// [`restore_broadcast`](Self::restore_broadcast)); a caller that
    /// keeps an idle engine for later passes calls it too, so that the
    /// idle engine holds no lane's fault.
    #[inline(always)]
    pub fn restore_pristine_config(&mut self) {
        for lane in 0..self.lut_overrides.len() {
            for k in 0..self.lut_overrides[lane].len() {
                let li = self.lut_overrides[lane][k].0 as usize;
                self.splat_pristine_table(li);
                self.lut_table_diff[li] = Word::ZERO;
                self.fixups.set(&self.program.sweep, li, false);
            }
            self.lut_overrides[lane].clear();
        }
        let p = &*self.program;
        for i in 0..p.ffs.len() {
            self.invert_ff_in[i] = Word::splat(p.pristine_invert[i]);
            self.invert_diff[i] = Word::ZERO;
            self.lsr_drive[i] = Word::splat(p.pristine_drive[i]);
        }
        self.config_diff_count.fill(0);
        self.config_div = Word::ZERO;
        for l in self.ledgers.iter_mut() {
            l.clear();
        }
        self.seq_div_ff = Word::ZERO;
        self.seq_div_shadow = Word::ZERO;
        self.ff_touched_since_edge = false;
    }

    /// Restores every lane to the device's initial state: flip-flops to
    /// their init values, configuration (LUT tables, inverters, set/reset
    /// muxes, memory contents) to pristine, and clears all lane ledgers.
    pub fn reset(&mut self) {
        self.restore_pristine_config();
        let p = &*self.program;
        for i in 0..p.ffs.len() {
            let init = Word::splat(p.ff_init[i]);
            self.ff_state[i] = init;
            self.ff_prev_d[i] = init;
        }
        self.wire_values.fill(Word::ZERO);
        let pristine = p.pristine.brams().iter().zip(&p.bram_ports);
        for (b, (cfg, port)) in self.brams.iter_mut().zip(pristine) {
            b.load_broadcast(port.width, &cfg.contents, (false, 0, 0));
        }
        self.cycle = 0;
    }

    lane_kernel! {
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
        pub fn restore_broadcast(&mut self, snap: &DeviceState) = restore_broadcast_body,
            restore_broadcast_avx2, restore_broadcast_avx512;
    }

    #[inline(always)]
    fn restore_broadcast_body(&mut self, snap: &DeviceState) {
        self.restore_pristine_config();
        let p = &*self.program;
        for i in 0..p.ffs.len() {
            self.ff_state[i] = Word::splat(snap.ff_state[i]);
            self.ff_prev_d[i] = Word::splat(snap.ff_prev_d[i]);
        }
        for (w, &v) in self.wire_values.iter_mut().zip(&snap.wire_values) {
            *w = Word::splat(v);
        }
        // A LUT without an output wire holds its word in a slot past the
        // wires.
        let n_wires = snap.wire_values.len();
        for (li, &v) in snap.lut_values.iter().enumerate() {
            let slot = p.sweep.lut_out(li) as usize;
            if slot >= n_wires {
                self.wire_values[slot] = Word::splat(v);
            }
        }
        for (bi, (b, port)) in self.brams.iter_mut().zip(&p.bram_ports).enumerate() {
            b.load_broadcast(
                port.width,
                &snap.bram_contents[bi],
                snap.bram_prev_write[bi],
            );
        }
        self.cycle = snap.cycle;
    }

    /// Drives an input port with the same bits on every lane.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown port or wrong width.
    pub fn set_input(&mut self, name: &str, bits: &[bool]) -> Result<(), FpgaError> {
        let port = self
            .program
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
            self.wire_values[w.index()] = Word::splat(v);
        }
        Ok(())
    }

    /// The wire indices of an output port, LSB first: the program's
    /// [`LaneProgram::output_wires`].
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::UnknownPort`] for an unknown port.
    pub fn output_wires(&self, name: &str) -> Result<Vec<u32>, FpgaError> {
        self.program.output_wires(name)
    }

    lane_kernel! {
        /// Lanes (bit set) whose value on the given port wires differs from
        /// the expected golden value; call after [`settle`](Self::settle).
        /// Only the first 64 wires are compared, mirroring
        /// [`Device::output_u64`].
        pub fn port_divergence(&self, wires: &[u32], golden: u64) -> Word<W> = port_divergence_body,
            port_divergence_avx2, port_divergence_avx512;
    }

    #[inline(always)]
    fn port_divergence_body(&self, wires: &[u32], golden: u64) -> Word<W> {
        let mut d = Word::ZERO;
        for (bit, &w) in wires.iter().enumerate().take(64) {
            d |= self.wire_values[w as usize] ^ Word::splat((golden >> bit) & 1 == 1);
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
            v |= u64::from(self.wire_values[w as usize].bit(lane)) << bit;
        }
        Ok(v)
    }

    lane_kernel! {
        /// Propagates values through the combinational fabric, all lanes at
        /// once: presents every flip-flop's state word on its output wire,
        /// then evaluates the combinational nodes level by level, one loop
        /// per run of LUTs that share an op class and polarity (see
        /// DESIGN.md §5, *Settle sweep*).
        pub fn settle(&mut self) = settle_body, settle_avx2, settle_avx512;
    }

    lane_kernel! {
        /// Drives every memory block's read port from the current address
        /// words, as the settle sweep's reads do: the read alone, for
        /// timing it (`fades-experiments kernels`).
        pub fn read_memories(&mut self) = read_memories_body, read_memories_avx2,
            read_memories_avx512;
    }

    #[inline(always)]
    fn read_memories_body(&mut self) {
        for (b, port) in self.brams.iter().zip(&self.program.bram_ports) {
            b.read(port, &mut self.wire_values);
        }
    }

    #[inline(always)]
    fn settle_body(&mut self) {
        let p = &*self.program;
        let wv = &mut self.wire_values;
        for (ff, &q) in p.ffs.iter().zip(self.ff_state.iter()) {
            if let Some(w) = ff.out_wire {
                wv[w as usize] = q;
            }
        }
        p.sweep.eval(
            &self.fixups,
            wv,
            &self.compact_tables,
            &p.bram_ports,
            &self.brams,
        );
    }

    /// How many LUTs have each op class right now, by class name in
    /// classification order, zero counts left out. A LUT is counted in
    /// the class of the pins its pristine table reads (so an arity-2 LUT
    /// that passes one pin through is `"and1"`). `"wide"` counts the LUTs
    /// some lane overrides and `"generic"` the pristine LUTs no class
    /// fits; both evaluate the full mux tree.
    pub fn lut_op_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts = [0usize; Op::Generic as usize + 1];
        let mut wide = 0;
        for li in 0..self.program.lut_arity.len() {
            if self.fixups.overridden(li) {
                wide += 1;
            } else {
                counts[self.program.sweep.lut_class(li) as usize] += 1;
            }
        }
        CLASSES
            .iter()
            .map(|&(op, _)| (op.name(), counts[op as usize]))
            .chain([
                (Op::Generic.name(), counts[Op::Generic as usize]),
                ("wide", wide),
            ])
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// The shape of the settle sweep: combinational nodes, levels and
    /// runs.
    pub fn sweep_shape(&self) -> SweepShape {
        self.program.sweep.shape(self.brams.len())
    }

    lane_kernel! {
        /// Applies the clock edge on every lane: flip-flop captures (with the
        /// same deterministic setup-violation model as the scalar device) and
        /// lane-masked memory writes.
        pub fn clock_edge(&mut self) = clock_edge_body, clock_edge_avx2, clock_edge_avx512;
    }

    #[inline(always)]
    fn clock_edge_body(&mut self) {
        // Fold the flip-flop and capture-shadow components of the
        // retirement divergence mask while the words are already in hand,
        // so `seq_divergence` does not rescan them per cycle.
        let p = &*self.program;
        let mut div_ff = Word::ZERO;
        let mut div_shadow = Word::ZERO;
        let spread = p.arch.arrival_spread_ns;
        for (i, &slot) in p.ff_d.iter().enumerate() {
            let d = self.wire_values[slot as usize] ^ self.invert_ff_in[i];
            let overshoot = p.ff_overshoot_ns.get(i).copied().unwrap_or(0.0);
            // Timing is pristine and lane-invariant (lanes cannot touch
            // routing), so the miss decision is one whole-word select.
            let captured = if capture_misses(spread, self.cycle, overshoot, i as u64) {
                self.ff_prev_d[i]
            } else {
                d
            };
            self.ff_state[i] = captured;
            self.ff_prev_d[i] = d;
            div_ff |= captured ^ captured.splat_lane0();
            div_shadow |= d ^ d.splat_lane0();
        }
        let wv = &self.wire_values;
        for (bi, (b, port)) in self.brams.iter_mut().zip(&p.bram_ports).enumerate() {
            let overshoot = p.bram_overshoot_ns.get(bi).copied().unwrap_or(0.0);
            let miss = capture_misses(spread, self.cycle, overshoot, 0x8000_0000 | bi as u64);
            let Some(we) = port.we else { continue };
            let we_now = wv[we as usize];
            for (slot, &w) in b.now_addr.iter_mut().zip(&port.addr_wires) {
                *slot = wv[w as usize];
            }
            for (slot, &w) in b.now_din.iter_mut().zip(&port.din_wires) {
                *slot = wv[w as usize];
            }
            // A missed capture writes the operands of the previous edge.
            let (we_eff, addr_eff, din_eff) = if miss {
                (b.prev_we, &b.prev_addr, &b.prev_din)
            } else {
                (we_now, &b.now_addr, &b.now_din)
            };
            let (contents, dirty, is_dirty) = (&mut b.contents, &mut b.dirty, &mut b.is_dirty);
            let width = port.width;
            // Lanes agreeing with the golden lane on enable and address
            // write (or not) as whole words; the rest one distinct
            // address at a time, as whole words under the mask of the
            // writing lanes that share it.
            let (golden, odd) = golden_address(addr_eff.iter().copied());
            let odd = odd | (we_eff ^ we_eff.splat_lane0());
            let mut cells = BramCells {
                contents,
                dirty,
                is_dirty,
                width,
            };
            if we_eff.0[0] & 1 == 1 {
                cells.write(golden, din_eff, !odd);
            }
            let mut rest = odd & we_eff;
            while let Some(lane) = rest.ones().next() {
                let addr = lane_address(addr_eff.iter().copied(), lane);
                let at = rest & lanes_at(addr_eff.iter().copied(), addr);
                cells.write(addr, din_eff, at);
                rest &= !at;
            }
            b.prev_we = we_now;
            std::mem::swap(&mut b.prev_addr, &mut b.now_addr);
            std::mem::swap(&mut b.prev_din, &mut b.now_din);
            div_shadow |= we_now ^ we_now.splat_lane0();
            for &w in b.prev_addr.iter().chain(&b.prev_din) {
                div_shadow |= w ^ w.splat_lane0();
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

    lane_kernel! {
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
        pub fn seq_divergence(&mut self) -> Word<W> = seq_divergence_body, seq_divergence_avx2,
            seq_divergence_avx512;
    }

    #[inline(always)]
    fn seq_divergence_body(&mut self) -> Word<W> {
        let ff_part = if self.ff_touched_since_edge {
            let mut d = Word::ZERO;
            for &w in &self.ff_state {
                d |= w ^ w.splat_lane0();
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
                let x = w ^ w.splat_lane0();
                if x.is_zero() {
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
    fn seq_divergence_scan(&self) -> Word<W> {
        let mut d = Word::ZERO;
        let words = self
            .ff_state
            .iter()
            .chain(&self.ff_prev_d)
            .chain(self.brams.iter().flat_map(|b| {
                std::iter::once(&b.prev_we)
                    .chain(&b.prev_addr)
                    .chain(&b.prev_din)
                    .chain(&b.contents)
            }));
        for &w in words {
            d |= w ^ w.splat_lane0();
        }
        d
    }

    lane_kernel! {
        /// The sequential-state bits of each lane in `lanes` that differ from
        /// lane 0, as ascending bit ids padded with `u32::MAX`, for the lanes
        /// that differ in at most `K` bits (lanes that differ in more are
        /// left out), ascending by lane.
        ///
        /// The state is the one [`seq_divergence`](Self::seq_divergence)
        /// compares: flip-flops and their previous-D shadows, each memory
        /// block's write-port shadows and its contents. A bit's id depends
        /// only on the device, so two listed lanes hold bit-identical state
        /// exactly when their keys are equal — no hash, no collision.
        ///
        /// One pass visits each flip-flop, shadow and dirty memory word once,
        /// as whole words, and records a differing bit only for a lane still
        /// within the bound; a lane's `K + 1`-th bit drops it. The scan
        /// allocates only its result and one fixed-size key per lane.
        pub fn divergence_keys[const K: usize](&self, lanes: Word<W>) -> Vec<(usize, [u32; K])> =
            divergence_keys_body, divergence_keys_avx2, divergence_keys_avx512;
    }

    #[inline(always)]
    fn divergence_keys_body<const K: usize>(&self, lanes: Word<W>) -> Vec<(usize, [u32; K])> {
        let mut keys = vec![([u32::MAX; K], 0usize); Self::LANES];
        let mut within = lanes;
        self.for_each_state_diff(|id, x| {
            for lane in (x & within).ones() {
                let (key, len) = &mut keys[lane];
                if *len == K {
                    within.set_bit(lane, false);
                } else {
                    key[*len] = id;
                    *len += 1;
                }
            }
        });
        within
            .ones()
            .map(|lane| {
                let mut key = keys[lane].0;
                // Dirty memory words are visited in write order.
                key.sort_unstable();
                (lane, key)
            })
            .collect()
    }

    /// Calls `f(id, lanes)` for every sequential-state word that may
    /// differ across lanes, with the lanes where it differs from lane 0.
    /// Ids number flip-flop states, then previous-D shadows, then per
    /// memory block its write-enable, address and data shadows and its
    /// content cells; only dirty content words are visited (the others
    /// are uniform).
    #[inline(always)]
    fn for_each_state_diff(&self, mut f: impl FnMut(u32, Word<W>)) {
        let diff = |w: Word<W>| w ^ w.splat_lane0();
        let mut id = 0u32;
        for &w in self.ff_state.iter().chain(&self.ff_prev_d) {
            f(id, diff(w));
            id += 1;
        }
        for b in &self.brams {
            for &w in std::iter::once(&b.prev_we)
                .chain(&b.prev_addr)
                .chain(&b.prev_din)
            {
                f(id, diff(w));
                id += 1;
            }
            for &idx in &b.dirty {
                f(id + idx, diff(b.contents[idx as usize]));
            }
            id += b.contents.len() as u32;
        }
    }

    /// Lanes (bit set) whose behaviour-affecting configuration differs
    /// from pristine (LUT tables and FF-input inverters; `lsr_drive` is
    /// deliberately excluded, matching
    /// [`Device::config_behaviourally_pristine`]).
    pub fn config_divergence(&self) -> Word<W> {
        self.config_div
    }

    /// One lane's sequential-state snapshot in exactly the layout of
    /// [`Device::state_snapshot`] (packed flip-flop bits, then memory
    /// words), for Latent-fault classification.
    pub fn state_snapshot_lane(&self, lane: usize) -> Vec<u64> {
        let mut snap = Vec::new();
        for chunk in self.ff_state.chunks(64) {
            let mut acc = 0u64;
            for (k, w) in chunk.iter().enumerate() {
                acc |= u64::from(w.bit(lane)) << k;
            }
            snap.push(acc);
        }
        for (b, port) in self.brams.iter().zip(&self.program.bram_ports) {
            for addr in 0..port.depth {
                let mut word = 0u64;
                for bit in 0..port.width {
                    word |= u64::from(b.contents[addr * port.width + bit].bit(lane)) << bit;
                }
                snap.push(word);
            }
        }
        snap
    }

    lane_kernel! {
        /// Lanes (bit set) whose [`state_snapshot_lane`](Self::state_snapshot_lane)
        /// differs from lane 0's: flip-flop state and memory contents, the
        /// shadows excluded. One pass over the flip-flop words and the memory
        /// dirty lists answers for every lane at once.
        pub fn state_divergence(&self) -> Word<W> = state_divergence_body, state_divergence_avx2,
            state_divergence_avx512;
    }

    #[inline(always)]
    fn state_divergence_body(&self) -> Word<W> {
        let mut d = Word::ZERO;
        for &w in &self.ff_state {
            d |= w ^ w.splat_lane0();
        }
        // Every non-uniform content word is on its block's dirty list.
        for b in &self.brams {
            for &idx in &b.dirty {
                let w = b.contents[idx as usize];
                d |= w ^ w.splat_lane0();
            }
        }
        d
    }

    /// One lane's configuration-traffic ledger.
    pub fn ledger(&self, lane: usize) -> &TransferLedger {
        &self.ledgers[lane]
    }

    /// Clears one lane's ledger (between experiments).
    pub fn clear_ledger(&mut self, lane: usize) {
        self.ledgers[lane].clear();
    }

    lane_kernel! {
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
        pub fn snap_lane_to_golden(&mut self, lane: usize) = snap_lane_to_golden_body,
            snap_lane_to_golden_avx2, snap_lane_to_golden_avx512;
    }

    #[inline(always)]
    fn snap_lane_to_golden_body(&mut self, lane: usize) {
        assert!((1..Self::LANES).contains(&lane), "lane {lane} out of range");
        let snap = |w: &mut Word<W>| w.set_bit(lane, w.0[0] & 1 == 1);
        self.ff_state.iter_mut().for_each(snap);
        self.ff_prev_d.iter_mut().for_each(snap);
        for b in self.brams.iter_mut() {
            snap(&mut b.prev_we);
            b.prev_addr.iter_mut().for_each(snap);
            b.prev_din.iter_mut().for_each(snap);
            // Every content word diverging in this lane is on the dirty
            // list (the list's invariant), so this reaches all of them.
            for &idx in &b.dirty {
                snap(&mut b.contents[idx as usize]);
            }
        }
        // The cached retirement folds are per-lane ORs, so clearing the
        // snapped lane's bit keeps them exact (its true divergence is
        // now zero; other lanes' bits are untouched).
        self.seq_div_ff.set_bit(lane, false);
        self.seq_div_shadow.set_bit(lane, false);
    }

    /// Prepares a retired lane for a fresh experiment: restores its
    /// set/reset mux selections to pristine and clears its ledger.
    ///
    /// Everything else is already golden by the retirement contract (the
    /// caller verified the lane's sequential state equals lane 0 and its
    /// behaviour-affecting configuration is pristine; `lsr_drive` is the
    /// one configuration cell retirement ignores).
    pub fn refill_lane(&mut self, lane: usize) {
        for (w, &drive) in self.lsr_drive.iter_mut().zip(&self.program.pristine_drive) {
            w.set_bit(lane, drive);
        }
        self.ledgers[lane].clear();
    }

    /// Direct (cost-free) view of one flip-flop's state on one lane, for
    /// assertions (the batch analogue of [`Device::peek_ff`]).
    pub fn peek_ff_lane(&self, cb: CbCoord, lane: usize) -> Option<bool> {
        let flat = cb.flat_index(self.program.arch.rows);
        let idx = *self.program.ff_of_cb.get(flat)?;
        if idx == u32::MAX {
            None
        } else {
            Some(self.ff_state[idx as usize].bit(lane))
        }
    }

    /// A reconfiguration facade for one lane; `lane` must be in
    /// `1..Self::LANES` (lane 0 is the golden lane and must never be
    /// reconfigured).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is 0 or ≥ [`Self::LANES`].
    pub fn lane(&mut self, lane: usize) -> LaneDevice<'_, W> {
        assert!((1..Self::LANES).contains(&lane), "lane {lane} out of range");
        LaneDevice { dev: self, lane }
    }

    /// Counts one configuration cell of `lane` leaving (`diverged`) or
    /// returning to pristine.
    fn note_config_diff(&mut self, lane: usize, diverged: bool) {
        let c = &mut self.config_diff_count[lane];
        if diverged {
            *c += 1;
        } else {
            *c -= 1;
        }
        self.config_div.set_bit(lane, *c != 0);
    }

    fn set_lane_table(&mut self, li: usize, lane: usize, table: u16) {
        let p = &*self.program;
        let cfull = p.lut_cfull[li];
        let off = p.lut_coff[li] as usize;
        let len = 1usize << p.lut_arity[li];
        for (w, &cf) in self.compact_tables[off..off + len].iter_mut().zip(&cfull) {
            w.set_bit(lane, (table >> cf) & 1 == 1);
        }
        let overrides = &mut self.lut_overrides[lane];
        let at = overrides.iter().position(|&(l, _)| l as usize == li);
        let now = table != p.pristine_tables[li];
        match (at, now) {
            (Some(k), true) => overrides[k].1 = table,
            (None, true) => overrides.push((li as u32, table)),
            (Some(k), false) => {
                overrides.swap_remove(k);
            }
            (None, false) => {}
        }
        if at.is_some() != now {
            self.lut_table_diff[li].set_bit(lane, now);
            let overridden = !self.lut_table_diff[li].is_zero();
            self.fixups.set(&p.sweep, li, overridden);
            self.note_config_diff(lane, now);
        }
    }

    /// One lane's truth table of LUT `li`: its override, else pristine.
    fn lane_table(&self, li: usize, lane: usize) -> u16 {
        self.lut_overrides[lane]
            .iter()
            .find(|&&(l, _)| l as usize == li)
            .map_or(self.program.pristine_tables[li], |&(_, t)| t)
    }

    /// Asserts one flip-flop's local set/reset line on one lane: the lane
    /// takes its `lsr_drive` value, the others keep their state.
    fn pulse_lsr(&mut self, fi: usize, lane: usize) {
        let drive = self.lsr_drive[fi].bit(lane);
        self.ff_state[fi].set_bit(lane, drive);
        self.ff_touched_since_edge = true;
    }

    fn set_lane_invert(&mut self, fi: usize, lane: usize, invert: bool) {
        self.invert_ff_in[fi].set_bit(lane, invert);
        let was = self.invert_diff[fi].bit(lane);
        let now = invert != self.program.pristine_invert[fi];
        if was != now {
            self.invert_diff[fi].set_bit(lane, now);
            self.note_config_diff(lane, now);
        }
    }
}

/// One lane of a [`BatchDevice`], presented through [`ConfigAccess`] so
/// injection strategies can reconfigure and read back exactly as they
/// would a scalar [`Device`] — same validation, same frame accounting,
/// charged to this lane's own ledger.
#[derive(Debug)]
pub struct LaneDevice<'a, const W: usize> {
    dev: &'a mut BatchDevice<W>,
    lane: usize,
}

impl<const W: usize> LaneDevice<'_, W> {
    fn flat(&self, cb: CbCoord) -> Result<usize, FpgaError> {
        let arch = &self.dev.program.arch;
        if cb.col >= arch.cols || cb.row >= arch.rows {
            return Err(FpgaError::CoordOutOfRange(cb));
        }
        Ok(cb.flat_index(arch.rows))
    }

    fn ff_node(&self, cb: CbCoord) -> Result<usize, FpgaError> {
        let idx = self.dev.program.ff_of_cb[self.flat(cb)?];
        if idx == u32::MAX {
            return Err(FpgaError::ResourceUnused(cb));
        }
        Ok(idx as usize)
    }

    fn lut_node(&self, cb: CbCoord) -> Result<usize, FpgaError> {
        let idx = self.dev.program.lut_of_cb[self.flat(cb)?];
        if idx == u32::MAX {
            return Err(FpgaError::ResourceUnused(cb));
        }
        Ok(idx as usize)
    }

    fn set_drive(&mut self, fi: usize, drive: SetReset) {
        self.dev.lsr_drive[fi].set_bit(self.lane, drive.value());
    }

    fn record(&mut self, op: TransferOp) {
        self.dev.ledgers[self.lane].record(op);
    }

    fn charge_readback(&mut self, set: &FrameSet) {
        let bytes = set.bytes(&self.dev.program.arch);
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
        let arch = self.dev.program.arch;
        let frames = mutation.frames(&arch, &self.dev.program.pristine);
        let writes = match mutation {
            Mutation::PulseLsr { .. } => 2,
            _ => 1,
        } * frames.len() as u32;
        let lane = self.lane;
        match mutation {
            Mutation::SetLutTable { cb, table } => {
                let li = self.lut_node(*cb)?;
                self.dev.set_lane_table(li, lane, *table);
            }
            Mutation::SetInvertFfIn { cb, invert } => {
                let fi = self.ff_node(*cb)?;
                self.dev.set_lane_invert(fi, lane, *invert);
            }
            Mutation::SetLsrDrive { cb, drive } => {
                let fi = self.ff_node(*cb)?;
                self.set_drive(fi, *drive);
            }
            Mutation::PulseLsr { cb } => {
                let fi = self.ff_node(*cb)?;
                self.dev.pulse_lsr(fi, lane);
            }
            Mutation::PulseGsr => {
                for fi in 0..self.dev.program.ffs.len() {
                    self.dev.pulse_lsr(fi, lane);
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
                let port = self
                    .dev
                    .program
                    .bram_ports
                    .get(bram.index())
                    .ok_or(FpgaError::BadBram(*bram))?;
                if *addr >= port.depth || *bit as usize >= port.width {
                    return Err(FpgaError::BadBramLocation {
                        bram: *bram,
                        addr: *addr,
                        bit: *bit,
                    });
                }
                let idx = addr * port.width + *bit as usize;
                let b = &mut self.dev.brams[bram.index()];
                let cell = &mut b.contents[idx];
                if cell.bit(lane) != *value {
                    cell.set_bit(lane, *value);
                    if !cell.is_uniform() {
                        mark_dirty(&mut b.dirty, &mut b.is_dirty, idx);
                    }
                }
            }
            Mutation::SetWireFanout { .. } | Mutation::SetWireDetour { .. } => {
                return Err(FpgaError::LaneUnsupported("routing mutation"));
            }
            Mutation::ReRandomiseFf { cb, drive } => {
                let fi = self.ff_node(*cb)?;
                self.set_drive(fi, *drive);
                self.dev.pulse_lsr(fi, lane);
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

impl<const W: usize> ConfigAccess for LaneDevice<'_, W> {
    fn readback_ff(&mut self, cb: CbCoord) -> Result<bool, FpgaError> {
        let fi = self.ff_node(cb)?;
        let arch = self.dev.program.arch;
        let mut set = FrameSet::new();
        set.add_cb_field(&arch, cb, CbField::FfCapture);
        self.charge_readback(&set);
        Ok(self.dev.ff_state[fi].bit(self.lane))
    }

    fn readback_all_ffs(&mut self) -> Vec<(CbCoord, bool)> {
        let arch = self.dev.program.arch;
        let mut set = FrameSet::new();
        set.add_ff_capture_columns(self.dev.program.ff_columns.iter().copied());
        self.charge_readback(&set);
        self.dev
            .program
            .ffs
            .iter()
            .zip(&self.dev.ff_state)
            .map(|(ff, w)| {
                (
                    CbCoord::from_flat_index(ff.cb_flat as usize, arch.rows),
                    w.bit(self.lane),
                )
            })
            .collect()
    }

    fn readback_bram_word(&mut self, bram: BramId, addr: usize) -> Result<u64, FpgaError> {
        let arch = self.dev.program.arch;
        let lane = self.lane;
        let port = self
            .dev
            .program
            .bram_ports
            .get(bram.index())
            .ok_or(FpgaError::BadBram(bram))?;
        if addr >= port.depth {
            return Err(FpgaError::BadBramLocation { bram, addr, bit: 0 });
        }
        let width = port.width;
        let b = &self.dev.brams[bram.index()];
        let mut word = 0u64;
        for bit in 0..width {
            word |= u64::from(b.contents[addr * width + bit].bit(lane)) << bit;
        }
        let mut set = FrameSet::new();
        set.add_bram_word(&arch, bram, addr, width as u32);
        self.charge_readback(&set);
        Ok(word)
    }

    fn readback_lut_table(&mut self, cb: CbCoord) -> Result<u16, FpgaError> {
        let li = self.lut_node(cb)?;
        let table = self.dev.lane_table(li, self.lane);
        let arch = self.dev.program.arch;
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
        let arch = self.dev.program.arch;
        let mut set = FrameSet::new();
        for (cb, drive) in drives {
            let fi = self.ff_node(*cb)?;
            self.set_drive(fi, *drive);
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
        self.dev.pulse_lsr(fi, self.lane);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::Bitstream;
    use crate::cb::FfDSrc;
    use crate::coords::WireId;
    use crate::routing::WireSink;
    use crate::sweep::{arity_mask, class_table, classify, eval_class, eval_lut_lanes, POL_OUT};

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

    fn all_lanes_track<const W: usize>() {
        let mut dev = toggle_device();
        let mut batch = BatchDevice::<W>::new(&dev).unwrap();
        dev.reset();
        for _ in 0..8 {
            dev.settle();
            batch.settle();
            let expected = dev.output_u64("q").unwrap();
            for lane in 0..BatchDevice::<W>::LANES {
                assert_eq!(batch.output_u64_lane("q", lane).unwrap(), expected);
            }
            assert!(batch.seq_divergence().is_zero());
            dev.clock_edge();
            batch.clock_edge();
        }
    }

    #[test]
    fn all_lanes_track_the_scalar_device() {
        all_lanes_track::<1>();
        all_lanes_track::<2>();
        all_lanes_track::<4>();
        all_lanes_track::<8>();
    }

    fn lane_pulse<const W: usize>(l: usize) {
        let dev = toggle_device();
        let cb = CbCoord::new(2, 3);
        let mut batch = BatchDevice::<W>::new(&dev).unwrap();
        batch.step();
        batch.step();
        // Flip lane `l`'s FF via LSR drive + pulse; other lanes untouched.
        let current = batch.peek_ff_lane(cb, l).unwrap();
        {
            let mut lane = batch.lane(l);
            lane.apply(&Mutation::SetLsrDrive {
                cb,
                drive: SetReset::driving(!current),
            })
            .unwrap();
            lane.apply(&Mutation::PulseLsr { cb }).unwrap();
        }
        assert_eq!(batch.peek_ff_lane(cb, l), Some(!current));
        assert_eq!(batch.peek_ff_lane(cb, l - 1), Some(current));
        assert_eq!(batch.seq_divergence(), Word::lane(l));
        // The lane's config is behaviourally pristine (only lsr_drive
        // changed), and the toggle circuit never reconverges a flipped
        // bit, so divergence persists.
        assert!(batch.config_divergence().is_zero());
        batch.step();
        assert_eq!(batch.seq_divergence(), Word::lane(l));
        // Ledger accounting matches the scalar choreography: one drive
        // frame write plus a double-written pulse frame.
        assert_eq!(batch.ledger(l).total_frames(), 3);
        assert_eq!(batch.ledger(l - 1).total_frames(), 0);
        // Snapping the lane back onto the golden trajectory clears it.
        batch.snap_lane_to_golden(l);
        assert!(batch.seq_divergence().is_zero());
    }

    #[test]
    fn lane_pulse_diverges_and_reconverges() {
        lane_pulse::<1>(5);
        lane_pulse::<1>(63);
        lane_pulse::<2>(64);
        lane_pulse::<2>(127);
        lane_pulse::<4>(128);
        lane_pulse::<4>(255);
        lane_pulse::<8>(256);
        lane_pulse::<8>(511);
    }

    fn lane_lut_rewrite<const W: usize>(l: usize) {
        let dev = toggle_device();
        let cb = CbCoord::new(2, 3);
        let mut batch = BatchDevice::<W>::new(&dev).unwrap();
        let original = {
            let mut lane = batch.lane(l);
            let t = lane.readback_lut_table(cb).unwrap();
            lane.apply(&Mutation::SetLutTable { cb, table: !t })
                .unwrap();
            assert_eq!(lane.readback_lut_table(cb).unwrap(), !t);
            t
        };
        assert_eq!(batch.lane(1).readback_lut_table(cb).unwrap(), original);
        assert_eq!(batch.config_divergence(), Word::lane(l));
        // Lane `l`'s LUT now passes the FF value through unchanged, so its
        // FF stops toggling while the others continue. (After an even
        // number of steps both are back at zero — the frozen lane
        // transiently reconverges — so observe after an odd step count.)
        batch.step();
        assert!(batch.seq_divergence().bit(l));
        batch.step();
        assert!(!batch.seq_divergence().bit(l));
        {
            let mut lane = batch.lane(l);
            lane.apply(&Mutation::SetLutTable {
                cb,
                table: original,
            })
            .unwrap();
        }
        assert!(batch.config_divergence().is_zero());

        // A reset while a lane still holds an override restores it.
        batch
            .lane(l)
            .apply(&Mutation::SetLutTable { cb, table: 0 })
            .unwrap();
        batch.reset();
        assert!(batch.config_divergence().is_zero());
        assert_eq!(batch.lane(l).readback_lut_table(cb).unwrap(), original);
        all_lanes_stay_golden(&mut batch, 4);
    }

    fn all_lanes_stay_golden<const W: usize>(batch: &mut BatchDevice<W>, cycles: usize) {
        for _ in 0..cycles {
            batch.step();
            assert!(batch.seq_divergence().is_zero());
        }
    }

    #[test]
    fn lane_lut_rewrite_tracks_config_divergence() {
        lane_lut_rewrite::<1>(9);
        lane_lut_rewrite::<2>(64);
        lane_lut_rewrite::<4>(200);
        lane_lut_rewrite::<8>(400);
    }

    /// A pseudo-random lane word (splitmix64 steps over `seed`).
    fn random_word<const W: usize>(seed: &mut u64) -> Word<W> {
        Word(std::array::from_fn(|_| {
            *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }))
    }

    /// `classify(arity, ctable)` evaluates, on random pin words, exactly
    /// like the generic mux tree over `ctable` at width `W`.
    fn class_matches_tree<const W: usize>(arity: u8, ctable: u16, seed: &mut u64) {
        let (op, pol) = classify(arity, ctable);
        for _ in 0..8 {
            let wv: [Word<W>; 4] = std::array::from_fn(|_| random_word(seed));
            let tree = eval_lut_lanes(
                |k| Word::splat((ctable >> k) & 1 == 1),
                arity,
                &[0, 1, 2, 3],
                &wv,
            );
            if op != Op::Generic {
                let class = eval_class(op, pol, |i| wv[i]);
                assert_eq!(
                    class, tree,
                    "arity {arity}, table {ctable:#06x}: {op:?}/{pol:#x}"
                );
            }
        }
    }

    #[test]
    fn op_classes_match_the_generic_tree() {
        let mut seed = 1;
        let mut classified = 0;
        // Every compact table of arity 0..=3.
        for arity in 0..=3u8 {
            for ctable in 0..1u16 << (1 << arity) {
                class_matches_tree::<1>(arity, ctable, &mut seed);
                class_matches_tree::<2>(arity, ctable, &mut seed);
                class_matches_tree::<4>(arity, ctable, &mut seed);
                class_matches_tree::<8>(arity, ctable, &mut seed);
                if classify(arity, ctable).0 == Op::Generic {
                    // No class at any polarity reaches a generic table.
                    for &(op, at) in &CLASSES {
                        if at.is_none_or(|at| at == arity) {
                            for pol in 0..2 * POL_OUT {
                                let mask = arity_mask(arity) as u16;
                                assert_ne!(class_table(op, pol, arity) & mask, ctable);
                            }
                        }
                    }
                } else {
                    classified += 1;
                }
            }
        }
        // Every (class, polarity) pair at arity 4 is found again and
        // evaluates like the tree.
        for &(op, at) in &CLASSES {
            if at.is_none_or(|at| at == 4) {
                for pol in 0..2 * POL_OUT {
                    let ctable = class_table(op, pol, 4);
                    assert_ne!(classify(4, ctable).0, Op::Generic, "{op:?}/{pol:#x}");
                    class_matches_tree::<1>(4, ctable, &mut seed);
                    class_matches_tree::<2>(4, ctable, &mut seed);
                    class_matches_tree::<4>(4, ctable, &mut seed);
                }
            }
        }
        // 2 constants; BUF/NOT; 10 two-input tables (eight AND/OR
        // forms, XOR, XNOR); at arity 3, 16 AND forms, XOR3/XNOR3, the
        // 3 × 8 mux forms and 8 majority forms.
        assert_eq!(classified, 2 + (2 + 2) + (2 + 10) + (2 + 16 + 2 + 24 + 8));
    }

    #[test]
    fn golden_lane_mask_is_bit_zero_of_word_zero() {
        assert_eq!(BatchDevice::<1>::GOLDEN_LANE_MASK, Word([1]));
        assert_eq!(BatchDevice::<4>::GOLDEN_LANE_MASK, Word([1, 0, 0, 0]));
        assert_eq!(BatchDevice::<4>::LANES, 256);
        assert_eq!(
            BatchDevice::<8>::GOLDEN_LANE_MASK,
            Word([1, 0, 0, 0, 0, 0, 0, 0])
        );
        assert_eq!(BatchDevice::<8>::LANES, 512);
    }

    #[test]
    fn routing_mutations_are_rejected_per_lane() {
        let dev = toggle_device();
        let mut batch = BatchDevice::<1>::new(&dev).unwrap();
        let err = batch.lane(1).apply(&Mutation::SetWireFanout {
            wire: crate::coords::WireId::from_index(0),
            extra: 3,
        });
        assert_eq!(err, Err(FpgaError::LaneUnsupported("routing mutation")));
    }

    /// A memory block whose write enable, data bit 1 and address bits 1-2
    /// come from flip-flops whose D is their own Q (they hold whatever a
    /// lane sets; the enable starts off, so only lanes that set it
    /// write); data bit 0 comes from a toggling flip-flop, and address
    /// bit 0 from a flip-flop that copies held flip-flop 1, so its value
    /// at an edge survives only in the write-port shadow. Held flip-flop
    /// 5 drives nothing, so its value at an edge survives only in its
    /// previous-D shadow. Returns the configuration and the flip-flops a
    /// lane may flip: the six held ones, then the copying one.
    fn held_port_memory() -> (Bitstream, Vec<CbCoord>) {
        let mut bs = Bitstream::new(ArchParams::small());
        let mut sites: Vec<CbCoord> = (0..6).map(|i| CbCoord::new(i, 0)).collect();
        let mut q = Vec::new();
        for &cb in &sites {
            let w = bs.place_ff(cb, false).unwrap();
            bs.connect_ff(cb, FfDSrc::Direct(w)).unwrap();
            q.push(w);
        }
        let copy_cb = CbCoord::new(6, 0);
        let copy = bs.place_ff(copy_cb, false).unwrap();
        bs.connect_ff(copy_cb, FfDSrc::Direct(q[1])).unwrap();
        sites.push(copy_cb);
        let toggle_cb = CbCoord::new(7, 0);
        bs.place_lut(toggle_cb, 0x5555).unwrap();
        let toggle = bs.place_ff(toggle_cb, false).unwrap();
        bs.connect_lut_pin(toggle_cb, 0, toggle).unwrap();
        bs.connect_ff(toggle_cb, FfDSrc::LutOut).unwrap();
        let contents: Vec<u64> = (0..8).map(|k| k % 4).collect();
        let addr = [copy, q[2], q[3]];
        let dout = bs
            .add_bram("m", &addr, &[toggle, q[4]], Some(q[0]), 2, &contents)
            .unwrap();
        bs.add_output("d", &dout).unwrap();
        (bs, sites)
    }

    /// Everything a lane's future depends on, read straight from the
    /// engine's words: the state snapshot, the previous-D shadows and
    /// the memory write-port shadows.
    fn full_state<const W: usize>(batch: &BatchDevice<W>, lane: usize) -> Vec<bool> {
        let mut bits: Vec<bool> = batch
            .state_snapshot_lane(lane)
            .iter()
            .flat_map(|w| (0..64).map(move |k| (w >> k) & 1 == 1))
            .collect();
        bits.extend(batch.ff_prev_d.iter().map(|w| w.bit(lane)));
        for b in &batch.brams {
            let shadows = std::iter::once(&b.prev_we)
                .chain(&b.prev_addr)
                .chain(&b.prev_din);
            bits.extend(shadows.map(|w| w.bit(lane)));
        }
        bits
    }

    /// A circuit that reaches every settle path: 40 blocks whose LUTs
    /// read flip-flops, a memory block's outputs and earlier LUTs, with
    /// tables drawn from the op classes and at random (so some LUTs are
    /// generic), and a memory block addressed by flip-flops, so a flipped
    /// flip-flop diverges a lane's read and write addresses. Before them,
    /// 8 blocks without a flip-flop hold BUF/NOT LUTs (some of arity 2
    /// reading one pin, some reading another such LUT), which the sweep
    /// runs as AND1. Returns the device, the 40 blocks and the 8 BUF/NOT
    /// blocks.
    fn mixed_device(seed: &mut u64) -> (Device, Vec<CbCoord>, Vec<CbCoord>) {
        const CLASS_TABLES: [u16; 8] = [0x5555, 0x8888, 0xEEEE, 0x6666, 0x9696, 0xCACA, 0xE8E8, 0];
        let mut bs = Bitstream::new(ArchParams::small());
        let mut next = || random_word::<1>(seed).0[0];
        let cbs: Vec<CbCoord> = (0..40u16).map(|i| CbCoord::new(i % 16, i / 16)).collect();
        let q: Vec<WireId> = cbs
            .iter()
            .map(|&cb| bs.place_ff(cb, next() & 1 == 1).unwrap())
            .collect();
        let contents: Vec<u64> = (0..8).map(|_| next() & 0xF).collect();
        let (bram, dout) = bs.place_bram("m", 3, 4, &contents).unwrap();
        let mut pool: Vec<WireId> = q.iter().chain(&dout).copied().collect();
        let buffers: Vec<CbCoord> = (40..48u16).map(|i| CbCoord::new(i % 16, i / 16)).collect();
        for &cb in &buffers {
            let r = next();
            let out = bs
                .place_lut(cb, [0x5555, 0xAAAA, 0x3333, 0xCCCC][r as usize % 4])
                .unwrap();
            for pin in 0..1 + (r >> 8) as u8 % 2 {
                let w = pool[(next() % pool.len() as u64) as usize];
                bs.connect_lut_pin(cb, pin, w).unwrap();
            }
            pool.push(out);
        }
        let mut luts = Vec::new();
        for &cb in &cbs {
            let r = next();
            let table = if r & 1 == 0 {
                CLASS_TABLES[(r >> 1) as usize % CLASS_TABLES.len()]
            } else {
                (r >> 16) as u16
            };
            let out = bs.place_lut(cb, table).unwrap();
            for pin in 0..(r >> 8) as u8 % 5 {
                let w = pool[(next() % pool.len() as u64) as usize];
                bs.connect_lut_pin(cb, pin, w).unwrap();
            }
            pool.push(out);
            luts.push(out);
        }
        for (i, &cb) in cbs.iter().enumerate() {
            let src = if i % 5 == 4 {
                FfDSrc::Direct(pool[(next() % pool.len() as u64) as usize])
            } else {
                FfDSrc::LutOut
            };
            bs.connect_ff(cb, src).unwrap();
        }
        bs.connect_bram(bram, &q[..3], &luts[30..34], Some(luts[34]))
            .unwrap();
        let observed: Vec<WireId> = q[..8].iter().chain(&dout).copied().collect();
        bs.add_output("y", &observed).unwrap();
        (Device::configure(bs).unwrap(), cbs, buffers)
    }

    /// Asserts that two engines hold the same words everywhere the
    /// per-cycle loops write.
    fn assert_same_words<const W: usize>(a: &BatchDevice<W>, b: &BatchDevice<W>, at: &str) {
        assert_eq!(a.wire_values, b.wire_values, "{at}: wires and LUT slots");
        assert_eq!(a.ff_state, b.ff_state, "{at}: flip-flops");
        assert_eq!(a.ff_prev_d, b.ff_prev_d, "{at}: previous-D shadows");
        assert_eq!(a.compact_tables, b.compact_tables, "{at}: tables");
        assert_eq!(
            (a.seq_div_ff, a.seq_div_shadow),
            (b.seq_div_ff, b.seq_div_shadow),
            "{at}: retirement folds"
        );
        for (x, y) in a.brams.iter().zip(&b.brams) {
            assert_eq!(x.contents, y.contents, "{at}: memory contents");
            assert_eq!(x.dirty, y.dirty, "{at}: memory dirty list");
            assert_eq!(
                (x.prev_we, &x.prev_addr, &x.prev_din),
                (y.prev_we, &y.prev_addr, &y.prev_din),
                "{at}: write-port shadows"
            );
        }
    }

    /// Drives a baseline engine and one at `level` through the same
    /// per-lane faults — LUT overrides (the wide path) that come and go,
    /// flip-flop flips that diverge memory addresses, memory bit flips,
    /// snaps to golden and a warm-start restore — and compares every word
    /// and every mask after each step.
    fn level_matches_baseline<const W: usize>(level: LaneKernel, seed: u64) {
        let mut seed = seed;
        let (mut dev, cbs, buffers) = mixed_device(&mut seed);
        let mut base = BatchDevice::<W>::new(&dev).unwrap();
        base.kernel = LaneKernel::Baseline;
        let mut other = base.clone();
        other.kernel = level;
        let wires = base.output_wires("y").unwrap();
        let lanes = BatchDevice::<W>::LANES;
        dev.reset();
        let (mut saw_wide, mut saw_odd_address, mut saw_buffer_wide) = (false, false, false);
        let buffer_luts: Vec<usize> = buffers
            .iter()
            .map(|cb| base.program.lut_of_cb[cb.flat_index(16)] as usize)
            .collect();
        for cycle in 0..40 {
            if cycle == 20 {
                // Warm start from the scalar device's state.
                let snap = dev.save_state();
                base.restore_broadcast(&snap);
                other.restore_broadcast(&snap);
                assert_same_words(&base, &other, "restore");
            }
            for _ in 0..6 {
                let r = random_word::<1>(&mut seed).0[0];
                let lane = 1 + (r >> 8) as usize % (lanes - 1);
                let cb = cbs[(r >> 20) as usize % cbs.len()];
                // LUT faults land on the BUF/NOT blocks too.
                let lut_cb = if r & 1 << 50 != 0 {
                    buffers[(r >> 20) as usize % buffers.len()]
                } else {
                    cb
                };
                let mutations = match r % 4 {
                    0 => vec![Mutation::SetLutTable {
                        cb: lut_cb,
                        table: (r >> 32) as u16,
                    }],
                    1 => vec![Mutation::SetLutTable {
                        cb: lut_cb,
                        table: base.program.pristine_tables
                            [base.program.lut_of_cb[lut_cb.flat_index(16)] as usize],
                    }],
                    2 => vec![
                        Mutation::SetLsrDrive {
                            cb,
                            drive: SetReset::driving(r & 1 << 40 != 0),
                        },
                        Mutation::PulseLsr { cb },
                    ],
                    _ => vec![Mutation::SetBramBit {
                        bram: BramId(0),
                        addr: (r >> 32) as usize % 8,
                        bit: (r >> 40) as u32 % 4,
                        value: r & 1 << 48 != 0,
                    }],
                };
                for m in &mutations {
                    base.lane(lane).apply(m).unwrap();
                    other.lane(lane).apply(m).unwrap();
                }
            }
            let at = format!("{level:?} W={W} cycle {cycle}");
            saw_wide |= base.lut_op_counts().iter().any(|&(op, _)| op == "wide");
            saw_buffer_wide |= buffer_luts.iter().any(|&li| base.fixups.overridden(li));
            base.settle();
            other.settle();
            assert_same_words(&base, &other, &format!("{at} settle"));
            dev.settle();
            let golden = dev.output_u64("y").unwrap();
            assert_eq!(
                base.port_divergence(&wires, golden),
                other.port_divergence(&wires, golden),
                "{at}"
            );
            base.clock_edge();
            other.clock_edge();
            dev.clock_edge();
            assert_same_words(&base, &other, &format!("{at} edge"));
            saw_odd_address |= base.brams[0]
                .prev_addr
                .iter()
                .any(|w| *w != w.splat_lane0());
            assert_eq!(base.seq_divergence(), other.seq_divergence(), "{at}");
            assert_eq!(base.state_divergence(), other.state_divergence(), "{at}");
            let all = !BatchDevice::<W>::GOLDEN_LANE_MASK;
            assert_eq!(
                base.divergence_keys::<2>(all),
                other.divergence_keys::<2>(all),
                "{at}"
            );
            assert_eq!(
                base.divergence_keys::<6>(all),
                other.divergence_keys::<6>(all),
                "{at}"
            );
            if cycle % 7 == 3 {
                let lane = 1 + cycle % (lanes - 1);
                base.snap_lane_to_golden(lane);
                other.snap_lane_to_golden(lane);
                assert_same_words(&base, &other, &format!("{at} snap"));
            }
        }
        // The faults reached the paths under test.
        assert!(saw_wide && saw_odd_address, "W={W} seed {seed}");
        assert!(saw_buffer_wide, "W={W} seed {seed}");
        assert!(base.lut_op_counts().iter().any(|&(op, _)| op == "generic"));
        assert!(base.brams[0].dirty.len() > 1);
    }

    #[test]
    fn every_kernel_level_matches_the_baseline_bit_for_bit() {
        let best = LaneKernel::detect();
        let dev = toggle_device();
        let by_width = [
            BatchDevice::<1>::new(&dev).unwrap().kernel,
            BatchDevice::<2>::new(&dev).unwrap().kernel,
            BatchDevice::<4>::new(&dev).unwrap().kernel,
            BatchDevice::<8>::new(&dev).unwrap().kernel,
        ];
        assert_eq!(by_width, [64, 128, 256, 512].map(LaneKernel::for_lanes));
        assert!(by_width.iter().all(|&k| k <= best));
        assert_eq!(by_width[0], LaneKernel::Baseline);
        for &level in LaneKernel::ALL {
            if level > best {
                eprintln!("lane kernel {level}: not supported by this host, skipped");
                continue;
            }
            for seed in [1, 2, 3] {
                level_matches_baseline::<1>(level, seed);
                level_matches_baseline::<2>(level, seed);
                level_matches_baseline::<4>(level, seed);
                level_matches_baseline::<8>(level, seed);
            }
        }
    }

    /// The sweep of `batch`: every evaluation it can make runs after the
    /// evaluations writing the slots it reads, and each slot has one
    /// writer, whether the class runs, a memory read or a fix-up writes
    /// it.
    fn assert_levelized<const W: usize>(batch: &BatchDevice<W>) {
        let bram_wires: Vec<(Vec<u32>, Vec<u32>)> = batch
            .program
            .bram_ports
            .iter()
            .map(|b| {
                let douts = b.dout_wires.iter().flatten().copied().collect();
                (douts, b.addr_wires.clone())
            })
            .collect();
        let schedule = batch.program.sweep.schedule(&bram_wires);
        let mut written_at = std::collections::HashMap::new();
        for (level, outs, _) in &schedule {
            for &o in outs {
                let at = *written_at.entry(o).or_insert(*level);
                assert_eq!(
                    at, *level,
                    "slot {o} has writers at levels {at} and {level}"
                );
            }
        }
        for (level, outs, ins) in &schedule {
            for i in ins {
                if let Some(&at) = written_at.get(i) {
                    assert!(
                        at < *level,
                        "{outs:?} at level {level} reads slot {i} of level {at}"
                    );
                }
            }
        }
        // Every LUT and memory read is scheduled.
        let luts = batch.program.lut_arity.len();
        assert_eq!(batch.sweep_shape().nodes, luts + batch.brams.len());
        for li in 0..luts {
            assert!(
                written_at.contains_key(&batch.program.sweep.lut_out(li)),
                "LUT {li}"
            );
        }
    }

    #[test]
    fn every_node_of_the_levelized_tape_runs_after_its_drivers() {
        assert_levelized(&BatchDevice::<1>::new(&toggle_device()).unwrap());
        let (bs, _) = held_port_memory();
        assert_levelized(&BatchDevice::<2>::new(&Device::configure(bs).unwrap()).unwrap());
        for seed in 0..16 {
            let (dev, _, _) = mixed_device(&mut { seed });
            assert_levelized(&BatchDevice::<1>::new(&dev).unwrap());
        }
    }

    /// Drives a width-`W` engine and one scalar device per lane through
    /// the same steps — LUT overrides on any block, the BUF/NOT ones
    /// included, that come and go, flip-flop flips and memory bit flips,
    /// each on one lane — and compares every lane of every wire, LUT slot
    /// and flip-flop with its scalar device after each settle and edge.
    fn lanes_match_scalar_devices<const W: usize>(seed: u64, steps: &[(u16, u16, u32)]) {
        let (dev, cbs, buffers) = mixed_device(&mut { seed });
        let mut batch = BatchDevice::<W>::new(&dev).unwrap();
        let lanes = BatchDevice::<W>::LANES;
        let mut scalars: Vec<Device> = (0..lanes).map(|_| dev.clone()).collect();
        for s in &mut scalars {
            s.reset();
        }
        let lut_cbs: Vec<CbCoord> = cbs.iter().chain(&buffers).copied().collect();
        let compare = |batch: &BatchDevice<W>, scalars: &[Device], at: &str| {
            for (lane, s) in scalars.iter().enumerate() {
                let state = s.save_state();
                for (w, &v) in state.wire_values.iter().enumerate() {
                    assert_eq!(
                        batch.wire_values[w].bit(lane),
                        v,
                        "{at}: lane {lane}, wire {w}"
                    );
                }
                for (li, &v) in state.lut_values.iter().enumerate() {
                    let slot = batch.program.sweep.lut_out(li);
                    if slot as usize >= state.wire_values.len() {
                        assert_eq!(
                            batch.wire_values[slot as usize].bit(lane),
                            v,
                            "{at}: LUT {li}"
                        );
                    }
                }
                assert_eq!(
                    batch.state_snapshot_lane(lane),
                    s.state_snapshot(),
                    "{at}: lane {lane}"
                );
            }
        };
        for (k, &(lane, kind, r)) in steps.iter().enumerate() {
            let lane = 1 + lane as usize % (lanes - 1);
            let cb = cbs[r as usize % cbs.len()];
            let lut_cb = lut_cbs[r as usize % lut_cbs.len()];
            let p = &batch.program;
            let pristine = p.pristine_tables[p.lut_of_cb[lut_cb.flat_index(16)] as usize];
            let mutations = match kind % 5 {
                0 | 1 => vec![Mutation::SetLutTable {
                    cb: lut_cb,
                    table: (r >> 8) as u16,
                }],
                2 => vec![Mutation::SetLutTable {
                    cb: lut_cb,
                    table: pristine,
                }],
                3 => vec![
                    Mutation::SetLsrDrive {
                        cb,
                        drive: SetReset::driving(r & 1 << 20 != 0),
                    },
                    Mutation::PulseLsr { cb },
                ],
                _ => vec![Mutation::SetBramBit {
                    bram: BramId(0),
                    addr: (r >> 8) as usize % 8,
                    bit: (r >> 12) % 4,
                    value: r & 1 << 20 != 0,
                }],
            };
            for m in &mutations {
                batch.lane(lane).apply(m).unwrap();
                scalars[lane].apply(m).unwrap();
            }
            if kind & 0x100 == 0 {
                continue;
            }
            batch.settle();
            for s in &mut scalars {
                s.settle();
            }
            compare(
                &batch,
                &scalars,
                &format!("seed {seed} W={W} step {k} settle"),
            );
            batch.clock_edge();
            for s in &mut scalars {
                s.clock_edge();
            }
            compare(
                &batch,
                &scalars,
                &format!("seed {seed} W={W} step {k} edge"),
            );
        }
    }

    proptest::proptest! {
        /// Every lane of the lane engine is the scalar device while LUT
        /// overrides come and go mid-run, moving LUTs (the BUF/NOT ones
        /// included) onto and off the fix-up path.
        #[test]
        fn every_lane_matches_the_scalar_device_as_overrides_come_and_go(
            seed in 0u64..1 << 32,
            steps in proptest::collection::vec(
                (proptest::prelude::any::<u16>(), proptest::prelude::any::<u16>(),
                 proptest::prelude::any::<u32>()),
                1..40,
            ),
        ) {
            lanes_match_scalar_devices::<1>(seed, &steps);
            lanes_match_scalar_devices::<2>(seed, &steps);
        }
    }

    proptest::proptest! {
        /// Two lanes' divergence keys are equal exactly when their state
        /// snapshots, previous-D shadows and write-port shadows are, and
        /// a bounded scan lists exactly the lanes within its bound, with
        /// the same keys.
        #[test]
        fn divergence_keys_name_exactly_the_differing_state(
            shared in proptest::collection::vec(
                (0usize..8, 0u8..11, 0u8..4, proptest::prelude::any::<bool>()),
                0..24,
            ),
            extra in proptest::collection::vec(
                (1usize..64, 0u8..11, 0u8..4, proptest::prelude::any::<bool>()),
                0..16,
            ),
            cycles in 1u8..4,
        ) {
            let (bs, ffs) = held_port_memory();
            let mut batch = BatchDevice::<1>::new(&Device::configure(bs).unwrap()).unwrap();
            // Lane `l` takes the `shared` flips of pattern `l % 8` and its
            // own `extra` ones, so many lanes agree but for a flip or two.
            // Sites 0-6 flip a flip-flop, 7-10 one memory bit. A flip lands
            // before the edge of cycle `when`, or after the last edge; an
            // `undo` flip is flipped back after the last edge, so it may
            // survive only in a shadow.
            let flips: Vec<(usize, u8, u8, bool)> = (1..64)
                .flat_map(|lane| {
                    let own = shared
                        .iter()
                        .filter(move |f| f.0 == lane % 8)
                        .chain(extra.iter().filter(move |f| f.0 == lane));
                    own.map(move |&(_, site, when, undo)| (lane, site, when, undo))
                })
                .collect();
            let flip = |batch: &mut BatchDevice<1>, lane: usize, site: u8| {
                let mut dev = batch.lane(lane);
                let site = usize::from(site);
                if let Some(&cb) = ffs.get(site) {
                    let value = !dev.dev.peek_ff_lane(cb, lane).unwrap();
                    dev.apply(&Mutation::SetLsrDrive { cb, drive: SetReset::driving(value) })
                        .unwrap();
                    dev.apply(&Mutation::PulseLsr { cb }).unwrap();
                } else {
                    let (addr, bit) = ((site - ffs.len()) * 2 % 8, (site as u32) % 2);
                    let value = dev.readback_bram_word(BramId(0), addr).unwrap() >> bit & 1 == 0;
                    dev.apply(&Mutation::SetBramBit { bram: BramId(0), addr, bit, value })
                        .unwrap();
                }
            };
            for cycle in 0..=cycles {
                for &(lane, site, when, undo) in &flips {
                    if when == cycle || (undo && when < cycles && cycle == cycles) {
                        flip(&mut batch, lane, site);
                    }
                }
                if cycle < cycles {
                    batch.step();
                }
            }
            let lanes = Word::<1>::ONES;
            let keys = batch.divergence_keys::<64>(lanes);
            proptest::prop_assert_eq!(keys.len(), 64);
            let states: Vec<Vec<bool>> = (0..64).map(|l| full_state(&batch, l)).collect();
            for (a, ka) in &keys {
                proptest::prop_assert_eq!(ka[0] == u32::MAX, states[*a] == states[0], "lane {}", a);
                for (b, kb) in &keys {
                    proptest::prop_assert_eq!(ka == kb, states[*a] == states[*b], "lanes {} and {}", a, b);
                }
            }
            let bounded: Vec<(usize, Vec<u32>)> = batch
                .divergence_keys::<2>(lanes)
                .iter()
                .map(|(lane, key)| (*lane, key.to_vec()))
                .collect();
            let within: Vec<(usize, Vec<u32>)> = keys
                .iter()
                .filter(|(_, key)| key[2] == u32::MAX)
                .map(|(lane, key)| (*lane, key[..2].to_vec()))
                .collect();
            proptest::prop_assert_eq!(bounded, within);
        }
    }
}
