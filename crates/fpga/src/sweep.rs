//! The lane engine's settle sweep: the compiled tape levelized and
//! grouped into runs of one op class, each run evaluated by one loop.
//!
//! A pristine LUT gets the op class its compact table and arity fall in
//! ([`classify`]), evaluated with one to four word operations over its pin
//! words. [`Sweep::new`] levelizes the tape — a node's level is one more
//! than the highest level among the drivers of its pins, a memory read's
//! pins being its address wires — and sorts each level's LUTs by (class,
//! polarity) into runs. [`Sweep::eval`] then matches once per run and
//! runs one loop per run: polarity words splatted once per run, no
//! dispatch and no bounds check per node, and no branch on whether a LUT
//! has an output wire (a LUT without one writes a slot past the wires).
//! A LUT whose table reads fewer pins than it has is classified on the
//! pins it reads, so an arity-2 LUT that passes one pin through is a
//! BUF/NOT (AND1).
//!
//! A LUT some lane overrides is *fixed up*: evaluated, after its level's
//! runs, by the mux tree over its lane-word compact table. Its class run
//! still computes the pristine value, which the fix-up overwrites:
//! nothing in the same level reads it. Overriding or restoring a LUT
//! edits its level's short fix-up list in the engine's [`Fixups`]; the
//! [`Sweep`] itself never changes after it is built, so engines of every
//! word width share one.

use crate::batch::{BramPort, LaneBram};
use crate::device::{Device, FfData, NodeKind, NO_WIRE};
use crate::word::Word;

/// How a pristine LUT is evaluated: its op class.
///
/// The classes are parameterised by a polarity byte: bit `i` inverts pin
/// `i`, bit [`POL_OUT`] inverts the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub(crate) enum Op {
    /// Constant: the output polarity bit is the value.
    Const,
    /// AND of pin 0 (buffer or inverter).
    And1,
    /// AND of pins 0–1 (with polarities: OR, NAND, NOR, decodes).
    And2,
    /// AND of pins 0–2.
    And3,
    /// AND of pins 0–3.
    And4,
    /// XOR of pins 0–1.
    Xor2,
    /// XOR of pins 0–2.
    Xor3,
    /// `pin0 ? pin2 : pin1`.
    MuxS0,
    /// `pin1 ? pin2 : pin0`.
    MuxS1,
    /// `pin2 ? pin1 : pin0`.
    MuxS2,
    /// Majority of pins 0–2.
    Maj3,
    /// No class fits: the mux tree over the pristine compact table.
    Generic,
}

/// Polarity bit that inverts a class's output.
pub(crate) const POL_OUT: u8 = 1 << 4;

/// The classes a pristine LUT can be given, in classification order
/// (the first that fits wins), with the arity each applies to (`None`:
/// every arity).
pub(crate) const CLASSES: [(Op, Option<u8>); 11] = [
    (Op::Const, None),
    (Op::And1, Some(1)),
    (Op::And2, Some(2)),
    (Op::And3, Some(3)),
    (Op::And4, Some(4)),
    (Op::Xor2, Some(2)),
    (Op::Xor3, Some(3)),
    (Op::MuxS0, Some(3)),
    (Op::MuxS1, Some(3)),
    (Op::MuxS2, Some(3)),
    (Op::Maj3, Some(3)),
];

impl Op {
    /// The name [`BatchDevice::lut_op_counts`](crate::BatchDevice::lut_op_counts)
    /// reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Op::Const => "const",
            Op::And1 => "and1",
            Op::And2 => "and2",
            Op::And3 => "and3",
            Op::And4 => "and4",
            Op::Xor2 => "xor2",
            Op::Xor3 => "xor3",
            Op::MuxS0 => "mux_s0",
            Op::MuxS1 => "mux_s1",
            Op::MuxS2 => "mux_s2",
            Op::Maj3 => "maj3",
            Op::Generic => "generic",
        }
    }

    /// How many pins the class reads.
    fn pins(self) -> usize {
        match self {
            Op::Const => 0,
            Op::And1 => 1,
            Op::And2 | Op::Xor2 => 2,
            Op::And3 | Op::Xor3 | Op::MuxS0 | Op::MuxS1 | Op::MuxS2 | Op::Maj3 => 3,
            Op::And4 | Op::Generic => 4,
        }
    }
}

/// The polarity byte as words: `[pin 0, pin 1, pin 2, pin 3, output]`.
#[inline(always)]
fn pol_masks<const W: usize>(pol: u8) -> [Word<W>; 5] {
    std::array::from_fn(|i| {
        if i < 4 {
            Word::splat((pol >> i) & 1 == 1)
        } else {
            Word::splat(pol & POL_OUT != 0)
        }
    })
}

/// Evaluates op class `op` under the polarity words `m` (see
/// [`pol_masks`]) over its pin words `x(0..)`.
#[inline(always)]
fn class_word<const W: usize>(op: Op, m: &[Word<W>; 5], x: impl Fn(usize) -> Word<W>) -> Word<W> {
    let p = |i: usize| x(i) ^ m[i];
    let v = match op {
        Op::Const => Word::ZERO,
        Op::And1 => p(0),
        Op::And2 => p(0) & p(1),
        Op::And3 => p(0) & p(1) & p(2),
        Op::And4 => p(0) & p(1) & p(2) & p(3),
        Op::Xor2 => x(0) ^ x(1),
        Op::Xor3 => x(0) ^ x(1) ^ x(2),
        Op::MuxS0 => Word::mux(p(1), p(2), p(0)),
        Op::MuxS1 => Word::mux(p(0), p(2), p(1)),
        Op::MuxS2 => Word::mux(p(0), p(1), p(2)),
        Op::Maj3 => {
            let (a, b, c) = (p(0), p(1), p(2));
            (a & b) | (c & (a | b))
        }
        Op::Generic => unreachable!("generic is not an op class"),
    };
    v ^ m[4]
}

/// Evaluates a LUT op class with polarity `pol` over its pin words
/// `x(0..arity)`.
#[inline(always)]
pub(crate) fn eval_class<const W: usize>(op: Op, pol: u8, x: impl Fn(usize) -> Word<W>) -> Word<W> {
    class_word(op, &pol_masks(pol), x)
}

/// The compact truth table of an op class at `arity`: the class
/// evaluated on the index patterns (pin `i` is index bit `i`).
pub(crate) fn class_table(op: Op, pol: u8, arity: u8) -> u16 {
    const INDEX_BITS: [u64; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];
    let t = eval_class::<1>(op, pol, |i| Word([INDEX_BITS[i]])).0[0];
    (t & arity_mask(arity)) as u16
}

/// The compact table bits an arity-`arity` LUT can reach.
pub(crate) fn arity_mask(arity: u8) -> u64 {
    (1u64 << (1u32 << arity)) - 1
}

/// The op class and polarity of a pristine LUT, [`Op::Generic`] when no
/// class fits.
///
/// Every (class, polarity) candidate is evaluated once per process: for
/// arities 0–3 into a table indexed by arity and compact table (278
/// entries, which stay in L1 cache while a tape is classified), for
/// arity 4 into a short list of the tables some candidate reaches.
/// Classifying a whole tape then costs little next to building the
/// engine.
pub(crate) fn classify(arity: u8, ctable: u16) -> (Op, u8) {
    use std::sync::OnceLock;
    /// Where each arity's `2^(2^arity)` tables start in the dense table.
    const OFFSET: [usize; 5] = [0, 2, 6, 22, 278];
    type Classes = (Vec<(Op, u8)>, Vec<(u16, (Op, u8))>);
    static CLASSES_BY_TABLE: OnceLock<Classes> = OnceLock::new();
    let (dense, arity4) = CLASSES_BY_TABLE.get_or_init(|| {
        let mut dense = vec![(Op::Generic, 0); OFFSET[4]];
        let mut arity4: Vec<(u16, (Op, u8))> = Vec::new();
        for arity in 0..=4u8 {
            for &(op, at) in &CLASSES {
                if at.is_some_and(|at| at != arity) {
                    continue;
                }
                for pol in 0..2 * POL_OUT {
                    // No polarity on a pin the LUT does not have.
                    if pol & (0xF << arity) & 0xF != 0 {
                        continue;
                    }
                    // The first candidate in `CLASSES` order wins a tie.
                    let t = class_table(op, pol, arity);
                    if arity < 4 {
                        let slot = &mut dense[OFFSET[arity as usize] + t as usize];
                        if slot.0 == Op::Generic {
                            *slot = (op, pol);
                        }
                    } else if arity4.iter().all(|&(t4, _)| t4 != t) {
                        arity4.push((t, (op, pol)));
                    }
                }
            }
        }
        (dense, arity4)
    });
    if arity < 4 {
        dense[OFFSET[arity as usize] + (u64::from(ctable) & arity_mask(arity)) as usize]
    } else {
        arity4
            .iter()
            .find(|&&(t, _)| t == ctable)
            .map_or((Op::Generic, 0), |&(_, class)| class)
    }
}

/// The class of a pristine LUT read on the pins its table depends on:
/// `(op, pol, pins)`, where `pins` lists the compact pin positions the
/// class's pins `0..` read. A table that ignores some of its pins is
/// classified on the others; one no class fits at any pin set is
/// [`Op::Generic`] on all of its pins.
fn classify_on_read_pins(arity: u8, ctable: u16) -> (Op, u8, Vec<usize>) {
    let (op, pol) = classify(arity, ctable);
    let all: Vec<usize> = (0..arity as usize).collect();
    if op != Op::Generic {
        return (op, pol, all);
    }
    let entries = 1usize << arity;
    let bit = |k: usize| (ctable >> k) & 1;
    let read: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| (0..entries).any(|k| bit(k) != bit(k ^ (1 << i))))
        .collect();
    if read.len() == all.len() {
        return (op, pol, all);
    }
    // Entry `k` of the reduced table: read pin `j` carries bit `j` of `k`,
    // the ignored pins 0.
    let mut reduced = 0u16;
    for k in 0..1usize << read.len() {
        let full: usize = read
            .iter()
            .enumerate()
            .map(|(j, &pin)| ((k >> j) & 1) << pin)
            .sum();
        reduced |= bit(full) << k;
    }
    match classify(read.len() as u8, reduced) {
        (Op::Generic, _) => (op, pol, all),
        (op, pol) => (op, pol, read),
    }
}

/// Evaluates one LUT over all lanes with a mux tree sized to its
/// connected-pin count. Bit-identical to the full 4-variable tree:
/// unconnected pins present constant-0 words, so the full tree only
/// ever selects the table entries the compact tree holds.
///
/// `ct(k)` is compact table entry `k` as a lane word.
#[inline(always)]
pub(crate) fn eval_lut_lanes<const W: usize>(
    ct: impl Fn(usize) -> Word<W>,
    arity: u8,
    pins: &[u32; 4],
    wv: &[Word<W>],
) -> Word<W> {
    let mux = Word::mux;
    let pin = |i: usize| wv[pins[i] as usize];
    match arity {
        0 => ct(0),
        1 => mux(ct(0), ct(1), pin(0)),
        2 => quad(&ct, 0, pin(0), pin(1)),
        3 => {
            let (a, b) = (pin(0), pin(1));
            mux(quad(&ct, 0, a, b), quad(&ct, 4, a, b), pin(2))
        }
        _ => {
            let (a, b, c) = (pin(0), pin(1), pin(2));
            let lo = mux(quad(&ct, 0, a, b), quad(&ct, 4, a, b), c);
            let hi = mux(quad(&ct, 8, a, b), quad(&ct, 12, a, b), c);
            mux(lo, hi, pin(3))
        }
    }
}

/// The two-pin mux tree over compact table entries `j..j + 4`, selected
/// by pin words `a` (low index bit) and `b`. A function rather than a
/// closure so that it always inlines into the kernel level it runs at.
#[inline(always)]
fn quad<const W: usize>(
    ct: &impl Fn(usize) -> Word<W>,
    j: usize,
    a: Word<W>,
    b: Word<W>,
) -> Word<W> {
    let mux = Word::mux;
    mux(mux(ct(j), ct(j + 1), a), mux(ct(j + 2), ct(j + 3), a), b)
}

/// One LUT of a class run: the slot it writes and the slots its class's
/// `N` pins read.
#[derive(Debug, Clone, Copy)]
struct Ent<const N: usize> {
    out: u32,
    pins: [u32; N],
}

/// The LUTs of one level that share an op class and polarity: entries
/// `start..end` of the entry array of the class's pin count.
#[derive(Debug, Clone, Copy)]
struct Run {
    op: Op,
    pol: u8,
    start: u32,
    end: u32,
}

/// A pristine LUT no class fits, evaluated by the mux tree over its
/// compact table.
#[derive(Debug, Clone, Copy)]
struct GenericEnt {
    out: u32,
    pins: [u32; 4],
    ctable: u16,
    arity: u8,
}

/// What one level evaluates: ranges of `runs`, `generic` and `brams`.
#[derive(Debug, Clone, Copy)]
struct Level {
    runs: (u32, u32),
    generic: (u32, u32),
    brams: (u32, u32),
}

/// One LUT as the fix-up path sees it.
#[derive(Debug, Clone, Copy)]
struct LutSite {
    level: u32,
    /// The slot it writes: its output wire, or a slot past the wires.
    out: u32,
    /// Its tape pins (compacted, unconnected slots repeat slot 0).
    pins: [u32; 4],
    arity: u8,
    /// Start of its slice in the lane-word compact tables.
    table_off: u32,
    /// Its pristine class (after pin reduction).
    op: Op,
}

/// The levelized settle sweep of one compiled tape (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct Sweep {
    /// Slots the sweep reads and writes: the device's wires, then one per
    /// LUT without an output wire.
    slots: usize,
    levels: Vec<Level>,
    runs: Vec<Run>,
    e0: Vec<Ent<0>>,
    e1: Vec<Ent<1>>,
    e2: Vec<Ent<2>>,
    e3: Vec<Ent<3>>,
    e4: Vec<Ent<4>>,
    generic: Vec<GenericEnt>,
    brams: Vec<u32>,
    luts: Vec<LutSite>,
}

/// One engine's overridden LUTs, which its [`Sweep::eval`] fixes up: the
/// lane-state side of the sweep.
#[derive(Debug, Clone)]
pub(crate) struct Fixups {
    /// Per LUT: some lane overrides its table.
    wide: Vec<bool>,
    /// Per level: the overridden LUTs, evaluated by the mux tree after
    /// its runs.
    levels: Vec<Vec<u32>>,
}

impl Fixups {
    /// Records that some lane overrides LUT `li`'s table (`on`), or that
    /// none does any more: the LUT is evaluated from its lane-word table
    /// after its level's runs while any lane overrides it.
    pub(crate) fn set(&mut self, sweep: &Sweep, li: usize, on: bool) {
        if self.wide[li] == on {
            return;
        }
        self.wide[li] = on;
        let list = &mut self.levels[sweep.luts[li].level as usize];
        if on {
            list.push(li as u32);
        } else if let Some(at) = list.iter().position(|&l| l as usize == li) {
            list.swap_remove(at);
        }
    }

    /// Whether some lane overrides LUT `li`.
    pub(crate) fn overridden(&self, li: usize) -> bool {
        self.wide[li]
    }
}

/// The shape of the settle sweep:
/// [`BatchDevice::sweep_shape`](crate::BatchDevice::sweep_shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepShape {
    /// Combinational nodes of the circuit: LUTs and memory read ports.
    pub nodes: usize,
    /// Levels of the levelized tape.
    pub levels: usize,
    /// Runs of one op class and polarity.
    pub runs: usize,
}

impl std::fmt::Display for SweepShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes in {} levels, {} runs",
            self.nodes, self.levels, self.runs
        )
    }
}

const NONE: u32 = u32::MAX;

/// Runs one class loop: `f` of each entry's pin words into its slot.
///
/// # Safety
///
/// Every `out` and pin of `ents` must be below `wv.len()`.
#[inline(always)]
#[allow(unsafe_code)]
unsafe fn run<const W: usize, const N: usize>(
    wv: &mut [Word<W>],
    ents: &[Ent<N>],
    f: impl Fn([Word<W>; N]) -> Word<W>,
) {
    for e in ents {
        // SAFETY: the caller guarantees every slot is in bounds.
        let x = e.pins.map(|p| unsafe { *wv.get_unchecked(p as usize) });
        // SAFETY: as above.
        unsafe { *wv.get_unchecked_mut(e.out as usize) = f(x) };
    }
}

impl Sweep {
    /// Levelizes `dev`'s tape and groups it into runs. `table_off` and
    /// `ctables` are each LUT's compact table slice start and pristine
    /// compact table.
    ///
    /// # Panics
    ///
    /// Panics if the tape names a wire past the device's wires, which
    /// `Device::compile` never produces.
    pub(crate) fn new(dev: &Device, table_off: &[u32], ctables: &[u16]) -> Self {
        let n_wires = dev.pristine.wires().len();
        let n_luts = dev.luts.len();

        // A slot per LUT: its output wire, or one past the wires.
        let mut slots = n_wires;
        let mut lut_out = vec![NONE; n_luts];
        for op in dev.tape.iter().filter(|op| op.kind == NodeKind::Lut) {
            lut_out[op.target as usize] = if op.out_wire == NO_WIRE {
                slots += 1;
                (slots - 1) as u32
            } else {
                op.out_wire
            };
        }
        // Which tape position drives each wire.
        let mut driver = vec![NONE; n_wires];
        for (pos, op) in dev.tape.iter().enumerate() {
            for w in dev.node_outputs(op) {
                driver[w as usize] = pos as u32;
            }
        }
        // Levels: the tape is in topological order.
        let mut level = vec![0u32; dev.tape.len()];
        for (pos, op) in dev.tape.iter().enumerate() {
            level[pos] = dev
                .node_inputs(op)
                .iter()
                .filter_map(|&w| {
                    let d = driver[w as usize];
                    (d != NONE).then(|| level[d as usize] + 1)
                })
                .max()
                .unwrap_or(0);
        }
        let n_levels = level.iter().max().map_or(0, |&l| l as usize + 1);

        // Classes in tape order, and per level (class, polarity, slot,
        // pins, table, arity) of every LUT the level evaluates.
        let mut sites: Vec<Option<LutSite>> = vec![None; n_luts];
        type Node = (Op, u8, u32, [u32; 4], u16, u8);
        let mut by_level: Vec<Vec<Node>> = vec![Vec::new(); n_levels];
        for (pos, op) in dev.tape.iter().enumerate() {
            if op.kind != NodeKind::Lut {
                continue;
            }
            let li = op.target as usize;
            let out = lut_out[li];
            let (class, pol, read) = classify_on_read_pins(op.arity, ctables[li]);
            sites[li] = Some(LutSite {
                level: level[pos],
                out,
                pins: op.pins,
                arity: op.arity,
                table_off: table_off[li],
                op: class,
            });
            // A class reads the pins its table depends on, the generic
            // mux tree all of them.
            let mut pins = op.pins;
            if class != Op::Generic {
                for (j, &t) in read.iter().enumerate() {
                    pins[j] = op.pins[t];
                }
            }
            by_level[level[pos] as usize].push((class, pol, out, pins, ctables[li], op.arity));
        }
        let luts: Vec<LutSite> = sites.into_iter().flatten().collect();
        assert_eq!(luts.len(), n_luts, "every LUT is on the tape");

        let mut brams_by_level: Vec<Vec<u32>> = vec![Vec::new(); n_levels];
        for (pos, op) in dev.tape.iter().enumerate() {
            if op.kind == NodeKind::Bram {
                brams_by_level[level[pos] as usize].push(op.target);
            }
        }
        let mut sweep = Sweep {
            slots,
            levels: Vec::with_capacity(n_levels),
            runs: Vec::new(),
            e0: Vec::new(),
            e1: Vec::new(),
            e2: Vec::new(),
            e3: Vec::new(),
            e4: Vec::new(),
            generic: Vec::new(),
            brams: Vec::new(),
            luts,
        };
        // Each level: runs sorted by (class, polarity, slot), then the
        // generic LUTs, then the memory reads.
        for (mut nodes, brams) in by_level.into_iter().zip(brams_by_level) {
            nodes.sort_by_key(|&(op, pol, out, ..)| (op, pol, out));
            let runs_from = sweep.runs.len() as u32;
            let generic_from = sweep.generic.len() as u32;
            for group in nodes.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
                let (op, pol) = (group[0].0, group[0].1);
                if op == Op::Generic {
                    sweep
                        .generic
                        .extend(
                            group
                                .iter()
                                .map(|&(_, _, out, pins, ctable, arity)| GenericEnt {
                                    out,
                                    pins,
                                    ctable,
                                    arity,
                                }),
                        );
                    continue;
                }
                let start = sweep.entries_len(op);
                for &(_, _, out, pins, ..) in group {
                    sweep.push_entry(op, out, pins);
                }
                let end = sweep.entries_len(op);
                sweep.runs.push(Run {
                    op,
                    pol,
                    start,
                    end,
                });
            }
            let brams_from = sweep.brams.len() as u32;
            sweep.brams.extend(brams);
            sweep.levels.push(Level {
                runs: (runs_from, sweep.runs.len() as u32),
                generic: (generic_from, sweep.generic.len() as u32),
                brams: (brams_from, sweep.brams.len() as u32),
            });
        }
        sweep.validate();
        sweep
    }

    /// No LUT overridden: the fix-ups of a pristine engine.
    pub(crate) fn fixups(&self) -> Fixups {
        Fixups {
            wide: vec![false; self.luts.len()],
            levels: vec![Vec::new(); self.levels.len()],
        }
    }

    /// The slot a flip-flop with data input `data` reads.
    pub(crate) fn ff_slot(&self, data: FfData) -> u32 {
        match data {
            FfData::LutInternal(li) => self.luts[li as usize].out,
            FfData::Wire(w) => w,
        }
    }

    /// Slots the sweep reads and writes: the wires, then one per LUT
    /// without an output wire.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// The slot LUT `li` writes.
    pub(crate) fn lut_out(&self, li: usize) -> u32 {
        self.luts[li].out
    }

    /// The entry array length of `op`'s pin count.
    fn entries_len(&self, op: Op) -> u32 {
        (match op.pins() {
            0 => self.e0.len(),
            1 => self.e1.len(),
            2 => self.e2.len(),
            3 => self.e3.len(),
            _ => self.e4.len(),
        }) as u32
    }

    fn push_entry(&mut self, op: Op, out: u32, p: [u32; 4]) {
        match op.pins() {
            0 => self.e0.push(Ent { out, pins: [] }),
            1 => self.e1.push(Ent { out, pins: [p[0]] }),
            2 => self.e2.push(Ent {
                out,
                pins: [p[0], p[1]],
            }),
            3 => self.e3.push(Ent {
                out,
                pins: [p[0], p[1], p[2]],
            }),
            _ => self.e4.push(Ent { out, pins: p }),
        }
    }

    /// Checks every slot the class runs name against `slots`, which is
    /// what lets [`eval`](Self::eval) index them unchecked.
    fn validate(&self) {
        fn check<const N: usize>(ents: &[Ent<N>], slots: usize) {
            for e in ents {
                assert!(
                    (e.out as usize) < slots && e.pins.iter().all(|&p| (p as usize) < slots),
                    "sweep entry {e:?} names a slot past {slots}"
                );
            }
        }
        check(&self.e0, self.slots);
        check(&self.e1, self.slots);
        check(&self.e2, self.slots);
        check(&self.e3, self.slots);
        check(&self.e4, self.slots);
    }

    /// Evaluates every combinational node, level by level: each level's
    /// class runs, its generic LUTs, its memory reads (through `ports`
    /// from `brams`) and its `fixups`. `wv` holds one word per slot and
    /// `tables` the lane-word compact tables. The reads are inlined like
    /// the rest of the sweep, so they run at the caller's `LaneKernel`
    /// level.
    ///
    /// # Panics
    ///
    /// Panics if `wv` does not hold exactly [`slots`](Self::slots) words.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub(crate) fn eval<const W: usize>(
        &self,
        fixups: &Fixups,
        wv: &mut [Word<W>],
        tables: &[Word<W>],
        ports: &[BramPort],
        brams: &[LaneBram<W>],
    ) {
        assert_eq!(wv.len(), self.slots, "one word per sweep slot");
        let range = |(a, b): (u32, u32)| a as usize..b as usize;
        for (lv, fixup) in self.levels.iter().zip(&fixups.levels) {
            for r in &self.runs[range(lv.runs)] {
                let m = pol_masks::<W>(r.pol);
                let at = r.start as usize..r.end as usize;
                // SAFETY: `new` checked every slot of every entry against
                // `self.slots` (`validate`), the entries never change
                // after, and `wv` holds `self.slots` words (asserted
                // above).
                unsafe {
                    match r.op {
                        Op::Const => run(wv, &self.e0[at], |[]| m[4]),
                        Op::And1 => run(wv, &self.e1[at], |x| class_word(Op::And1, &m, |i| x[i])),
                        Op::And2 => run(wv, &self.e2[at], |x| class_word(Op::And2, &m, |i| x[i])),
                        Op::Xor2 => run(wv, &self.e2[at], |x| class_word(Op::Xor2, &m, |i| x[i])),
                        Op::And3 => run(wv, &self.e3[at], |x| class_word(Op::And3, &m, |i| x[i])),
                        Op::Xor3 => run(wv, &self.e3[at], |x| class_word(Op::Xor3, &m, |i| x[i])),
                        Op::MuxS0 => {
                            run(wv, &self.e3[at], |x| class_word(Op::MuxS0, &m, |i| x[i]));
                        }
                        Op::MuxS1 => {
                            run(wv, &self.e3[at], |x| class_word(Op::MuxS1, &m, |i| x[i]));
                        }
                        Op::MuxS2 => {
                            run(wv, &self.e3[at], |x| class_word(Op::MuxS2, &m, |i| x[i]));
                        }
                        Op::Maj3 => run(wv, &self.e3[at], |x| class_word(Op::Maj3, &m, |i| x[i])),
                        Op::And4 => run(wv, &self.e4[at], |x| class_word(Op::And4, &m, |i| x[i])),
                        Op::Generic => unreachable!("generic LUTs are not in runs"),
                    }
                }
            }
            for g in &self.generic[range(lv.generic)] {
                let v = eval_lut_lanes(
                    |k| Word::splat((g.ctable >> k) & 1 == 1),
                    g.arity,
                    &g.pins,
                    wv,
                );
                wv[g.out as usize] = v;
            }
            for &b in &self.brams[range(lv.brams)] {
                brams[b as usize].read(&ports[b as usize], wv);
            }
            for &li in fixup {
                let s = &self.luts[li as usize];
                let ct = &tables[s.table_off as usize..];
                let v = eval_lut_lanes(|k| ct[k], s.arity, &s.pins, wv);
                wv[s.out as usize] = v;
            }
        }
    }

    /// The pristine class of LUT `li`.
    pub(crate) fn lut_class(&self, li: usize) -> Op {
        self.luts[li].op
    }

    /// The sweep's shape (`brams` memory read ports).
    pub(crate) fn shape(&self, brams: usize) -> SweepShape {
        SweepShape {
            nodes: self.luts.len() + brams,
            levels: self.levels.len(),
            runs: self.runs.len(),
        }
    }
}

#[cfg(test)]
impl Sweep {
    /// Every evaluation the sweep can make, in sweep order, as `(level,
    /// slots written, slots read)`: the class runs' and generic LUTs'
    /// entries, the memory reads (given each block's output and address
    /// wires) and every LUT as a fix-up would evaluate it (from its own
    /// pins).
    pub(crate) fn schedule(
        &self,
        bram_wires: &[(Vec<u32>, Vec<u32>)],
    ) -> Vec<(u32, Vec<u32>, Vec<u32>)> {
        let mut out = Vec::new();
        let range = |(a, b): (u32, u32)| a as usize..b as usize;
        for (l, lv) in self.levels.iter().enumerate() {
            let l = l as u32;
            for r in &self.runs[range(lv.runs)] {
                let at = r.start as usize..r.end as usize;
                let ents: Vec<(u32, Vec<u32>)> = match r.op.pins() {
                    0 => self.e0[at]
                        .iter()
                        .map(|e| (e.out, e.pins.to_vec()))
                        .collect(),
                    1 => self.e1[at]
                        .iter()
                        .map(|e| (e.out, e.pins.to_vec()))
                        .collect(),
                    2 => self.e2[at]
                        .iter()
                        .map(|e| (e.out, e.pins.to_vec()))
                        .collect(),
                    3 => self.e3[at]
                        .iter()
                        .map(|e| (e.out, e.pins.to_vec()))
                        .collect(),
                    _ => self.e4[at]
                        .iter()
                        .map(|e| (e.out, e.pins.to_vec()))
                        .collect(),
                };
                out.extend(ents.into_iter().map(|(o, p)| (l, vec![o], p)));
            }
            for g in &self.generic[range(lv.generic)] {
                out.push((l, vec![g.out], g.pins[..g.arity as usize].to_vec()));
            }
            for &b in &self.brams[range(lv.brams)] {
                let (douts, addr) = &bram_wires[b as usize];
                out.push((l, douts.clone(), addr.clone()));
            }
            for s in self.luts.iter().filter(|s| s.level == l) {
                out.push((l, vec![s.out], s.pins[..s.arity as usize].to_vec()));
            }
        }
        out
    }
}
