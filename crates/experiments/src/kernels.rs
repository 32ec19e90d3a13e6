//! Lane-engine kernel timings: one settle sweep, the memory reads within
//! it, one clock edge and one merge-key scan of the placed 8051 at every
//! lane-word width.
//!
//! A criterion mean over a few samples cannot rank two builds on a shared
//! host: one binary's mean settle moved by 2× between runs. The fastest of
//! many timings can, since interference only ever adds time. Each round
//! times every kernel once at every width, interleaved, so a slow spell of
//! the host lands on all of them alike, and the table reports each
//! kernel's fastest of [`ROUNDS`] rounds. Run it as `fades-experiments
//! kernels`.

use std::error::Error;
use std::time::Instant;

use fades_fpga::{
    BatchDevice, ConfigAccess, Device, LaneKernel, Mutation, SetReset, SweepShape, Word,
};

use crate::context::ExperimentContext;
use crate::tablefmt::TextTable;

/// Interleaved rounds each timing is the fastest of.
pub const ROUNDS: usize = 400;

/// Cycles run before the lanes are faulted, and after.
const WARM_CYCLES: usize = 64;
const FAULTED_CYCLES: usize = 16;

/// Faulty lanes given flip-flop flips before the timings (the rest stay
/// golden), on words that have that many.
const FLIPPED_LANES: usize = 300;

/// The fastest timings of one lane-word width, in nanoseconds.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Lanes per word (`64 * W`).
    pub lanes: usize,
    /// The instruction-set level the width runs at on this host.
    pub level: LaneKernel,
    /// One settle sweep.
    pub settle_ns: f64,
    /// The settle's memory reads: every block's read port once.
    pub read_ns: f64,
    /// One clock edge.
    pub edge_ns: f64,
    /// One `divergence_keys::<2>` scan of every faulty lane.
    pub scan_ns: f64,
}

/// The timings at every width.
#[derive(Debug, Clone)]
pub struct KernelTimings {
    /// One row per width, narrowest first.
    pub rows: Vec<KernelRow>,
    /// The settle sweep's shape (identical at every width).
    pub shape: SweepShape,
}

/// One width's engine, in the state every round starts from.
struct Bench<const W: usize> {
    base: BatchDevice<W>,
    faulty: Word<W>,
    row: KernelRow,
}

impl<const W: usize> Bench<W> {
    /// The engine `WARM_CYCLES` into the run, with one or two flip-flops
    /// flipped in each of the first `FLIPPED_LANES` faulty lanes, then
    /// `FAULTED_CYCLES` more cycles: the state a cohort's merge scan sees.
    fn new(dev: &Device) -> Result<Self, Box<dyn Error>> {
        let mut base = BatchDevice::<W>::new(dev).ok_or("the 8051 is not lane-encodable")?;
        for _ in 0..WARM_CYCLES {
            base.step();
        }
        let ffs: Vec<_> = base
            .lane(1)
            .readback_all_ffs()
            .into_iter()
            .map(|(cb, _)| cb)
            .collect();
        let lanes = BatchDevice::<W>::LANES;
        for lane in 1..lanes.min(FLIPPED_LANES + 1) {
            for k in 0..1 + lane % 2 {
                let cb = ffs[(lane * 7 + k * 13) % ffs.len()];
                let value = !base.peek_ff_lane(cb, lane).ok_or("no flip-flop")?;
                let mut dev = base.lane(lane);
                dev.apply(&Mutation::SetLsrDrive {
                    cb,
                    drive: SetReset::driving(value),
                })?;
                dev.apply(&Mutation::PulseLsr { cb })?;
            }
        }
        for _ in 0..FAULTED_CYCLES {
            base.step();
        }
        let mut faulty = Word::<W>::ZERO;
        for lane in 1..lanes {
            faulty.set_bit(lane, true);
        }
        Ok(Bench {
            base,
            faulty,
            row: KernelRow {
                lanes,
                level: LaneKernel::for_lanes(lanes),
                settle_ns: f64::INFINITY,
                read_ns: f64::INFINITY,
                edge_ns: f64::INFINITY,
                scan_ns: f64::INFINITY,
            },
        })
    }

    /// Times each kernel once, keeping the fastest. The settle and the
    /// reads run on the base engine, whose state they do not change; the
    /// edge runs on a settled copy, so every round starts from the same
    /// state.
    fn round(&mut self) {
        let ns = |t: Instant| t.elapsed().as_secs_f64() * 1e9;
        let t = Instant::now();
        self.base.settle();
        self.row.settle_ns = self.row.settle_ns.min(ns(t));
        let t = Instant::now();
        self.base.read_memories();
        self.row.read_ns = self.row.read_ns.min(ns(t));
        let mut edge = self.base.clone();
        let t = Instant::now();
        edge.clock_edge();
        self.row.edge_ns = self.row.edge_ns.min(ns(t));
        let t = Instant::now();
        let keys = self.base.divergence_keys::<2>(self.faulty);
        self.row.scan_ns = self.row.scan_ns.min(ns(t));
        std::hint::black_box(keys);
    }
}

/// Times the kernels over [`ROUNDS`] interleaved rounds.
///
/// # Errors
///
/// Fails if the placed 8051 cannot be configured or lane-encoded.
pub fn run(ctx: &ExperimentContext) -> Result<KernelTimings, Box<dyn Error>> {
    let dev = Device::configure(ctx.implementation().bitstream.clone())?;
    let mut w1 = Bench::<1>::new(&dev)?;
    let mut w2 = Bench::<2>::new(&dev)?;
    let mut w4 = Bench::<4>::new(&dev)?;
    let mut w8 = Bench::<8>::new(&dev)?;
    for _ in 0..ROUNDS {
        w1.round();
        w2.round();
        w4.round();
        w8.round();
    }
    Ok(KernelTimings {
        shape: w1.base.sweep_shape(),
        rows: vec![w1.row, w2.row, w4.row, w8.row],
    })
}

impl KernelTimings {
    /// The timings as a text table: µs per kernel, and the settle sweep's
    /// ns per combinational node.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&[
            "lanes",
            "level",
            "settle µs",
            "ns/node",
            "mem reads µs",
            "edge µs",
            "merge scan µs",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.lanes.to_string(),
                r.level.name().to_string(),
                format!("{:.2}", r.settle_ns / 1e3),
                format!("{:.2}", r.settle_ns / self.shape.nodes as f64),
                format!("{:.2}", r.read_ns / 1e3),
                format!("{:.2}", r.edge_ns / 1e3),
                format!("{:.2}", r.scan_ns / 1e3),
            ]);
        }
        t
    }
}
