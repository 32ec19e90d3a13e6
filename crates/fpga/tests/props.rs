//! Property-based tests for the FPGA substrate.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_fpga::{
    ArchParams, BatchDevice, Bitstream, BramId, CbConfig, CbCoord, ConfigAccess, Device, FfDSrc,
    Mutation, SetReset, WireConfig, WireDriver, WireId,
};
use proptest::prelude::*;

proptest! {
    /// A CB's LUT evaluation is exactly the configured truth table.
    #[test]
    fn cb_lut_eval_matches_table(table in any::<u16>(), pins in any::<[bool; 4]>()) {
        let cfg = CbConfig {
            lut_used: true,
            lut_table: table,
            ..CbConfig::default()
        };
        let mut idx = 0usize;
        for (i, &p) in pins.iter().enumerate() {
            if p { idx |= 1 << i; }
        }
        prop_assert_eq!(cfg.eval_lut(pins), (table >> idx) & 1 == 1);
    }

    /// Wire delay grows monotonically with injected fan-out and detours,
    /// and detours dominate fan-out per unit (paper §4.3).
    #[test]
    fn wire_delay_is_monotone(
        segments in 0u32..64,
        pts in 0u32..64,
        fanout in 0u32..64,
        detour in 0u32..16,
    ) {
        let arch = ArchParams::virtex1000_like();
        let mut w = WireConfig::new(WireDriver::CbLut(CbCoord::new(0, 0)));
        w.segments = segments;
        w.pass_transistors = pts;
        let base = w.delay_ns(&arch);
        w.extra_fanout = fanout;
        let with_fanout = w.delay_ns(&arch);
        w.detour_luts = detour;
        let with_both = w.delay_ns(&arch);
        prop_assert!(with_fanout >= base);
        prop_assert!(with_both >= with_fanout);
        if detour > 0 {
            // One detour LUT adds more than one fan-out load.
            prop_assert!(with_both - with_fanout > detour as f64 * arch.per_fanout_ns);
        }
    }

    /// Coordinate flattening round-trips for every grid position.
    #[test]
    fn coords_roundtrip(col in 0u16..192, row in 0u16..128) {
        let arch = ArchParams::virtex1000_like();
        let cb = CbCoord::new(col, row);
        let flat = cb.flat_index(arch.rows);
        prop_assert_eq!(CbCoord::from_flat_index(flat, arch.rows), cb);
    }

    /// Writing a LUT table through a mutation is exactly reflected in both
    /// the configuration memory and the readback path, and the ledger
    /// grows by one write plus one readback.
    #[test]
    fn lut_mutation_roundtrips(initial in any::<u16>(), new in any::<u16>()) {
        let mut bs = Bitstream::new(ArchParams::small());
        let a = bs.add_input("a", 1);
        let cb = CbCoord::new(3, 3);
        let out = bs
            .add_lut(cb, initial, [Some(a[0]), None, None, None])
            .unwrap();
        bs.add_output("y", &[out]).unwrap();
        let mut dev = Device::configure(bs).unwrap();
        dev.clear_ledger();
        dev.apply(&Mutation::SetLutTable { cb, table: new }).unwrap();
        prop_assert_eq!(dev.readback_lut_table(cb).unwrap(), new);
        prop_assert_eq!(dev.ledger().op_count(), 2);
    }

    /// Memory bit mutations flip exactly the addressed bit.
    #[test]
    fn bram_bit_mutation_is_precise(word in any::<u8>(), bit in 0u32..8) {
        let mut bs = Bitstream::new(ArchParams::small());
        let addr = bs.add_input("addr", 4);
        let dout = bs
            .add_bram("m", &addr, &[], None, 8, &[word as u64])
            .unwrap();
        bs.add_output("dout", &dout).unwrap();
        let mut dev = Device::configure(bs).unwrap();
        let bram = fades_fpga::BramId::from_index(0);
        let value = (word >> bit) & 1 == 0;
        dev.apply(&Mutation::SetBramBit { bram, addr: 0, bit, value }).unwrap();
        dev.set_input("addr", &[false; 4]).unwrap();
        dev.settle();
        prop_assert_eq!(dev.output_u64("dout").unwrap(), (word ^ (1 << bit)) as u64);
    }
}

#[test]
fn reset_restores_pristine_configuration_after_any_mutation() {
    let mut bs = Bitstream::new(ArchParams::small());
    let a = bs.add_input("a", 1);
    let cb = CbCoord::new(1, 1);
    let out = bs
        .add_lut(cb, 0x5555, [Some(a[0]), None, None, None])
        .unwrap();
    bs.add_output("y", &[out]).unwrap();
    let mut dev = Device::configure(bs).unwrap();
    dev.apply(&Mutation::SetLutTable { cb, table: 0x0000 })
        .unwrap();
    dev.reset();
    assert_eq!(dev.bitstream().cb(cb).unwrap().lut_table, 0x5555);
}

/// The full 16-entry truth table of a LUT whose connected pins are
/// `pins` (ascending) and whose compact table (bit `j` of the index is
/// the `j`-th connected pin) is `compact`.
fn full_table(compact: u16, pins: &[u8]) -> u16 {
    (0..16).fold(0, |table, i| {
        let k = pins
            .iter()
            .enumerate()
            .fold(0, |k, (j, &pin)| k | ((i >> pin) & 1) << j);
        table | ((compact >> k) & 1) << i
    })
}

/// A small sequential design in which every configuration cell a
/// mutation can write matters: LUTs of arity 0 to 4 with flip-flop
/// feedback, flip-flops fed through their LUT and directly, a writable
/// memory block read by logic, and routed wires of varied delay. Its
/// pristine LUTs fall in every op class of the lane engine (see
/// `mixed_design_reaches_every_op_class`). Returns the configuration and
/// its used blocks.
fn mixed_design() -> (Bitstream, Vec<CbCoord>) {
    let mut bs = Bitstream::new(ArchParams::small());
    let a = bs.add_input("a", 1)[0];
    let cbs: Vec<CbCoord> = (0..6u16)
        .map(|i| CbCoord::new(i * 2, (i * 5) % 16))
        .collect();
    let tables = [0x6996, 0xE8E8, 0x1E1E, 0x9669, 0x00FF, 0x5A5A];
    let luts: Vec<WireId> = cbs
        .iter()
        .zip(tables)
        .map(|(&cb, t)| bs.place_lut(cb, t).unwrap())
        .collect();
    let qs: Vec<WireId> = cbs
        .iter()
        .enumerate()
        .map(|(i, &cb)| bs.place_ff(cb, i % 2 == 0).unwrap())
        .collect();
    for (i, &cb) in cbs.iter().enumerate() {
        // Pin sets of every size, some with gaps.
        let pins: &[(u8, WireId)] = match i {
            0 => &[(0, qs[0]), (1, qs[5]), (2, a), (3, qs[3])],
            1 => &[(0, qs[1]), (2, luts[0])],
            2 => &[(1, qs[2]), (2, qs[1]), (3, luts[1])],
            3 => &[(3, qs[3])],
            4 => &[(0, qs[4]), (1, qs[2]), (3, luts[3])],
            _ => &[(0, qs[5]), (1, luts[4])],
        };
        for &(pin, w) in pins {
            bs.connect_lut_pin(cb, pin, w).unwrap();
        }
        let src = if i == 5 {
            FfDSrc::Direct(luts[2])
        } else {
            FfDSrc::LutOut
        };
        bs.connect_ff(cb, src).unwrap();
    }
    let dout = bs
        .add_bram(
            "m",
            &[qs[0], qs[1], qs[2]],
            &[luts[0], luts[4]],
            Some(qs[3]),
            2,
            &[1, 2, 3, 0, 2, 1, 3, 0],
        )
        .unwrap();
    let reader = CbCoord::new(13, 7);
    bs.add_lut(reader, 0x6666, [Some(dout[0]), None, Some(dout[1]), None])
        .unwrap();
    let q_reader = bs.add_ff(reader, true, FfDSrc::LutOut).unwrap();
    let constant = CbCoord::new(14, 1);
    let one = bs.add_lut(constant, 0xFFFF, [None; 4]).unwrap();
    let q_const = bs.add_ff(constant, false, FfDSrc::Direct(one)).unwrap();
    // One block per remaining op class, each LUT feeding its own
    // flip-flop: (compact table, connected pins), some with gaps. The
    // functions name the connected pins a, b, c, d in pin order.
    let classed: [(u16, &[(u8, WireId)]); 9] = [
        // a | !b
        (0xB, &[(1, qs[1]), (3, qs[4])]),
        // a & !b & c
        (0x20, &[(0, qs[2]), (1, a), (2, qs[5])]),
        // !a & b & c & !d
        (0x40, &[(0, qs[0]), (1, qs[1]), (2, qs[2]), (3, qs[3])]),
        // a ^ b
        (0x6, &[(0, qs[4]), (3, a)]),
        // !(a ^ b ^ c)
        (0x69, &[(1, qs[0]), (2, qs[3]), (3, luts[2])]),
        // a ? b : c
        (0xD8, &[(0, qs[5]), (1, qs[1]), (2, qs[2])]),
        // b ? a : c
        (0xB8, &[(0, qs[3]), (2, a), (3, qs[0])]),
        // c ? a : b
        (0xAC, &[(0, qs[2]), (1, luts[5]), (3, qs[4])]),
        // maj(!a, b, c)
        (0xD4, &[(0, qs[1]), (1, qs[3]), (2, qs[5])]),
    ];
    let mut class_cbs = Vec::new();
    let mut class_qs = Vec::new();
    for (k, &(compact, pins)) in classed.iter().enumerate() {
        let cb = CbCoord::new(1 + k as u16, 12);
        let pin_ids: Vec<u8> = pins.iter().map(|&(pin, _)| pin).collect();
        bs.place_lut(cb, full_table(compact, &pin_ids)).unwrap();
        for &(pin, w) in pins {
            bs.connect_lut_pin(cb, pin, w).unwrap();
        }
        class_qs.push(bs.place_ff(cb, k % 2 == 1).unwrap());
        bs.connect_ff(cb, FfDSrc::LutOut).unwrap();
        class_cbs.push(cb);
    }
    for wi in 0..bs.wires().len() {
        let w = WireId::from_index(wi);
        bs.set_routing(w, (wi as u32 * 7) % 11, wi as u32 % 5, (0, 15))
            .unwrap();
    }
    let mut q = qs.clone();
    q.extend([q_reader, q_const]);
    q.extend(class_qs);
    bs.add_output("q", &q).unwrap();
    bs.add_output("d", &dout).unwrap();
    let mut used = cbs;
    used.extend([reader, constant]);
    used.extend(class_cbs);
    (bs, used)
}

/// The lane engine gives `mixed_design`'s pristine LUTs every op class,
/// generic included, so the lane properties below exercise each one.
#[test]
fn mixed_design_reaches_every_op_class() {
    let (bs, _) = mixed_design();
    let dev = Device::configure(bs).unwrap();
    let batch = BatchDevice::<1>::new(&dev).unwrap();
    let classes: Vec<&str> = batch.lut_op_counts().iter().map(|&(c, _)| c).collect();
    assert_eq!(
        classes,
        [
            "const", "and1", "and2", "and3", "and4", "xor2", "xor3", "mux_s0", "mux_s1", "mux_s2",
            "maj3", "generic"
        ]
    );
}

/// LUT nodes the lane engine evaluates on the wide (lane-word table)
/// path.
fn wide_luts<const W: usize>(batch: &BatchDevice<W>) -> usize {
    batch
        .lut_op_counts()
        .iter()
        .find(|&&(class, _)| class == "wide")
        .map_or(0, |&(_, n)| n)
}

/// Block chosen by `k`: a used one, or (rarely) an unused block or a
/// coordinate off the grid.
fn pick_cb(used: &[CbCoord], k: u32) -> CbCoord {
    match k as usize % (used.len() + 2) {
        i if i < used.len() => used[i],
        i if i == used.len() => CbCoord::new(15, 15),
        _ => CbCoord::new(40, 3),
    }
}

/// Decodes one random step `(kind, a, b)` and performs it on `dev`:
/// every mutation kind (through `apply` or the full-download path), a
/// bulk set/reset write that may fail part way, a held set/reset line,
/// or a few clock cycles. Failures are part of the test: a write that
/// errors after touching a cell must still be undone by `reset`.
fn perform(dev: &mut Device, used: &[CbCoord], (kind, a, b): (u8, u32, u32)) {
    let cb = pick_cb(used, a);
    let n_wires = dev.bitstream().wires().len();
    let wire = WireId::from_index(a as usize % (n_wires + 1));
    let drive = SetReset::driving(b & 1 == 1);
    let mutation = match kind % 12 {
        0 => Mutation::SetLutTable {
            cb,
            table: b as u16,
        },
        1 => Mutation::SetInvertFfIn {
            cb,
            invert: b & 1 == 1,
        },
        2 => Mutation::SetLsrDrive { cb, drive },
        3 => Mutation::PulseLsr { cb },
        4 => Mutation::PulseGsr,
        5 => Mutation::SetBramBit {
            bram: BramId::from_index((b >> 8) as usize % 2),
            addr: a as usize % 10,
            bit: (b >> 1) % 3,
            value: b & 1 == 1,
        },
        6 => Mutation::SetWireFanout {
            wire,
            extra: b % 12_000,
        },
        7 => Mutation::SetWireDetour {
            wire,
            luts: b % 128,
        },
        8 => Mutation::ReRandomiseFf { cb, drive },
        9 => {
            let drives: Vec<(CbCoord, SetReset)> = a
                .to_le_bytes()
                .iter()
                .take(1 + b as usize % 4)
                .map(|&k| (pick_cb(used, k as u32), SetReset::driving(k & 1 == 1)))
                .collect();
            let _ = dev.bulk_set_lsr_drives(&drives);
            return;
        }
        10 => {
            let _ = dev.hold_lsr(cb);
            return;
        }
        _ => {
            dev.run(u64::from(b % 5));
            return;
        }
    };
    let _ = if a & 0x100 != 0 {
        dev.apply_via_full_download(&mutation)
    } else {
        dev.apply(&mutation)
    };
}

/// Steps both devices side by side, comparing every observable each
/// cycle.
fn assert_lockstep(dev: &mut Device, reference: &mut Device, cycles: u32) {
    for cycle in 0..cycles {
        assert_eq!(dev.state_hash(), reference.state_hash(), "cycle {cycle}");
        dev.settle();
        reference.settle();
        for port in ["q", "d"] {
            assert_eq!(
                dev.output_u64(port).unwrap(),
                reference.output_u64(port).unwrap(),
                "port {port}, cycle {cycle}"
            );
        }
        dev.clock_edge();
        reference.clock_edge();
    }
    assert_eq!(dev.state_snapshot(), reference.state_snapshot());
}

proptest! {
    /// `reset` undoes any sequence of reconfigurations and cycles —
    /// including writes that failed part way — exactly: configuration,
    /// static timing, state hash and behaviour all equal a device freshly
    /// configured from the pristine bitstream.
    #[test]
    fn reset_equals_a_fresh_device(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..40),
    ) {
        let (bs, used) = mixed_design();
        let mut dev = Device::configure(bs).unwrap();
        for &op in &ops {
            perform(&mut dev, &used, op);
        }
        dev.reset();
        let mut fresh = Device::configure(dev.pristine().clone()).unwrap();
        prop_assert!(dev.bitstream() == dev.pristine());
        prop_assert_eq!(dev.timing(), fresh.timing());
        prop_assert_eq!(dev.cycle(), 0);
        assert_lockstep(&mut dev, &mut fresh, 64);
    }

    /// The evaluation mirrors never drift from the live configuration:
    /// after any reconfiguration sequence the device steps exactly like a
    /// device configured from its current bitstream and restored to its
    /// current state.
    #[test]
    fn device_steps_like_its_own_bitstream(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..40),
    ) {
        let (bs, used) = mixed_design();
        let mut dev = Device::configure(bs).unwrap();
        dev.run(3);
        for &op in &ops {
            perform(&mut dev, &used, op);
        }
        let mut reference = Device::configure(dev.bitstream().clone()).unwrap();
        reference.restore_state(&dev.save_state());
        prop_assert_eq!(dev.timing(), reference.timing());
        assert_lockstep(&mut dev, &mut reference, 32);
    }
}

proptest! {
    /// The timing report stays exact through any sequence of routing
    /// writes, through writes restoring every wire, and through `reset`
    /// after a fault: after every step it equals a fresh analysis of the
    /// live configuration, whether the device re-ran the analysis or
    /// copied its pristine report. Overshoots equal to the pristine ones
    /// are what `timing_is_pristine` reports.
    #[test]
    fn timing_report_tracks_routing_writes(
        writes in proptest::collection::vec(
            (any::<bool>(), any::<u32>(), 0u32..128, any::<bool>()),
            1..16,
        ),
    ) {
        let (bs, _) = mixed_design();
        let mut dev = Device::configure(bs).unwrap();
        let pristine = dev.timing().clone();
        let n_wires = dev.bitstream().wires().len();
        let write = |dev: &mut Device, detour: bool, wire: WireId, amount: u32, full: bool| {
            let mutation = if detour {
                Mutation::SetWireDetour { wire, luts: amount }
            } else {
                Mutation::SetWireFanout { wire, extra: amount * 80 }
            };
            if full {
                dev.apply_via_full_download(&mutation).unwrap();
            } else {
                dev.apply(&mutation).unwrap();
            }
        };
        let check = |dev: &Device| -> Result<(), TestCaseError> {
            let fresh = Device::configure(dev.bitstream().clone()).unwrap();
            prop_assert_eq!(dev.timing(), fresh.timing());
            prop_assert_eq!(
                dev.timing_is_pristine(),
                fresh.timing().ff_overshoot_ns == pristine.ff_overshoot_ns
                    && fresh.timing().bram_overshoot_ns == pristine.bram_overshoot_ns
            );
            Ok(())
        };
        let wire = |w: u32| WireId::from_index(w as usize % n_wires);
        for &(detour, w, amount, full) in &writes {
            write(&mut dev, detour, wire(w), amount, full);
            check(&dev)?;
        }
        for &(detour, w, _, full) in writes.iter().rev() {
            write(&mut dev, detour, wire(w), 0, !full);
            check(&dev)?;
        }
        prop_assert_eq!(dev.timing(), &pristine);
        for &(detour, w, amount, full) in &writes {
            write(&mut dev, detour, wire(w), amount, full);
        }
        dev.reset();
        check(&dev)?;
        prop_assert_eq!(dev.timing(), &pristine);
    }
}

/// Lanes on the edges of the `u64` words a lane word spans; a width-`W`
/// engine uses those below `64 * W`.
const EDGE_LANES: [usize; 8] = [1, 63, 64, 127, 128, 255, 256, 511];

/// Decodes one random step `(kind, a, b)` for the lane engine and its
/// scalar twin: every mutation a lane can express (routing mutations
/// are scalar-only), bulk and held set/reset writes, and readbacks.
/// Returns what the step observed (readback values and errors) so both
/// sides can be compared.
fn perform_on(
    dev: &mut dyn ConfigAccess,
    used: &[CbCoord],
    (kind, a, b): (u8, u32, u32),
) -> String {
    let cb = pick_cb(used, a);
    let drive = SetReset::driving(b & 1 == 1);
    let mutation = match kind % 12 {
        0 => Mutation::SetLutTable {
            cb,
            table: b as u16,
        },
        1 => Mutation::SetInvertFfIn {
            cb,
            invert: b & 1 == 1,
        },
        2 => Mutation::SetLsrDrive { cb, drive },
        3 => Mutation::PulseLsr { cb },
        4 => Mutation::PulseGsr,
        5 => Mutation::SetBramBit {
            bram: BramId::from_index((b >> 8) as usize % 2),
            addr: a as usize % 10,
            bit: (b >> 1) % 3,
            value: b & 1 == 1,
        },
        6 => Mutation::ReRandomiseFf { cb, drive },
        7 => {
            let drives: Vec<(CbCoord, SetReset)> = a
                .to_le_bytes()
                .iter()
                .take(1 + b as usize % 4)
                .map(|&k| (pick_cb(used, k as u32), SetReset::driving(k & 1 == 1)))
                .collect();
            return format!("{:?}", dev.bulk_set_lsr_drives(&drives));
        }
        8 => return format!("{:?}", dev.hold_lsr(cb)),
        9 => return format!("{:?}", dev.readback_lut_table(cb)),
        10 => return format!("{:?}", dev.readback_ff(cb)),
        _ => {
            let bram = BramId::from_index((b >> 8) as usize % 2);
            return format!(
                "{:?} {:?}",
                dev.readback_bram_word(bram, a as usize % 10),
                dev.readback_all_ffs()
            );
        }
    };
    format!(
        "{:?}",
        if a & 0x100 != 0 {
            dev.apply_via_full_download(&mutation)
        } else {
            dev.apply(&mutation)
        }
    )
}

/// Drives a width-`W` lane engine and one scalar device per edge lane
/// through the same steps — each step lands on one lane, so the lanes
/// diverge from each other — and checks every tracked lane against its
/// scalar twin each cycle: ports, state snapshot, configuration and
/// state divergence, and ledger. Lane 0 must stay the golden run.
fn lanes_track_scalar<const W: usize>(steps: &[(u8, u8, u32, u32)]) {
    let (bs, used) = mixed_design();
    let mut golden = Device::configure(bs.clone()).unwrap();
    let mut batch = BatchDevice::<W>::new(&golden).unwrap();
    let lanes: Vec<usize> = EDGE_LANES
        .iter()
        .copied()
        .filter(|&l| l < BatchDevice::<W>::LANES)
        .collect();
    // Configuring charges a full download; lane ledgers start empty.
    let mut twins: Vec<Device> = lanes
        .iter()
        .map(|_| {
            let mut twin = Device::configure(bs.clone()).unwrap();
            twin.clear_ledger();
            twin
        })
        .collect();
    for &(pick, kind, a, b) in steps {
        if kind % 16 >= 12 {
            // A few cycles, in lockstep.
            for _ in 0..b % 5 {
                batch.settle();
                golden.settle();
                for (twin, &lane) in twins.iter_mut().zip(&lanes) {
                    twin.settle();
                    for port in ["q", "d"] {
                        assert_eq!(
                            batch.output_u64_lane(port, lane).unwrap(),
                            twin.output_u64(port).unwrap(),
                            "W={W}, lane {lane}, port {port}"
                        );
                    }
                }
                for port in ["q", "d"] {
                    assert_eq!(
                        batch.output_u64_lane(port, 0).unwrap(),
                        golden.output_u64(port).unwrap()
                    );
                }
                batch.clock_edge();
                golden.clock_edge();
                for twin in &mut twins {
                    twin.clock_edge();
                }
            }
        } else {
            let k = pick as usize % lanes.len();
            let on_lane = perform_on(&mut batch.lane(lanes[k]), &used, (kind, a, b));
            let on_twin = perform_on(&mut twins[k], &used, (kind, a, b));
            assert_eq!(
                on_lane, on_twin,
                "W={W}, lane {}: step {kind} {a} {b}",
                lanes[k]
            );
        }
        let state = batch.state_divergence();
        let config = batch.config_divergence();
        for (twin, &lane) in twins.iter().zip(&lanes) {
            assert_eq!(
                batch.state_snapshot_lane(lane),
                twin.state_snapshot(),
                "W={W}, lane {lane}"
            );
            assert_eq!(
                state.bit(lane),
                twin.state_snapshot() != golden.state_snapshot(),
                "W={W}, lane {lane}: state divergence"
            );
            assert_eq!(
                config.bit(lane),
                !twin.config_behaviourally_pristine(),
                "W={W}, lane {lane}: config divergence"
            );
            assert_eq!(
                batch.ledger(lane),
                twin.ledger(),
                "W={W}, lane {lane}: ledger"
            );
        }
        assert_eq!(batch.state_snapshot_lane(0), golden.state_snapshot());
        assert!(!config.bit(0) && !state.bit(0));
        // Exactly the LUTs some lane overrides leave their op class for
        // the wide path.
        let overridden = used
            .iter()
            .filter(|&&cb| {
                let pristine = bs.cb(cb).unwrap().lut_table;
                twins
                    .iter()
                    .any(|t| t.bitstream().cb(cb).unwrap().lut_table != pristine)
            })
            .count();
        assert_eq!(wide_luts(&batch), overridden, "W={W}: wide LUTs");
    }
}

proptest! {
    /// The lane engine at every word width is the scalar device, lane by
    /// lane, on the lanes at the edges of its `u64` words — including
    /// readbacks, ledgers and the divergence masks retirement reads.
    #[test]
    fn lane_words_track_the_scalar_device(
        steps in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>()),
            1..60,
        ),
    ) {
        lanes_track_scalar::<1>(&steps);
        lanes_track_scalar::<2>(&steps);
        lanes_track_scalar::<4>(&steps);
        lanes_track_scalar::<8>(&steps);
    }
}

/// A memory block whose write enable, address and data come from
/// flip-flops that hold their value (one data bit toggles every cycle
/// instead), so each lane's read and write address is whatever its
/// flip-flops were set to. Returns the configuration, the enable and
/// address flip-flops (address LSB first) and the held data flip-flop.
fn held_port_memory() -> (Bitstream, CbCoord, Vec<CbCoord>, CbCoord) {
    let mut bs = Bitstream::new(ArchParams::small());
    let hold = |bs: &mut Bitstream, cb: CbCoord, init: bool| {
        let q = bs.place_ff(cb, init).unwrap();
        bs.connect_ff(cb, FfDSrc::Direct(q)).unwrap();
        q
    };
    let we_cb = CbCoord::new(0, 0);
    let we = hold(&mut bs, we_cb, true);
    let addr_cbs: Vec<CbCoord> = (0..4).map(|i| CbCoord::new(1 + i, 0)).collect();
    let addr: Vec<WireId> = addr_cbs
        .iter()
        .map(|&cb| hold(&mut bs, cb, false))
        .collect();
    let din_cb = CbCoord::new(5, 0);
    let held_din = hold(&mut bs, din_cb, false);
    let toggle_cb = CbCoord::new(6, 0);
    bs.place_lut(toggle_cb, 0x5555).unwrap();
    let toggle = bs.place_ff(toggle_cb, false).unwrap();
    bs.connect_lut_pin(toggle_cb, 0, toggle).unwrap();
    bs.connect_ff(toggle_cb, FfDSrc::LutOut).unwrap();
    let contents: Vec<u64> = (0..16).map(|k| k % 4).collect();
    let dout = bs
        .add_bram("m", &addr, &[toggle, held_din], Some(we), 2, &contents)
        .unwrap();
    bs.add_output("d", &dout).unwrap();
    let mut q = vec![we, held_din, toggle];
    q.extend(&addr);
    bs.add_output("q", &q).unwrap();
    (bs, we_cb, addr_cbs, din_cb)
}

/// Sets one flip-flop's state through the set/reset line.
fn force_ff(dev: &mut dyn ConfigAccess, cb: CbCoord, value: bool) {
    dev.apply(&Mutation::SetLsrDrive {
        cb,
        drive: SetReset::driving(value),
    })
    .unwrap();
    dev.apply(&Mutation::PulseLsr { cb }).unwrap();
}

/// Every lane of a width-`W` engine against its own scalar device, with
/// most lanes reading and writing one of a few shared addresses that
/// differ from the golden lane's, some on the golden address with a
/// different write enable, and three lanes on addresses no other lane
/// uses. Compares ports each cycle and state snapshots after each edge.
fn shared_memory_addresses_track_the_scalar_device<const W: usize>() {
    let (bs, we_cb, addr_cbs, din_cb) = held_port_memory();
    let lanes = BatchDevice::<W>::LANES;
    let unique = [(33, 7), (lanes / 2 - 1, 10), (lanes - 1, 2)];
    let mut batch = BatchDevice::<W>::new(&Device::configure(bs.clone()).unwrap()).unwrap();
    let mut twins: Vec<Device> = (0..lanes)
        .map(|_| {
            let mut twin = Device::configure(bs.clone()).unwrap();
            twin.clear_ledger();
            twin
        })
        .collect();
    for (lane, twin) in twins.iter_mut().enumerate().skip(1) {
        let addr = unique
            .iter()
            .find(|&&(l, _)| l == lane)
            .map_or([3, 11, 6, 14, 0][lane % 5], |&(_, a)| a);
        let mut sets = vec![(we_cb, lane % 3 != 0), (din_cb, lane % 2 == 1)];
        sets.extend(
            addr_cbs
                .iter()
                .enumerate()
                .map(|(k, &cb)| (cb, (addr >> k) & 1 == 1)),
        );
        for (cb, value) in sets {
            force_ff(&mut batch.lane(lane), cb, value);
            force_ff(twin, cb, value);
        }
    }
    for cycle in 0..6 {
        batch.settle();
        for (lane, twin) in twins.iter_mut().enumerate() {
            twin.settle();
            for port in ["d", "q"] {
                assert_eq!(
                    batch.output_u64_lane(port, lane).unwrap(),
                    twin.output_u64(port).unwrap(),
                    "W={W}, cycle {cycle}, lane {lane}, port {port}"
                );
            }
        }
        batch.clock_edge();
        for (lane, twin) in twins.iter_mut().enumerate() {
            twin.clock_edge();
            assert_eq!(
                batch.state_snapshot_lane(lane),
                twin.state_snapshot(),
                "W={W}, cycle {cycle}, lane {lane}: state"
            );
            assert_eq!(batch.ledger(lane), twin.ledger(), "W={W}, lane {lane}");
        }
    }
}

#[test]
fn lanes_sharing_diverged_memory_addresses_track_the_scalar_device() {
    shared_memory_addresses_track_the_scalar_device::<1>();
    shared_memory_addresses_track_the_scalar_device::<8>();
}
