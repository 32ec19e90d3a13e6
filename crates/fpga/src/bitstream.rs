//! The configuration memory of a device: every LUT table, mux selection,
//! routing bit and memory word.

use crate::arch::ArchParams;
use crate::bram::BramConfig;
use crate::cb::{CbConfig, FfDSrc};
use crate::coords::{BramId, CbCoord, WireId};
use crate::error::FpgaError;
use crate::routing::{WireConfig, WireDriver, WireSink};

/// A named port of the configured design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortDef {
    /// Port name.
    pub name: String,
    /// Wires carrying the port bits, LSB first.
    pub wires: Vec<WireId>,
}

/// A full device configuration ("configuration file").
///
/// This is the artefact the synthesis-and-implementation flow
/// (`fades-pnr`) produces and the [`crate::Device`] executes. It is also
/// the unit of frame accounting: [`ArchParams::full_config_bytes`] is what
/// a bulk download moves.
#[derive(Debug, Clone, PartialEq)]
pub struct Bitstream {
    arch: ArchParams,
    cbs: Vec<CbConfig>,
    wires: Vec<WireConfig>,
    brams: Vec<BramConfig>,
    inputs: Vec<PortDef>,
    outputs: Vec<PortDef>,
}

impl Bitstream {
    /// Creates an empty configuration for the given architecture.
    pub fn new(arch: ArchParams) -> Self {
        Bitstream {
            arch,
            cbs: vec![CbConfig::default(); arch.cb_count()],
            wires: Vec::new(),
            brams: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The architecture this configuration targets.
    pub fn arch(&self) -> &ArchParams {
        &self.arch
    }

    /// All configurable blocks, column-major (see [`CbCoord::flat_index`]).
    pub fn cbs(&self) -> &[CbConfig] {
        &self.cbs
    }

    /// The configuration of one block.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::CoordOutOfRange`] if `cb` is outside the grid.
    pub fn cb(&self, cb: CbCoord) -> Result<&CbConfig, FpgaError> {
        if cb.col >= self.arch.cols || cb.row >= self.arch.rows {
            return Err(FpgaError::CoordOutOfRange(cb));
        }
        Ok(&self.cbs[cb.flat_index(self.arch.rows)])
    }

    /// Mutable access to one block's configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::CoordOutOfRange`] if `cb` is outside the grid.
    pub fn cb_mut(&mut self, cb: CbCoord) -> Result<&mut CbConfig, FpgaError> {
        if cb.col >= self.arch.cols || cb.row >= self.arch.rows {
            return Err(FpgaError::CoordOutOfRange(cb));
        }
        Ok(&mut self.cbs[cb.flat_index(self.arch.rows)])
    }

    /// All routed wires.
    pub fn wires(&self) -> &[WireConfig] {
        &self.wires
    }

    /// One wire's configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadWire`] if the id is out of range.
    pub fn wire(&self, wire: WireId) -> Result<&WireConfig, FpgaError> {
        self.wires.get(wire.index()).ok_or(FpgaError::BadWire(wire))
    }

    /// Mutable access to one wire's configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadWire`] if the id is out of range.
    pub fn wire_mut(&mut self, wire: WireId) -> Result<&mut WireConfig, FpgaError> {
        self.wires
            .get_mut(wire.index())
            .ok_or(FpgaError::BadWire(wire))
    }

    /// All memory blocks.
    pub fn brams(&self) -> &[BramConfig] {
        &self.brams
    }

    /// One memory block's configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadBram`] if the id is out of range.
    pub fn bram(&self, bram: BramId) -> Result<&BramConfig, FpgaError> {
        self.brams.get(bram.index()).ok_or(FpgaError::BadBram(bram))
    }

    /// Mutable access to one memory block.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadBram`] if the id is out of range.
    pub fn bram_mut(&mut self, bram: BramId) -> Result<&mut BramConfig, FpgaError> {
        self.brams
            .get_mut(bram.index())
            .ok_or(FpgaError::BadBram(bram))
    }

    /// Declared input ports.
    pub fn inputs(&self) -> &[PortDef] {
        &self.inputs
    }

    /// Declared output ports.
    pub fn outputs(&self) -> &[PortDef] {
        &self.outputs
    }

    fn new_wire(&mut self, driver: WireDriver) -> WireId {
        let id = WireId::from_index(self.wires.len());
        self.wires.push(WireConfig::new(driver));
        id
    }

    /// Declares an input port of `width` bits; returns the wires its bits
    /// drive.
    pub fn add_input(&mut self, name: impl Into<String>, width: usize) -> Vec<WireId> {
        let port = self.inputs.len() as u32;
        let wires: Vec<WireId> = (0..width)
            .map(|bit| {
                self.new_wire(WireDriver::PrimaryInput {
                    port,
                    bit: bit as u32,
                })
            })
            .collect();
        self.inputs.push(PortDef {
            name: name.into(),
            wires: wires.clone(),
        });
        wires
    }

    /// Declares an output port observing the given wires.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadWire`] if any wire id is out of range.
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        wires: &[WireId],
    ) -> Result<(), FpgaError> {
        let port = self.outputs.len() as u32;
        for (bit, &w) in wires.iter().enumerate() {
            self.wire_mut(w)?.sinks.push(WireSink::PrimaryOutput {
                port,
                bit: bit as u32,
            });
        }
        self.outputs.push(PortDef {
            name: name.into(),
            wires: wires.to_vec(),
        });
        Ok(())
    }

    /// Configures the LUT of a block and returns the wire its output
    /// drives.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::CoordOutOfRange`] for a bad coordinate,
    /// [`FpgaError::CbOccupied`] if the block's LUT is already used, or
    /// [`FpgaError::BadWire`] for a bad pin wire.
    pub fn add_lut(
        &mut self,
        cb: CbCoord,
        table: u16,
        pins: [Option<WireId>; 4],
    ) -> Result<WireId, FpgaError> {
        if self.cb(cb)?.lut_used {
            return Err(FpgaError::CbOccupied(cb));
        }
        for (pin, wire) in pins.iter().enumerate() {
            if let Some(w) = wire {
                self.wire_mut(*w)?
                    .sinks
                    .push(WireSink::LutPin { cb, pin: pin as u8 });
            }
        }
        let out = self.new_wire(WireDriver::CbLut(cb));
        let cfg = self.cb_mut(cb)?;
        cfg.lut_used = true;
        cfg.lut_table = table;
        cfg.lut_pins = pins;
        Ok(out)
    }

    /// Configures the flip-flop of a block and returns the wire its output
    /// drives.
    ///
    /// With [`FfDSrc::LutOut`] the FF registers the block's own LUT (which
    /// must already be configured); with [`FfDSrc::Direct`] it registers a
    /// routed wire.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::CoordOutOfRange`], [`FpgaError::CbOccupied`]
    /// if the FF is already used, [`FpgaError::ResourceUnused`] if
    /// `LutOut` is requested on a block without a LUT, or
    /// [`FpgaError::BadWire`] for a bad direct wire.
    pub fn add_ff(&mut self, cb: CbCoord, init: bool, d_src: FfDSrc) -> Result<WireId, FpgaError> {
        let cfg = self.cb(cb)?;
        if cfg.ff_used {
            return Err(FpgaError::CbOccupied(cb));
        }
        match d_src {
            FfDSrc::LutOut => {
                if !cfg.lut_used {
                    return Err(FpgaError::ResourceUnused(cb));
                }
            }
            FfDSrc::Direct(w) => {
                self.wire_mut(w)?.sinks.push(WireSink::FfDirect { cb });
            }
        }
        let out = self.new_wire(WireDriver::CbFf(cb));
        let cfg = self.cb_mut(cb)?;
        cfg.ff_used = true;
        cfg.ff_init = init;
        cfg.ff_d_src = d_src;
        Ok(out)
    }

    /// Configures a memory block; returns the wires its data outputs drive.
    ///
    /// `contents` supplies the initial words (missing words are zero).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::NoBramAvailable`] if all blocks are in use,
    /// [`FpgaError::BramTooLarge`] if the memory exceeds one block, or
    /// [`FpgaError::BadWire`] for a bad pin wire.
    pub fn add_bram(
        &mut self,
        name: impl Into<String>,
        addr_pins: &[WireId],
        din_pins: &[WireId],
        we_pin: Option<WireId>,
        width: u32,
        contents: &[u64],
    ) -> Result<Vec<WireId>, FpgaError> {
        if self.brams.len() >= self.arch.bram_blocks as usize {
            return Err(FpgaError::NoBramAvailable);
        }
        let depth = 1usize << addr_pins.len();
        let requested = depth * width as usize;
        if requested > self.arch.bram_bits as usize {
            return Err(FpgaError::BramTooLarge {
                requested,
                capacity: self.arch.bram_bits,
            });
        }
        let bram = BramId(self.brams.len() as u16);
        for (bit, &w) in addr_pins.iter().enumerate() {
            self.wire_mut(w)?.sinks.push(WireSink::BramAddr {
                bram,
                bit: bit as u32,
            });
        }
        for (bit, &w) in din_pins.iter().enumerate() {
            self.wire_mut(w)?.sinks.push(WireSink::BramDin {
                bram,
                bit: bit as u32,
            });
        }
        if let Some(w) = we_pin {
            self.wire_mut(w)?.sinks.push(WireSink::BramWe { bram });
        }
        let dout_wires: Vec<Option<WireId>> = (0..width)
            .map(|bit| Some(self.new_wire(WireDriver::BramDout { bram, bit })))
            .collect();
        let mut full = contents.to_vec();
        full.resize(depth, 0);
        self.brams.push(BramConfig {
            name: name.into(),
            addr_pins: addr_pins.to_vec(),
            din_pins: din_pins.to_vec(),
            dout_wires: dout_wires.clone(),
            we_pin,
            width,
            contents: full,
        });
        Ok(dout_wires.into_iter().flatten().collect())
    }

    /// Places a LUT without connecting its pins yet; returns the wire its
    /// output drives.
    ///
    /// The implementation flow creates every cell's output wire first and
    /// connects pins afterwards with [`connect_lut_pin`](Self::connect_lut_pin),
    /// which is how feedback through flip-flops is expressed.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::CoordOutOfRange`] or [`FpgaError::CbOccupied`].
    pub fn place_lut(&mut self, cb: CbCoord, table: u16) -> Result<WireId, FpgaError> {
        if self.cb(cb)?.lut_used {
            return Err(FpgaError::CbOccupied(cb));
        }
        let out = self.new_wire(WireDriver::CbLut(cb));
        let cfg = self.cb_mut(cb)?;
        cfg.lut_used = true;
        cfg.lut_table = table;
        Ok(out)
    }

    /// Places a flip-flop without connecting its data source yet; returns
    /// the wire its output drives. Complete with [`connect_ff`](Self::connect_ff).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::CoordOutOfRange`] or [`FpgaError::CbOccupied`].
    pub fn place_ff(&mut self, cb: CbCoord, init: bool) -> Result<WireId, FpgaError> {
        if self.cb(cb)?.ff_used {
            return Err(FpgaError::CbOccupied(cb));
        }
        let out = self.new_wire(WireDriver::CbFf(cb));
        let cfg = self.cb_mut(cb)?;
        cfg.ff_used = true;
        cfg.ff_init = init;
        Ok(out)
    }

    /// Places a memory block without connecting its pins yet; returns the
    /// wires its data outputs drive. Complete with
    /// [`connect_bram`](Self::connect_bram).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::NoBramAvailable`] or [`FpgaError::BramTooLarge`].
    pub fn place_bram(
        &mut self,
        name: impl Into<String>,
        addr_bits: usize,
        width: u32,
        contents: &[u64],
    ) -> Result<(BramId, Vec<WireId>), FpgaError> {
        if self.brams.len() >= self.arch.bram_blocks as usize {
            return Err(FpgaError::NoBramAvailable);
        }
        let depth = 1usize << addr_bits;
        let requested = depth * width as usize;
        if requested > self.arch.bram_bits as usize {
            return Err(FpgaError::BramTooLarge {
                requested,
                capacity: self.arch.bram_bits,
            });
        }
        let bram = BramId(self.brams.len() as u16);
        let dout_wires: Vec<Option<WireId>> = (0..width)
            .map(|bit| Some(self.new_wire(WireDriver::BramDout { bram, bit })))
            .collect();
        let mut full = contents.to_vec();
        full.resize(depth, 0);
        self.brams.push(BramConfig {
            name: name.into(),
            addr_pins: Vec::new(),
            din_pins: Vec::new(),
            dout_wires: dout_wires.clone(),
            we_pin: None,
            width,
            contents: full,
        });
        Ok((bram, dout_wires.into_iter().flatten().collect()))
    }

    /// Connects one LUT input pin of a placed LUT.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::ResourceUnused`] if no LUT is placed at `cb`,
    /// or [`FpgaError::BadWire`] for a bad wire id.
    pub fn connect_lut_pin(&mut self, cb: CbCoord, pin: u8, wire: WireId) -> Result<(), FpgaError> {
        if !self.cb(cb)?.lut_used {
            return Err(FpgaError::ResourceUnused(cb));
        }
        self.wire_mut(wire)?
            .sinks
            .push(WireSink::LutPin { cb, pin });
        self.cb_mut(cb)?.lut_pins[pin as usize] = Some(wire);
        Ok(())
    }

    /// Connects the data source of a placed flip-flop.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::ResourceUnused`] if no FF is placed at `cb` or
    /// `LutOut` is requested without a placed LUT, or
    /// [`FpgaError::BadWire`] for a bad wire id.
    pub fn connect_ff(&mut self, cb: CbCoord, src: FfDSrc) -> Result<(), FpgaError> {
        let cfg = self.cb(cb)?;
        if !cfg.ff_used {
            return Err(FpgaError::ResourceUnused(cb));
        }
        match src {
            FfDSrc::LutOut => {
                if !cfg.lut_used {
                    return Err(FpgaError::ResourceUnused(cb));
                }
            }
            FfDSrc::Direct(w) => {
                self.wire_mut(w)?.sinks.push(WireSink::FfDirect { cb });
            }
        }
        self.cb_mut(cb)?.ff_d_src = src;
        Ok(())
    }

    /// Connects the address, data-in and write-enable pins of a placed
    /// memory block.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadBram`] or [`FpgaError::BadWire`].
    pub fn connect_bram(
        &mut self,
        bram: BramId,
        addr: &[WireId],
        din: &[WireId],
        we: Option<WireId>,
    ) -> Result<(), FpgaError> {
        self.bram(bram)?;
        for (bit, &w) in addr.iter().enumerate() {
            self.wire_mut(w)?.sinks.push(WireSink::BramAddr {
                bram,
                bit: bit as u32,
            });
        }
        for (bit, &w) in din.iter().enumerate() {
            self.wire_mut(w)?.sinks.push(WireSink::BramDin {
                bram,
                bit: bit as u32,
            });
        }
        if let Some(w) = we {
            self.wire_mut(w)?.sinks.push(WireSink::BramWe { bram });
        }
        let b = self.bram_mut(bram)?;
        b.addr_pins = addr.to_vec();
        b.din_pins = din.to_vec();
        b.we_pin = we;
        Ok(())
    }

    /// Sets the routing metadata of a wire (segments, pass transistors and
    /// column span), as committed by the router.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadWire`] if the id is out of range.
    pub fn set_routing(
        &mut self,
        wire: WireId,
        segments: u32,
        pass_transistors: u32,
        col_span: (u16, u16),
    ) -> Result<(), FpgaError> {
        let w = self.wire_mut(wire)?;
        w.segments = segments;
        w.pass_transistors = pass_transistors;
        w.col_span = col_span;
        Ok(())
    }

    /// Columns that contain at least one used flip-flop (the GSR bit-flip
    /// strategy must read back and reconfigure all of them).
    pub fn ff_columns(&self) -> Vec<u16> {
        let mut cols: Vec<u16> = Vec::new();
        for col in 0..self.arch.cols {
            let used = (0..self.arch.rows)
                .any(|row| self.cbs[CbCoord::new(col, row).flat_index(self.arch.rows)].ff_used);
            if used {
                cols.push(col);
            }
        }
        cols
    }

    /// All coordinates whose flip-flop is in use.
    pub fn used_ffs(&self) -> Vec<CbCoord> {
        self.used_cbs(|c| c.ff_used)
    }

    /// All coordinates whose LUT is in use.
    pub fn used_luts(&self) -> Vec<CbCoord> {
        self.used_cbs(|c| c.lut_used)
    }

    /// All completely unused blocks (candidates for delay detours).
    pub fn unused_cbs(&self) -> Vec<CbCoord> {
        self.used_cbs(super::cb::CbConfig::is_unused)
    }

    fn used_cbs(&self, pred: impl Fn(&CbConfig) -> bool) -> Vec<CbCoord> {
        self.cbs
            .iter()
            .enumerate()
            .filter(|(_, c)| pred(c))
            .map(|(i, _)| CbCoord::from_flat_index(i, self.arch.rows))
            .collect()
    }

    /// Copies the listed blocks and wires (flat indices) and every memory
    /// block's contents back from `pristine`, a configuration with the
    /// same structure. Everything not listed must already equal it.
    pub(crate) fn restore_from(&mut self, pristine: &Bitstream, cbs: &[u32], wires: &[u32]) {
        for &i in cbs {
            self.cbs[i as usize] = pristine.cbs[i as usize];
        }
        for &i in wires {
            self.wires[i as usize].clone_from(&pristine.wires[i as usize]);
        }
        for (b, p) in self.brams.iter_mut().zip(&pristine.brams) {
            b.contents.copy_from_slice(&p.contents);
        }
    }

    /// Appends a fully-formed wire (configuration-file loading).
    pub(crate) fn push_raw_wire(&mut self, wire: WireConfig) {
        self.wires.push(wire);
    }

    /// Appends a fully-formed memory block (configuration-file loading).
    pub(crate) fn push_raw_bram(&mut self, bram: BramConfig) {
        self.brams.push(bram);
    }

    /// Appends a port definition (configuration-file loading).
    pub(crate) fn push_raw_port(&mut self, name: String, wires: Vec<WireId>, input: bool) {
        let def = PortDef { name, wires };
        if input {
            self.inputs.push(def);
        } else {
            self.outputs.push(def);
        }
    }

    /// Resource utilisation: (used LUTs, used FFs, memory blocks).
    pub fn utilisation(&self) -> (usize, usize, usize) {
        let luts = self.cbs.iter().filter(|c| c.lut_used).count();
        let ffs = self.cbs.iter().filter(|c| c.ff_used).count();
        (luts, ffs, self.brams.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupied_cb_is_rejected() {
        let mut bs = Bitstream::new(ArchParams::small());
        let cb = CbCoord::new(1, 1);
        let a = bs.add_input("a", 1);
        bs.add_lut(cb, 0x5555, [Some(a[0]), None, None, None])
            .unwrap();
        let err = bs.add_lut(cb, 0xAAAA, [Some(a[0]), None, None, None]);
        assert_eq!(err, Err(FpgaError::CbOccupied(cb)));
    }

    #[test]
    fn ff_on_lutless_cb_requires_direct_source() {
        let mut bs = Bitstream::new(ArchParams::small());
        let cb = CbCoord::new(0, 0);
        assert_eq!(
            bs.add_ff(cb, false, FfDSrc::LutOut),
            Err(FpgaError::ResourceUnused(cb))
        );
        let a = bs.add_input("a", 1);
        assert!(bs.add_ff(cb, false, FfDSrc::Direct(a[0])).is_ok());
    }

    #[test]
    fn bram_capacity_is_enforced() {
        let mut bs = Bitstream::new(ArchParams::small());
        let addr = bs.add_input("addr", 10);
        // 1024 x 8 = 8192 bits > 4096-bit block.
        let err = bs.add_bram("m", &addr, &[], None, 8, &[]);
        assert!(matches!(err, Err(FpgaError::BramTooLarge { .. })));
    }
}
