//! Coordinates of FPGA resources.

use std::fmt;
use std::num::NonZeroU32;

/// Position of a configurable block on the device grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CbCoord {
    /// Column (0-based, left to right).
    pub col: u16,
    /// Row (0-based, top to bottom).
    pub row: u16,
}

impl CbCoord {
    /// Creates a coordinate.
    pub fn new(col: u16, row: u16) -> Self {
        CbCoord { col, row }
    }

    /// Flat index into a column-major CB array with `rows` rows per column.
    pub fn flat_index(self, rows: u16) -> usize {
        self.col as usize * rows as usize + self.row as usize
    }

    /// Inverse of [`flat_index`](Self::flat_index).
    pub fn from_flat_index(index: usize, rows: u16) -> Self {
        CbCoord {
            col: (index / rows as usize) as u16,
            row: (index % rows as usize) as u16,
        }
    }

    /// Manhattan distance to another CB, in grid units.
    pub fn manhattan(self, other: CbCoord) -> u32 {
        self.col.abs_diff(other.col) as u32 + self.row.abs_diff(other.row) as u32
    }
}

impl fmt::Display for CbCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CB({},{})", self.col, self.row)
    }
}

/// Identifier of a routed wire (one per logical net after implementation).
///
/// Holds its index plus one, so that an `Option<WireId>` takes no more
/// room than the id: a configurable block names up to five wires, and a
/// bitstream holds every block of the device, used or not.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WireId(NonZeroU32);

impl WireId {
    /// Raw dense index (see [`crate::Bitstream::wires`]).
    pub fn index(self) -> usize {
        self.0.get() as usize - 1
    }

    /// Creates a `WireId` from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is `u32::MAX` or more.
    pub fn from_index(index: usize) -> Self {
        u32::try_from(index)
            .ok()
            .and_then(|i| i.checked_add(1))
            .and_then(NonZeroU32::new)
            .map_or_else(|| panic!("wire index {index} out of range"), WireId)
    }

    /// The index as the `u32` the compiled tape stores.
    pub(crate) fn raw(self) -> u32 {
        self.0.get() - 1
    }
}

impl fmt::Debug for WireId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("WireId").field(&self.raw()).finish()
    }
}

impl fmt::Display for WireId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.raw())
    }
}

/// Identifier of an embedded memory block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BramId(pub(crate) u16);

impl BramId {
    /// Raw dense index (see [`crate::Bitstream::brams`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `BramId` from a raw index.
    pub fn from_index(index: usize) -> Self {
        BramId(index as u16)
    }
}

impl fmt::Display for BramId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BRAM{}", self.0)
    }
}
