//! Simulator-command forces (the VFIT injection mechanism).

use crate::net::NetId;

/// How a force alters the value of its target net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForceKind {
    /// Hold the net at a fixed value.
    Stuck(bool),
    /// Invert whatever value the net's driver produces, every cycle.
    Flip,
}

impl ForceKind {
    /// Applies the force to a driven value.
    pub fn apply(self, driven: bool) -> bool {
        match self {
            ForceKind::Stuck(v) => v,
            ForceKind::Flip => !driven,
        }
    }
}

/// A simulator-command force on a net.
///
/// This models the `force`/`release` commands VHDL simulators expose, which
/// is exactly how the VFIT baseline injects faults: the simulation is
/// stopped at the injection instant, the signal is forced, and the
/// simulation resumes; at fault expiry the signal is released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Force {
    /// Target net.
    pub net: NetId,
    /// Effect on the target.
    pub kind: ForceKind,
}

impl Force {
    /// Force the net to a fixed value.
    pub fn stuck(net: NetId, value: bool) -> Self {
        Force {
            net,
            kind: ForceKind::Stuck(value),
        }
    }

    /// Invert the net's driven value.
    pub fn flip(net: NetId) -> Self {
        Force {
            net,
            kind: ForceKind::Flip,
        }
    }

    /// Value the net takes given what its driver produced.
    pub fn value(&self, driven: bool) -> bool {
        self.kind.apply(driven)
    }
}
