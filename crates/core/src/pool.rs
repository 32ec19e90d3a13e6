//! A campaign's idle engines, kept between calls (DESIGN.md §5, *Engine
//! lifetime*).
//!
//! A lane engine's lane state and a scalar device's clone of the
//! configured device are fresh allocations, which a short call pays for
//! again and again. So a call checks its engines out of its campaign's
//! pool and hands back the ones that finished cleanly, and the next call
//! reuses them. Every pass starts from `BatchDevice::restore_broadcast`
//! or `BatchDevice::reset`, and every experiment from `Device::reset`, so
//! a reused engine gives the results a fresh one would.
//!
//! The pool is bounded so that idle engines hold little memory: it keeps
//! at most as many idle lane engines as the campaign has workers, and as
//! many idle devices, and a call that finds no idle lane engine of its
//! word width first drops the idle lane engines of the other widths.

use std::any::{Any, TypeId};
use std::sync::{Mutex, PoisonError};

use fades_fpga::Device;

/// What the pool bounds together: lane engines of every width, or scalar
/// devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Lanes,
    Scalar,
}

fn class_of(kind: TypeId) -> Class {
    if kind == TypeId::of::<Device>() {
        Class::Scalar
    } else {
        Class::Lanes
    }
}

/// One idle engine and the type it is.
struct Idle {
    kind: TypeId,
    engine: Box<dyn Any + Send>,
}

/// The idle engines of one campaign.
pub(crate) struct EnginePool {
    /// The most idle engines kept per class.
    cap: usize,
    idle: Mutex<Vec<Idle>>,
}

impl std::fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("EnginePool")
            .field("cap", &self.cap)
            .field("idle", &idle.len())
            .finish()
    }
}

impl EnginePool {
    /// An empty pool keeping at most `cap` idle engines per class.
    pub(crate) fn new(cap: usize) -> Self {
        EnginePool {
            cap: cap.max(1),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// An idle engine of type `T`, or `build()` when there is none. A
    /// miss drops the idle engines of `T`'s class first (lane engines of
    /// other widths), so that they are freed before the new engine is
    /// allocated.
    pub(crate) fn checkout<T: Any + Send>(&self, build: impl FnOnce() -> T) -> T {
        let kind = TypeId::of::<T>();
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(at) = idle.iter().rposition(|e| e.kind == kind) {
            let found = idle.swap_remove(at).engine.downcast::<T>();
            drop(idle);
            if let Ok(engine) = found {
                fades_telemetry::sim::ENGINE_REUSES.inc();
                return *engine;
            }
        } else {
            let class = class_of(kind);
            let (stale, keep) = std::mem::take(&mut *idle)
                .into_iter()
                .partition::<Vec<_>, _>(|e| class_of(e.kind) == class);
            *idle = keep;
            drop(idle);
            drop(stale);
        }
        fresh(build)
    }

    /// Keeps `engine` for a later call, unless its class already has as
    /// many idle engines as the pool keeps. The caller hands back only an
    /// engine that finished cleanly, with no lane's or experiment's
    /// fault left in it.
    pub(crate) fn checkin<T: Any + Send>(&self, engine: T) {
        let kind = TypeId::of::<T>();
        let class = class_of(kind);
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.iter().filter(|e| class_of(e.kind) == class).count() < self.cap {
            idle.push(Idle {
                kind,
                engine: Box::new(engine),
            });
        }
    }
}

/// An engine built by `build`, counted as a build: for a call that
/// needs a fresh engine in place of one it dropped.
pub(crate) fn fresh<T>(build: impl FnOnce() -> T) -> T {
    fades_telemetry::sim::ENGINE_BUILDS.inc();
    build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_len(pool: &EnginePool) -> usize {
        pool.idle.lock().unwrap().len()
    }

    /// Integers stand in for lane engines of two widths.
    #[test]
    fn the_pool_keeps_its_cap_and_a_miss_drops_the_other_widths() {
        let pool = EnginePool::new(2);
        for engine in [1u8, 2, 3] {
            pool.checkin(engine);
        }
        assert_eq!(idle_len(&pool), 2, "the third engine went over the cap");
        assert_eq!(
            pool.checkout(|| 0u8),
            2,
            "the last engine back goes out first"
        );
        assert_eq!(pool.checkout(|| 0u16), 0, "no idle engine of that width");
        assert_eq!(idle_len(&pool), 0, "the miss kept the other width");
        pool.checkin(7u16);
        assert_eq!(pool.checkout(|| 0u16), 7);
    }
}
