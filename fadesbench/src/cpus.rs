//! Which CPUs the benchmark's own thread runs on.
//!
//! On the reference machine each vCPU slows down by up to 2× while
//! another tenant shares its physical core, for stretches of seconds to
//! minutes and independently of the other vCPU. The scheduler keeps a
//! busy thread where it is, so a single-threaded run can spend all of its
//! time on the slowed vCPU. Moving the thread to the next CPU every round
//! gives every piece of work repeats on each CPU, and the fastest repeat
//! (see [`crate::stats::fastest`]) the chance of a CPU at full speed.

/// 64-bit words of the CPU mask passed to the kernel: 1024 CPUs, the
/// size of a glibc `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// The CPUs this thread may run on, ascending; empty where the set cannot
/// be read.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    if !sys::get(&mut mask) {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and the threads it spawns from now on,
/// to `cpus`. Best effort: when the kernel refuses, the thread stays
/// where it may already run.
pub fn pin(cpus: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    sys::set(&mask);
}

#[cfg(target_os = "linux")]
mod sys {
    use super::MASK_WORDS;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get(mask: &mut [u64; MASK_WORDS]) -> bool {
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        unsafe { sched_getaffinity(0, std::mem::size_of_val(mask), mask.as_mut_ptr()) == 0 }
    }

    pub fn set(mask: &[u64; MASK_WORDS]) {
        // SAFETY: `mask` is a live buffer of exactly the size passed, only
        // read by the call, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::MASK_WORDS;

    pub fn get(_mask: &mut [u64; MASK_WORDS]) -> bool {
        false
    }

    pub fn set(_mask: &[u64; MASK_WORDS]) {}
}
