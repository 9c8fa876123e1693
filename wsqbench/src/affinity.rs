//! Fixed thread placement: a run keeps all its threads on one CPU.
//!
//! The sizing box is a 2-vCPU guest on a busy host. A wake-up that stays
//! on a vCPU costs ~4 µs; one that crosses vCPUs costs ~50 µs when the
//! host is quiet and milliseconds when it is not (the sleeping vCPU has
//! to be scheduled by the host first). Left alone, the guest scheduler
//! decides per process, and keeps to it, whether the pump's thread
//! shares the caller's vCPU — identical runs of `fanout_warm_cpu` read
//! ~1 330 or ~2 100 queries/s — and with the threads apart a busy host
//! cut `server_two_sessions` from 9 000 to 200 ops/s. Neither says
//! anything about the program. On one CPU every hand-off is the cheap,
//! steady kind and what is left is CPU time, which `speed.rs` corrects.
//!
//! The price: nothing here can show a parallel speed-up, or the true
//! cost of a cross-core hand-off (README "Blind spots").

/// Restrict the calling thread, and so every thread spawned after it,
/// to the last CPU (CPU 0 takes most of a guest's interrupts). Call
/// before anything spawns. Best effort: returns whether it took effect.
pub fn pin_to_one_cpu() -> bool {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    (2..=64).contains(&cpus) && set_mask(1u64 << (cpus - 1))
}

#[cfg(target_os = "linux")]
fn set_mask(mask: u64) -> bool {
    extern "C" {
        // From the C library std already links; declared here because
        // the container has no `libc` crate.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `mask` is a live, aligned u64 and `cpusetsize` is its size
    // in bytes, which is all sched_setaffinity(2) reads; pid 0 means the
    // calling thread. The call does not retain the pointer.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_mask(_mask: u64) -> bool {
    false
}
