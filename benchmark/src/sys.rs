//! The few host facts the benchmark reads from the OS: which CPU to pin to,
//! process CPU time and context switches, and peak resident memory.
//!
//! `getrusage(RUSAGE_SELF)` is the only source that sums over every thread
//! the process ever had, including actor threads that have already exited,
//! which is what a thread-per-actor simulator needs.

#[cfg(target_os = "linux")]
mod imp {
    /// Words in the kernel's `cpu_set_t` (1,024 CPUs).
    const CPU_SET_WORDS: usize = 16;

    /// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    struct RawRusage {
        utime_sec: i64,
        utime_usec: i64,
        stime_sec: i64,
        stime_usec: i64,
        /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
        /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
        longs: [i64; 14],
    }

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    }

    pub fn pin_to_one_cpu() -> Option<u32> {
        let mut mask = [0u64; CPU_SET_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 means the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        // The highest allowed CPU: CPU 0 takes most interrupts and whatever
        // else the box runs.
        let (word, bits) = mask
            .iter()
            .enumerate()
            .rev()
            .find(|(_, bits)| **bits != 0)
            .map(|(w, bits)| (w, *bits))?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one = [0u64; CPU_SET_WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of exactly the size passed and is
        // only read by the call.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
        (rc == 0).then_some((word * 64 + bit) as u32)
    }

    pub fn rusage() -> super::Rusage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` has the layout of `struct rusage` on 64-bit Linux and
        // outlives the call; 0 is RUSAGE_SELF.
        let rc = unsafe { getrusage(0, &mut raw) };
        if rc != 0 {
            return super::Rusage::default();
        }
        super::Rusage {
            user_s: raw.utime_sec as f64 + raw.utime_usec as f64 / 1e6,
            sys_s: raw.stime_sec as f64 + raw.stime_usec as f64 / 1e6,
            voluntary_switches: raw.longs[12].max(0) as u64,
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_one_cpu() -> Option<u32> {
        None
    }

    pub fn rusage() -> super::Rusage {
        super::Rusage::default()
    }
}

/// Process-wide resource use so far (all threads, live or exited).
#[derive(Clone, Copy, Debug, Default)]
pub struct Rusage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches (`ru_nvcsw`): a thread blocked.
    pub voluntary_switches: u64,
}

/// Restrict this process (and every thread it later spawns) to a single
/// CPU. Returns the CPU chosen, or `None` where the platform has no such
/// call — the run is then unpinned and says so.
pub fn pin_to_one_cpu() -> Option<u32> {
    imp::pin_to_one_cpu()
}

/// Resource use of this process so far.
pub fn rusage() -> Rusage {
    imp::rusage()
}

/// A numeric field of `/proc/self/status` (`VmHWM` in kB, `Threads`).
pub fn proc_status(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}
