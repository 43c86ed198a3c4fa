//! Process plumbing: CPU affinity, `/proc/self/status` counters and the
//! host description printed in every run header.
//!
//! Why the session workloads pin: the simulator passes one baton between OS
//! threads, so only one of them is ever runnable. Left to the kernel, the
//! baton hops between CPUs and every hand-off becomes a cross-CPU wake-up —
//! the same 64-rank run measured 0.9–4.1 s unpinned and 0.90–0.97 s pinned
//! on the 2-CPU reference box. Pinning removes that noise source; it is not
//! an optimisation of the system under test.

use std::fs;

/// glibc's `cpu_set_t`: 1024 bits.
const MASK_WORDS: usize = 16;
type CpuMask = [u64; MASK_WORDS];

// std already links libc; declaring the two symbols avoids a dependency.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn get_mask() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_mask(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// The calling thread's CPU affinity, remembered so that a pinned run can
/// release it again. Threads spawned later inherit whatever is in force
/// when they start, so pin before the first `Sim` boots.
pub struct Affinity {
    original: Option<CpuMask>,
}

impl Affinity {
    /// Read the affinity the process was started with.
    pub fn inherited() -> Affinity {
        Affinity {
            original: get_mask(),
        }
    }

    /// CPUs the process may run on.
    pub fn nproc(&self) -> usize {
        self.original.map_or(1, |m| {
            m.iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
                .max(1)
        })
    }

    /// Restrict the calling thread to the highest-numbered allowed CPU
    /// (CPU 0 takes most interrupts). Returns whether the kernel agreed.
    pub fn pin_one(&self) -> bool {
        let Some(orig) = self.original else {
            return false;
        };
        let Some(word) = orig.iter().rposition(|w| *w != 0) else {
            return false;
        };
        let bit = 63 - orig[word].leading_zeros();
        let mut one: CpuMask = [0; MASK_WORDS];
        one[word] = 1 << bit;
        set_mask(&one)
    }

    /// Give the calling thread its inherited affinity back.
    pub fn release(&self) -> bool {
        self.original.is_some_and(|m| set_mask(&m))
    }
}

/// One numeric field of `/proc/self/status` (`VmHWM: 1234 kB`, `Threads: 5`).
fn proc_status(field: &str) -> Option<u64> {
    fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// OS threads alive in this process right now.
pub fn os_threads() -> Option<u64> {
    proc_status("Threads")
}

/// `model, L2 per core, L3` — printed so that a number is never read
/// without the machine it was measured on.
pub fn describe_cpu() -> String {
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let cache = |idx: u32| {
        fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{idx}/size"
        ))
        .map_or_else(|_| "?".into(), |s| s.trim().to_string())
    };
    format!("{model}; L2 {} per core, L3 {} shared", cache(2), cache(3))
}
