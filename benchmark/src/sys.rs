//! What the benchmark reads from the operating system: process CPU time,
//! peak resident memory, and an allocation count for the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Words in the kernel's `cpu_set_t`: 1 024 CPUs.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, lowest first.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, which
    // is the size of the kernel's `cpu_set_t`; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..CPU_SET_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Keep the calling thread, and every thread it starts from now on, on `cpu`.
pub fn pin_to(cpu: usize) {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed; pid 0
    // is the calling thread; the call changes scheduling and no memory.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity to CPU {cpu} failed");
}

/// User + system CPU time of every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target) and the clock id is a constant the
    // kernel defines; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Time the host took the CPUs in `cpus` away from this machine since boot
/// (the `steal` column of `/proc/stat`), summed over them, in nanoseconds.
/// The kernel counts it in hundredths of a second.
pub fn stolen_ns(cpus: &[usize]) -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: u64 = stat
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_ascii_whitespace();
            let cpu: usize = fields.next()?.strip_prefix("cpu")?.parse().ok()?;
            // user nice system idle iowait irq softirq steal
            let steal: u64 = fields.nth(7)?.parse().ok()?;
            cpus.contains(&cpu).then_some(steal)
        })
        .sum();
    ticks * 10_000_000
}

/// `VmHWM` from `/proc/self/status`: the peak resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The system allocator with a switchable counter in front. Counting is off
/// except inside [`count_allocations`], so the measured runs pay one relaxed
/// load per allocation and nothing else.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s own contract is what callers get; the counters are
// plain atomics and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f` with allocation counting on; returns `(allocations, bytes)` made
/// by every thread of the process while it ran.
pub fn count_allocations(f: impl FnOnce()) -> (u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        ALLOCS.load(Ordering::Relaxed) - a0,
        ALLOC_BYTES.load(Ordering::Relaxed) - b0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() > t0);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_stolen_time_never_runs_backwards() {
        // On a thread of its own: the pin is inherited only by threads
        // started from it.
        std::thread::spawn(|| {
            let cpus = allowed_cpus();
            assert!(!cpus.is_empty());
            let before = stolen_ns(&cpus);
            let last = *cpus.last().expect("at least one CPU");
            pin_to(last);
            assert_eq!(allowed_cpus(), vec![last]);
            assert!(stolen_ns(&cpus) >= before);
        })
        .join()
        .expect("pinning thread");
    }
}
