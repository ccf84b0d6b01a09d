//! The two things `std` has no call for: thread placement and the process's
//! CPU time at nanosecond resolution. Both are Linux libc calls.
//!
//! Placement: the register workloads keep three to a dozen threads busy with
//! hand-offs that take a few microseconds each. The reference box is a
//! two-CPU virtual machine on which waking a thread on the *other* CPU costs
//! about 20 us (an inter-processor interrupt and a halted virtual CPU are both
//! exits to the hypervisor; a condition-variable round trip reads 40 us across
//! CPUs and 5 us on one), and that cost moves by a third with the host's load
//! for a quarter of an hour at a time. Spread over both CPUs, four fifths of
//! every operation is that wake-up: the benchmark then measures the
//! hypervisor, at a third of the throughput, and its runs disagree by more
//! than any bound. So a register workload runs on one CPU: every hand-off is
//! a context switch inside the guest, and the time of an operation is the
//! program's own.

use crate::procfs;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    /// `sched_setaffinity(2)`; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    /// `clock_gettime(2)`.
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU time (user + system) this process has used so far, threads that have
/// exited included, in nanoseconds. `/proc/self/stat` has the same quantity
/// in 10 ms ticks, which is too coarse for a half-second slice.
pub fn process_cpu_ns() -> u64 {
    let mut time = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `time` is a live, writable `timespec` of the layout the call
    // expects on 64-bit Linux, and the call writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the process CPU clock exists on every Linux");
    time.seconds as u64 * 1_000_000_000 + time.nanoseconds as u64
}

/// Restricts the calling thread to one CPU. Returns false if the kernel
/// refuses.
fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array and `cpusetsize` is its
    // exact size in bytes, which is all sched_setaffinity reads; pid 0 names
    // the calling thread, so no other process is touched.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Restricts the calling thread, and every thread it starts from now on, to
/// the last CPU this process may run on. Returns that CPU, or `None` if the
/// kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *procfs::allowed_cpus().ok()?.last()?;
    pin_current_thread(cpu).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 88_172_645_463_325_252u64;
        for _ in 0..20_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        let used = process_cpu_ns() - before;
        assert!(used > 1_000_000, "20 M xorshift rounds used only {used} ns");
    }
}
