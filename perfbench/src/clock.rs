//! Process clocks read from outside the simulator: on-CPU time and peak
//! resident memory.
//!
//! The fleet runs its devices on worker threads that exit before the run
//! returns, so the CPU clock is the whole process's: it keeps the time of
//! exited threads and has nanosecond resolution, where `/proc/self/stat`
//! only counts scheduler ticks.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// `struct timespec` as glibc and musl lay it out on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// On-CPU nanoseconds the process has used so far, all threads included.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout,
    // and `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux supports CLOCK_PROCESS_CPUTIME_ID");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Wall and on-CPU time of one measured interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct Elapsed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// On-CPU seconds of the process.
    pub cpu_s: f64,
}

impl std::ops::Add for Elapsed {
    type Output = Elapsed;

    fn add(self, other: Elapsed) -> Elapsed {
        Elapsed {
            wall_s: self.wall_s + other.wall_s,
            cpu_s: self.cpu_s + other.cpu_s,
        }
    }
}

/// Runs `f`, returning its result with the wall and on-CPU time it took.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Elapsed) {
    let cpu0 = cpu_ns();
    let wall0 = Instant::now();
    let out = f();
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_s = (cpu_ns() - cpu0) as f64 / 1e9;
    (out, Elapsed { wall_s, cpu_s })
}

/// Runs `f` and adds the wall nanoseconds it took to `acc`: the span timer
/// of the traced pass.
pub fn span<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_nanos() as u64;
    out
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kib / 1024.0
}
