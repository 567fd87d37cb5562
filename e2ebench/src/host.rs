//! Host-side readings: process CPU time, peak resident memory, and the
//! loopback interface's byte counter.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// (`ru_maxrss`, in KiB, is the first).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `r` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, which is all getrusage(2) writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    r
}

fn tv(t: &Timeval) -> Duration {
    Duration::from_secs(t.sec as u64) + Duration::from_micros(t.usec as u64)
}

/// User + system CPU time of the whole process, every thread included.
pub fn cpu_time() -> Duration {
    let r = rusage();
    tv(&r.utime) + tv(&r.stime)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().longs[0] as f64 / 1024.0
}

/// Bytes the loopback interface has transmitted, if the kernel exposes
/// the counter (`/proc/net/dev`).
pub fn loopback_tx_bytes() -> Option<u64> {
    let dev = std::fs::read_to_string("/proc/net/dev").ok()?;
    dev.lines().find_map(|line| {
        let (name, counters) = line.split_once(':')?;
        if name.trim() != "lo" {
            return None;
        }
        // rx: bytes packets errs drop fifo frame compressed multicast,
        // then tx: bytes ...
        counters.split_whitespace().nth(8)?.parse().ok()
    })
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
