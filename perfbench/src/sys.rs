//! Process resource usage without dependencies: a `getrusage(2)` shim in
//! the style of `dcuda_net::poll`, plus a read of the resident set from
//! `/proc/self/statm`.

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals and fourteen
/// longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a properly aligned, writable `struct rusage` with the
    // Linux x86-64/aarch64 layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    r
}

/// User plus system CPU time consumed so far by every thread of this
/// process.
pub fn cpu_time() -> Duration {
    let r = rusage();
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(us(&r.ru_utime) + us(&r.ru_stime))
}

/// Peak resident set size of this process so far, in KiB.
pub fn max_rss_kb() -> u64 {
    rusage().ru_maxrss as u64
}

/// Current resident set size of this process, in KiB (0 where
/// `/proc/self/statm` is unreadable).
pub fn rss_kb() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    // Second field: resident pages. Pages are 4 KiB on the targets this
    // benchmark supports.
    statm
        .split_whitespace()
        .nth(1)
        .and_then(|p| p.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4)
}

/// Machine-wide CPU ticks `(stolen, total)` from `/proc/stat`: the time a
/// hypervisor ran other guests on this machine's virtual CPUs. `None`
/// where unreadable.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Hand the heap's free pages back to the kernel, in every malloc arena.
///
/// Worlds run on dozens of threads, which glibc spreads over several
/// arenas; pages a finished world freed stay resident in whichever arenas
/// its threads happened to use, so without this the peak resident set of
/// a run would depend on how earlier worlds were spread over arenas. The
/// benchmark calls it between worlds, so each starts from a trimmed heap,
/// as a fresh process would.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only releases free heap pages; it takes no
        // pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_time();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_time() > before);
        assert!(max_rss_kb() > 0);
        assert!(rss_kb() > 0);
    }
}
