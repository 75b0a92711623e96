//! The process as the kernel sees it: `/proc/self` readers (peak RSS,
//! CPU time, context switches) and the CPU pin. Linux only, no
//! dependency; a missing or unparsable file reads as 0 so the benchmark
//! still runs elsewhere (and the row is visibly wrong).

use std::fs;

/// `USER_HZ`: the unit of `/proc/self/stat` times. 100 on every Linux
/// ABI this repo builds for; asking `sysconf` would need a libc binding.
const TICKS_PER_S: f64 = 100.0;

fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of the process, MB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&text, "VmHWM") as f64 / 1024.0
}

/// User + system CPU seconds of the whole process, exited threads
/// included.
pub fn cpu_seconds() -> f64 {
    let text = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the ')'.
    let Some((_, rest)) = text.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_S
}

/// Voluntary + involuntary context switches summed over the threads
/// alive right now (`/proc/self/status` alone covers the main thread
/// only). Take both ends of a delta while the same threads live.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|task| {
            let text = fs::read_to_string(task.path().join("status")).unwrap_or_default();
            status_field(&text, "voluntary_ctxt_switches")
                + status_field(&text, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// glibc's own `cpu_set_t`: 1024 CPUs.
const CPUS: usize = 1024;
type CpuSet = [u64; CPUS / 64];

/// The CPUs the calling thread may run on, ascending; empty when the
/// kernel will not say.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        }
        let mut set: CpuSet = [0; CPUS / 64];
        // SAFETY: `set` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..CPUS)
            .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }
    #[cfg(not(target_os = "linux"))]
    Vec::new()
}

/// Restricts the calling thread, and with it every thread it starts
/// afterwards, to `cpus`; false when the kernel refuses.
///
/// The benchmark runs on one CPU ([`pin_to_one_cpu`]). On the reference
/// box's two shared vCPUs a wake-up that crosses CPUs waits on the
/// hypervisor: unpinned, `live_closed` runs at 25 k req/s and 70 µs with
/// ±10 % between runs; with the clients on one CPU and the server on the
/// other it does the same; on one CPU the same seven threads do 100 k
/// req/s and 18 µs with ±1 %, and that is the tier's own code. One CPU
/// is also what the live tier's sleep-burn workers were built for.
pub fn restrict_to(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mut set: CpuSet = [0; CPUS / 64];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < CPUS) {
            set[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `set` is a live buffer of exactly the byte length
        // passed and is only read; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpus;
        false
    }
}

/// Pins the calling thread to the highest-numbered of `allowed` (CPU 0
/// takes the interrupts); returns that CPU. Call before any thread is
/// spawned.
pub fn pin_to_one_cpu(allowed: &[usize]) -> Option<usize> {
    let cpu = *allowed.last()?;
    restrict_to(&[cpu]).then_some(cpu)
}
