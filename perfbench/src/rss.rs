//! Peak resident memory of the benchmark and of the workers it waited for.

/// `struct rusage` on 64-bit Linux: two `timeval`s (four `long`s) followed
/// by fourteen `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    fields: [i64; 18],
}

const RU_MAXRSS: usize = 4;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// The benchmark process's own high-water mark (`VmHWM`), in MiB.
pub fn own_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .map_or(0.0, |kib: f64| kib / 1024.0)
}

/// The largest peak RSS among the terminated children this process waited
/// for (the fabric's `shard_worker`s), in MiB. A child spawned with vfork
/// semantics starts out counting this process's RSS at spawn time, so the
/// figure is at least that; it only matters when a worker peaks higher.
pub fn workers_peak_mib() -> f64 {
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: `usage` is a writable buffer of the size and alignment of the
    // kernel's `struct rusage` on 64-bit Linux, which is all `getrusage`
    // requires; it writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.fields[RU_MAXRSS] as f64 / 1024.0
    } else {
        0.0
    }
}
