//! CPU and memory of this process, read from procfs from the outside of
//! the system under test.

use std::collections::BTreeMap;
use std::fs;

/// Linux reports `/proc/<pid>/stat` CPU times in clock ticks of
/// `sysconf(_SC_CLK_TCK)`, which is 100 on every mainstream build.
const NANOS_PER_TICK: u64 = 10_000_000;

/// CPU (user + system) of the whole process, threads that already exited
/// included, in nanoseconds at clock-tick resolution.
pub fn process_cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) * NANOS_PER_TICK,
        _ => 0,
    }
}

/// On-CPU nanoseconds of the calling thread (scheduler accounting).
pub fn thread_cpu_ns() -> u64 {
    read_schedstat("/proc/thread-self/schedstat").unwrap_or(0)
}

fn read_schedstat(path: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
pub fn status_bytes(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            let rest = l.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Thread roles of the gateway, by the names its threads carry. The
/// kernel keeps 15 bytes of a thread name, so the prefixes are cut there.
const ROLES: [(&str, &str); 4] = [
    ("esp-gateway-con", "reader"),
    ("esp-gateway-sha", "worker"),
    ("esp-gateway-coo", "coordinator"),
    ("esp-gateway-acc", "accept"),
];

/// Per-thread CPU samples from `/proc/self/task`. Sampling repeatedly
/// keeps the last value seen of each thread, so a thread that exits
/// between samples loses at most one sampling interval. Gateway threads
/// are created by `Gateway::spawn` and joined by `Gateway::finish`, so a
/// sampler that lives for one gateway sees each thread's whole life.
#[derive(Debug, Default)]
pub struct ThreadSampler {
    /// tid → (role, on-CPU ns at the latest sample).
    threads: BTreeMap<u64, (&'static str, u64)>,
}

impl ThreadSampler {
    /// An empty sampler.
    pub fn new() -> ThreadSampler {
        ThreadSampler::default()
    }

    /// Read every gateway thread of this process once. Threads whose name
    /// carries no gateway role (the load generator, the observer, the
    /// main thread) are skipped.
    pub fn sample(&mut self) {
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return;
        };
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let role = match self.threads.get(&tid) {
                Some((role, _)) => *role,
                None => {
                    let comm = fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
                    match ROLES.iter().find(|(prefix, _)| comm.starts_with(prefix)) {
                        Some((_, role)) => role,
                        None => continue,
                    }
                }
            };
            let path = entry.path().join("schedstat");
            if let Some(ns) = path.to_str().and_then(read_schedstat) {
                let e = self.threads.entry(tid).or_insert((role, ns));
                e.1 = e.1.max(ns);
            }
        }
    }

    /// On-CPU nanoseconds per role, every role present.
    pub fn by_role(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> =
            ROLES.iter().map(|(_, role)| (*role, 0)).collect();
        for (role, ns) in self.threads.values() {
            *out.entry(role).or_default() += ns;
        }
        out
    }
}
