//! Per-thread CPU attribution from `/proc/self/task/*/stat`.
//!
//! Every thread of the process is read at each slice boundary of the
//! timed phase; the differences are grouped by thread-name prefix into
//! the layers of the alert path. A thread's CPU time is its scheduler
//! run time from `schedstat` (ns) where the kernel provides it, else its
//! `utime + stime` ticks: ticks are 10 ms, too coarse for 1 s slices.
//! The process total comes from `/proc/self/stat`, which also counts
//! threads that exited during the phase — the part no live thread
//! accounts for is reported as the unattributed share.

use std::collections::BTreeMap;

/// Nanoseconds per kernel clock tick of `utime`/`stime` (`USER_HZ` is
/// fixed at 100 on Linux for every architecture this runs on).
const NS_PER_TICK: u64 = 10_000_000;

/// The layer a thread's CPU is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// Gateway acceptor and connection workers (`gw-*`).
    Gateway,
    /// The intake pump draining the gateway into the host.
    Pump,
    /// Sharded-host workers (`simba-shard-*`).
    Shard,
    /// Delivery-ledger workers (`simba-ledger-*`).
    Ledger,
    /// The benchmark's own generator and control threads, and the main
    /// thread; never counted as service CPU.
    Bench,
    /// Anything else the process runs.
    Other,
}

/// Name of the thread the benchmark runs the intake pump on.
pub const PUMP_THREAD: &str = "simba-pump";

/// Prefix of every thread the benchmark itself spawns.
pub const BENCH_PREFIX: &str = "bench-";

/// Classifies a thread by its `comm` name. The main thread (tid == pid)
/// is the benchmark's control thread whatever its name.
pub fn group_of(comm: &str, is_main: bool) -> Group {
    if is_main || comm.starts_with(BENCH_PREFIX) {
        Group::Bench
    } else if comm.starts_with("gw-") {
        Group::Gateway
    } else if comm == PUMP_THREAD {
        Group::Pump
    } else if comm.starts_with("simba-shard-") {
        Group::Shard
    } else if comm.starts_with("simba-ledger-") {
        Group::Ledger
    } else {
        Group::Other
    }
}

/// Parses one `stat` line into `(comm, utime + stime)`.
///
/// `comm` sits between the first `(` and the *last* `)`: the name may
/// itself contain spaces and parentheses, so splitting on whitespace or
/// on the first `)` misreads every later field.
pub fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    // Fields after the comm start at field 3 (state); utime and stime
    // are fields 14 and 15.
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// The run time (ns) in a `schedstat` line: its first field.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// One reading of every live thread plus the process total.
#[derive(Debug, Clone, Default)]
pub struct CpuSample {
    /// tid → (comm, CPU ns).
    pub threads: BTreeMap<u32, (String, u64)>,
    /// Process-wide CPU ns (tick resolution), exited threads included.
    pub process: u64,
}

/// Reads the current per-thread and process CPU time.
pub fn sample() -> CpuSample {
    let mut out = CpuSample::default();
    if let Ok(line) = std::fs::read_to_string("/proc/self/stat") {
        out.process = parse_stat(&line).map_or(0, |(_, ticks)| ticks * NS_PER_TICK);
    }
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(line) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue; // the thread exited between listing and reading
        };
        if let Some((comm, ticks)) = parse_stat(&line) {
            let ns = std::fs::read_to_string(entry.path().join("schedstat"))
                .ok()
                .and_then(|l| parse_schedstat(&l))
                .unwrap_or(ticks * NS_PER_TICK);
            out.threads.insert(tid, (comm, ns));
        }
    }
    out
}

/// CPU ns spent between two samples, grouped by layer.
#[derive(Debug, Clone, Default)]
pub struct CpuWindow {
    /// ns per group.
    pub groups: BTreeMap<Group, u64>,
    /// Process-wide ns in the window.
    pub process: u64,
    /// Sum over live threads (the rest of `process` is unattributed).
    pub attributed: u64,
}

impl CpuWindow {
    /// Groups `end − start` per thread. Threads born inside the window
    /// count from zero.
    pub fn between(start: &CpuSample, end: &CpuSample) -> CpuWindow {
        let pid = std::process::id();
        let mut window = CpuWindow {
            process: end.process.saturating_sub(start.process),
            ..CpuWindow::default()
        };
        for (tid, (comm, ns)) in &end.threads {
            let before = start.threads.get(tid).map_or(0, |(_, t)| *t);
            let delta = ns.saturating_sub(before);
            *window
                .groups
                .entry(group_of(comm, *tid == pid))
                .or_default() += delta;
            window.attributed += delta;
        }
        window
    }

    /// ns charged to `group`.
    pub fn ns(&self, group: Group) -> u64 {
        self.groups.get(&group).copied().unwrap_or(0)
    }

    /// Service CPU: every live thread but the benchmark's own.
    pub fn service_ns(&self) -> u64 {
        self.attributed.saturating_sub(self.ns(Group::Bench))
    }

    /// Share of process CPU no live thread accounts for.
    pub fn unattributed_frac(&self) -> f64 {
        if self.process == 0 {
            return 0.0;
        }
        self.process.saturating_sub(self.attributed) as f64 / self.process as f64
    }
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(comm: &str, utime: u64, stime: u64) -> String {
        format!("4242 ({comm}) S 1 4242 4242 0 -1 4194560 100 0 0 0 {utime} {stime} 0 0 20 0 3 0 55 0 0")
    }

    #[test]
    fn plain_comm_parses() {
        assert_eq!(
            parse_stat(&line("gw-worker-0", 7, 3)),
            Some(("gw-worker-0".into(), 10))
        );
    }

    #[test]
    fn comm_with_spaces_and_parentheses_parses() {
        let parsed = parse_stat(&line("bench gen (0) )x(", 120, 5));
        assert_eq!(parsed, Some(("bench gen (0) )x(".into(), 125)));
        let parsed = parse_stat(&line(") S 1 2 3", 1, 2));
        assert_eq!(parsed, Some((") S 1 2 3".into(), 3)));
    }

    #[test]
    fn schedstat_gives_run_time() {
        assert_eq!(parse_schedstat("1104393 375353 9\n"), Some(1_104_393));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn truncated_line_is_rejected() {
        assert_eq!(parse_stat("12 (x) S 1 2"), None);
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn groups_follow_thread_name_prefixes() {
        assert_eq!(group_of("gw-acceptor", false), Group::Gateway);
        assert_eq!(group_of("simba-shard-001", false), Group::Shard);
        assert_eq!(group_of("simba-ledger-000", false), Group::Ledger);
        assert_eq!(group_of(PUMP_THREAD, false), Group::Pump);
        assert_eq!(group_of("bench-gen-1", false), Group::Bench);
        assert_eq!(group_of("perfbench", true), Group::Bench);
        assert_eq!(group_of("something", false), Group::Other);
    }

    #[test]
    fn window_charges_deltas_and_reports_unattributed() {
        let mut start = CpuSample {
            process: 100,
            ..CpuSample::default()
        };
        start.threads.insert(2, ("simba-shard-000".into(), 40));
        let mut end = CpuSample {
            process: 200,
            ..CpuSample::default()
        };
        end.threads.insert(2, ("simba-shard-000".into(), 90));
        end.threads.insert(3, ("bench-gen-0".into(), 30));
        let w = CpuWindow::between(&start, &end);
        assert_eq!(w.ns(Group::Shard), 50);
        assert_eq!(w.ns(Group::Bench), 30);
        assert_eq!(w.service_ns(), 50);
        assert!((w.unattributed_frac() - 0.2).abs() < 1e-9);
    }
}
