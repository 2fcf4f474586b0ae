//! CPU time and peak memory of a process, read from `/proc`.

use std::fs;

/// `USER_HZ`: the unit of the times in `/proc/<pid>/stat`. Fixed at 100 by
/// the Linux ABI on every architecture this benchmark runs on.
const TICKS_PER_SECOND: f64 = 100.0;

/// Extracts `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After the command name come state (3), ppid (4) … utime is field 14 and
    // stime field 15: the 12th and 13th field counted from the state.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Extracts `VmHWM` (peak resident set) in MB from the text of
/// `/proc/<pid>/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1000.0)
}

fn proc_file(pid: Option<u32>, name: &str) -> Option<String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{name}"),
        None => format!("/proc/self/{name}"),
    };
    fs::read_to_string(path).ok()
}

/// CPU seconds used so far by this process plus the given worker processes
/// (a worker that has exited contributes nothing).
pub fn cpu_seconds(worker_pids: &[u32]) -> f64 {
    let own = proc_file(None, "stat")
        .and_then(|s| parse_cpu_seconds(&s))
        .unwrap_or(0.0);
    let workers: f64 = worker_pids
        .iter()
        .filter_map(|&pid| proc_file(Some(pid), "stat").and_then(|s| parse_cpu_seconds(&s)))
        .sum();
    own + workers
}

/// Peak resident set of this process plus that of every live worker, MB.
pub fn peak_rss_mb(worker_pids: &[u32]) -> f64 {
    let own = proc_file(None, "status")
        .and_then(|s| parse_peak_rss_mb(&s))
        .unwrap_or(0.0);
    let workers: f64 = worker_pids
        .iter()
        .filter_map(|&pid| proc_file(Some(pid), "status").and_then(|s| parse_peak_rss_mb(&s)))
        .sum();
    own + workers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_survives_hostile_command_names() {
        let stat = "4242 (evil) name (x)) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    250 50 0 0 20 0 9 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn peak_rss_reads_the_high_water_mark() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(51.2));
        assert_eq!(parse_peak_rss_mb("Name:\tbench\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb(&[]) > 0.0);
        assert!(cpu_seconds(&[u32::MAX]) >= 0.0);
    }
}
