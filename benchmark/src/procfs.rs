//! CPU time and resident memory of a process, read from `/proc`.
//!
//! Linux only, std only. CPU time is `utime + stime` of
//! `/proc/<pid>/stat` in clock ticks; `USER_HZ` is 100 on every Linux
//! ABI, which is what [`TICKS_PER_S`] assumes (there is no libc here to
//! ask `sysconf`). The numbers count every thread, dead ones included.

use std::fs;

const TICKS_PER_S: f64 = 100.0;

/// `/proc/<who>/...` selector: this process, this thread, or a child.
#[derive(Clone, Copy, Debug)]
pub enum Who {
    Me,
    /// The calling thread only (`/proc/thread-self`).
    ThisThread,
    Pid(u32),
}

impl Who {
    fn dir(self) -> String {
        match self {
            Who::Me => "/proc/self".to_string(),
            Who::ThisThread => "/proc/thread-self".to_string(),
            Who::Pid(pid) => format!("/proc/{pid}"),
        }
    }
}

/// CPU seconds (user + system) consumed so far, or `None` if the process
/// is gone or `/proc` is not what we expect.
pub fn cpu_seconds(who: Who) -> Option<f64> {
    let stat = fs::read_to_string(format!("{}/stat", who.dir())).ok()?;
    // Field 2 (comm) may contain spaces; everything after the last ')'
    // is space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?; // field 14
    let stime: f64 = fields.next()?.parse().ok()?; // field 15
    Some((utime + stime) / TICKS_PER_S)
}

fn status_kib(who: Who, key: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("{}/status", who.dir())).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Current resident set, MiB.
pub fn rss_mib(who: Who) -> Option<f64> {
    status_kib(who, "VmRSS:").map(|k| k / 1024.0)
}

/// Peak resident set since the process started, MiB.
pub fn peak_rss_mib(who: Who) -> Option<f64> {
    status_kib(who, "VmHWM:").map(|k| k / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        assert!(cpu_seconds(Who::Me).unwrap() >= 0.0);
        assert!(cpu_seconds(Who::ThisThread).unwrap() >= 0.0);
        let rss = rss_mib(Who::Me).unwrap();
        let peak = peak_rss_mib(Who::Me).unwrap();
        assert!(rss > 0.0 && peak >= rss * 0.5);
    }

    #[test]
    fn missing_process_is_none() {
        assert_eq!(cpu_seconds(Who::Pid(u32::MAX)), None);
        assert_eq!(rss_mib(Who::Pid(u32::MAX)), None);
    }
}
