//! Process accounting read from `/proc`: CPU time, peak resident set,
//! and the child-process scan behind the orphan check.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100
/// on every Linux ABI; std offers no `sysconf` to ask.
const TICKS_PER_SEC: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` this benchmark reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stat {
    /// Executable name, without the surrounding parentheses.
    pub comm: String,
    /// Parent process id.
    pub ppid: u32,
    /// User-mode ticks.
    pub utime: u64,
    /// Kernel-mode ticks.
    pub stime: u64,
}

/// Parses one `/proc/<pid>/stat` line. `comm` may itself contain spaces
/// and parentheses, so the fixed fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    // After the comm: state(3) ppid(4) ... utime(14) stime(15).
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    Some(Stat {
        comm,
        ppid: rest.get(1)?.parse().ok()?,
        utime: rest.get(11)?.parse().ok()?,
        stime: rest.get(12)?.parse().ok()?,
    })
}

/// Value in kB of a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// CPU seconds `(user, system)` consumed so far by `pid` (`"self"` works).
pub fn cpu_split_seconds(pid: &str) -> Option<(f64, f64)> {
    let stat = parse_stat(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)?;
    Some((stat.utime as f64 / TICKS_PER_SEC, stat.stime as f64 / TICKS_PER_SEC))
}

/// CPU seconds (user + system) consumed so far by `pid`.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    cpu_split_seconds(pid).map(|(user, system)| user + system)
}

/// CPU seconds (user + system) consumed so far by this process, at the
/// kernel's nanosecond resolution: `/proc/self/stat` counts 10 ms ticks,
/// too coarse for one slice of a simulator repetition. Time the
/// hypervisor gave to other guests is not in it.
pub fn own_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) cannot fail");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) of `pid` in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(parse_status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

/// Pids of live processes named `comm` whose parent is this process.
pub fn children_named(comm: &str) -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = fs::read_dir("/proc") else { return Vec::new() };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| parse_stat(&s))
                .is_some_and(|s| s.ppid == me && s.comm == comm)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_spaces_and_parentheses_in_comm() {
        let plain = "4242 (hh-node) S 17 4242 4242 0 -1 4194304 310 0 0 0 \
                     250 40 0 0 20 0 13 0 123456 1000000 500 18446744073709551615";
        let s = parse_stat(plain).expect("plain");
        assert_eq!((s.comm.as_str(), s.ppid, s.utime, s.stime), ("hh-node", 17, 250, 40));

        let nasty = "4242 (a b) (c)) R 17 4242 4242 0 -1 4194304 310 0 0 0 \
                     7 9 0 0 20 0 13 0 123456 1000000 500 18446744073709551615";
        let s = parse_stat(nasty).expect("nasty");
        assert_eq!((s.comm.as_str(), s.ppid, s.utime, s.stime), ("a b) (c)", 17, 7, 9));

        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (short) S 2 3"), None);
    }

    #[test]
    fn status_values_in_kb() {
        let status = "Name:\thh-node\nVmPeak:\t  200 kB\nVmHWM:\t   38132 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(38132));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn reads_own_accounting() {
        assert!(cpu_seconds("self").is_some());
        let before = own_cpu_seconds();
        assert!(before > 0.0 && own_cpu_seconds() >= before);
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
        assert!(children_named("hh-node").is_empty());
    }
}
