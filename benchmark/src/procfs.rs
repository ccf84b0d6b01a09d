//! Linux `/proc` counters read from outside the program: CPU ticks, peak
//! resident memory, context switches and loopback-interface traffic. The
//! parsers are pure functions over the file text so they can be tested on
//! captured fixtures; the readers fail with a message on any other platform.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It is 100 on
/// every Linux ABI Rust targets (it is fixed by the kernel's user interface,
/// not by `CONFIG_HZ`), and there is no way to ask without libc.
const TICKS_PER_SECOND: f64 = 100.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    pub utime: u64,
    pub stime: u64,
}

impl CpuTicks {
    pub fn user_seconds(self) -> f64 {
        self.utime as f64 / TICKS_PER_SECOND
    }

    pub fn total_seconds(self) -> f64 {
        (self.utime + self.stime) as f64 / TICKS_PER_SECOND
    }

    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            utime: self.utime - earlier.utime,
            stime: self.stime - earlier.stime,
        }
    }
}

/// Parses `/proc/<pid>/stat`. The second field (`comm`) is the executable
/// name in parentheses and may itself contain spaces and parentheses, so the
/// fixed-position fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let after_comm = &text[text.rfind(')')? + 1..];
    // `state` is field 3; utime and stime are fields 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    Some(CpuTicks {
        utime: fields.next()?.parse().ok()?,
        stime: fields.next()?.parse().ok()?,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Status {
    /// Peak resident set size, kB (absent on kernel threads; 0 then).
    pub vm_hwm_kb: u64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

/// Parses `/proc/<pid>/status` (or a task's): `Key:\tvalue [unit]` lines.
pub fn parse_status(text: &str) -> Option<Status> {
    let field = |key: &str| -> Option<u64> {
        text.lines()
            .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
            .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
    };
    Some(Status {
        vm_hwm_kb: field("VmHWM").unwrap_or(0),
        voluntary_switches: field("voluntary_ctxt_switches")?,
        involuntary_switches: field("nonvoluntary_ctxt_switches")?,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interface {
    pub rx_bytes: u64,
    pub rx_packets: u64,
}

/// Parses one interface's receive counters out of `/proc/net/dev`.
pub fn parse_net_dev(text: &str, interface: &str) -> Option<Interface> {
    text.lines().find_map(|line| {
        let (name, counters) = line.split_once(':')?;
        if name.trim() != interface {
            return None;
        }
        let mut fields = counters.split_ascii_whitespace();
        Some(Interface {
            rx_bytes: fields.next()?.parse().ok()?,
            rx_packets: fields.next()?.parse().ok()?,
        })
    })
}

/// Parses the `Cpus_allowed_list` line of `/proc/<pid>/status`, e.g.
/// `0-1` or `0,2-3,8`, into the CPU numbers in ascending order.
pub fn parse_allowed_cpus(status: &str) -> Option<Vec<usize>> {
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let (first, last) = range.split_once('-').unwrap_or((range, range));
        cpus.extend(first.parse::<usize>().ok()?..=last.parse().ok()?);
    }
    Some(cpus)
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{path}: {e} (the /proc counters are Linux-only)"))
}

pub fn cpu_ticks() -> Result<CpuTicks, String> {
    parse_stat(&read("/proc/self/stat")?).ok_or_else(|| "/proc/self/stat: unparsable".into())
}

pub fn peak_rss_mb() -> Result<f64, String> {
    let status = parse_status(&read("/proc/self/status")?)
        .ok_or_else(|| String::from("/proc/self/status: unparsable"))?;
    Ok(status.vm_hwm_kb as f64 / 1024.0)
}

pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    parse_allowed_cpus(&read("/proc/self/status")?)
        .ok_or_else(|| "/proc/self/status: no Cpus_allowed_list".into())
}

/// Voluntary and involuntary context switches summed over the threads alive
/// right now. A thread that has exited takes its counts with it, so callers
/// snapshot while the threads they care about still exist.
pub fn thread_switches() -> Result<(u64, u64), String> {
    let mut totals = (0, 0);
    let tasks = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks.flatten() {
        // A thread can exit between the directory read and the file read.
        let Ok(text) = fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        if let Some(status) = parse_status(&text) {
            totals.0 += status.voluntary_switches;
            totals.1 += status.involuntary_switches;
        }
    }
    Ok(totals)
}

/// The loopback interface's receive counters (every loopback packet is both
/// sent and received, so one direction counts each packet once). They are
/// per network namespace, not per process.
pub fn loopback() -> Result<Interface, String> {
    parse_net_dev(&read("/proc/net/dev")?, "lo").ok_or_else(|| "/proc/net/dev: no lo".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from the reference box (kernel 6.18), then edited only where
    // a test says so.
    const STAT: &str = "8984 (cat) R 8979 8984 8979 0 -1 4194304 81 0 0 0 12 34 5 6 20 0 1 0 \
                        183006 2703360 272 18446744073709551615 94530831974400 94530831994281 \
                        140726395607520 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0 94530832010288 \
                        94530832011904 94531036065792 140726395610596 140726395610616 \
                        140726395610616 140726395613163 0\n";

    #[test]
    fn stat_fields_are_counted_after_comm() {
        assert_eq!(
            parse_stat(STAT),
            Some(CpuTicks {
                utime: 12,
                stime: 34
            })
        );
    }

    #[test]
    fn stat_survives_a_comm_with_spaces_and_parentheses() {
        let hostile = STAT.replace("(cat)", "(a b) (c)) R 1 (x)");
        // The injected text adds fields before the real ones only inside
        // comm, which ends at the last ')'.
        assert_eq!(
            parse_stat(&hostile),
            Some(CpuTicks {
                utime: 12,
                stime: 34
            })
        );
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (short) R 1 2"), None);
    }

    #[test]
    fn cpu_ticks_convert_to_seconds() {
        let t = CpuTicks {
            utime: 150,
            stime: 50,
        };
        assert_eq!(t.total_seconds(), 2.0);
        assert_eq!(t.user_seconds(), 1.5);
        assert_eq!(
            t.since(CpuTicks {
                utime: 100,
                stime: 50
            }),
            CpuTicks {
                utime: 50,
                stime: 0
            }
        );
    }

    const STATUS: &str = "Name:\tbench\nUmask:\t0022\nState:\tR (running)\nTgid:\t9001\n\
                          VmPeak:\t  204800 kB\nVmSize:\t  204800 kB\nVmHWM:\t   16040 kB\n\
                          VmRSS:\t   12000 kB\nThreads:\t7\n\
                          voluntary_ctxt_switches:\t4321\nnonvoluntary_ctxt_switches:\t17\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(
            parse_status(STATUS),
            Some(Status {
                vm_hwm_kb: 16040,
                voluntary_switches: 4321,
                involuntary_switches: 17
            })
        );
        // A task's status on some kernels has no Vm* lines.
        let task = STATUS.replace("VmHWM:\t   16040 kB\n", "");
        assert_eq!(parse_status(&task).unwrap().vm_hwm_kb, 0);
        assert_eq!(parse_status("Name:\tx\n"), None);
    }

    #[test]
    fn allowed_cpu_lists_expand() {
        let status =
            |list: &str| format!("Name:\tx\nCpus_allowed:\t3\nCpus_allowed_list:\t{list}\n");
        assert_eq!(parse_allowed_cpus(&status("0-1")), Some(vec![0, 1]));
        assert_eq!(
            parse_allowed_cpus(&status("0,2-4,8")),
            Some(vec![0, 2, 3, 4, 8])
        );
        assert_eq!(parse_allowed_cpus(&status("5")), Some(vec![5]));
        assert_eq!(parse_allowed_cpus(&status("a-b")), None);
        assert_eq!(parse_allowed_cpus(STATUS), None);
    }

    const NET_DEV: &str = "Inter-|   Receive                                                |  Transmit\n \
         face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed\n    \
         lo: 4198618192 10216811    0    0    0     0          0         0 4198618192 10216811    0    0    0     0       0          0\n  \
         ifb0:       0       0    0    0    0     0          0         0        0       0    0    0    0     0       0          0\n";

    #[test]
    fn net_dev_picks_the_named_interface() {
        assert_eq!(
            parse_net_dev(NET_DEV, "lo"),
            Some(Interface {
                rx_bytes: 4_198_618_192,
                rx_packets: 10_216_811
            })
        );
        assert_eq!(parse_net_dev(NET_DEV, "ifb0").unwrap().rx_packets, 0);
        assert_eq!(parse_net_dev(NET_DEV, "eth0"), None);
    }

    #[test]
    fn live_readers_work_on_this_machine() {
        assert!(cpu_ticks().is_ok());
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(thread_switches().is_ok());
        assert!(loopback().is_ok());
    }
}
