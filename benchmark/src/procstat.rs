//! Process CPU time and peak resident set, read from `/proc/self`.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 for
/// userspace on every architecture the repo builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`, all
/// threads included. The command name (field 2) may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// `VmHWM` (peak resident set) in MB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_seconds(&stat).expect("utime and stime in /proc/self/stat")
}

/// Peak resident set of this process so far, in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mb(&status).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_is_fields_14_and_15_even_with_an_awkward_command_name() {
        let stat = "4242 (bench) mark (x)) S 1 4242 4242 0 -1 4194304 \
                    900 0 0 0 1234 66 0 0 20 0 3 0 5555 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(13.0));
        assert_eq!(parse_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_has_both() {
        assert!(cpu_seconds() >= 0.0);
        assert!(rss_peak_mb() > 0.0);
    }
}
