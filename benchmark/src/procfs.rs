//! Process-level host counters read from `/proc/self`.

/// Peak resident set size (`VmHWM`) of this process, MiB.
///
/// # Errors
///
/// I/O errors, or a `/proc/self/status` without a parseable `VmHWM`.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

/// CPU time (user + system) this process has used so far, seconds.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
///
/// # Errors
///
/// I/O errors, or a `/proc/self/stat` that does not parse.
pub fn cpu_s() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| std::io::Error::other("unparseable /proc/self/stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest starts at field 3 (state); utime is field 14, stime field 15.
    let tick = |i: usize| fields.get(i - 3).and_then(|s| s.parse::<f64>().ok());
    match (tick(14), tick(15)) {
        (Some(u), Some(s)) => Ok((u + s) / 100.0),
        _ => Err(std::io::Error::other("unparseable /proc/self/stat")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_positive() {
        assert!(peak_rss_mib().unwrap() > 0.5);
        assert!(cpu_s().unwrap() >= 0.0);
    }
}
