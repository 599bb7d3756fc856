//! The process's own resource counters, read from `/proc/self`: the
//! allocator's truth beside [`crate::MemoryBudget`]'s ledger, for the
//! per-phase report of a run.

/// The process's CPU seconds so far — user and system, every thread — and
/// its peak resident set (`VmHWM`) in bytes, from `/proc/self/stat` and
/// `/proc/self/status`; `None` where they cannot be read (off Linux).
pub fn process_usage() -> Option<(f64, u64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields from the third on follow the command name's closing paren;
    // utime and stime are fields 14 and 15, in clock ticks.
    let fields: Vec<&str> = stat.get(stat.rfind(')')? + 1..)?.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let hwm_kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some((ticks as f64 / clock_ticks_per_second()? as f64, hwm_kib * 1024))
}

/// The kernel's clock ticks a second (`AT_CLKTCK` of the auxiliary vector,
/// which `/proc/self/auxv` holds as native-endian `(key, value)` words).
fn clock_ticks_per_second() -> Option<u64> {
    const AT_CLKTCK: u64 = 17;
    static TICKS: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        let auxv = std::fs::read("/proc/self/auxv").ok()?;
        let words: Vec<u64> = auxv
            .chunks_exact(8)
            .map(|w| u64::from_ne_bytes(w.try_into().expect("eight bytes")))
            .collect();
        words.chunks_exact(2).find(|kv| kv[0] == AT_CLKTCK).map(|kv| kv[1]).filter(|&t| t > 0)
    })
}
