//! What the harness reads from the host: core count, last-level cache
//! size, this process's peak resident set.

/// `std::thread::available_parallelism`, 1 if unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Engine threads for every workload: `min(nproc, 2)`. Fixed so a
/// number from a 2-vCPU sandbox and one from a workstation describe
/// the same configuration.
pub fn engine_threads() -> usize {
    nproc().min(2)
}

/// Parse a sysfs cache size such as `266240K` or `4M`.
fn parse_cache_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1u64 << 10),
        'M' => (&t[..t.len() - 1], 1 << 20),
        'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// Size of cpu0's highest-level cache from sysfs; `None` where the
/// kernel does not expose it.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_cache_size(&size)) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, size)| size)
}

/// `VmHWM` (peak resident set) of this process in MiB; `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The first `model name` of `/proc/cpuinfo`; `unknown` elsewhere.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `text` as a file name: lower-case `[a-z0-9.]` runs joined by `-`.
fn slugify(text: &str) -> String {
    let keep = |c: char| c.is_ascii_alphanumeric() || c == '.';
    text.split(|c| !keep(c))
        .filter(|part| !part.is_empty())
        .collect::<Vec<_>>()
        .join("-")
        .to_ascii_lowercase()
}

/// This host as a file name: CPU model, core count, last-level cache.
pub fn slug() -> String {
    let llc_mib = llc_bytes().unwrap_or(0) >> 20;
    slugify(&format!("{} {}c llc{llc_mib}m", cpu_model(), nproc()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("266240K\n"), Some(266240 << 10));
        assert_eq!(parse_cache_size("4M"), Some(4 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("bigK"), None);
    }

    #[test]
    fn slugs_are_file_names() {
        assert_eq!(
            slugify("Intel(R) Xeon(R) Processor @ 2.10GHz 2c llc260m"),
            "intel-r-xeon-r-processor-2.10ghz-2c-llc260m"
        );
        assert_eq!(slugify("//"), "");
    }

    #[test]
    fn engine_threads_is_capped() {
        assert!((1..=2).contains(&engine_threads()));
    }
}
