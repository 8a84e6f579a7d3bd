//! Host introspection for the Table II analogue.
//!
//! The paper's Table II lists the experimental machines. We cannot
//! reproduce their hardware, so `table2_machine` prints what *this* run
//! executes on (plus the paper's two machines for reference), read from
//! `/proc` and `sysfs` where available.

use std::fs;

/// What we can learn about the host.
#[derive(Clone, Debug, Default)]
pub struct HostInfo {
    /// CPU model string.
    pub cpu_model: String,
    /// Logical CPUs visible to the process.
    pub logical_cpus: usize,
    /// Total memory in GiB.
    pub mem_gib: f64,
    /// L3 cache size string, if exposed.
    pub l3_cache: String,
    /// OS description.
    pub os: String,
}

impl HostInfo {
    /// Gathers host information (best-effort; missing fields stay empty).
    pub fn gather() -> HostInfo {
        let mut info = HostInfo {
            logical_cpus: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            ..Default::default()
        };
        if let Ok(cpuinfo) = fs::read_to_string("/proc/cpuinfo") {
            for line in cpuinfo.lines() {
                if let Some(v) = line.strip_prefix("model name") {
                    info.cpu_model = v.trim_start_matches([' ', '\t', ':']).to_string();
                    break;
                }
            }
        }
        if let Ok(meminfo) = fs::read_to_string("/proc/meminfo") {
            for line in meminfo.lines() {
                if let Some(v) = line.strip_prefix("MemTotal:") {
                    let kb: f64 = v
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0.0);
                    info.mem_gib = kb / 1024.0 / 1024.0;
                    break;
                }
            }
        }
        if let Ok(l3) = fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size") {
            info.l3_cache = l3.trim().to_string();
        }
        if let Ok(os) = fs::read_to_string("/etc/os-release") {
            for line in os.lines() {
                if let Some(v) = line.strip_prefix("PRETTY_NAME=") {
                    info.os = v.trim_matches('"').to_string();
                    break;
                }
            }
        }
        info
    }

    /// Renders the host description as one compact JSON object, ready to
    /// embed in a bench report.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\":\"{}\",\"logical_cpus\":{},\"mem_gib\":{:.2},\
             \"l3_cache\":\"{}\",\"os\":\"{}\"}}",
            obs::json_escape(&self.cpu_model),
            self.logical_cpus,
            self.mem_gib,
            obs::json_escape(&self.l3_cache),
            obs::json_escape(&self.os),
        )
    }
}

/// What the worker runtime itself costs on this host: the fast-decile
/// wall-clock of an empty `parts`-way region of the pool `Parallel` and
/// `Distributed` both run on — dispatch plus barrier, no work. This is
/// the layer a kernel call pays on top of its arithmetic; reports bill it
/// as `runtime_overhead_secs`.
pub fn runtime_overhead_secs(parts: usize) -> f64 {
    // Regions per sample: an inline (1-part) region is below the clock's
    // resolution on its own.
    const BATCH: u32 = 8;
    let mut samples: Vec<f64> = (0..220)
        .map(|_| {
            let t0 = std::time::Instant::now();
            for _ in 0..BATCH {
                rayon::pool::run(parts, |part| {
                    std::hint::black_box(part);
                });
            }
            t0.elapsed().as_secs_f64() / f64::from(BATCH)
        })
        .skip(20) // the first ones start the workers and warm the caches
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 10]
}

/// The current wall-clock time as an ISO-8601 UTC timestamp
/// (`YYYY-MM-DDThh:mm:ssZ`), computed from the Unix epoch with the
/// standard civil-from-days calendar conversion — no date dependency.
pub fn iso_timestamp_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (h, m, s) = (secs / 3600 % 24, secs / 60 % 60, secs % 60);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_does_not_panic_and_counts_cpus() {
        let info = HostInfo::gather();
        assert!(info.logical_cpus >= 1);
        let json = info.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"logical_cpus\":"));
    }

    #[test]
    fn runtime_overhead_is_measurable_at_any_width() {
        for parts in [1, 2, 4] {
            let secs = runtime_overhead_secs(parts);
            assert!(secs.is_finite() && secs > 0.0, "{parts} parts: {secs}");
        }
    }

    #[test]
    fn timestamp_is_iso_shaped() {
        let ts = iso_timestamp_utc();
        // YYYY-MM-DDThh:mm:ssZ is exactly 20 ASCII chars.
        assert_eq!(ts.len(), 20, "got {ts}");
        assert_eq!(&ts[4..5], "-");
        assert_eq!(&ts[10..11], "T");
        assert!(ts.ends_with('Z'));
        let year: i64 = ts[..4].parse().unwrap();
        assert!((2024..2100).contains(&year), "got {ts}");
    }
}
