//! The repo benchmark: one process runs one workload.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--selftest-fail] [--size <edge>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced process that produces the per-layer metrics and
//! writes `benchmark/out/<workload>.trace.json`. Every metric is printed by
//! name with its unit; the last line of stdout is the result as one JSON
//! object. `run.sh` builds this binary and is the command to use; see
//! `README.md` for the workloads and the metric glossary.

mod inputs;
mod probes;
mod report;
mod stats;
mod trace;
mod traced;
mod wl_bfs;
mod wl_hpcg;
mod wl_serve;

use hpcg_bench::cli::Args;
use hpcg_bench::hostinfo::HostInfo;
use report::{Metric, Opts, Outcome};
use std::process::ExitCode;

const WORKLOADS: [&str; 5] = [
    "hpcg32-seq",
    "hpcg32-par",
    "hpcg32-dist2",
    "bfs-rmat16",
    "serve-mix",
];

/// Peak resident set size of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "error: {problem}\nusage: benchmark --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> [--smoke] [--selftest-fail] [--size <edge>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let Some(workload) = args.get_str("workload").map(str::to_string) else {
        return usage("--workload is required");
    };
    let Some(seed) = args
        .get_str("seed")
        .map_or(Some(1), |s| s.parse::<u64>().ok())
    else {
        return usage("--seed must be a non-negative integer");
    };
    let seconds = args.get_f64("seconds", 10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return usage("--seconds must be in (0, 60]");
    }
    let trace = match args.get_str("trace").unwrap_or("0") {
        "0" => false,
        "1" | "true" => true,
        _ => return usage("--trace must be 0 or 1"),
    };
    let opts = Opts {
        seed,
        seconds,
        trace,
        smoke: args.get_bool("smoke"),
        selftest_fail: args.get_bool("selftest-fail"),
        size: args.get_str("size").and_then(|s| s.parse().ok()),
    };

    let host = HostInfo::gather();
    let outcome = match workload.as_str() {
        "hpcg32-seq" => wl_hpcg::run(wl_hpcg::Which::Seq, &opts, host.logical_cpus),
        "hpcg32-par" => wl_hpcg::run(wl_hpcg::Which::Par, &opts, host.logical_cpus),
        "hpcg32-dist2" => wl_hpcg::run(wl_hpcg::Which::Dist2, &opts, host.logical_cpus),
        "bfs-rmat16" => wl_bfs::run(&opts, host.logical_cpus),
        "serve-mix" => wl_serve::run(&opts, host.logical_cpus),
        _ => return usage(&format!("unknown workload {workload:?}")),
    };

    let metrics = if opts.trace {
        write_trace(&workload, &outcome);
        outcome.per_layer(host.logical_cpus)
    } else {
        outcome.end_to_end(peak_rss_mb())
    };
    print_report(&workload, &opts, &host, &outcome, &metrics);
    println!(
        "{}",
        report::result_line(outcome.attempted, outcome.failed, &metrics)
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the traced run's spans as a Chrome trace next to the benchmark.
fn write_trace(workload: &str, outcome: &Outcome) {
    let tracers: Vec<&trace::Tracer> = outcome.tracers.iter().collect();
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).expect("creating benchmark/out");
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, trace::chrome_trace(&tracers)).expect("writing the trace");
    let spans: usize = tracers.iter().map(|t| t.spans().len()).sum();
    println!("trace: {spans} spans -> {}", path.display());
}

/// The human-readable part of the output: host stamp, run shape, and every
/// metric by name with its value and unit.
fn print_report(workload: &str, opts: &Opts, host: &HostInfo, o: &Outcome, metrics: &[Metric]) {
    println!(
        "workload {workload}  seed {}  trace {}  host: {} x {}",
        opts.seed,
        u8::from(opts.trace),
        host.logical_cpus,
        host.cpu_model
    );
    let t = o.timing();
    println!(
        "{} untraced rounds of {} op(s) per client stream, {:.3} {}/round, {} thread(s); \
         round ms: fast decile {:.3}, median {:.3}, p{:.1} {:.3}",
        o.round_secs.len(),
        o.ops_per_round,
        o.work_per_round,
        o.work_unit,
        o.threads,
        t.fast * 1e3,
        t.median * 1e3,
        t.tail_pct,
        t.tail * 1e3
    );
    println!("ops attempted {}, failed {}", o.attempted, o.failed);
    for m in metrics {
        let unit = if m.name == "work_rate" {
            format!("{}/s", o.work_unit)
        } else {
            m.unit.to_string()
        };
        println!("  {:<32} {:>16.6} {unit}", m.name, m.value);
    }
}
