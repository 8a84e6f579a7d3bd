//! What a run hands back, and the names every metric is printed under.
//!
//! The two tables here are the binary's half of `BENCHMARK.json`: `run.sh
//! --smoke` checks that the file and the binary's output agree name by name
//! and unit by unit.

use crate::stats::{self, Timing};
use crate::trace::Tracer;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Command-line settings of one run.
pub struct Opts {
    pub seed: u64,
    /// Nominal length of the timed rounds; scales every round count.
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes and a round per set-up: checks the plumbing, not the speed.
    pub smoke: bool,
    /// Corrupts the expected outputs so every op must be counted as failed.
    pub selftest_fail: bool,
    /// Manual override of the HPCG grid edge (`--size 64`).
    pub size: Option<usize>,
}

/// From-scratch set-ups in a tracing-off run. The timed rounds are split
/// evenly over them, because each set-up builds everything anew — new
/// allocations, new threads — and how those happen to land (which threads
/// share a core, how pages fall in the caches) shifts a multi-threaded
/// round's time for as long as that instance lives. Measured on `serve-mix`:
/// fast deciles of single instances 77 to 98 ms, pooled over the set-ups of
/// a run 78 to 82 ms. A run therefore samples five placements, not one.
pub const SETUPS: usize = 5;

/// The rounds set-up `instance` times when a run times `rounds` in all.
pub fn share(rounds: usize, instance: usize) -> usize {
    rounds / SETUPS + usize::from(instance < rounds % SETUPS)
}

impl Opts {
    /// How many identical rounds a workload times: `per_second` is its
    /// round rate on the host the benchmark was calibrated on, so a run
    /// takes about `--seconds` there — but the count never depends on the
    /// clock, so every run of one build does exactly the same work.
    /// A traced run interleaves four kinds of round and does a quarter.
    pub fn rounds(&self, per_second: f64) -> usize {
        if self.smoke {
            return SETUPS;
        }
        let full = (per_second * self.seconds).round();
        let r = if self.trace { full / 4.0 } else { full };
        (r as usize).max(3)
    }

    /// Guard against a host, or an episode on it, far slower than the
    /// calibration host: once a run has ten rounds and has taken twice
    /// `--seconds`, it stops rather than run into the driver's time limit.
    /// Episodes that triple the cost of every cross-thread hand-over for
    /// minutes do occur on the calibration host; a quiet run never gets
    /// near the deadline (its slow regime is 1.5x).
    pub fn budget(&self) -> Budget {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(2.0 * self.seconds),
        }
    }
}

pub struct Budget {
    deadline: Instant,
}

impl Budget {
    pub fn exhausted(&self, rounds_done: usize) -> bool {
        rounds_done >= 10 && Instant::now() > self.deadline
    }
}

/// Everything one workload run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// From-scratch set-up times (empty in a traced run).
    pub setup_secs: Vec<f64>,
    /// Tracing-off timed rounds. In a traced run these are the untraced
    /// rounds interleaved with the traced ones.
    pub round_secs: Vec<f64>,
    /// Tracing-on rounds (traced run only).
    pub traced_round_secs: Vec<f64>,
    /// Ops each client stream executes per round.
    pub ops_per_round: usize,
    /// Work in one round, in `work_unit`s.
    pub work_per_round: f64,
    /// What `work_rate` counts per second for this workload.
    pub work_unit: &'static str,
    pub threads: usize,
    /// Per-layer metrics other than `run.*` (traced run only).
    pub layer: Vec<(&'static str, f64)>,
    pub tracers: Vec<Tracer>,
}

/// `(name, unit)` of the end-to-end metrics, all from tracing-off rounds.
pub const END_TO_END: [(&str, &str); 4] = [
    ("work_rate", "work/s"),
    ("op_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric. A workload that does not
/// exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("run.rounds", "count"),
    ("run.ops_per_round", "count"),
    ("run.threads", "count"),
    ("run.op_median_ms", "ms"),
    ("run.op_tail_ms", "ms"),
    ("run.tail_pct", "%"),
    ("run.spread", "ratio"),
    ("run.trace_overhead_pct", "%"),
    ("hpcg.smoother_ms", "ms"),
    ("hpcg.spmv_ms", "ms"),
    ("hpcg.dot_ms", "ms"),
    ("hpcg.waxpby_ms", "ms"),
    ("hpcg.restrict_refine_ms", "ms"),
    ("hpcg.unaccounted_ms", "ms"),
    ("hpcg.mg_share", "ratio"),
    ("hpcg.coarse_share", "ratio"),
    ("hpcg.kernel_calls_per_iter", "count"),
    ("hpcg.flops_per_iter", "flop"),
    ("hpcg.bytes_per_iter", "B"),
    ("hpcg.rel_residual", "ratio"),
    ("hpcg.ref_op_ms", "ms"),
    ("hpcg.alp_over_ref", "ratio"),
    ("exec.spmv_us", "us"),
    ("exec.masked_mxv_us", "us"),
    ("exec.dot_us", "us"),
    ("exec.waxpby_us", "us"),
    ("exec.spmv_dot_us", "us"),
    ("exec.spmv_gbps", "GB/s"),
    ("exec.mxv_sparse_push_us", "us"),
    ("exec.mxv_sparse_pull_us", "us"),
    ("backend.dispatch_us", "us"),
    ("backend.kernel_spans_per_op", "count"),
    ("backend.runtime_share", "ratio"),
    ("backend.speedup_vs_seq", "ratio"),
    ("plan.cache_hits_per_op", "count"),
    ("plan.cache_misses_per_op", "count"),
    ("plan.replay_us", "us"),
    ("plan.record_us", "us"),
    ("plan.compile_us", "us"),
    ("bsp.supersteps_per_op", "count"),
    ("bsp.h_mb_per_op", "MB"),
    ("bsp.modeled_ms_per_op", "ms"),
    ("bsp.overlap_hidden_ms_per_op", "ms"),
    ("bsp.model_error", "ratio"),
    ("bsp.allgather_us", "us"),
    ("bsp.allreduce_us", "us"),
    ("algorithms.push_steps", "count"),
    ("algorithms.pull_steps", "count"),
    ("algorithms.edges_traversed", "count"),
    ("algorithms.mxv_ms", "ms"),
    ("algorithms.prune_ms", "ms"),
    ("algorithms.dense_bfs_ms", "ms"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p99_ms", "ms"),
    ("serve.mxv_p50_us", "us"),
    ("serve.dot_p50_us", "us"),
    ("serve.bfs_p50_us", "us"),
    ("serve.sssp_p50_us", "us"),
    ("serve.cg_seq_p50_us", "us"),
    ("serve.cg_dist_p50_us", "us"),
    ("serve.direct_ms", "ms"),
    ("serve.overhead_share", "ratio"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.exec_p50_us", "us"),
    ("serve.plan_cache_hits", "count"),
    ("serve.plan_cache_misses", "count"),
    ("serve.batched_jobs", "count"),
    ("serve.overloaded", "count"),
    ("serve.jobs_err", "count"),
    ("serve.wire_roundtrip_us", "us"),
    ("obs.spans_recorded", "count"),
    ("obs.spans_dropped", "count"),
    ("host.logical_cpus", "count"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One named value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Sets the thread count `Parallel`, `RefHpcg` and `par` jobs all take from
/// the rayon shim's global setting.
pub fn use_threads(threads: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .expect("the shim's pool cannot fail to build");
}

impl Outcome {
    /// An outcome with the run's shape filled in and nothing measured yet.
    pub fn new(
        ops_per_round: usize,
        work_per_round: f64,
        work_unit: &'static str,
        threads: usize,
    ) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            setup_secs: Vec::new(),
            round_secs: Vec::new(),
            traced_round_secs: Vec::new(),
            ops_per_round,
            work_per_round,
            work_unit,
            threads,
            layer: Vec::new(),
            tracers: Vec::new(),
        }
    }

    pub fn timing(&self) -> Timing {
        stats::timing(&self.round_secs)
    }

    /// The four end-to-end metrics of a tracing-off run.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Metric> {
        let t = self.timing();
        let values = [
            self.work_per_round / t.fast,
            t.fast * 1e3 / self.ops_per_round as f64,
            peak_rss_mb,
            stats::median(&self.setup_secs),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }

    /// Every per-layer metric of a traced run, in table order; layers this
    /// workload does not exercise read 0.
    pub fn per_layer(&self, logical_cpus: usize) -> Vec<Metric> {
        let t = self.timing();
        let ops = self.ops_per_round as f64;
        let traced_fast = stats::fast_decile(&self.traced_round_secs);
        let run = [
            ("run.rounds", self.round_secs.len() as f64),
            ("run.ops_per_round", ops),
            ("run.threads", self.threads as f64),
            ("run.op_median_ms", t.median * 1e3 / ops),
            ("run.op_tail_ms", t.tail * 1e3 / ops),
            ("run.tail_pct", t.tail_pct),
            ("run.spread", t.median / t.fast),
            (
                "run.trace_overhead_pct",
                100.0 * (traced_fast / t.fast - 1.0),
            ),
            ("host.logical_cpus", logical_cpus as f64),
        ];
        for (name, _) in run.iter().chain(&self.layer) {
            assert!(
                PER_LAYER.iter().any(|(declared, _)| declared == name),
                "metric {name} is not declared in PER_LAYER"
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: run
                    .iter()
                    .chain(&self.layer)
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v),
            })
            .collect()
    }
}

/// A JSON number with all its digits; non-finite values (never produced by
/// a healthy run) become `null` so the smoke check flags them.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The result line the driver reads: one JSON object, last line of stdout.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(
            valid_metric_name(m.name),
            "illegal metric name {:?}",
            m.name
        );
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_match_the_contract_pattern() {
        for ok in [
            "work_rate",
            "run.op_tail_ms",
            "serve.cg-dist.p50",
            "9lives",
            "a",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "has space",
            "µs",
            "a/b",
            "a%",
            &too_long,
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} declared twice");
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!unit.is_empty() && unit.len() <= 16 && unit.chars().all(unit_ok));
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_full_precision() {
        let line = result_line(
            7,
            0,
            &[Metric {
                name: "op_ms",
                value: 1.0 / 3.0,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"op_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(7, 1, &[]).starts_with("{\"correct\": false"));
    }
}
