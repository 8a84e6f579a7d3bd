//! The benchmark binary: runs HPCG end to end (setup, validation, timed
//! run) and prints the official-style summary for both implementations.
//!
//! The GraphBLAS (ALP) implementation executes on the runtime-selected
//! backend: `--backend seq|par|dist[:<nodes>]` (or `GRB_BACKEND=...`),
//! dispatched through one [`graphblas::DynCtx`] — the same binary drives
//! the paper's ALP-vs-Ref comparison on any backend. On the distributed
//! backend `--nodes N` sizes the simulated cluster and the summary gains
//! the modeled BSP wall-clock (the Fig 3 y-axis) next to the measured
//! single-machine time.
//!
//! Ref runs on the rayon pool. `--threads N` sizes that pool (and with it
//! `--backend par`); without it the pool is pinned to the thread count the
//! chosen ALP backend computes on — 1 for `seq`, the node count for
//! `dist` — so the two summaries compare like with like. The header
//! prints both counts.
//!
//! ```text
//! cargo run --release -p hpcg-bench --bin hpcg_report \
//!     [--size 32] [--iters 50] [--threads N] \
//!     [--backend seq|par|dist[:<nodes>]] [--nodes N] \
//!     [--trace out.json] [--json BENCH_hpcg.json] [--best-of K]
//! ```
//!
//! `--best-of K` times each implementation K times and reports the run
//! with the smallest total (this host has slow episodes; one run is not a
//! measurement). `--json PATH` appends the comparison to PATH as one
//! host-stamped row — size, iterations, backend, both thread counts, both
//! GFLOP/s ratings, their ratio and per-kernel seconds for both — creating
//! the file if needed: the paper's ALP-vs-Ref headline as a diffable
//! artifact (`BENCH_hpcg.json` in the repository root).
//!
//! `--trace PATH` records a span for every kernel, plan event, and (on
//! `dist`) superstep across the whole run and writes Chrome trace-event
//! JSON to PATH — open it in Perfetto or `chrome://tracing`.

use graphblas::{BackendKind, DynCtx};
use hpcg::driver::{flops_per_iteration, run_with_rhs, RunConfig, RunReport};
use hpcg::reporting::render_report;
use hpcg::{validate, GrbHpcg, Grid3, Problem, RefHpcg, RhsVariant};
use hpcg_bench::cli::Args;
use hpcg_bench::hostinfo::{iso_timestamp_utc, HostInfo};

/// What closes the rows array of a `--json` file; a new row goes before it.
const JSON_TAIL: &str = "\n]}\n";

/// `run`'s per-kernel seconds as a JSON object (the Fig 4/5 breakdown).
fn kernel_secs_json(run: &RunReport) -> String {
    let over_levels =
        |f: fn(&hpcg::driver::LevelBreakdown) -> f64| -> f64 { run.levels.iter().map(f).sum() };
    let smoother = over_levels(|l| l.smoother_secs);
    let restrict_refine = over_levels(|l| l.restrict_refine_secs);
    let coarse_spmv = over_levels(|l| if l.level > 0 { l.spmv_secs } else { 0.0 });
    format!(
        "{{\"total\": {:.9e}, \"ddot\": {:.9e}, \"waxpby\": {:.9e}, \"spmv\": {:.9e}, \
         \"mg\": {:.9e}, \"smoother\": {:.9e}, \"restrict_refine\": {:.9e}}}",
        run.total_secs,
        run.dot_secs,
        run.waxpby_secs,
        run.levels.first().map_or(0.0, |l| l.spmv_secs),
        smoother + restrict_refine + coarse_spmv,
        smoother,
        restrict_refine,
    )
}

/// Appends `row` to the rows array of the report file at `path`.
fn append_json_row(path: &str, row: &str) {
    let body = match std::fs::read_to_string(path) {
        Ok(old) => match old.strip_suffix(JSON_TAIL) {
            Some(rows) => format!("{rows},\n  {row}{JSON_TAIL}"),
            None => {
                eprintln!("error: {path} is not a report this binary wrote; not touching it");
                std::process::exit(2);
            }
        },
        Err(_) => format!("{{\"bench\": \"hpcg_report\", \"rows\": [\n  {row}{JSON_TAIL}"),
    };
    std::fs::write(path, body).expect("writing the JSON report must succeed");
}

fn main() {
    let args = Args::from_env();
    let size = args.get_usize("size", 32);
    let iters = args.get_usize("iters", 50);
    let best_of = args.get_usize("best-of", 1).max(1);
    let trace_path = args.get_str("trace").map(str::to_string);
    if trace_path.is_some() {
        obs::set_enabled(true);
    }
    let exec = DynCtx::runtime(args.get_backend(BackendKind::Parallel));
    // Ref runs on the rayon pool whatever the ALP backend is: without an
    // explicit count, give it exactly the threads ALP computes on, so the
    // two summaries below compare like with like.
    let ref_threads = args
        .get_str("threads")
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or_else(|| exec.threads());
    rayon::ThreadPoolBuilder::new()
        .num_threads(ref_threads)
        .build_global()
        .ok();
    println!(
        "ALP backend: {} ({} thread(s)), Ref: {} thread(s)\n",
        exec.backend_name(),
        exec.threads(),
        ref_threads,
    );

    let problem = Problem::build_with(Grid3::cube(size), 4, RhsVariant::Reference)
        .expect("size must be divisible by 8");
    let flops = flops_per_iteration(&problem);
    let config = RunConfig {
        iterations: iters,
        preconditioned: true,
    };

    let b = problem.b.clone();
    let mut alp = GrbHpcg::with_ctx(problem.clone(), exec);
    let v = validate(&mut alp, &b, 500);
    // Each timed run with the cluster's view of it; the fastest is reported.
    let timed_run = |alp: &mut GrbHpcg<BackendKind>| {
        let BackendKind::Dist(d) = exec.kind() else {
            return (run_with_rhs(alp, &b, flops, config).0, String::new());
        };
        // Validation (or the previous run) already went through the
        // cluster; the modeled numbers must cover exactly one timed run.
        d.reset_costs();
        let (run, _) = run_with_rhs(alp, &b, flops, config);
        let model = format!(
            "distributed model ({} nodes): modeled BSP wall-clock {:.3} s \
             vs measured {:.3} s ({:.2} MB communicated, {} supersteps, \
             {:.3} ms exchange hidden behind compute)\n\n{}\n",
            d.nodes(),
            d.total_modeled_secs(),
            run.total_secs,
            d.total_h_bytes() / 1e6,
            d.supersteps(),
            d.total_overlap_hidden_secs() * 1e3,
            d.cost_summary(),
        );
        (run, model)
    };
    let (run, model) = (0..best_of)
        .map(|_| timed_run(&mut alp))
        .min_by(|a, b| a.0.total_secs.total_cmp(&b.0.total_secs))
        .expect("best_of >= 1");
    println!("{}", render_report(&problem, &run, Some(&v)));
    print!("{model}");

    let b_vec = problem.b.as_slice().to_vec();
    let mut reference = RefHpcg::new(problem.clone());
    let v_ref = validate(&mut reference, &b_vec, 500);
    let run_ref = (0..best_of)
        .map(|_| run_with_rhs(&mut reference, &b_vec, flops, config).0)
        .min_by(|a, b| a.total_secs.total_cmp(&b.total_secs))
        .expect("best_of >= 1");
    println!("{}", render_report(&problem, &run_ref, Some(&v_ref)));

    if let Some(path) = args.get_str("json") {
        let row = format!(
            "{{\"timestamp\": \"{}\", \"host\": {}, \"size\": {size}, \"iters\": {iters}, \
             \"backend\": \"{}\", \"alp_threads\": {}, \"ref_threads\": {ref_threads}, \
             \"best_of\": {best_of}, \"alp_gflops\": {:.4}, \"ref_gflops\": {:.4}, \
             \"alp_over_ref\": {:.4}, \"alp_secs\": {}, \"ref_secs\": {}}}",
            iso_timestamp_utc(),
            HostInfo::gather().to_json(),
            exec.kind(),
            exec.threads(),
            run.gflops,
            run_ref.gflops,
            run.gflops / run_ref.gflops,
            kernel_secs_json(&run),
            kernel_secs_json(&run_ref),
        );
        append_json_row(path, &row);
        println!("appended one row to {path}");
    }

    if let Some(path) = trace_path {
        let spans = obs::span_count();
        std::fs::write(&path, obs::chrome_trace()).expect("writing the trace must succeed");
        println!("wrote {spans} span(s) to {path} (open in Perfetto / chrome://tracing)");
    }
}
