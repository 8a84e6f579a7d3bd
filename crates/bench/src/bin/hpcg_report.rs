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
//! `--pipeline on|off` (default: on) toggles deferred (fused) execution of
//! the ALP hot loops — the nonblocking-execution mode of paper §VI. Both
//! modes are bit-identical; the toggle exists for ablation.
//!
//! ```text
//! cargo run --release -p hpcg-bench --bin hpcg_report \
//!     [--size 32] [--iters 50] [--threads N] \
//!     [--backend seq|par|dist[:<nodes>]] [--nodes N] [--pipeline on|off] \
//!     [--trace out.json]
//! ```
//!
//! `--trace PATH` records a span for every kernel, plan event, and (on
//! `dist`) superstep across the whole run and writes Chrome trace-event
//! JSON to PATH — open it in Perfetto or `chrome://tracing`.

use graphblas::{BackendKind, DynCtx};
use hpcg::driver::{flops_per_iteration, run_with_rhs, RunConfig};
use hpcg::reporting::render_report;
use hpcg::{validate, GrbHpcg, Grid3, Problem, RefHpcg, RhsVariant};
use hpcg_bench::cli::Args;

fn main() {
    let args = Args::from_env();
    let size = args.get_usize("size", 32);
    let iters = args.get_usize("iters", 50);
    let trace_path = args.get_str("trace").map(str::to_string);
    if trace_path.is_some() {
        obs::set_enabled(true);
    }
    let exec = DynCtx::runtime(args.get_backend(BackendKind::Parallel));
    let pipeline = match args.get_str("pipeline").unwrap_or("on") {
        "on" | "true" | "1" => true,
        "off" | "false" | "0" => false,
        other => {
            eprintln!("error: invalid --pipeline {other:?} (expected on|off)");
            std::process::exit(2);
        }
    };
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
        "ALP backend: {} ({} thread(s)), Ref: {} thread(s), pipeline {}\n",
        exec.backend_name(),
        exec.threads(),
        ref_threads,
        if pipeline { "on" } else { "off" },
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
    alp.set_pipeline(pipeline);
    let v = validate(&mut alp, &b, 500);
    if let BackendKind::Dist(d) = exec.kind() {
        // Validation already ran through the cluster; the modeled numbers
        // below must cover exactly the timed run.
        d.reset_costs();
    }
    let (run, _) = run_with_rhs(&mut alp, &b, flops, config);
    println!("{}", render_report(&problem, &run, Some(&v)));
    if let BackendKind::Dist(d) = exec.kind() {
        println!(
            "distributed model ({} nodes): modeled BSP wall-clock {:.3} s \
             vs measured {:.3} s ({:.2} MB communicated, {} supersteps, \
             {:.3} ms exchange hidden behind compute)\n",
            d.nodes(),
            d.total_modeled_secs(),
            run.total_secs,
            d.total_h_bytes() / 1e6,
            d.supersteps(),
            d.total_overlap_hidden_secs() * 1e3,
        );
        print!("{}", d.cost_summary());
        println!();
    }

    let b_vec = problem.b.as_slice().to_vec();
    let mut reference = RefHpcg::new(problem.clone());
    let v_ref = validate(&mut reference, &b_vec, 500);
    let (run_ref, _) = run_with_rhs(&mut reference, &b_vec, flops, config);
    println!("{}", render_report(&problem, &run_ref, Some(&v_ref)));

    if let Some(path) = trace_path {
        let spans = obs::span_count();
        std::fs::write(&path, obs::chrome_trace()).expect("writing the trace must succeed");
        println!("wrote {spans} span(s) to {path} (open in Perfetto / chrome://tracing)");
    }
}
