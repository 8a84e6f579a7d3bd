//! Machine-readable scaling sweep of the distributed GraphBLAS backend.
//!
//! Runs preconditioned CG through [`AlpDistHpcg`] — HPCG on
//! `Ctx<Distributed>` — over a list of simulated node counts, prints a
//! human-readable table, and writes the full per-node-count breakdown
//! (modeled wall-clock, measured sharded wall-clock, real speedup against
//! a timed `Sequential` baseline of the same solve, split-phase overlap
//! hidden per point, the runtime's own cost — an empty superstep at that
//! `p` — communication volume, superstep count, per-kernel costs, and the
//! Table I closed-form allgather check) as JSON, stamped with the host, so the
//! perf trajectory of the distributed path is diffable across commits.
//!
//! ```text
//! cargo run --release -p hpcg-bench --bin scaling_report -- \
//!     [--size 16] [--levels 2] [--iters 5] [--nodes 1,2,4,8] \
//!     [--out BENCH_dist.json]
//! ```

use bsp::collectives::allgather_h_bytes;
use bsp::cost::KernelClass;
use bsp::machine::MachineParams;
use graphblas::{CostSummary, Sequential};
use hpcg::distributed::{run_distributed, AlpDistHpcg};
use hpcg::{cg_solve, CgWorkspace, GrbHpcg, Grid3, Kernels, MgWorkspace, Problem, RhsVariant};
use hpcg_bench::cli::Args;
use hpcg_bench::hostinfo::{runtime_overhead_secs, HostInfo};
use hpcg_bench::table::Table;
use std::fmt::Write as _;

fn main() {
    let args = Args::from_env();
    let size = args.get_usize("size", 16);
    let levels = args.get_usize("levels", 2);
    let iters = args.get_usize("iters", 5);
    let nodes_list = args.get_usize_list("nodes", &[1, 2, 4, 8]);
    if let Some(raw) = args.get_str("nodes") {
        let entries = raw.split(',').filter(|s| !s.trim().is_empty()).count();
        if nodes_list.len() != entries || nodes_list.contains(&0) {
            eprintln!("error: invalid --nodes {raw:?} (expected a comma-separated list of positive integers)");
            std::process::exit(2);
        }
    }
    let out_path = args.get_str("out").unwrap_or("BENCH_dist.json").to_string();

    let machine = MachineParams::arm_cluster();
    let problem = Problem::build_with(Grid3::cube(size), levels, RhsVariant::Reference)
        .expect("cube size must be coarsenable to the requested levels");
    let n = problem.n();

    // Timed Sequential baseline of the exact same solve: the denominator
    // of each sweep point's real (measured, not modeled) speedup.
    let seq_secs = {
        let mut seq = GrbHpcg::<Sequential>::new(problem.clone());
        let mut cg_ws = CgWorkspace::new(&seq);
        let mut mg_ws = MgWorkspace::new(&seq);
        let mut x = seq.alloc(0);
        let b = problem.b.clone();
        let t0 = std::time::Instant::now();
        cg_solve(
            &mut seq, &mut cg_ws, &mut mg_ws, &b, &mut x, iters, 0.0, true,
        );
        t0.elapsed().as_secs_f64()
    };

    println!(
        "distributed scaling sweep: n = {n}, {levels} MG level(s), {iters} CG iteration(s), \
         nodes {nodes_list:?}\n"
    );
    let mut table = Table::new(&[
        "p",
        "modeled time",
        "measured time",
        "real speedup",
        "overlap hidden",
        "empty superstep",
        "comm",
        "supersteps",
        "spmv h/step",
        "n(p-1)/p model",
        "rel. residual",
    ]);

    let mut entries = String::new();
    for (i, &p) in nodes_list.iter().enumerate() {
        let mut alp = AlpDistHpcg::new(problem.clone(), p, machine);
        let b = problem.b.clone();
        let (report, _) = run_distributed(&mut alp, &b, iters);
        let summary = CostSummary::from_steps(p, "1D block-cyclic", alp.tracker().steps());

        // Table I closed-form cross-check against the run's own trace:
        // any fine-level spmv superstep carries the full-input allgather.
        let spmv_h = alp
            .tracker()
            .steps()
            .iter()
            .find(|s| s.class == KernelClass::SpMV && s.mg_level == Some(0))
            .expect("a CG run records fine-level spmv supersteps")
            .h_bytes;
        let closed_form = allgather_h_bytes(p, n / p, 8);
        // On even splits the recorded volume must BE the closed form — a
        // hard gate, so the ci.sh smoke sweep catches accounting drift.
        // (Uneven splits legitimately exceed floor(n/p) on the max shard.)
        if n.is_multiple_of(p) {
            assert_eq!(
                spmv_h, closed_form,
                "recorded allgather diverged from Table I's n(p-1)/p at p={p}"
            );
        }

        let real_speedup = seq_secs / summary.total_measured_secs.max(1e-12);
        let runtime_overhead = runtime_overhead_secs(p);
        table.row(vec![
            p.to_string(),
            format!("{:.3} ms", report.modeled_secs * 1e3),
            format!("{:.3} ms", summary.total_measured_secs * 1e3),
            format!("{real_speedup:.2}x"),
            format!("{:.3} ms", summary.total_overlap_hidden_secs * 1e3),
            format!("{:.2} us", runtime_overhead * 1e6),
            format!("{:.2} MB", report.comm_bytes / 1e6),
            report.supersteps.to_string(),
            format!("{spmv_h:.0} B"),
            format!("{closed_form:.0} B"),
            format!("{:.2e}", report.relative_residual),
        ]);

        let mut per_class = String::new();
        for (j, c) in summary.per_class.iter().enumerate() {
            let _ = write!(
                per_class,
                "{}{{\"class\": \"{}\", \"secs\": {:.9e}, \"measured_secs\": {:.9e}, \
                 \"model_error\": {:.4}, \"h_bytes\": {:.1}, \"steps\": {}}}",
                if j == 0 { "" } else { ", " },
                CostSummary::class_name(c.class),
                c.secs,
                c.measured_secs,
                c.model_error(),
                c.h_bytes,
                c.steps,
            );
        }
        let _ = write!(
            entries,
            "{}    {{\n      \"nodes\": {p},\n      \"modeled_secs\": {:.9e},\n      \
             \"measured_secs\": {:.9e},\n      \"model_error\": {:.4},\n      \
             \"real_speedup\": {:.4},\n      \"overlap_hidden_secs\": {:.9e},\n      \
             \"runtime_overhead_secs\": {runtime_overhead:.9e},\n      \
             \"comm_bytes\": {:.1},\n      \"supersteps\": {},\n      \
             \"relative_residual\": {:.6e},\n      \"spmv_h_bytes\": {spmv_h:.1},\n      \
             \"allgather_closed_form_bytes\": {closed_form:.1},\n      \
             \"per_class\": [{per_class}]\n    }}",
            if i == 0 { "" } else { ",\n" },
            report.modeled_secs,
            summary.total_measured_secs,
            summary.model_error(),
            real_speedup,
            summary.total_overlap_hidden_secs,
            report.comm_bytes,
            report.supersteps,
            report.relative_residual,
        );
    }
    print!("{}", table.render());

    let json = format!(
        "{{\n  \"bench\": \"scaling_report\",\n  \"implementation\": \"ALP distributed \
         (1D block-cyclic over graphblas::Distributed)\",\n  \"host\": {},\n  \"n\": {n},\n  \
         \"mg_levels\": {levels},\n  \"cg_iterations\": {iters},\n  \
         \"sequential_baseline_secs\": {seq_secs:.9e},\n  \"machine\": {{\n    \
         \"flops_per_sec\": {:.6e},\n    \"mem_bw_bytes_per_sec\": {:.6e},\n    \
         \"g_secs_per_byte\": {:.6e},\n    \"l_secs\": {:.6e}\n  }},\n  \"sweep\": [\n{entries}\n  ]\n}}\n",
        HostInfo::gather().to_json(),
        machine.flops_per_sec,
        machine.mem_bw_bytes_per_sec,
        machine.g_secs_per_byte,
        machine.l_secs,
    );
    std::fs::write(&out_path, &json).expect("writing the JSON report must succeed");
    println!("\nwrote {out_path} ({} bytes)", json.len());
}
