//! **Figure 3** — weak scaling on the (simulated) ARM cluster.
//!
//! Paper setup: 2..7 nodes, input size growing proportionally to the node
//! count, fixed iterations. Result: Ref stays flat (≤5 % variation across
//! node counts) while ALP's execution time grows linearly with nodes —
//! the Table I communication asymptotics made visible.
//!
//! Additionally prints the §VII-B(ii) what-if as a *modeled* third series:
//! the 1D ALP run's trace re-priced for a 2D block distribution
//! (`(pr−1+pc−1)·n/p` exchange instead of `(p−1)·n/p`, see
//! `reprice_block2d`), the partial mitigation the paper proposes as future
//! work.
//!
//! ```text
//! cargo run --release -p hpcg-bench --bin fig3_weak_scaling \
//!     [--local 16] [--iters 5] [--nodes 2,3,4,5,6,7]
//! ```

use bsp::machine::MachineParams;
use bsp::StepCost;
use hpcg::distributed::{reprice_block2d, run_distributed, AlpDistHpcg, RefDistHpcg};
use hpcg::{Grid3, Problem, RhsVariant};
use hpcg_bench::breakdown::weak_grid;
use hpcg_bench::cli::Args;
use hpcg_bench::table::{fmt_bytes, fmt_secs, Table};

fn main() {
    let args = Args::from_env();
    let local = args.get_usize("local", 16);
    let iters = args.get_usize("iters", 5);
    let nodes_list = args.get_usize_list("nodes", &[2, 3, 4, 5, 6, 7]);
    let machine = MachineParams::arm_cluster();

    println!(
        "weak scaling: {local}^3 points per node, {iters} CG iterations, simulated ARM cluster\n"
    );
    let mut t = Table::new(&[
        "nodes",
        "n",
        "Ref time",
        "ALP time",
        "ALP-2D time",
        "ALP/Ref",
        "Ref comm",
        "ALP comm",
        "ALP-2D comm",
    ]);

    let mut series: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &p in &nodes_list {
        let (nx, ny, nz) = weak_grid(p, local);
        let problem = Problem::build_with(Grid3::new(nx, ny, nz), 4, RhsVariant::Reference)
            .expect("weak-scaling grid is divisible by 8");
        let n = problem.n();

        let b_grb = problem.b.clone();
        let mut alp = AlpDistHpcg::new(problem.clone(), p, machine);
        let (ra, _) = run_distributed(&mut alp, &b_grb, iters);
        let steps2d = reprice_block2d(alp.tracker().steps(), p, machine);
        let alp2d_secs: f64 = steps2d.iter().map(StepCost::total_secs).sum();
        let alp2d_comm: f64 = steps2d.iter().map(|s| s.h_bytes).sum();

        let b_vec = problem.b.as_slice().to_vec();
        let mut rd = RefDistHpcg::new(problem, p, machine);
        let (rr, _) = run_distributed(&mut rd, &b_vec, iters);

        t.row(vec![
            p.to_string(),
            n.to_string(),
            fmt_secs(rr.modeled_secs),
            fmt_secs(ra.modeled_secs),
            fmt_secs(alp2d_secs),
            format!("{:.2}x", ra.modeled_secs / rr.modeled_secs),
            fmt_bytes(rr.comm_bytes),
            fmt_bytes(ra.comm_bytes),
            fmt_bytes(alp2d_comm),
        ]);
        series.push((p, rr.modeled_secs, ra.modeled_secs, alp2d_secs));
    }
    print!("{}", t.render());

    println!("\nshape checks (paper §V-B and §VII-B):");
    if series.len() >= 2 {
        let ref_min = series
            .iter()
            .map(|&(_, r, _, _)| r)
            .fold(f64::INFINITY, f64::min);
        let ref_max = series.iter().map(|&(_, r, _, _)| r).fold(0.0f64, f64::max);
        println!(
            "  Ref flatness: max/min = {:.3} (paper: within ~5%)",
            ref_max / ref_min
        );
        let (p0, _, a0, _) = series[0];
        let (p1, _, a1, _) = *series.last().unwrap();
        println!(
            "  ALP growth {}→{} nodes: {:.2}x (paper: grows ~linearly with p)",
            p0,
            p1,
            a1 / a0
        );
        let increments: Vec<f64> = series.windows(2).map(|w| w[1].2 - w[0].2).collect();
        let max_inc = increments.iter().fold(0.0f64, |a, &b| a.max(b));
        let min_inc = increments.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        println!(
            "  ALP per-node increment spread: max/min = {:.2} (1.0 = perfectly linear)",
            max_inc / min_inc
        );
        let all_between = series
            .iter()
            .all(|&(_, r, a, a2)| a2 <= a + 1e-12 && a2 >= r - 1e-12);
        println!(
            "  2D layout sits between Ref and 1D ALP at every node count: {all_between} (§VII-B: partial mitigation)"
        );
    }
}
