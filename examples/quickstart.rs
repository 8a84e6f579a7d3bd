//! Quickstart: generate an HPCG problem, run both implementations, and
//! validate them — the five-minute tour of the library.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use graphblas::{BackendKind, DynCtx, GrbError, Minus, Parallel, Vector};
use hpcg::driver::{flops_per_iteration, run_with_rhs, RunConfig};
use hpcg::{validate, GrbHpcg, Grid3, Kernels, Problem, RefHpcg, RhsVariant};

fn main() -> Result<(), GrbError> {
    // 1. Generate the benchmark problem: a 32³ grid, 4 multigrid levels,
    //    27-point stencil, rhs whose exact solution is the ones vector.
    let grid = Grid3::cube(32);
    let problem = Problem::build_with(grid, 4, RhsVariant::Reference)?;
    println!(
        "problem: {}x{}x{} grid, n = {}, nnz = {} over {} levels",
        grid.nx,
        grid.ny,
        grid.nz,
        problem.n(),
        problem.total_nnz(),
        problem.levels.len()
    );
    for l in &problem.levels {
        println!(
            "  level {:>2}: n = {:>7}, colors = {}, restriction = {}",
            format!("{}³", l.grid.nx),
            l.n(),
            l.coloring.num_colors,
            if l.has_coarse() {
                "materialized n/8 x n CSR"
            } else {
                "none (coarsest)"
            }
        );
    }

    // 2. Run 25 preconditioned CG iterations through the GraphBLAS (ALP)
    //    implementation on the parallel backend. (`GrbHpcg::with_ctx` with
    //    a `DynCtx` would select the backend at runtime instead — that is
    //    what `hpcg_report --backend seq|par` does.)
    let flops = flops_per_iteration(&problem);
    let config = RunConfig {
        iterations: 25,
        preconditioned: true,
    };
    let b = problem.b.clone();
    let mut alp = GrbHpcg::<Parallel>::new(problem.clone());
    let (report, cg) = run_with_rhs(&mut alp, &b, flops, config);
    println!(
        "\n{}: {} iterations in {:.3} s  ({:.2} GFLOP/s, residual {:.2e})",
        report.name, report.iterations, report.total_secs, report.gflops, cg.relative_residual
    );
    println!(
        "  smoother share {:.1} %, whole MG share {:.1} % (paper §V-C: >50 %, 80-90 %)",
        100.0 * report.smoother_fraction(),
        100.0 * report.mg_fraction()
    );

    // 3. Same through the reference implementation.
    let b_vec = problem.b.as_slice().to_vec();
    let mut reference = RefHpcg::new(problem.clone());
    let (report_ref, cg_ref) = run_with_rhs(&mut reference, &b_vec, flops, config);
    println!(
        "{}: {} iterations in {:.3} s  ({:.2} GFLOP/s, residual {:.2e})",
        report_ref.name,
        report_ref.iterations,
        report_ref.total_secs,
        report_ref.gflops,
        cg_ref.relative_residual
    );

    // 4. HPCG's validation suite: smoother symmetry + preconditioning gain.
    let mut alp_v = GrbHpcg::<Parallel>::new(problem.clone());
    let v = validate(&mut alp_v, &b, 200);
    println!(
        "\nvalidation: symmetry defects spmv {:.1e} / MG {:.1e}, PCG {} iters vs plain CG {} → {}",
        v.spmv_symmetry_defect,
        v.mg_symmetry_defect,
        v.pcg_iterations,
        v.plain_cg_iterations,
        if v.passed { "PASSED" } else { "FAILED" }
    );

    // 5. The execution-context API directly: for the reference rhs the
    //    exact solution is the ones vector, so A·1 must reproduce b.
    //    Verify it with fluent builders on a runtime-selected backend
    //    (set GRB_BACKEND=seq to flip it).
    let exec = DynCtx::from_env_or(BackendKind::Parallel)?;
    let a0 = &problem.levels[0].a;
    let ones = Vector::filled(problem.n(), 1.0);
    let mut a_ones = Vector::zeros(problem.n());
    exec.mxv(a0, &ones).into(&mut a_ones)?;
    let mut diff = Vector::zeros(problem.n());
    exec.ewise(&b, &a_ones).op(Minus).into(&mut diff)?;
    let defect = exec.norm2_squared(&diff)?.sqrt();
    println!(
        "\nctx check on '{}': ‖b − A·1‖ = {defect:.2e} (the reference rhs solves to ones)",
        exec.backend_name()
    );

    // 6. Compile once, replay many times: record an op graph against
    //    symbolic slots, fuse it into an immutable `Plan`, then replay it
    //    with rebound vectors and a mutated scalar parameter — no
    //    re-recording, no re-fusion. This is the path the CG loop and the
    //    serve workers take on every iteration after the first. (For a
    //    graph that runs once, `exec.pipeline()` hands out the same
    //    `PlanBuilder` over borrowed operands, and `finish()` runs it
    //    through the same interpreter. Each recorded op stores the kernel
    //    its eager call runs, so any semiring records.)
    let n = problem.n();
    let plan = {
        let mut pb = exec.plan::<f64>();
        let am = pb.matrix(n, n); // slot: the operator
        let xs = pb.input(n); // slot: the direction vector
        let ys = pb.output(n); // slot: receives A·x
        let alpha = pb.param(0.0); // scalar mutated between replays
        let yh = pb.mxv(am, xs).into(ys);
        pb.dot(xs, yh).result(); // fuses with the mxv into one pass
        pb.axpy(ys, alpha, xs);
        pb.compile()
    };
    let mut y_out = Vector::zeros(n);
    for (run, alpha) in [(1, 0.5), (2, -1.25)] {
        let mut bnd = plan.bindings();
        bnd.bind_matrix(plan.matrix_slot(0), a0)
            .bind_input(plan.input_slot(0), &ones)
            .bind_output(plan.output_slot(0), &mut y_out)
            .set(plan.param(0), alpha);
        let xt_ax = plan.run(&mut bnd)?[plan.scalar(0)];
        println!(
            "plan replay {run}: 1ᵀA·1 = {xt_ax:.1} with α = {alpha} (schedule compiled once, {} stages)",
            plan.schedule().len()
        );
    }
    // 7. The large-graph subsystem: BFS over a Graph500-style RMAT graph
    //    on sparse frontiers. `GraphMatrix` keeps both orientations so
    //    the traversal can scatter sparse frontiers through the columns
    //    (push) and sweep dense ones through the rows (pull); the level
    //    vector is bit-identical to the dense-vector baseline either way.
    let rmat = hpcg_bench::rmat::rmat_adjacency(hpcg_bench::rmat::RmatConfig {
        scale: 10,
        edge_factor: 8,
        seed: 7,
    });
    let nv = rmat.nrows();
    let hub = (0..nv).max_by_key(|&v| rmat.row(v).0.len()).unwrap_or(0);
    let graph = graphblas::GraphMatrix::from_csr(rmat.clone());
    let (levels, stats) =
        graphblas::algorithms::bfs_levels_on(graphblas::ctx::<Parallel>(), &graph, hub)?;
    let baseline =
        graphblas::algorithms::bfs_levels_dense(graphblas::ctx::<Parallel>(), &rmat, hub)?;
    assert_eq!(
        levels, baseline,
        "sparse frontiers change nothing but the work"
    );
    let reached = levels.iter().filter(|&&l| l >= 0).count();
    println!(
        "\nRMAT BFS: 2^10 vertices, {} edges; reached {reached} from hub {hub} in {} rounds \
         ({} push, {} pull)",
        rmat.nnz() / 2,
        stats.steps(),
        stats.push_steps,
        stats.pull_steps
    );
    // 8. Observability: flip the global tracing flag on, replay the plan
    //    from step 6 under it, and export the spans as Chrome trace-event
    //    JSON. Every kernel, plan compile/run, and (on `dist`) superstep
    //    records a span; with the flag off (the default) the probe in
    //    each kernel costs one relaxed atomic load. Metrics ride along in
    //    a registry of counters and log-bucketed latency histograms.
    obs::set_enabled(true);
    {
        let mut bnd = plan.bindings();
        bnd.bind_matrix(plan.matrix_slot(0), a0)
            .bind_input(plan.input_slot(0), &ones)
            .bind_output(plan.output_slot(0), &mut y_out)
            .set(plan.param(0), 2.0);
        plan.run(&mut bnd)?;
    }
    obs::set_enabled(false);
    let trace_path = std::env::temp_dir().join("quickstart_trace.json");
    std::fs::write(&trace_path, obs::chrome_trace()).expect("trace write");
    println!(
        "\ntraced {} span(s) -> {} (open in Perfetto or chrome://tracing; \
         try `hpcg_report --trace out.json` for a full solve)",
        obs::span_count(),
        trace_path.display()
    );
    let hist = obs::global().histogram("quickstart.demo_ns");
    hist.record(1_250);
    hist.record(975);
    println!(
        "metrics registry: {} sample(s), p50 {} ns -> {}",
        hist.count(),
        hist.percentile(50.0),
        obs::global().dump_json()
    );
    // 9. Sharded distributed execution: the same solver on a simulated
    //     4-node BSP cluster whose kernels really execute across 4 worker
    //     threads over sharded containers, split-phase exchanges
    //     overlapping local compute. Results stay bit-identical to
    //     `Sequential`; what the cluster hands back afterwards is the
    //     modeled-vs-measured cross-check and the overlap win — the same
    //     columns `hpcg_report --backend dist:4` and `scaling_report`
    //     print at full size.
    let small = Problem::build_with(Grid3::cube(8), 2, RhsVariant::Reference)?;
    let small_flops = flops_per_iteration(&small);
    let small_config = RunConfig {
        iterations: 5,
        preconditioned: true,
    };
    let sb = small.b.clone();
    let mut seq = GrbHpcg::<graphblas::Sequential>::new(small.clone());
    let (_, cg_seq) = run_with_rhs(&mut seq, &sb, small_flops, small_config);
    let cluster = graphblas::Distributed::new(4);
    let mut dist = GrbHpcg::with_ctx(small, cluster.ctx());
    let (_, cg_dist) = run_with_rhs(&mut dist, &sb, small_flops, small_config);
    assert_eq!(
        cg_seq.relative_residual.to_bits(),
        cg_dist.relative_residual.to_bits(),
        "sharded execution changes the schedule, never the bits"
    );
    let summary = cluster.cost_summary();
    println!(
        "\ndist:4 HPCG (8³, {} iters): modeled {:.3} ms vs measured {:.3} ms \
         (x{:.2} model error), {:.3} ms exchange hidden behind compute over {} supersteps",
        cg_dist.iterations,
        summary.total_secs * 1e3,
        summary.total_measured_secs * 1e3,
        summary.model_error(),
        summary.total_overlap_hidden_secs * 1e3,
        summary.supersteps,
    );
    print!("{summary}");
    let _ = alp.timers();
    Ok(())
}
