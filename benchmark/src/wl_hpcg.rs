//! `hpcg32-seq`, `hpcg32-par`, `hpcg32-dist2`: the paper's own workload.
//!
//! One op is a five-iteration MG-preconditioned `cg_solve` from `x = 0` on
//! the 32³ problem with preallocated workspaces; one round is one op. The
//! three workloads differ only in the backend the ALP implementation runs
//! on, so a kernel change moves all three and a runtime or exchange change
//! moves only `par`/`dist2`.

use crate::probes;
use crate::report::{share, use_threads, Opts, Outcome, SETUPS};
use crate::stats;
use crate::trace::Tracer;
use crate::traced::{self, Bucket, Traced};
use graphblas::{BackendKind, Distributed, DynCtx, Sequential};
use hpcg::{
    bytes_per_iteration, cg_solve, flops_per_iteration, CgWorkspace, GrbHpcg, Grid3, Kernels,
    MgWorkspace, Problem, RefHpcg, RhsVariant,
};
use std::time::Instant;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Which {
    Seq,
    Par,
    Dist2,
}

const ITERS: usize = 5;
const MG_LEVELS: usize = 4;

impl Which {
    /// Rounds per second at 32³ on the calibration host (2 vCPUs).
    fn round_rate(self) -> f64 {
        match self {
            Which::Seq => 28.0,
            Which::Par => 20.0,
            Which::Dist2 => 5.0,
        }
    }

    /// Threads the backend may keep runnable. `dist:2` is fixed at two
    /// nodes; `Parallel` gets `min(nproc, 4)`.
    fn threads(self, logical_cpus: usize) -> usize {
        match self {
            Which::Seq => 1,
            Which::Par => logical_cpus.min(4),
            Which::Dist2 => 2,
        }
    }

    /// A fresh context; for `dist:2` this constructs the cluster.
    fn ctx(self) -> DynCtx {
        DynCtx::runtime(match self {
            Which::Seq => BackendKind::Sequential,
            Which::Par => BackendKind::Parallel,
            Which::Dist2 => BackendKind::Dist(Distributed::new(2)),
        })
    }

    /// Whether a relative residual matches the `Sequential` reference:
    /// bit-equal on `seq` and `dist:2`, within 1e-9 relative on `par`,
    /// whose reductions re-associate.
    fn residual_ok(self, got: f64, reference: f64) -> bool {
        match self {
            Which::Par => ((got - reference) / reference).abs() <= 1e-9,
            _ => got.to_bits() == reference.to_bits(),
        }
    }
}

/// An implementation plus everything a solve needs, allocated once.
struct Solver<K: Kernels> {
    k: K,
    cg_ws: CgWorkspace<K::V>,
    mg_ws: MgWorkspace<K::V>,
    b: K::V,
    x: K::V,
}

impl<K: Kernels> Solver<K> {
    fn new(k: K, b: K::V) -> Solver<K> {
        let (cg_ws, mg_ws, x) = (CgWorkspace::new(&k), MgWorkspace::new(&k), k.alloc(0));
        Solver {
            k,
            cg_ws,
            mg_ws,
            b,
            x,
        }
    }

    /// One op: zero `x` (untimed), then the timed solve. Returns the
    /// seconds and the final relative residual.
    fn solve(&mut self) -> (f64, f64) {
        self.k.set_zero(0, &mut self.x);
        let t0 = Instant::now();
        let res = cg_solve(
            &mut self.k,
            &mut self.cg_ws,
            &mut self.mg_ws,
            &self.b,
            &mut self.x,
            ITERS,
            0.0,
            true,
        );
        (t0.elapsed().as_secs_f64(), res.relative_residual)
    }
}

impl<K: Kernels> Solver<Traced<K>> {
    /// One op recorded as a solve span with the kernel nest below it.
    fn solve_traced(&mut self) -> (f64, f64) {
        self.k.inner.set_zero(0, &mut self.x);
        self.k.tracer.set_on(true);
        self.k.tracer.begin_op();
        let t0 = Instant::now();
        let span = self.k.tracer.enter(traced::SOLVE);
        let res = cg_solve(
            &mut self.k,
            &mut self.cg_ws,
            &mut self.mg_ws,
            &self.b,
            &mut self.x,
            ITERS,
            0.0,
            true,
        );
        self.k.tracer.exit(span);
        let secs = t0.elapsed().as_secs_f64();
        self.k.tracer.set_on(false);
        (secs, res.relative_residual)
    }
}

/// ALP on `Sequential`: the reference every residual is checked against, and
/// the baseline of `backend.speedup_vs_seq`.
fn sequential_solver(problem: &Problem) -> Solver<GrbHpcg<Sequential>> {
    Solver::new(GrbHpcg::new(problem.clone()), problem.b.clone())
}

fn build_problem(size: usize) -> Problem {
    Problem::build_with(Grid3::cube(size), MG_LEVELS, RhsVariant::Reference)
        .expect("grid edge must be divisible by 8")
}

/// The program side of set-up, from scratch: generate the problem, build
/// the context (and cluster), wrap it, allocate workspaces, and run the
/// first op, which compiles every plan. Returns the warm solver, the
/// seconds it took, and the first op's residual.
fn set_up(which: Which, size: usize) -> (Solver<GrbHpcg<BackendKind>>, f64, f64) {
    let t0 = Instant::now();
    let problem = build_problem(size);
    let b = problem.b.clone();
    let mut solver = Solver::new(GrbHpcg::with_ctx(problem, which.ctx()), b);
    let (_, residual) = solver.solve();
    (solver, t0.elapsed().as_secs_f64(), residual)
}

/// Drops the cost trace a `dist` solve left behind so the cluster's memory
/// does not grow with the round count. Done between rounds, untimed.
fn reset_costs(ctx: DynCtx) {
    if let BackendKind::Dist(d) = ctx.kind() {
        d.reset_costs();
    }
}

struct Check {
    which: Which,
    reference: f64,
    attempted: u64,
    failed: u64,
}

impl Check {
    fn op(&mut self, residual: f64) {
        self.attempted += 1;
        if !self.which.residual_ok(residual, self.reference) {
            self.failed += 1;
        }
    }
}

pub fn run(which: Which, opts: &Opts, logical_cpus: usize) -> Outcome {
    let size = opts.size.unwrap_or(if opts.smoke { 8 } else { 32 });
    let threads = which.threads(logical_cpus);
    // `RefHpcg` and `Parallel` both size themselves from the rayon shim's
    // global count: Ref runs on as many threads as the ALP backend does.
    use_threads(threads);

    // Benchmark-side set-up: the reference residual from a `Sequential`
    // solve of the same problem, computed once and outside every timing.
    let reference_problem = build_problem(size);
    let flops_per_iter = flops_per_iteration(&reference_problem);
    let bytes_per_iter = bytes_per_iteration(&reference_problem);
    let mut check = Check {
        which,
        reference: sequential_solver(&reference_problem).solve().1
            + if opts.selftest_fail { 1.0 } else { 0.0 },
        attempted: 0,
        failed: 0,
    };

    let scale = (32.0 / size as f64).powi(3);
    let rounds = opts.rounds(which.round_rate() * scale);
    let mut out = Outcome::new(1, flops_per_iter * ITERS as f64 / 1e9, "GFLOP", threads);

    if !opts.trace {
        let budget = opts.budget();
        for instance in 0..SETUPS {
            // The previous instance was dropped before this one is built,
            // so peak memory is that of one instance.
            let (mut solver, secs, residual) = set_up(which, size);
            check.op(residual);
            out.setup_secs.push(secs);
            let ctx = solver.k.ctx();
            check.op(solver.solve().1); // warm-up round
            for _ in 0..share(rounds, instance) {
                if budget.exhausted(out.round_secs.len()) {
                    break;
                }
                reset_costs(ctx);
                let (secs, residual) = solver.solve();
                check.op(residual);
                out.round_secs.push(secs);
            }
        }
    } else {
        traced_run(
            which,
            opts,
            size,
            rounds,
            &mut check,
            reference_problem,
            &mut out,
        );
        out.layer.extend([
            ("hpcg.flops_per_iter", flops_per_iter),
            ("hpcg.bytes_per_iter", bytes_per_iter),
        ]);
    }
    out.attempted = check.attempted;
    out.failed = check.failed;
    out
}

/// The `--trace 1` process: per cycle one untraced ALP round, one traced
/// ALP round, one Ref round and one `Sequential` ALP round, interleaved so
/// all four see the same host conditions; then the span census and the
/// layer probes.
fn traced_run(
    which: Which,
    opts: &Opts,
    size: usize,
    cycles: usize,
    check: &mut Check,
    problem: Problem,
    out: &mut Outcome,
) {
    let (warm, _, residual) = set_up(which, size);
    check.op(residual);
    let ctx = warm.k.ctx();
    let mut alp = Solver::new(Traced::new(warm.k, Tracer::new(Instant::now(), 0)), warm.b);
    let mut reference = Solver::new(RefHpcg::new(problem.clone()), problem.b.as_slice().to_vec());
    let mut seq = sequential_solver(&problem);
    let ref_residual = reference.solve().1; // warm-up
    alp.solve();
    seq.solve();

    let (mut ref_secs, mut seq_secs) = (Vec::new(), Vec::new());
    let (mut hidden_ms, mut model_error) = (Vec::new(), Vec::new());
    let budget = opts.budget();
    for done in 0..cycles {
        if budget.exhausted(done) {
            break;
        }
        // The untraced and the traced round swap places every cycle, so
        // neither always runs on the caches the other left warm.
        for traced in [done % 2 == 1, done % 2 == 0] {
            reset_costs(ctx);
            if !traced {
                let (secs, residual) = alp.solve();
                check.op(residual);
                out.round_secs.push(secs);
                continue;
            }
            let (secs, residual) = alp.solve_traced();
            check.op(residual);
            out.traced_round_secs.push(secs);
            if let BackendKind::Dist(d) = ctx.kind() {
                hidden_ms.push(d.total_overlap_hidden_secs() * 1e3);
                model_error.push(d.cost_summary().model_error());
            }
        }
        ref_secs.push(reference.solve().0);
        seq_secs.push(seq.solve().0);
    }

    let alp_fast = stats::fast_decile(&out.round_secs);
    let ref_fast = stats::fast_decile(&ref_secs);
    out.layer.extend([
        ("hpcg.rel_residual", residual),
        ("hpcg.ref_op_ms", ref_fast * 1e3),
        ("hpcg.alp_over_ref", ref_fast / alp_fast),
        (
            "backend.speedup_vs_seq",
            stats::fast_decile(&seq_secs) / alp_fast,
        ),
    ]);
    // Ref's dots are chunked differently from ALP's, so its residual agrees
    // to rounding, not to the bit (the repo's own tests use 1e-9).
    check.attempted += 1;
    if ((ref_residual - check.reference) / check.reference).abs() > 1e-9 {
        check.failed += 1;
    }

    breakdown(&alp.k.tracer, &mut out.layer);

    // Counts the program itself keeps, read around one extra op: its own
    // spans, the plan-cache counters, and on `dist` the cluster's trace.
    reset_costs(ctx);
    let census = probes::census(|| check.op(alp.solve().1));
    out.layer.extend(census.metrics(1));
    if let BackendKind::Dist(d) = ctx.kind() {
        out.layer.extend([
            ("bsp.supersteps_per_op", d.supersteps() as f64),
            ("bsp.h_mb_per_op", d.total_h_bytes() / 1e6),
            ("bsp.modeled_ms_per_op", d.total_modeled_secs() * 1e3),
            ("bsp.overlap_hidden_ms_per_op", stats::median(&hidden_ms)),
            ("bsp.model_error", stats::median(&model_error)),
        ]);
    }

    let level0 = &problem.levels[0];
    out.layer.extend(probes::standard(
        ctx,
        &level0.a,
        &level0.color_masks[0],
        probes::calls(opts.smoke),
        census.kernel_spans() as f64,
        alp_fast,
    ));

    let Solver { k, .. } = alp;
    out.tracers.push(k.tracer);
}

/// `hpcg.*` self times per CG iteration, averaged over the faster half of
/// the traced solves (the half interference touched least).
fn breakdown(tracer: &Tracer, layer: &mut Vec<(&'static str, f64)>) {
    let spans = tracer.spans();
    let solves: Vec<_> = spans.iter().filter(|s| s.name == traced::SOLVE).collect();
    let durs: Vec<f64> = solves.iter().map(|s| s.dur_ns() as f64).collect();
    let cut = stats::median(&durs);
    let quiet: std::collections::BTreeSet<u32> = solves
        .iter()
        .filter(|s| s.dur_ns() as f64 <= cut)
        .map(|s| s.op)
        .collect();
    let in_quiet = |s: &crate::trace::Span| quiet.contains(&s.op);
    let iters = (quiet.len() * ITERS) as f64;
    let per_iter_ms = |secs: f64| secs * 1e3 / iters;

    let solve_secs = tracer.dur_secs_where(|s| in_quiet(s) && s.name == traced::SOLVE);
    let bucket_ms = |b: Bucket| {
        per_iter_ms(tracer.self_secs_where(|s| in_quiet(s) && traced::bucket(s.name) == Some(b)))
    };
    let unaccounted = tracer.self_secs_where(|s| in_quiet(s) && traced::bucket(s.name).is_none());
    let kernel_calls = tracer.count_where(|s| in_quiet(s) && traced::bucket(s.name).is_some());
    let level_secs = |name: &str| tracer.dur_secs_where(|s| in_quiet(s) && s.name == name);
    layer.extend([
        ("hpcg.smoother_ms", bucket_ms(Bucket::Smoother)),
        ("hpcg.spmv_ms", bucket_ms(Bucket::Spmv)),
        ("hpcg.dot_ms", bucket_ms(Bucket::Dot)),
        ("hpcg.waxpby_ms", bucket_ms(Bucket::Waxpby)),
        ("hpcg.restrict_refine_ms", bucket_ms(Bucket::RestrictRefine)),
        ("hpcg.unaccounted_ms", per_iter_ms(unaccounted)),
        ("hpcg.mg_share", level_secs(traced::LEVELS[0]) / solve_secs),
        (
            "hpcg.coarse_share",
            level_secs(traced::LEVELS[1]) / solve_secs,
        ),
        ("hpcg.kernel_calls_per_iter", kernel_calls as f64 / iters),
    ]);
}
