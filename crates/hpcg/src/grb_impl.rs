//! **ALP**: HPCG on GraphBLAS (paper §IV).
//!
//! Every kernel is a GraphBLAS primitive over opaque containers:
//!
//! | HPCG kernel | GraphBLAS realization |
//! |-------------|----------------------|
//! | `spmv` | `mxv` over `(+, ×)` |
//! | `dot` / norms | `dot` over `(+, ×)` |
//! | `waxpby` | `ewise().scaled(α, β)`: one element-wise stream |
//! | SGS smoother | RBGS: masked structural `mxv` + masked `eWiseLambda` per color (Listing 3) |
//! | restriction | `mxv` with the materialized `n/8 × n` matrix (§III-B) |
//! | refinement | accumulating `mxv` with the **transpose descriptor** on the same matrix — no materialized transpose (§IV) |
//!
//! The backend type parameter `B` selects sequential or shared-memory
//! parallel execution, the analogue of ALP's compile-time backend choice.
//!
//! # Deferred (nonblocking) execution
//!
//! The hot loops run as recorded op graphs: the CG pairs `spmv`+`⟨p, Ap⟩`
//! and residual-`axpy`+`‖r‖²` fuse into single passes, and the MG
//! residual/restrict chain and the RBGS sweep execute as recorded graphs.
//! There is no eager mode: the [`Kernels`] trait's default `spmv_dot`,
//! `axpy_norm2` and `residual_restrict` are the unfused sequences, and the
//! bit-identity tests run them through a test-only wrapper that keeps
//! those defaults.
//!
//! Each op graph is **compiled once per level** into a reusable
//! [`Plan`] held in a per-instance [`PlanCache`]: the
//! first call at a level records and fuses, every later call just rebinds
//! the iteration's buffers (and scalar parameters such as the CG `α`) and
//! replays the frozen schedule — recording and fusion drop out of the
//! iteration loop entirely. The cache is per-instance because a plan
//! captures its execution handle; keys only need to name the kernel and
//! level.

use crate::kernels::Kernels;
use crate::problem::Problem;
use crate::smoother::rbgs_grb;
use crate::timers::{Kernel, KernelTimers};
use graphblas::{ctx, plan_key, Backend, Ctx, Exec, Plan, PlanCache, Plus, Vector};
use std::time::Instant;

/// The GraphBLAS-based HPCG implementation.
///
/// Generic over the execution dispatcher: `GrbHpcg<Sequential>` /
/// `GrbHpcg<Parallel>` monomorphize the kernels (ALP's compile-time
/// backend), while `GrbHpcg<BackendKind>` — built via
/// [`GrbHpcg::with_ctx`] from a [`graphblas::DynCtx`] — selects the
/// backend at runtime (`--backend seq|par`).
pub struct GrbHpcg<E: Exec> {
    problem: Problem,
    /// Per-level workspace for the RBGS `tmp` buffer (Listing 3 line 7).
    tmp: Vec<Vector<f64>>,
    timers: KernelTimers,
    /// The execution context every kernel lowers through (ALP's launcher).
    ctx: Ctx<E>,
    /// Compiled plans for the hot op graphs, keyed by kernel and level —
    /// each graph records and fuses once, then replays every iteration.
    plans: PlanCache,
}

impl<B: Backend> GrbHpcg<B> {
    /// Wraps a generated problem on the compile-time backend `B`.
    pub fn new(problem: Problem) -> GrbHpcg<B> {
        GrbHpcg::with_ctx(problem, ctx::<B>())
    }
}

impl<E: Exec> GrbHpcg<E> {
    /// Wraps a generated problem on an explicit execution context
    /// (including the runtime-dispatched [`graphblas::DynCtx`]).
    pub fn with_ctx(problem: Problem, ctx: Ctx<E>) -> GrbHpcg<E> {
        let tmp = problem
            .levels
            .iter()
            .map(|l| Vector::zeros(l.n()))
            .collect();
        let timers = KernelTimers::new(problem.levels.len());
        GrbHpcg {
            problem,
            tmp,
            timers,
            ctx,
            plans: PlanCache::new(),
        }
    }

    /// The execution context kernels run on.
    pub fn ctx(&self) -> Ctx<E> {
        self.ctx
    }

    /// The underlying problem (levels, rhs).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Consumes self, returning the problem.
    pub fn into_problem(self) -> Problem {
        self.problem
    }
}

impl<E: Exec> Kernels for GrbHpcg<E> {
    type V = Vector<f64>;

    fn levels(&self) -> usize {
        self.problem.levels.len()
    }

    fn n_at(&self, level: usize) -> usize {
        self.problem.levels[level].n()
    }

    fn alloc(&self, level: usize) -> Vector<f64> {
        Vector::zeros(self.problem.levels[level].n())
    }

    fn set_zero(&mut self, _level: usize, v: &mut Vector<f64>) {
        v.clear();
    }

    fn copy(&mut self, _level: usize, src: &Vector<f64>, dst: &mut Vector<f64>) {
        dst.as_mut_slice().copy_from_slice(src.as_slice());
    }

    fn spmv(&mut self, level: usize, y: &mut Vector<f64>, x: &Vector<f64>) {
        let a = &self.problem.levels[level].a;
        let exec = self.ctx;
        self.timers.time(level, Kernel::SpMV, || {
            exec.mxv(a, x)
                .into(y)
                .expect("spmv dimensions fixed at setup");
        });
    }

    fn dot(&mut self, level: usize, x: &Vector<f64>, y: &Vector<f64>) -> f64 {
        let exec = self.ctx;
        self.timers.time(level, Kernel::Dot, || {
            exec.dot(x, y)
                .compute()
                .expect("dot dimensions fixed at setup")
        })
    }

    fn waxpby(
        &mut self,
        level: usize,
        w: &mut Vector<f64>,
        alpha: f64,
        x: &Vector<f64>,
        beta: f64,
        y: &Vector<f64>,
    ) {
        let exec = self.ctx;
        self.timers.time(level, Kernel::Waxpby, || {
            exec.ewise(x, y)
                .scaled(alpha, beta)
                .into(w)
                .expect("waxpby dimensions fixed at setup");
        });
    }

    fn axpy(&mut self, level: usize, x: &mut Vector<f64>, alpha: f64, y: &Vector<f64>) {
        let exec = self.ctx;
        self.timers.time(level, Kernel::Waxpby, || {
            exec.axpy(x, alpha, y)
                .expect("axpy dimensions fixed at setup");
        });
    }

    fn xpay(&mut self, level: usize, p: &mut Vector<f64>, beta: f64, z: &Vector<f64>) {
        let zs = z.as_slice();
        let exec = self.ctx;
        self.timers.time(level, Kernel::Waxpby, || {
            exec.transform(p)
                .apply(|i, pi| {
                    *pi = zs[i] + beta * *pi;
                })
                .expect("xpay dimensions fixed at setup");
        });
    }

    fn sub_reverse(&mut self, level: usize, w: &mut Vector<f64>, r: &Vector<f64>) {
        let rs = r.as_slice();
        let exec = self.ctx;
        self.timers.time(level, Kernel::Waxpby, || {
            exec.transform(w)
                .apply(|i, wi| {
                    *wi = rs[i] - *wi;
                })
                .expect("sub dimensions fixed at setup");
        });
    }

    fn spmv_dot(&mut self, level: usize, y: &mut Vector<f64>, x: &Vector<f64>) -> f64 {
        let a = &self.problem.levels[level].a;
        let exec = self.ctx;
        let n = a.nrows();
        let (plan, _) = self
            .plans
            .get_or_compile(plan_key(&("hpcg.spmv_dot", level)), || {
                crate::fused::build_spmv_dot_plan(exec, n)
            });
        let t0 = Instant::now();
        let d = crate::fused::spmv_dot_replay(&plan, a, x, y);
        // A fused pass cannot time its halves separately; attribute the
        // wall-clock to the SpMV and Dot cells in proportion to their
        // modeled flops (2·nnz vs 2·n, the constants reporting.rs uses) so
        // the breakdown figures stay comparable with the eager path.
        let elapsed = t0.elapsed().as_secs_f64();
        let (spmv_w, dot_w) = (2.0 * a.nnz() as f64, 2.0 * x.len() as f64);
        let spmv_frac = spmv_w / (spmv_w + dot_w);
        self.timers
            .add_secs(level, Kernel::SpMV, elapsed * spmv_frac);
        self.timers
            .add_secs(level, Kernel::Dot, elapsed * (1.0 - spmv_frac));
        d
    }

    fn axpy_norm2(
        &mut self,
        level: usize,
        x: &mut Vector<f64>,
        alpha: f64,
        y: &Vector<f64>,
    ) -> f64 {
        let exec = self.ctx;
        let len = x.len();
        let (plan, _) = self
            .plans
            .get_or_compile(plan_key(&("hpcg.axpy_norm", level)), || {
                crate::fused::build_axpy_norm_plan(exec, len)
            });
        let t0 = Instant::now();
        // The shared replay computes `x ← x − α·y`; negate to keep this
        // method's `x ← x + α·y` contract.
        let n = crate::fused::axpy_norm_replay(&plan, x, -alpha, y);
        // Update and norm model 2·n flops each: split the fused time
        // evenly between the Waxpby and Dot cells (see spmv_dot).
        let half = t0.elapsed().as_secs_f64() * 0.5;
        self.timers.add_secs(level, Kernel::Waxpby, half);
        self.timers.add_secs(level, Kernel::Dot, half);
        n
    }

    fn residual_restrict(
        &mut self,
        level: usize,
        f: &mut Vector<f64>,
        z: &Vector<f64>,
        r: &Vector<f64>,
        rc: &mut Vector<f64>,
    ) {
        let l = &self.problem.levels[level];
        let rmat = l
            .restriction
            .as_ref()
            .expect("residual_restrict called on a level with a coarser system");
        let a = &l.a;
        let exec = self.ctx;
        let (n, nc) = (a.nrows(), rmat.nrows());
        let (plan, _) = self
            .plans
            .get_or_compile(plan_key(&("hpcg.residual_restrict", level)), || {
                residual_restrict_plan(exec, n, nc)
            });
        let t0 = Instant::now();
        let mut b = plan.bindings();
        b.bind_matrix(plan.matrix_slot(0), a)
            .bind_matrix(plan.matrix_slot(1), rmat)
            .bind_input(plan.input_slot(0), z)
            .bind_input(plan.input_slot(1), r)
            .bind_output(plan.output_slot(0), f)
            .bind_output(plan.output_slot(1), rc);
        plan.run(&mut b)
            .expect("residual_restrict dimensions fixed at setup");
        drop(b);
        // Flop-proportional attribution across the three cells the eager
        // path charges (see spmv_dot): spmv / subtract / restriction.
        let elapsed = t0.elapsed().as_secs_f64();
        let (w_spmv, w_sub, w_restrict) = (
            2.0 * a.nnz() as f64,
            f.len() as f64,
            2.0 * rmat.nnz() as f64,
        );
        let total = w_spmv + w_sub + w_restrict;
        self.timers
            .add_secs(level, Kernel::SpMV, elapsed * w_spmv / total);
        self.timers
            .add_secs(level, Kernel::Waxpby, elapsed * w_sub / total);
        self.timers
            .add_secs(level, Kernel::RestrictRefine, elapsed * w_restrict / total);
    }

    fn smooth(&mut self, level: usize, x: &mut Vector<f64>, r: &Vector<f64>) {
        let l = &self.problem.levels[level];
        let tmp = &mut self.tmp[level];
        let exec = self.ctx;
        let (n, colors) = (l.n(), l.color_masks.len());
        let (plan, _) = self
            .plans
            .get_or_compile(plan_key(&("hpcg.rbgs", level)), || {
                rbgs_grb::build_rbgs_plan(exec, n, colors)
            });
        self.timers.time(level, Kernel::Smoother, || {
            rbgs_grb::rbgs_symmetric_replay(&plan, &l.a, &l.a_diag, &l.color_masks, r, x, tmp)
                .expect("smoother dimensions fixed at setup");
        });
    }

    fn restrict_to(&mut self, level: usize, rc: &mut Vector<f64>, rf: &Vector<f64>) {
        let r = self.problem.levels[level]
            .restriction
            .as_ref()
            .expect("restrict_to called on a level with a coarser system");
        let exec = self.ctx;
        self.timers.time(level, Kernel::RestrictRefine, || {
            exec.mxv(r, rf)
                .into(rc)
                .expect("restriction dimensions fixed at setup");
        });
    }

    fn prolong_add(&mut self, level: usize, zf: &mut Vector<f64>, zc: &Vector<f64>) {
        let r = self.problem.levels[level]
            .restriction
            .as_ref()
            .expect("prolong_add called on a level with a coarser system");
        let exec = self.ctx;
        self.timers.time(level, Kernel::RestrictRefine, || {
            exec.mxv(r, zc)
                .transpose()
                .accum(Plus)
                .into(zf)
                .expect("refinement dimensions fixed at setup");
        });
    }

    fn timers_mut(&mut self) -> &mut KernelTimers {
        &mut self.timers
    }

    fn timers(&self) -> &KernelTimers {
        &self.timers
    }

    fn name(&self) -> &'static str {
        "ALP (GraphBLAS)"
    }

    fn backend_name(&self) -> &'static str {
        self.ctx.backend_name()
    }
}

/// Compiles the MG residual/restrict chain — `f = A·z`, `f ← r − f`,
/// `rc = R·f` — for an `n`-row level restricting to `nc` rows. Slots:
/// matrices 0/1 are `A` and `R`, inputs 0/1 are `z` and `r`, outputs 0/1
/// are `f` and `rc`.
fn residual_restrict_plan<E: Exec>(exec: Ctx<E>, n: usize, nc: usize) -> Plan<f64, E> {
    let mut pb = exec.plan::<f64>();
    let am = pb.matrix(n, n);
    let rm = pb.matrix(nc, n);
    let zs = pb.input(n);
    let rs = pb.input(n);
    let fs = pb.output(n);
    let rcs = pb.output(nc);
    let fh = pb.mxv(am, zs).into(fs);
    pb.transform(fh).zip(rs).apply(|_i, fi, ri| *fi = ri - *fi);
    pb.mxv(rm, fh).into(rcs);
    pb.compile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Grid3;
    use crate::kernels::Unfused;
    use crate::problem::RhsVariant;
    use graphblas::Sequential;

    fn make() -> GrbHpcg<Sequential> {
        let p = Problem::build_with(Grid3::cube(8), 2, RhsVariant::Reference).unwrap();
        GrbHpcg::new(p)
    }

    #[test]
    fn kernel_shapes() {
        let mut k = make();
        assert_eq!(k.levels(), 2);
        assert_eq!(k.n_at(0), 512);
        assert_eq!(k.n_at(1), 64);
        let x = k.alloc(0);
        assert_eq!(x.len(), 512);
        let mut rc = k.alloc(1);
        let rf = Vector::filled(512, 1.0);
        k.restrict_to(0, &mut rc, &rf);
        assert!(
            rc.as_slice().iter().all(|&v| v == 1.0),
            "injection of constant is constant"
        );
    }

    #[test]
    fn prolong_add_accumulates() {
        let mut k = make();
        let zc = Vector::filled(64, 2.0);
        let mut zf = Vector::filled(512, 1.0);
        k.prolong_add(0, &mut zf, &zc);
        // Injected positions became 3, the rest stayed 1.
        let f2c = &k.problem().levels[0].f2c.clone();
        let zs = zf.as_slice();
        let mut injected = 0;
        for (i, &v) in zs.iter().enumerate() {
            if f2c.contains(&(i as u32)) {
                assert_eq!(v, 3.0);
                injected += 1;
            } else {
                assert_eq!(v, 1.0);
            }
        }
        assert_eq!(injected, 64);
    }

    #[test]
    fn timers_attribute_to_cells() {
        let mut k = make();
        let x = Vector::filled(512, 1.0);
        let mut y = k.alloc(0);
        k.spmv(0, &mut y, &x);
        let r1 = k.alloc(1);
        let mut z1 = k.alloc(1);
        k.smooth(1, &mut z1, &r1);
        assert!(k.timers().secs(0, Kernel::SpMV) > 0.0);
        assert!(k.timers().secs(1, Kernel::Smoother) > 0.0);
        assert_eq!(k.timers().secs(0, Kernel::Smoother), 0.0);
        assert_eq!(k.timers().secs(1, Kernel::SpMV), 0.0);
    }

    #[test]
    fn fused_kernel_overrides_match_eager_mode() {
        let p = Problem::build_with(Grid3::cube(8), 2, RhsVariant::Reference).unwrap();
        let mut fused = GrbHpcg::<Sequential>::new(p.clone());
        let mut eager = Unfused(GrbHpcg::<Sequential>::new(p));

        let x = Vector::from_dense((0..512).map(|i| (i % 7) as f64 - 3.0).collect::<Vec<_>>());
        let mut y_f = fused.alloc(0);
        let mut y_e = eager.alloc(0);
        let d_f = fused.spmv_dot(0, &mut y_f, &x);
        let d_e = eager.spmv_dot(0, &mut y_e, &x);
        assert_eq!(y_f.as_slice(), y_e.as_slice());
        assert_eq!(d_f.to_bits(), d_e.to_bits());

        let q = Vector::from_dense((0..512).map(|i| (i % 5) as f64).collect::<Vec<_>>());
        let n_f = fused.axpy_norm2(0, &mut y_f, -0.25, &q);
        let n_e = eager.axpy_norm2(0, &mut y_e, -0.25, &q);
        assert_eq!(y_f.as_slice(), y_e.as_slice());
        assert_eq!(n_f.to_bits(), n_e.to_bits());

        let z = Vector::from_dense((0..512).map(|i| (i % 3) as f64).collect::<Vec<_>>());
        let r = Vector::from_dense((0..512).map(|i| (i % 11) as f64 - 5.0).collect::<Vec<_>>());
        let mut f_f = fused.alloc(0);
        let mut f_e = eager.alloc(0);
        let mut rc_f = fused.alloc(1);
        let mut rc_e = eager.alloc(1);
        fused.residual_restrict(0, &mut f_f, &z, &r, &mut rc_f);
        eager.residual_restrict(0, &mut f_e, &z, &r, &mut rc_e);
        assert_eq!(f_f.as_slice(), f_e.as_slice());
        assert_eq!(rc_f.as_slice(), rc_e.as_slice());
        // The smoother's eager oracle is Listing 3's text, compared with
        // the compiled sweep in `rbgs_grb`'s tests.
    }

    #[test]
    fn vector_ops() {
        let mut k = make();
        let x = Vector::filled(512, 2.0);
        let y = Vector::filled(512, 3.0);
        let mut w = k.alloc(0);
        k.waxpby(0, &mut w, 2.0, &x, 1.0, &y);
        assert!(w.as_slice().iter().all(|&v| v == 7.0));
        k.axpy(0, &mut w, -1.0, &y);
        assert!(w.as_slice().iter().all(|&v| v == 4.0));
        k.xpay(0, &mut w, 0.5, &x);
        assert!(w.as_slice().iter().all(|&v| v == 4.0), "2 + 0.5*4 = 4");
        let d = k.dot(0, &x, &y);
        assert_eq!(d, 512.0 * 6.0);
        k.sub_reverse(0, &mut w, &x);
        assert!(w.as_slice().iter().all(|&v| v == -2.0));
    }
}
