//! The kernel interface both HPCG implementations provide.
//!
//! The paper builds HPCG twice — once on GraphBLAS (ALP), once in the
//! reference code base (Ref) — but the *solver logic* (CG iteration, MG
//! V-cycle, Listing 1) is identical. [`Kernels`] captures exactly the
//! operations that logic needs; [`crate::cg`] and [`crate::mg`] are written
//! once against it, and [`crate::grb_impl::GrbHpcg`] /
//! [`crate::ref_impl::RefHpcg`] plug in their own containers and kernels.
//!
//! Every method carries the multigrid `level` it operates at so
//! implementations can attribute time to the right cell of the breakdown
//! figures (Figs 4-7).

use crate::timers::KernelTimers;

/// The operations HPCG's solvers require of an implementation.
pub trait Kernels {
    /// The vector container of this implementation.
    type V: Clone + Send;

    /// Number of multigrid levels.
    fn levels(&self) -> usize;

    /// Unknowns at `level` (0 = finest).
    fn n_at(&self, level: usize) -> usize;

    /// A zero vector sized for `level`.
    fn alloc(&self, level: usize) -> Self::V;

    /// Zeroes `v` (sized for `level`).
    fn set_zero(&mut self, level: usize, v: &mut Self::V);

    /// `dst ← src` (both sized for `level`).
    fn copy(&mut self, level: usize, src: &Self::V, dst: &mut Self::V);

    /// `y ← A_level · x`.
    fn spmv(&mut self, level: usize, y: &mut Self::V, x: &Self::V);

    /// `⟨x, y⟩`.
    fn dot(&mut self, level: usize, x: &Self::V, y: &Self::V) -> f64;

    /// `w ← α·x + β·y`.
    fn waxpby(
        &mut self,
        level: usize,
        w: &mut Self::V,
        alpha: f64,
        x: &Self::V,
        beta: f64,
        y: &Self::V,
    );

    /// `x ← x + α·y`.
    fn axpy(&mut self, level: usize, x: &mut Self::V, alpha: f64, y: &Self::V);

    /// `y ← A_level · x` and `⟨x, y⟩` as one logical step — CG needs
    /// `⟨p, Ap⟩` immediately after `Ap`, so implementations may fuse the
    /// pair into a single pass (the nonblocking-execution optimization,
    /// paper §VI). The default runs the unfused pair; fused
    /// implementations must stay bit-identical to it.
    fn spmv_dot(&mut self, level: usize, y: &mut Self::V, x: &Self::V) -> f64 {
        self.spmv(level, y, x);
        self.dot(level, x, y)
    }

    /// `x ← x + α·y` and `‖x‖²` of the update as one logical step — CG
    /// needs the residual norm immediately after the residual update. Same
    /// fusion contract as [`spmv_dot`](Kernels::spmv_dot).
    fn axpy_norm2(&mut self, level: usize, x: &mut Self::V, alpha: f64, y: &Self::V) -> f64 {
        self.axpy(level, x, alpha, y);
        let xs = &*x;
        self.dot(level, xs, xs)
    }

    /// The MG residual-and-restrict step: `f ← A_level · z`, `f ← r − f`,
    /// `rc ← R_level · f` (`rc` sized for `level + 1`). Implementations may
    /// run the three ops through one deferred pipeline; the default runs
    /// them eagerly.
    fn residual_restrict(
        &mut self,
        level: usize,
        f: &mut Self::V,
        z: &Self::V,
        r: &Self::V,
        rc: &mut Self::V,
    ) {
        self.spmv(level, f, z);
        self.sub_reverse(level, f, r);
        self.restrict_to(level, rc, f);
    }

    /// `p ← z + β·p` (CG's search-direction update, in place).
    fn xpay(&mut self, level: usize, p: &mut Self::V, beta: f64, z: &Self::V);

    /// `w ← r − w` (used to form the MG residual in place).
    fn sub_reverse(&mut self, level: usize, w: &mut Self::V, r: &Self::V);

    /// One symmetric smoother sweep on `A_level·x = r`, updating `x`.
    fn smooth(&mut self, level: usize, x: &mut Self::V, r: &Self::V);

    /// Restriction: `rc ← R_level · rf`, `rc` sized for `level + 1`.
    fn restrict_to(&mut self, level: usize, rc: &mut Self::V, rf: &Self::V);

    /// Prolongation-and-add: `zf ← zf + R_levelᵀ · zc` (refinement, §II-F).
    fn prolong_add(&mut self, level: usize, zf: &mut Self::V, zc: &Self::V);

    /// The timing sink.
    fn timers_mut(&mut self) -> &mut KernelTimers;

    /// Read access to accumulated timings.
    fn timers(&self) -> &KernelTimers;

    /// Implementation name for reports.
    fn name(&self) -> &'static str;

    /// Backend the kernels execute on, for reports (implementations with a
    /// fixed execution strategy keep the default).
    fn backend_name(&self) -> &'static str {
        "-"
    }
}

/// Runs `K`'s primitive kernels one by one: every required method
/// forwards to `K`, and `spmv_dot`, `axpy_norm2` and `residual_restrict`
/// keep the trait's unfused defaults. The oracle the fused
/// implementations are compared against, bit for bit.
pub struct Unfused<K>(pub K);

impl<K: Kernels> Kernels for Unfused<K> {
    type V = K::V;

    fn levels(&self) -> usize {
        self.0.levels()
    }

    fn n_at(&self, level: usize) -> usize {
        self.0.n_at(level)
    }

    fn alloc(&self, level: usize) -> K::V {
        self.0.alloc(level)
    }

    fn set_zero(&mut self, level: usize, v: &mut K::V) {
        self.0.set_zero(level, v)
    }

    fn copy(&mut self, level: usize, src: &K::V, dst: &mut K::V) {
        self.0.copy(level, src, dst)
    }

    fn spmv(&mut self, level: usize, y: &mut K::V, x: &K::V) {
        self.0.spmv(level, y, x)
    }

    fn dot(&mut self, level: usize, x: &K::V, y: &K::V) -> f64 {
        self.0.dot(level, x, y)
    }

    fn waxpby(&mut self, level: usize, w: &mut K::V, alpha: f64, x: &K::V, beta: f64, y: &K::V) {
        self.0.waxpby(level, w, alpha, x, beta, y)
    }

    fn axpy(&mut self, level: usize, x: &mut K::V, alpha: f64, y: &K::V) {
        self.0.axpy(level, x, alpha, y)
    }

    fn xpay(&mut self, level: usize, p: &mut K::V, beta: f64, z: &K::V) {
        self.0.xpay(level, p, beta, z)
    }

    fn sub_reverse(&mut self, level: usize, w: &mut K::V, r: &K::V) {
        self.0.sub_reverse(level, w, r)
    }

    fn smooth(&mut self, level: usize, x: &mut K::V, r: &K::V) {
        self.0.smooth(level, x, r)
    }

    fn restrict_to(&mut self, level: usize, rc: &mut K::V, rf: &K::V) {
        self.0.restrict_to(level, rc, rf)
    }

    fn prolong_add(&mut self, level: usize, zf: &mut K::V, zc: &K::V) {
        self.0.prolong_add(level, zf, zc)
    }

    fn timers_mut(&mut self) -> &mut KernelTimers {
        self.0.timers_mut()
    }

    fn timers(&self) -> &KernelTimers {
        self.0.timers()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn backend_name(&self) -> &'static str {
        self.0.backend_name()
    }
}
