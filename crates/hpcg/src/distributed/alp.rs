//! Distributed ALP: HPCG over the generic distributed GraphBLAS backend.
//!
//! This is the configuration whose weak scaling Fig 3 shows degrading
//! linearly: the hybrid ALP/GraphBLAS backend distributes matrix rows and
//! vectors block-cyclically over a 1D node grid and, lacking any geometric
//! knowledge (containers are opaque), must allgather the *entire* input
//! vector before every `mxv` — one superstep of `h = (p−1)·n/p` elements
//! per spmv, per RBGS color step, per restriction, per refinement.
//! Blocking GraphBLAS semantics mean no compute/communication overlap
//! (paper §IV).
//!
//! Since the workspace grew `graphblas::Distributed`, this type carries
//! **no cost plumbing of its own**: it is [`GrbHpcg`] — the unmodified
//! shared-memory HPCG text — running on a `Ctx<Distributed>`, with the
//! allgathers, allreduces and per-node roofline work recorded inside the
//! backend. What remains here is HPCG-specific *attribution*: each kernel
//! scopes the recorded supersteps to its multigrid level (and the smoother
//! / grid-transfer classes) so the breakdown figures keep their meaning,
//! then drains the steps into per-kernel modeled-seconds timers.
//!
//! The hot loops run as `GrbHpcg`'s compiled plans, so the CG pairs are
//! fused here too: a fused pair costs one sweep plus one allreduce instead
//! of two full supersteps.

use crate::grb_impl::GrbHpcg;
use crate::kernels::Kernels;
use crate::problem::Problem;
use crate::timers::{Kernel, KernelTimers};
use bsp::cost::{CostTracker, KernelClass};
use bsp::machine::MachineParams;
use graphblas::{DistConfig, Distributed, ShardLayout, Vector};

/// Block size of the block-cyclic distribution (ALP default-like). Small
/// enough that even the coarsest multigrid level spreads across all nodes.
const BLOCK: usize = 64;

/// Distributed-ALP HPCG: the GraphBLAS kernels on a `Ctx<Distributed>`
/// cluster, with BSP costs recorded by the backend and attributed here.
pub struct AlpDistHpcg {
    inner: GrbHpcg<Distributed>,
    cluster: Distributed,
    /// Mirror of every superstep drained from the cluster, kept so the
    /// harnesses' `tracker()` view (steps, totals) survives attribution.
    tracker: CostTracker,
    /// Modeled seconds per (level, kernel) — the breakdown of Figs 6-7.
    timers: KernelTimers,
}

impl AlpDistHpcg {
    /// Builds the distributed context for `nodes` simulated nodes with the
    /// paper's 1D block-cyclic layout.
    pub fn new(problem: Problem, nodes: usize, machine: MachineParams) -> AlpDistHpcg {
        let config = DistConfig::new(nodes)
            .machine(machine)
            .layout(ShardLayout::BlockCyclic { block: BLOCK });
        let cluster = Distributed::with_config(config);
        let levels = problem.levels.len();
        AlpDistHpcg {
            inner: GrbHpcg::with_ctx(problem, cluster.ctx()),
            cluster,
            tracker: CostTracker::new(nodes, machine),
            timers: KernelTimers::new(levels),
        }
    }

    /// The generic distributed backend handle (cost trace, machine).
    pub fn cluster(&self) -> Distributed {
        self.cluster
    }

    /// The BSP cost trace accumulated so far.
    pub fn tracker(&self) -> &CostTracker {
        &self.tracker
    }

    /// Mutable tracker access (reset between runs).
    pub fn tracker_mut(&mut self) -> &mut CostTracker {
        &mut self.tracker
    }

    /// The underlying problem.
    pub fn problem(&self) -> &Problem {
        self.inner.problem()
    }

    /// Runs `f` on the inner kernels with supersteps scoped to `level` /
    /// `class`, then drains the recorded steps into the modeled timers
    /// and the local tracker mirror.
    fn scoped<R>(
        &mut self,
        level: usize,
        class: Option<KernelClass>,
        f: impl FnOnce(&mut GrbHpcg<Distributed>) -> R,
    ) -> R {
        self.cluster.set_scope(class, Some(level));
        let out = f(&mut self.inner);
        self.cluster.clear_scope();
        for step in self.cluster.take_steps() {
            self.timers
                .add_secs(level, kernel_for(step.class), step.total_secs());
            self.tracker.import_step(step);
        }
        out
    }
}

/// The timer cell a recorded kernel class bills to.
fn kernel_for(class: KernelClass) -> Kernel {
    match class {
        KernelClass::SpMV => Kernel::SpMV,
        KernelClass::Dot => Kernel::Dot,
        KernelClass::Smoother => Kernel::Smoother,
        KernelClass::RestrictRefine => Kernel::RestrictRefine,
        KernelClass::Waxpby | KernelClass::Other => Kernel::Waxpby,
    }
}

impl Kernels for AlpDistHpcg {
    type V = Vector<f64>;

    fn levels(&self) -> usize {
        self.inner.levels()
    }

    fn n_at(&self, level: usize) -> usize {
        self.inner.n_at(level)
    }

    fn alloc(&self, level: usize) -> Vector<f64> {
        self.inner.alloc(level)
    }

    fn set_zero(&mut self, level: usize, v: &mut Vector<f64>) {
        // A raw buffer clear never reaches the context; charge its stream
        // explicitly so the modeled trace keeps every byte the nodes move.
        let cluster = self.cluster;
        self.scoped(level, None, |k| {
            k.set_zero(level, v);
            cluster.record_local_stream(v.len(), 1);
        });
    }

    fn copy(&mut self, level: usize, src: &Vector<f64>, dst: &mut Vector<f64>) {
        let cluster = self.cluster;
        self.scoped(level, None, |k| {
            k.copy(level, src, dst);
            cluster.record_local_stream(src.len(), 2);
        });
    }

    fn spmv(&mut self, level: usize, y: &mut Vector<f64>, x: &Vector<f64>) {
        self.scoped(level, None, |k| k.spmv(level, y, x));
    }

    fn dot(&mut self, level: usize, x: &Vector<f64>, y: &Vector<f64>) -> f64 {
        self.scoped(level, None, |k| k.dot(level, x, y))
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
        self.scoped(level, None, |k| k.waxpby(level, w, alpha, x, beta, y));
    }

    fn axpy(&mut self, level: usize, x: &mut Vector<f64>, alpha: f64, y: &Vector<f64>) {
        self.scoped(level, None, |k| k.axpy(level, x, alpha, y));
    }

    fn xpay(&mut self, level: usize, p: &mut Vector<f64>, beta: f64, z: &Vector<f64>) {
        self.scoped(level, None, |k| k.xpay(level, p, beta, z));
    }

    fn sub_reverse(&mut self, level: usize, w: &mut Vector<f64>, r: &Vector<f64>) {
        self.scoped(level, None, |k| k.sub_reverse(level, w, r));
    }

    fn spmv_dot(&mut self, level: usize, y: &mut Vector<f64>, x: &Vector<f64>) -> f64 {
        self.scoped(level, None, |k| k.spmv_dot(level, y, x))
    }

    fn axpy_norm2(
        &mut self,
        level: usize,
        x: &mut Vector<f64>,
        alpha: f64,
        y: &Vector<f64>,
    ) -> f64 {
        self.scoped(level, None, |k| k.axpy_norm2(level, x, alpha, y))
    }

    // `residual_restrict` keeps the trait's unfused decomposition: the
    // restriction `mxv` must land in the RestrictRefine cell (via
    // `restrict_to`'s scope), which a single fused scope cannot express.

    fn smooth(&mut self, level: usize, x: &mut Vector<f64>, r: &Vector<f64>) {
        self.scoped(level, Some(KernelClass::Smoother), |k| {
            k.smooth(level, x, r)
        });
    }

    fn restrict_to(&mut self, level: usize, rc: &mut Vector<f64>, rf: &Vector<f64>) {
        self.scoped(level, Some(KernelClass::RestrictRefine), |k| {
            k.restrict_to(level, rc, rf)
        });
    }

    fn prolong_add(&mut self, level: usize, zf: &mut Vector<f64>, zc: &Vector<f64>) {
        self.scoped(level, Some(KernelClass::RestrictRefine), |k| {
            k.prolong_add(level, zf, zc)
        });
    }

    fn timers_mut(&mut self) -> &mut KernelTimers {
        &mut self.timers
    }

    fn timers(&self) -> &KernelTimers {
        &self.timers
    }

    fn name(&self) -> &'static str {
        "ALP distributed (1D block-cyclic)"
    }

    fn backend_name(&self) -> &'static str {
        "distributed(bsp)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Grid3;
    use crate::kernels::Unfused;
    use crate::problem::RhsVariant;

    fn make(nodes: usize) -> AlpDistHpcg {
        let p = Problem::build_with(Grid3::cube(8), 2, RhsVariant::Reference).unwrap();
        AlpDistHpcg::new(p, nodes, MachineParams::arm_cluster())
    }

    #[test]
    fn spmv_allgather_volume_matches_table1() {
        let mut k = make(4);
        let x = Vector::filled(512, 1.0);
        let mut y = k.alloc(0);
        k.spmv(0, &mut y, &x);
        let steps = k.tracker().steps();
        assert_eq!(steps.len(), 1);
        // h = (p-1)·(n/p)·8 = 3·128·8 bytes.
        assert_eq!(steps[0].h_bytes, 3.0 * 128.0 * 8.0);
        assert!(!steps[0].overlap, "blocking GraphBLAS semantics");
        assert_eq!(steps[0].mg_level, Some(0));
    }

    #[test]
    fn smoother_pays_one_allgather_per_color_step() {
        let mut k = make(2);
        let r = k.alloc(0);
        let mut x = k.alloc(0);
        k.smooth(0, &mut x, &r);
        // 8 colors × 2 sweeps: each color step is a masked mxv superstep
        // (paying a full allgather) plus a purely local masked update.
        let comm: Vec<_> = k
            .tracker()
            .steps()
            .iter()
            .filter(|s| s.h_bytes > 0.0)
            .collect();
        assert_eq!(comm.len(), 16);
        for s in k.tracker().steps() {
            assert_eq!(s.class, KernelClass::Smoother);
            assert_eq!(s.mg_level, Some(0));
        }
        assert!(k.timers().secs(0, Kernel::Smoother) > 0.0);
        assert_eq!(k.timers().secs(0, Kernel::SpMV), 0.0, "scope overrides");
    }

    #[test]
    fn single_node_pays_no_communication() {
        let mut k = make(1);
        let x = Vector::filled(512, 1.0);
        let mut y = k.alloc(0);
        k.spmv(0, &mut y, &x);
        assert_eq!(k.tracker().steps()[0].h_bytes, 0.0);
    }

    #[test]
    fn execution_matches_shared_memory_kernels() {
        // The distributed wrapper must not perturb numerics.
        use crate::grb_impl::GrbHpcg;
        use graphblas::Sequential;
        let prob = Problem::build_with(Grid3::cube(8), 2, RhsVariant::Reference).unwrap();
        let b = prob.b.clone();
        let mut shared = GrbHpcg::<Sequential>::new(prob.clone());
        let mut dist = AlpDistHpcg::new(prob, 4, MachineParams::arm_cluster());
        let mut xs = shared.alloc(0);
        let mut xd = dist.alloc(0);
        shared.smooth(0, &mut xs, &b);
        dist.smooth(0, &mut xd, &b);
        assert_eq!(xs.as_slice(), xd.as_slice());
    }

    #[test]
    fn fused_spmv_dot_costs_one_sweep_plus_allreduce() {
        let mut fused = make(4);
        let mut eager = Unfused(make(4));
        let x = Vector::filled(512, 1.0);
        let mut yf = fused.alloc(0);
        let mut ye = eager.alloc(0);
        let df = fused.spmv_dot(0, &mut yf, &x);
        let de = eager.spmv_dot(0, &mut ye, &x);
        assert_eq!(df.to_bits(), de.to_bits(), "fusion never changes numerics");
        assert_eq!(fused.tracker().superstep_count(), 2);
        assert_eq!(eager.0.tracker().superstep_count(), 2);
        // Same allgather either way; the fused allreduce step streams no
        // fresh vectors, so the modeled time strictly improves.
        let (tf, te) = (fused.tracker(), eager.0.tracker());
        assert_eq!(tf.steps()[0].h_bytes, te.steps()[0].h_bytes);
        assert!(tf.total_secs() < te.total_secs());
        assert!(fused.timers().secs(0, Kernel::SpMV) > 0.0);
        assert!(fused.timers().secs(0, Kernel::Dot) > 0.0);
    }

    #[test]
    fn restriction_lands_in_the_restrict_refine_cell() {
        let mut k = make(2);
        let rf = Vector::filled(512, 1.0);
        let mut rc = k.alloc(1);
        k.restrict_to(0, &mut rc, &rf);
        assert_eq!(k.tracker().steps().len(), 1);
        assert_eq!(k.tracker().steps()[0].class, KernelClass::RestrictRefine);
        assert!(k.timers().secs(0, Kernel::RestrictRefine) > 0.0);
        let zc = Vector::filled(64, 2.0);
        let mut zf = Vector::filled(512, 1.0);
        k.prolong_add(0, &mut zf, &zc);
        assert_eq!(k.tracker().steps()[1].class, KernelClass::RestrictRefine);
    }
}
