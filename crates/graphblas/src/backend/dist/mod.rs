//! The distributed backend: the whole GraphBLAS surface on a simulated
//! BSP cluster.
//!
//! The paper's hybrid ALP/GraphBLAS backend runs unmodified GraphBLAS
//! programs on an LPF/BSP cluster (§IV): containers are opaque, rows and
//! vector entries are sharded over a 1D node grid, and — because the
//! layout is domain-oblivious — every `mxv` is preceded by an allgather
//! of the full input vector (`Θ(n(p−1)/p)` bytes, Table I). This module
//! is that backend over the workspace's simulated cluster:
//!
//! * [`Distributed`] implements [`Exec`], so `Ctx<Distributed>` — and with
//!   it every fluent builder, mask/accumulator/descriptor combination and
//!   recorded op graph — runs distributed, including
//!   the fused `spmv+dot` / `axpy+norm` entry points;
//! * numerics execute **sharded across `p` real worker threads** (the
//!   `shard` module): each worker owns its node's rows/elements under
//!   the layout, input vectors move through the [`bsp::Exchange`] mailbox
//!   fabric in split-phase (post, compute the interior, complete for the
//!   boundary tail), and every combine is sequenced in deterministic
//!   owner order — so results stay bit-identical to the sequential
//!   backend, the property the workspace pins down with property tests;
//! * what a row sweep needs to know about a matrix under a layout — which
//!   rows are interior, which input slots the boundary rows read and from
//!   whom — is a shard plan (the `plan` module): derived by one pass over
//!   the pattern the first time a matrix is swept on a `(nodes, layout)`
//!   and cached on the [`CsrMatrix`] itself, whose pattern is immutable,
//!   so the plan cannot go stale and is freed with its matrix. Interior
//!   rows read the node's own slots of the input in place; only the
//!   listed slots are copied for the boundary rows. The exchange is
//!   untouched by this: every node still posts its whole shard to every
//!   peer, the Table I allgather the recorder bills;
//! * the modeled cost is now the **cross-check**: per-node work and
//!   h-relations are recorded superstep-by-superstep into a
//!   [`bsp::CostTracker`] exactly as before, and every step additionally
//!   carries the directly measured wall-clock and the measured
//!   exchange-time-hidden-behind-compute of the sharded execution;
//! * the row/element sharding is a configurable [`ShardLayout`] (1D block
//!   or block-cyclic), and the machine is a [`bsp::MachineParams`] preset.
//!
//! ```
//! use graphblas::{CsrMatrix, Distributed, Vector};
//!
//! let a = CsrMatrix::<f64>::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]).unwrap();
//! let x = Vector::from_dense(vec![1.0, 2.0]);
//! let mut y = Vector::zeros(2);
//!
//! let cluster = Distributed::new(4);           // 4 simulated nodes
//! cluster.ctx().mxv(&a, &x).into(&mut y).unwrap();
//! assert_eq!(y.as_slice(), &[2.0, 6.0]);       // bit-identical to Sequential
//! assert_eq!(cluster.supersteps(), 1);         // one allgather + sweep
//! assert!(cluster.total_h_bytes() > 0.0);
//! ```
//!
//! A [`Distributed`] value is a `Copy` **handle** onto shared cluster
//! state (a process-wide registry keeps the state alive), which is what
//! lets it satisfy the [`Exec`] bounds while accumulating a cost trace
//! across operations. Handles compare equal only to themselves, and
//! [`BackendKind::Dist`](crate::BackendKind) carries one for runtime
//! backend selection (`--backend dist:<nodes>`, `GRB_BACKEND=dist:4`).

pub mod cost;
pub mod layout;
pub(crate) mod plan;
mod shard;

pub use layout::ShardLayout;

use crate::container::matrix::{CsrMatrix, GraphMatrix};
use crate::container::vector::{SparseVector, Vector};
use crate::context::{ElemOp, Exec};
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::exec::mxm::mxm_exec;
use crate::exec::sparse::FrontierMode;
use crate::ops::accum::AccumMode;
use crate::ops::monoid::Monoid;
use crate::ops::scalar::Scalar;
use crate::ops::semiring::Semiring;
use crate::Sequential;
use bsp::cost::{CostTracker, KernelClass, StepCost};
use bsp::machine::MachineParams;
use cost::{ClusterState, Scope};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Configuration of a simulated cluster: node count, machine parameters
/// and data layout.
#[derive(Copy, Clone, Debug)]
pub struct DistConfig {
    /// Number of simulated nodes (`p`).
    pub nodes: usize,
    /// BSP machine parameters (compute roofline, gap `g`, latency `l`).
    pub machine: MachineParams,
    /// Row/element sharding over the 1D node grid.
    pub layout: ShardLayout,
}

impl DistConfig {
    /// A `nodes`-node cluster with the paper's ARM machine parameters and
    /// a contiguous 1D block layout.
    pub fn new(nodes: usize) -> DistConfig {
        DistConfig {
            nodes,
            machine: MachineParams::arm_cluster(),
            layout: ShardLayout::Block,
        }
    }

    /// Sets the machine parameters.
    #[must_use]
    pub fn machine(mut self, machine: MachineParams) -> DistConfig {
        self.machine = machine;
        self
    }

    /// Sets the shard layout.
    #[must_use]
    pub fn layout(mut self, layout: ShardLayout) -> DistConfig {
        self.layout = layout;
        self
    }
}

/// Process-wide registry keeping every cluster's state alive; a
/// [`Distributed`] handle is an index into it.
fn registry() -> &'static RwLock<Vec<Arc<Mutex<ClusterState>>>> {
    static REGISTRY: OnceLock<RwLock<Vec<Arc<Mutex<ClusterState>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Vec::new()))
}

/// The distributed execution backend: a `Copy` handle onto one simulated
/// cluster. See the [module docs](self).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Distributed {
    id: usize,
}

impl Distributed {
    /// Creates a `nodes`-node cluster with default configuration
    /// ([`DistConfig::new`]): ARM machine parameters, 1D block layout.
    pub fn new(nodes: usize) -> Distributed {
        Self::with_config(DistConfig::new(nodes))
    }

    /// Creates a cluster with explicit configuration.
    pub fn with_config(config: DistConfig) -> Distributed {
        let state = ClusterState::new(config.nodes, config.machine, config.layout);
        let mut reg = registry().write().unwrap();
        let id = reg.len();
        reg.push(Arc::new(Mutex::new(state)));
        Distributed { id }
    }

    fn state(&self) -> Arc<Mutex<ClusterState>> {
        registry().read().unwrap()[self.id].clone()
    }

    fn record<R>(&self, f: impl FnOnce(&mut ClusterState) -> R) -> R {
        let state = self.state();
        let mut guard = state.lock().unwrap();
        f(&mut guard)
    }

    /// The cluster shape a sharded operation executes under, taken under
    /// the state lock and used outside it (workers must not hold the
    /// cluster mutex while computing).
    fn shape(&self) -> Arc<shard::ShardShape> {
        self.record(|s| s.shape.clone())
    }

    /// Runs the cost-recording closure `f` and pairs the supersteps it
    /// closes with the measured wall-clock since `t0` (the sharded
    /// execution's wall time), distributed along the model's own per-step
    /// ratio — the cross-check column of [`CostSummary`] — plus the
    /// measured `overlap_hidden` seconds the split-phase exchange hid
    /// behind local compute, attributed to the closed steps that moved
    /// bytes. With tracing on, each closed superstep also becomes a
    /// retrospective span (class `"superstep"`) slicing the measured
    /// interval.
    fn record_measured<R>(
        &self,
        t0: std::time::Instant,
        overlap_hidden: f64,
        f: impl FnOnce(&mut ClusterState) -> R,
    ) {
        let secs = t0.elapsed().as_secs_f64();
        self.record(|s| {
            let mark = s.tracker.steps().len();
            let _ = f(s);
            s.tracker.attribute_measured(mark, secs);
            s.tracker.attribute_overlap(mark, overlap_hidden);
            if obs::enabled() {
                let mut at = t0;
                for step in &s.tracker.steps()[mark..] {
                    let dur = std::time::Duration::from_secs_f64(step.measured_secs.max(0.0));
                    obs::record_span(superstep_name(step.class), "superstep", at, at + dur);
                    at += dur;
                }
            }
        })
    }

    /// Number of simulated nodes.
    pub fn nodes(&self) -> usize {
        self.record(|s| s.tracker.nodes())
    }

    /// The machine parameters of the simulated cluster.
    pub fn machine(&self) -> MachineParams {
        self.record(|s| s.tracker.params())
    }

    /// The shard layout in use.
    pub fn layout(&self) -> ShardLayout {
        self.record(|s| s.layout)
    }

    /// An execution context dispatching to this cluster — the distributed
    /// sibling of `ctx::<Sequential>()`.
    pub fn ctx(self) -> crate::Ctx<Distributed> {
        crate::context::ctx_on(self)
    }

    /// A snapshot of the accumulated BSP cost trace.
    pub fn tracker(&self) -> CostTracker {
        self.record(|s| s.tracker.clone())
    }

    /// Drains and returns the closed supersteps recorded since the last
    /// drain — how a harness attributes modeled cost to its own phases.
    pub fn take_steps(&self) -> Vec<StepCost> {
        self.record(|s| s.tracker.take_steps())
    }

    /// Clears the cost trace (e.g. between a warm-up and a measured run).
    pub fn reset_costs(&self) {
        self.record(|s| s.tracker.reset())
    }

    /// Drains the closed steps and resets the attribution scope in one
    /// atomic operation — the hand-off point a multi-tenant harness uses
    /// between jobs sharing a cached cluster, so neither unbilled steps
    /// nor a dangling [`set_scope`](Distributed::set_scope) can bleed
    /// from one tenant's job into the next tenant's bill.
    pub fn end_job(&self) -> Vec<StepCost> {
        self.record(|s| {
            s.scope = Scope::default();
            s.tracker.take_steps()
        })
    }

    /// Records a purely local streaming step that did not go through a
    /// context operation: `n` elements across `k` vectors, no
    /// communication, no barrier. Harnesses use this for raw buffer moves
    /// (HPCG's `copy`/`set_zero`) so the modeled trace stays faithful to
    /// work the simulated nodes would still perform.
    pub fn record_local_stream(&self, n: usize, k: usize) {
        self.record(|s| {
            s.record_stream(n, None, crate::Descriptor::DEFAULT, k, 0.0);
        })
    }

    /// Forces a kernel class and/or multigrid level onto every superstep
    /// recorded until [`clear_scope`](Distributed::clear_scope) — how the
    /// HPCG harness tags smoother and grid-transfer steps.
    pub fn set_scope(&self, class: Option<KernelClass>, level: Option<usize>) {
        self.record(|s| s.scope = Scope { class, level })
    }

    /// Resets the attribution scope to per-operation defaults.
    pub fn clear_scope(&self) {
        self.record(|s| s.scope = Scope::default())
    }

    /// Total modeled BSP wall-clock of all recorded supersteps.
    pub fn total_modeled_secs(&self) -> f64 {
        self.record(|s| s.tracker.total_secs())
    }

    /// Total communicated bytes (sum over steps of the per-step max
    /// h-relation — the quantity Table I bounds).
    pub fn total_h_bytes(&self) -> f64 {
        self.record(|s| s.tracker.total_h_bytes())
    }

    /// Number of recorded supersteps.
    pub fn supersteps(&self) -> usize {
        self.record(|s| s.tracker.superstep_count())
    }

    /// Total measured exchange time hidden behind local compute by the
    /// split-phase sharded execution (the §VII overlap win).
    pub fn total_overlap_hidden_secs(&self) -> f64 {
        self.record(|s| s.tracker.total_overlap_hidden_secs())
    }

    /// The per-kernel-class cost breakdown of everything recorded so far.
    pub fn cost_summary(&self) -> CostSummary {
        self.record(|s| {
            CostSummary::from_steps(s.tracker.nodes(), s.layout.name(), s.tracker.steps())
        })
    }
}

/// Modeled cost of one kernel class within a [`CostSummary`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ClassCost {
    /// The kernel class the steps were attributed to.
    pub class: KernelClass,
    /// Modeled seconds across all steps of the class.
    pub secs: f64,
    /// Measured seconds attributed across all steps of the class (0 when
    /// the steps were recorded without timed execution).
    pub measured_secs: f64,
    /// h-relation bytes across all steps of the class.
    pub h_bytes: f64,
    /// Measured exchange time hidden behind compute across the class's
    /// steps (0 when the class moved no bytes or ran on one node).
    pub overlap_hidden_secs: f64,
    /// Number of recorded steps of the class.
    pub steps: usize,
}

impl ClassCost {
    /// Measured / modeled seconds for this class (0 when either side is
    /// unmeasured or the model predicts zero).
    pub fn model_error(&self) -> f64 {
        if self.secs > 0.0 && self.measured_secs > 0.0 {
            self.measured_secs / self.secs
        } else {
            0.0
        }
    }
}

/// Per-kernel-class breakdown of a cluster's recorded BSP costs — the
/// report the distributed graph-algorithm examples and the scaling
/// harness print.
#[derive(Clone, Debug)]
pub struct CostSummary {
    /// Simulated nodes.
    pub nodes: usize,
    /// Shard layout name.
    pub layout: &'static str,
    /// Total modeled wall-clock.
    pub total_secs: f64,
    /// Total measured wall-clock attributed to the steps (0 when the
    /// trace was recorded without timed execution).
    pub total_measured_secs: f64,
    /// Total h-relation bytes.
    pub total_h_bytes: f64,
    /// Total measured exchange time hidden behind compute.
    pub total_overlap_hidden_secs: f64,
    /// Total recorded steps.
    pub supersteps: usize,
    /// Per-class breakdown, in first-recorded order.
    pub per_class: Vec<ClassCost>,
}

impl CostSummary {
    /// Aggregates a recorded step sequence into the per-class breakdown —
    /// works on a live cluster's trace ([`Distributed::cost_summary`]) or
    /// on steps a harness drained into its own tracker.
    pub fn from_steps(nodes: usize, layout: &'static str, steps: &[StepCost]) -> CostSummary {
        let mut summary = CostSummary {
            nodes,
            layout,
            total_secs: 0.0,
            total_measured_secs: 0.0,
            total_h_bytes: 0.0,
            total_overlap_hidden_secs: 0.0,
            supersteps: 0,
            per_class: Vec::new(),
        };
        summary.absorb(steps);
        summary
    }

    /// Folds further steps into the summary, in order — a running total
    /// over a trace delivered in pieces equals, bit for bit,
    /// [`from_steps`](Self::from_steps) over the whole trace, so a
    /// long-lived consumer need not keep the steps.
    pub fn absorb(&mut self, steps: &[StepCost]) {
        for step in steps {
            let secs = step.total_secs();
            self.total_secs += secs;
            self.total_measured_secs += step.measured_secs;
            self.total_h_bytes += step.h_bytes;
            self.total_overlap_hidden_secs += step.overlap_hidden_secs;
            self.supersteps += 1;
            match self.per_class.iter_mut().find(|c| c.class == step.class) {
                Some(c) => {
                    c.secs += secs;
                    c.measured_secs += step.measured_secs;
                    c.h_bytes += step.h_bytes;
                    c.overlap_hidden_secs += step.overlap_hidden_secs;
                    c.steps += 1;
                }
                None => self.per_class.push(ClassCost {
                    class: step.class,
                    secs,
                    measured_secs: step.measured_secs,
                    h_bytes: step.h_bytes,
                    overlap_hidden_secs: step.overlap_hidden_secs,
                    steps: 1,
                }),
            }
        }
    }

    /// Overall measured / modeled wall-clock ratio — the paper's central
    /// cross-check quantity (0 when the trace carries no measurements).
    pub fn model_error(&self) -> f64 {
        if self.total_secs > 0.0 && self.total_measured_secs > 0.0 {
            self.total_measured_secs / self.total_secs
        } else {
            0.0
        }
    }

    /// Stable display name of a [`KernelClass`] for machine-readable
    /// reports (the same spelling [`Display`](std::fmt::Display) uses).
    pub fn class_name(class: KernelClass) -> &'static str {
        class_name(class)
    }
}

/// Span name a closed superstep of `class` records under.
fn superstep_name(class: KernelClass) -> &'static str {
    match class {
        KernelClass::SpMV => "superstep.spmv",
        KernelClass::Dot => "superstep.dot",
        KernelClass::Waxpby => "superstep.waxpby",
        KernelClass::Smoother => "superstep.smoother",
        KernelClass::RestrictRefine => "superstep.restrict",
        KernelClass::Other => "superstep.other",
    }
}

/// Stable display name of a [`KernelClass`] for reports.
pub(crate) fn class_name(class: KernelClass) -> &'static str {
    match class {
        KernelClass::SpMV => "spmv",
        KernelClass::Dot => "dot/reduce",
        KernelClass::Waxpby => "vector update",
        KernelClass::Smoother => "smoother",
        KernelClass::RestrictRefine => "restrict/refine",
        KernelClass::Other => "other",
    }
}

impl std::fmt::Display for CostSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "modeled BSP cost on {} node(s), {} layout: {:.3} ms modeled, {:.3} ms measured \
             (x{:.2} model error), {:.3} ms exchange hidden by overlap, {:.2} MB communicated, \
             {} supersteps",
            self.nodes,
            self.layout,
            self.total_secs * 1e3,
            self.total_measured_secs * 1e3,
            self.model_error(),
            self.total_overlap_hidden_secs * 1e3,
            self.total_h_bytes / 1e6,
            self.supersteps,
        )?;
        for c in &self.per_class {
            writeln!(
                f,
                "  {:<15} {:>10.3} ms modeled  {:>10.3} ms measured  {:>10.3} ms hidden  \
                 {:>9.2} MB  {:>6} step(s)",
                class_name(c.class),
                c.secs * 1e3,
                c.measured_secs * 1e3,
                c.overlap_hidden_secs * 1e3,
                c.h_bytes / 1e6,
                c.steps,
            )?;
        }
        Ok(())
    }
}

impl Exec for Distributed {
    fn threads(self) -> usize {
        // The parallelism being modeled lives across nodes, not threads.
        self.nodes()
    }

    fn backend_name(self) -> &'static str {
        "distributed(bsp)"
    }

    fn run_mxv<T: Scalar, R: Semiring<T>, A: AccumMode<T>>(
        self,
        y: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        a: &CsrMatrix<T>,
        x: &Vector<T>,
    ) -> Result<()> {
        let _span = obs::span_enter("dist.mxv", "spmv");
        let shape = self.shape();
        let t0 = std::time::Instant::now();
        let hidden = shard::mxv_sharded::<T, R, A>(y, mask, desc, a, x, &shape)?;
        self.record_measured(t0, hidden, |s| s.record_mxv(a, x.len(), mask, desc, false));
        Ok(())
    }

    fn run_mxv_sparse<T: Scalar, R: Semiring<T>, A: AccumMode<T>>(
        self,
        y: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        m: &GraphMatrix<T>,
        x: &SparseVector<T>,
    ) -> Result<FrontierMode> {
        let _span = obs::span_enter("dist.mxv_sparse", "spmv");
        let shape = self.shape();
        let t0 = std::time::Instant::now();
        let (mode, hidden) = shard::mxv_sparse_sharded::<T, R, A>(y, mask, desc, m, x, &shape)?;
        self.record_measured(t0, hidden, |s| s.record_mxv_sparse(m, x, mask, desc, mode));
        Ok(mode)
    }

    fn run_lambda<T: Scalar, F: Fn(usize, &mut T) + Send + Sync>(
        self,
        op: ElemOp,
        out: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        f: F,
    ) -> Result<()> {
        let _span = op.span_enter(true);
        let shape = self.shape();
        let t0 = std::time::Instant::now();
        shard::lambda_sharded::<T, F>(out.as_mut_slice(), mask, desc, f, &shape)?;
        self.record_measured(t0, 0.0, |s| s.record_elementwise(op, out.len(), mask, desc));
        Ok(())
    }

    fn run_fold<T: Scalar, M: Monoid<T>, F: Fn(usize) -> T + Send + Sync>(
        self,
        op: ElemOp,
        n: usize,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        map: F,
    ) -> Result<T> {
        let _span = op.span_enter(true);
        let shape = self.shape();
        let t0 = std::time::Instant::now();
        let v = shard::fold_sharded::<T, M, F>(n, mask, desc, map, &shape)?;
        self.record_measured(t0, 0.0, |s| s.record_elementwise(op, n, mask, desc));
        Ok(v)
    }

    fn run_mxm<T: Scalar, R: Semiring<T>>(
        self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        desc: Descriptor,
    ) -> Result<CsrMatrix<T>> {
        let _span = obs::span_enter("dist.mxm", "spmv");
        let t0 = std::time::Instant::now();
        let c = mxm_exec::<T, R, Sequential>(a, b, desc)?;
        self.record_measured(t0, 0.0, |s| s.record_mxm(a, b));
        Ok(c)
    }

    fn run_spmv_dot<T: Scalar, R: Semiring<T>>(
        self,
        y: &mut Vector<T>,
        a: &CsrMatrix<T>,
        x: &Vector<T>,
        w: Option<&Vector<T>>,
        product_on_left: bool,
    ) -> Result<T> {
        let _span = obs::span_enter("dist.spmv_dot", "fused");
        let shape = self.shape();
        let t0 = std::time::Instant::now();
        let (v, hidden) = shard::spmv_dot_sharded::<T, R>(y, a, x, w, product_on_left, &shape)?;
        // One sweep with the dot epilogue plus one Θ(p) allreduce — not
        // two full supersteps (the nonblocking-execution payoff, §VI).
        self.record_measured(t0, hidden, |s| {
            s.record_mxv(a, x.len(), None, Descriptor::DEFAULT, true)
        });
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{Max, Plus, Times};
    use crate::ops::semiring::MinPlus;
    use crate::{ctx, BackendKind};
    use bsp::collectives::{allgather_h_bytes, allreduce_h_bytes};

    fn a3() -> CsrMatrix<f64> {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, -1.0),
                (2, 2, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn results_bit_identical_to_sequential() {
        let a = a3();
        let x = Vector::from_dense(vec![1.0, -2.0, 3.0]);
        let m = Vector::<bool>::sparse_filled(3, vec![0, 2], true).unwrap();
        let seq = ctx::<Sequential>();
        let dist = Distributed::new(3).ctx();

        let mut y_s = Vector::from_dense(vec![7.0; 3]);
        let mut y_d = y_s.clone();
        seq.mxv(&a, &x)
            .mask(&m)
            .structural()
            .transpose()
            .accum(Plus)
            .into(&mut y_s)
            .unwrap();
        dist.mxv(&a, &x)
            .mask(&m)
            .structural()
            .transpose()
            .accum(Plus)
            .into(&mut y_d)
            .unwrap();
        assert_eq!(y_s.as_slice(), y_d.as_slice());

        assert_eq!(
            seq.dot(&x, &y_s).ring(MinPlus).compute().unwrap(),
            dist.dot(&x, &y_d).ring(MinPlus).compute().unwrap()
        );
        let mut w_s = Vector::zeros(3);
        let mut w_d = Vector::zeros(3);
        seq.ewise(&x, &y_s)
            .op(Times)
            .scaled(2.0, -1.0)
            .into(&mut w_s)
            .unwrap();
        dist.ewise(&x, &y_d)
            .op(Times)
            .scaled(2.0, -1.0)
            .into(&mut w_d)
            .unwrap();
        assert_eq!(w_s.as_slice(), w_d.as_slice());
        assert_eq!(
            seq.reduce(&w_s).monoid(Max).compute().unwrap(),
            dist.reduce(&w_d).monoid(Max).compute().unwrap()
        );
    }

    #[test]
    fn mxv_records_one_allgather_superstep() {
        let n = 64usize;
        let a =
            CsrMatrix::<f64>::from_triplets(n, n, &(0..n).map(|i| (i, i, 1.0)).collect::<Vec<_>>())
                .unwrap();
        let x = Vector::filled(n, 1.0);
        let mut y = Vector::zeros(n);
        let cluster = Distributed::new(4);
        cluster.ctx().mxv(&a, &x).into(&mut y).unwrap();
        let t = cluster.tracker();
        assert_eq!(t.superstep_count(), 1);
        // Even split → the closed form of Table I exactly.
        assert_eq!(t.steps()[0].h_bytes, allgather_h_bytes(4, n / 4, 8));
        assert!(t.steps()[0].sync_secs > 0.0, "mxv is a barriered superstep");
    }

    #[test]
    fn fused_spmv_dot_costs_one_sweep_plus_allreduce() {
        let n = 64usize;
        let a =
            CsrMatrix::<f64>::from_triplets(n, n, &(0..n).map(|i| (i, i, 2.0)).collect::<Vec<_>>())
                .unwrap();
        let x = Vector::filled(n, 1.0);
        let p = 4usize;

        // Fused: the pipeline lowers mxv + dot onto run_spmv_dot.
        let fused = Distributed::new(p);
        let mut y = Vector::zeros(n);
        let mut pl = fused.ctx().pipeline();
        let yh = pl.mxv(&a, &x).into(&mut y);
        let d = pl.dot(&x, yh).result();
        let out = pl.finish().unwrap();
        assert_eq!(out[d], 2.0 * n as f64);

        // Unfused: eager mxv then dot.
        let eager = Distributed::new(p);
        let mut y2 = Vector::zeros(n);
        eager.ctx().mxv(&a, &x).into(&mut y2).unwrap();
        eager.ctx().dot(&x, &y2).compute().unwrap();

        let (tf, te) = (fused.tracker(), eager.tracker());
        assert_eq!(tf.superstep_count(), 2, "sweep + allreduce");
        assert_eq!(te.superstep_count(), 2);
        // Both pay the same allgather; the fused allreduce step carries no
        // fresh vector stream, so its compute time vanishes next to the
        // eager dot's two-vector read.
        assert_eq!(tf.steps()[0].h_bytes, te.steps()[0].h_bytes);
        assert_eq!(tf.steps()[1].h_bytes, allreduce_h_bytes(p, 8));
        assert!(tf.steps()[1].compute_secs < te.steps()[1].compute_secs / 10.0);
        assert!(tf.total_secs() < te.total_secs());
    }

    #[test]
    fn masked_mxv_charges_only_selected_rows() {
        let n = 64usize;
        let mut trips = Vec::new();
        for i in 0..n {
            trips.push((i, i, 1.0));
            trips.push((i, (i + 1) % n, 1.0));
        }
        let a = CsrMatrix::<f64>::from_triplets(n, n, &trips).unwrap();
        let x = Vector::filled(n, 1.0);
        let m = Vector::<bool>::sparse_filled(n, vec![0, 1], true).unwrap();

        let full = Distributed::new(2);
        let mut y = Vector::zeros(n);
        full.ctx().mxv(&a, &x).into(&mut y).unwrap();
        let masked = Distributed::new(2);
        masked
            .ctx()
            .mxv(&a, &x)
            .mask(&m)
            .structural()
            .into(&mut y)
            .unwrap();
        // The allgather is identical (opaque containers), the work is not.
        assert_eq!(
            full.tracker().steps()[0].h_bytes,
            masked.tracker().steps()[0].h_bytes
        );
        assert!(
            masked.tracker().steps()[0].compute_secs < full.tracker().steps()[0].compute_secs / 4.0
        );
    }

    #[test]
    fn local_ops_close_barrier_free_steps() {
        let cluster = Distributed::new(4);
        let x = Vector::filled(128, 1.0);
        let y = Vector::filled(128, 2.0);
        let mut w = Vector::zeros(128);
        cluster
            .ctx()
            .ewise(&x, &y)
            .scaled(2.0, 1.0)
            .into(&mut w)
            .unwrap();
        cluster.ctx().axpy(&mut w, 0.5, &x).unwrap();
        let t = cluster.tracker();
        assert_eq!(t.superstep_count(), 2);
        for s in t.steps() {
            assert_eq!(s.h_bytes, 0.0, "vector updates are communication-free");
            assert_eq!(s.sync_secs, 0.0, "and synchronize with nobody");
        }
    }

    #[test]
    fn dot_pays_exactly_one_allreduce() {
        let p = 8usize;
        let cluster = Distributed::new(p);
        let x = Vector::filled(100, 1.0);
        assert_eq!(cluster.ctx().norm2_squared(&x).unwrap(), 100.0);
        let t = cluster.tracker();
        assert_eq!(t.superstep_count(), 1);
        assert_eq!(t.steps()[0].h_bytes, allreduce_h_bytes(p, 8));
    }

    /// Runs `call` once on a fresh 3-node block-cyclic cluster and checks
    /// that it billed exactly the steps `expect` records on a fresh ledger
    /// of the same shape, field for field (the measured columns aside).
    fn bills_exactly(
        call: impl FnOnce(crate::Ctx<Distributed>),
        expect: impl FnOnce(&mut ClusterState),
    ) {
        let config = DistConfig::new(3).layout(ShardLayout::BlockCyclic { block: 3 });
        let cluster = Distributed::with_config(config);
        call(cluster.ctx());
        let mut want = ClusterState::new(config.nodes, config.machine, config.layout);
        expect(&mut want);
        let modeled = |steps: &[StepCost]| -> Vec<_> {
            steps
                .iter()
                .map(|s| {
                    let secs = [s.compute_secs, s.comm_secs, s.sync_secs, s.h_bytes];
                    (s.class, s.mg_level, s.overlap, secs.map(f64::to_bits))
                })
                .collect()
        };
        assert_eq!(
            modeled(&cluster.take_steps()),
            modeled(want.tracker.steps())
        );
    }

    /// One eager call of each element-stream op bills the stream or
    /// reduction its cost constants describe: vectors touched and flops
    /// per selected element.
    #[test]
    fn each_elementwise_op_bills_its_constants() {
        let n = 100usize;
        let x = Vector::from_dense((0..n).map(|i| 1.0 + i as f64).collect());
        let y = Vector::filled(n, 0.5);
        let every_fourth = (0..n as u32).step_by(4).collect();
        let m = Vector::<bool>::sparse_filled(n, every_fourth, true).unwrap();
        let (sel, all) = (Descriptor::STRUCTURAL, Descriptor::DEFAULT);
        let mut w = Vector::filled(n, 1.0);
        bills_exactly(
            |c| c.ewise(&x, &y).mask(&m).structural().into(&mut w).unwrap(),
            |s| {
                s.record_stream(n, Some(&m), sel, 3, 1.0);
            },
        );
        bills_exactly(
            |c| c.ewise(&x, &y).scaled(2.0, -1.0).into(&mut w).unwrap(),
            |s| {
                s.record_stream(n, None, all, 3, 3.0);
            },
        );
        bills_exactly(
            |c| c.axpy(&mut w, 0.5, &y).unwrap(),
            |s| {
                s.record_stream(n, None, all, 3, 2.0);
            },
        );
        bills_exactly(
            |c| c.apply(&x).mask(&m).structural().into(&mut w).unwrap(),
            |s| {
                s.record_stream(n, Some(&m), sel, 2, 1.0);
            },
        );
        let ys = y.as_slice();
        bills_exactly(
            |c| {
                c.transform(&mut w)
                    .mask(&m)
                    .structural()
                    .apply(|i, t| *t += ys[i])
                    .unwrap()
            },
            |s| {
                s.record_stream(n, Some(&m), sel, 3, 2.0);
            },
        );
        bills_exactly(
            |c| {
                c.dot(&x, &y).compute().unwrap();
            },
            |s| {
                s.record_reduction(n, None, all, 2, 2.0);
            },
        );
        bills_exactly(
            |c| {
                c.norm2_squared(&x).unwrap();
            },
            |s| {
                s.record_reduction(n, None, all, 2, 2.0);
            },
        );
        bills_exactly(
            |c| {
                c.reduce(&x)
                    .monoid(Max)
                    .mask(&m)
                    .structural()
                    .compute()
                    .unwrap();
            },
            |s| {
                s.record_reduction(n, Some(&m), sel, 1, 1.0);
            },
        );
        bills_exactly(
            |c| {
                let mut pl = c.pipeline();
                let h = pl.axpy(&mut w, 0.5, &y);
                pl.norm2_squared(h);
                pl.finish().unwrap();
            },
            |s| s.record_stream_with_norm(n, 3, 4.0),
        );
    }

    /// A recorded chain of adjacent element-wise ops bills op by op: each
    /// op's own ledger entry, in recording order, as its eager call would.
    #[test]
    fn recorded_chain_bills_op_by_op() {
        let n = 100usize;
        let x = Vector::from_dense((0..n).map(|i| 1.0 + i as f64).collect());
        let y = Vector::filled(n, 0.5);
        let (mut w, mut v) = (Vector::filled(n, 1.0), Vector::filled(n, 2.0));
        bills_exactly(
            |c| {
                let mut pl = c.pipeline();
                pl.ewise(&x, &y).scaled(2.0, -1.0).into(&mut w);
                pl.axpy(&mut v, 0.5, &y);
                pl.finish().unwrap();
            },
            |s| {
                let all = Descriptor::DEFAULT;
                s.record_elementwise(ElemOp::Ewise { scaled: true }, n, None, all);
                s.record_elementwise(ElemOp::Axpy, n, None, all);
            },
        );
    }

    #[test]
    fn handle_accumulates_and_resets() {
        let cluster = Distributed::new(2);
        let x = Vector::filled(16, 1.0);
        cluster.ctx().norm2_squared(&x).unwrap();
        cluster.ctx().norm2_squared(&x).unwrap();
        assert_eq!(cluster.supersteps(), 2);
        let drained = cluster.take_steps();
        assert_eq!(drained.len(), 2);
        assert_eq!(cluster.supersteps(), 0);
        cluster.ctx().norm2_squared(&x).unwrap();
        cluster.reset_costs();
        assert_eq!(cluster.supersteps(), 0);
        assert_eq!(cluster.total_h_bytes(), 0.0);
    }

    #[test]
    fn cost_summary_breaks_down_by_class() {
        let cluster = Distributed::new(3);
        let a = a3();
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let mut y = Vector::zeros(3);
        cluster.ctx().mxv(&a, &x).into(&mut y).unwrap();
        cluster.ctx().dot(&x, &y).compute().unwrap();
        cluster.ctx().axpy(&mut y, 1.0, &x).unwrap();
        let summary = cluster.cost_summary();
        assert_eq!(summary.nodes, 3);
        assert_eq!(summary.supersteps, 3);
        let classes: Vec<KernelClass> = summary.per_class.iter().map(|c| c.class).collect();
        assert_eq!(
            classes,
            vec![KernelClass::SpMV, KernelClass::Dot, KernelClass::Waxpby]
        );
        let rendered = summary.to_string();
        assert!(rendered.contains("spmv"), "{rendered}");
        assert!(rendered.contains("3 node(s)"), "{rendered}");
    }

    #[test]
    fn cost_summary_pairs_measured_with_modeled() {
        let cluster = Distributed::new(2);
        let a = a3();
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let mut y = Vector::zeros(3);
        cluster.ctx().mxv(&a, &x).into(&mut y).unwrap();
        cluster.ctx().dot(&x, &y).compute().unwrap();
        let summary = cluster.cost_summary();
        // Kernels really executed, so every class carries wall-clock next
        // to its modeled seconds and the overall ratio is defined.
        assert!(summary.total_measured_secs > 0.0);
        assert!(summary.model_error() > 0.0);
        for c in &summary.per_class {
            assert!(c.measured_secs > 0.0, "unmeasured class {:?}", c.class);
        }
        // Attribution conserves the measurement: per-class sums equal the
        // total.
        let class_sum: f64 = summary.per_class.iter().map(|c| c.measured_secs).sum();
        assert!((class_sum - summary.total_measured_secs).abs() < 1e-12);
        let rendered = summary.to_string();
        assert!(rendered.contains("measured"), "{rendered}");
    }

    #[test]
    fn fused_kernel_spreads_measurement_over_both_closed_steps() {
        let cluster = Distributed::new(2);
        let a = a3();
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let mut y = Vector::zeros(3);
        cluster
            .run_spmv_dot::<f64, crate::PlusTimes>(&mut y, &a, &x, Some(&x), false)
            .unwrap();
        let steps = cluster.take_steps();
        assert_eq!(steps.len(), 2, "fused SpMV+dot closes two supersteps");
        assert!(steps.iter().all(|s| s.measured_secs > 0.0));
    }

    #[test]
    fn end_job_drains_steps_and_resets_scope() {
        let cluster = Distributed::new(2);
        let x = Vector::filled(16, 1.0);
        cluster.set_scope(Some(KernelClass::Smoother), Some(1));
        cluster.ctx().norm2_squared(&x).unwrap();
        let steps = cluster.end_job();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].class, KernelClass::Smoother);
        assert_eq!(steps[0].mg_level, Some(1));
        // The hand-off also dropped the scope: the next job's ops are
        // attributed per-operation again, not under the old tenant's tag.
        cluster.ctx().norm2_squared(&x).unwrap();
        let steps = cluster.end_job();
        assert_eq!(steps[0].class, KernelClass::Dot);
        assert_eq!(steps[0].mg_level, None);
        assert_eq!(cluster.supersteps(), 0);
    }

    #[test]
    fn errors_record_no_cost() {
        let cluster = Distributed::new(2);
        let a = a3();
        let bad = Vector::filled(5, 1.0); // wrong length
        let mut y = Vector::zeros(3);
        assert!(cluster.ctx().mxv(&a, &bad).into(&mut y).is_err());
        assert_eq!(cluster.supersteps(), 0);
    }

    #[test]
    fn exec_surface_reports_cluster_shape() {
        let cluster = Distributed::new(5);
        assert_eq!(cluster.nodes(), 5);
        assert_eq!(cluster.ctx().threads(), 5);
        assert_eq!(cluster.ctx().backend_name(), "distributed(bsp)");
        assert_eq!(cluster.layout(), ShardLayout::Block);
        // Handles are identities: a second cluster is a different backend.
        let other = Distributed::new(5);
        assert_ne!(cluster, other);
        assert_eq!(BackendKind::Dist(cluster), BackendKind::Dist(cluster));
    }

    #[test]
    fn block_cyclic_config_shards_cyclically() {
        let cluster = Distributed::with_config(
            DistConfig::new(2)
                .layout(ShardLayout::BlockCyclic { block: 4 })
                .machine(MachineParams::slow_network()),
        );
        assert_eq!(cluster.layout(), ShardLayout::BlockCyclic { block: 4 });
        assert_eq!(
            cluster.machine().g_secs_per_byte,
            MachineParams::slow_network().g_secs_per_byte
        );
    }
}
