//! The generic fusion pass over recorded op graphs.
//!
//! Given the ops a [`PlanBuilder`](crate::plan::PlanBuilder) recorded, the
//! pass partitions them into execution stages, merging patterns the
//! backends have fused kernels for (paper §VI — the hand-optimizations
//! HPCG vendors apply, recovered here from the op graph):
//!
//! * **SpMV with epilogue** — an unmasked, untransposed, non-accumulating
//!   `mxv` over the arithmetic semiring immediately consumed by a `dot` (or
//!   norm) of its output: one row sweep computes the product and folds the
//!   epilogue, so `y` is never re-streamed (CG's `⟨p, Ap⟩`).
//! * **Axpy with norm** — an `axpy` immediately followed by the squared
//!   norm of its output: one stream updates and reduces (CG's residual
//!   update + convergence check).
//!
//! Those are the two patterns. Everything else — every other element-wise
//! op included, however many sit side by side — runs as a single stage
//! through the exact kernel its eager call would run. The pass never
//! reorders ops, which together with the per-element equivalence of the
//! fused kernels keeps deferred execution bit-identical to eager execution.
//!
//! The pass sees each recorded op only as its fusion-relevant footprint
//! (which pair half it can be, the slot it writes or the slots it reads),
//! so it knows nothing about the op graph's representation:
//! [`crate::plan`] maps its nodes to footprints, gets a schedule of node
//! indices back and interprets it. There is one caller — plan compilation
//! and a builder's `finish()` share it.

/// One execution stage of a fused schedule (indices into the node list).
pub(crate) enum Stage {
    /// A lone node, executed through its eager kernel.
    Single(usize),
    /// `mxv` + `dot`/norm of its output in one sweep.
    SpmvDot {
        /// Index of the `mxv` node.
        mxv: usize,
        /// Index of the consuming `dot` node.
        dot: usize,
    },
    /// `axpy` + squared norm of its output in one sweep.
    AxpyNorm {
        /// Index of the `axpy` node.
        axpy: usize,
        /// Index of the consuming `dot` node.
        dot: usize,
    },
}

/// Public description of a planned stage — what
/// [`PlanBuilder::schedule`](crate::plan::PlanBuilder::schedule) and
/// [`Plan::schedule`](crate::plan::Plan::schedule) report for tests and
/// debugging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlannedStage {
    /// An unfused stage running the named eager kernel.
    Single(&'static str),
    /// A fused SpMV-with-dot-epilogue sweep.
    SpmvDot,
    /// A fused axpy-with-norm stream.
    AxpyNorm,
}

impl Stage {
    /// Describes the stage given a node-index → kernel-name mapping.
    pub(crate) fn describe_by(&self, name_of: impl Fn(usize) -> &'static str) -> PlannedStage {
        match self {
            Stage::Single(i) => PlannedStage::Single(name_of(*i)),
            Stage::SpmvDot { .. } => PlannedStage::SpmvDot,
            Stage::AxpyNorm { .. } => PlannedStage::AxpyNorm,
        }
    }
}

/// The fusion-relevant footprint of one recorded op: the two pair
/// patterns read nothing else. Input slots cannot alias an output slot —
/// the borrow rules on the bindings enforce that — so they are invisible
/// to the pass.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OpShape {
    /// An `mxv` eligible for the SpMV-with-epilogue fusion (unmasked,
    /// untransposed, plus-times ring, no accumulator), writing slot `out`.
    Mxv { out: usize },
    /// An in-place `x += alpha * y` update of slot `out`.
    Axpy { out: usize },
    /// A `dot` over the plus-times ring — the only epilogue the fused
    /// SpMV/axpy kernels implement — with the output slots it reads.
    Dot { reads: [Option<usize>; 2] },
    /// Any other op.
    Other,
}

/// The fused pair starting at `shapes[i]`, if `shapes[i]` and
/// `shapes[i + 1]` form one.
fn pair_at(shapes: &[OpShape], i: usize) -> Option<Stage> {
    let (mxv, dot) = (i, i + 1);
    match (shapes[i], *shapes.get(dot)?) {
        (OpShape::Mxv { out }, OpShape::Dot { reads }) if reads.contains(&Some(out)) => {
            Some(Stage::SpmvDot { mxv, dot })
        }
        (OpShape::Axpy { out }, OpShape::Dot { reads }) if reads == [Some(out); 2] => {
            Some(Stage::AxpyNorm { axpy: i, dot })
        }
        _ => None,
    }
}

/// Partitions a sequence of op shapes into a fused execution schedule.
pub(crate) fn fuse_shapes(shapes: &[OpShape]) -> Vec<Stage> {
    let mut stages = Vec::new();
    let mut i = 0;
    while i < shapes.len() {
        match pair_at(shapes, i) {
            Some(pair) => {
                stages.push(pair);
                i += 2;
            }
            None => {
                stages.push(Stage::Single(i));
                i += 1;
            }
        }
    }
    stages
}
