//! The generic fusion pass over recorded op graphs.
//!
//! Given the ops a [`PlanBuilder`](crate::plan::PlanBuilder) recorded —
//! directly, or on behalf of a [`Pipeline`](crate::pipeline::Pipeline) —
//! the pass partitions them into execution stages, merging patterns the
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
//! * **Element-wise loops** — maximal runs of adjacent unmasked
//!   element-wise stages of one length collapse into a single index loop,
//!   as long as no stage reads a vector another stage *in the same run*
//!   writes (same-index dataflow stays legal because element-wise stages
//!   only touch index `i`; cross-stage reads of a run member's output would
//!   observe a half-written vector, so they split the run instead).
//!
//! Everything else runs as a single stage through the exact kernel its
//! eager builder would call. The pass never reorders ops, which together
//! with the per-element equivalence of the fused kernels keeps deferred
//! execution bit-identical to eager execution.
//!
//! The pass sees each recorded op only as its fusion-relevant footprint
//! (kind, output slot, read slots, maskedness), so it knows nothing about
//! the op graph's representation: [`crate::plan`] maps its nodes to
//! footprints, gets a schedule of node indices back and interprets it.
//! There is one caller — plan compilation and pipeline `finish()` share it.

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
    /// Adjacent element-wise stages sharing a single index loop.
    Loop(Vec<usize>),
}

/// Public description of a planned stage — what
/// [`Pipeline::plan`](crate::pipeline::Pipeline::plan) and
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
    /// A single loop executing this many element-wise stages.
    FusedLoop(usize),
}

impl Stage {
    /// Describes the stage given a node-index → kernel-name mapping.
    pub(crate) fn describe_by(&self, name_of: impl Fn(usize) -> &'static str) -> PlannedStage {
        match self {
            Stage::Single(i) => PlannedStage::Single(name_of(*i)),
            Stage::SpmvDot { .. } => PlannedStage::SpmvDot,
            Stage::AxpyNorm { .. } => PlannedStage::AxpyNorm,
            Stage::Loop(run) => PlannedStage::FusedLoop(run.len()),
        }
    }
}

/// How an op participates in fusion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum ShapeKind {
    /// An `mxv` eligible for the SpMV-with-epilogue fusion: unmasked,
    /// untransposed, plus-times ring, no accumulator.
    MxvFusable,
    /// Any other `mxv`.
    MxvOther,
    /// An element-wise binary op.
    Ewise,
    /// An element-wise unary op.
    Apply,
    /// An in-place `x += alpha * y` update.
    Axpy,
    /// An element-wise user lambda (with any number of zipped sources).
    Lambda,
    /// A `dot` over the plus-times ring — the only epilogue the fused
    /// SpMV/axpy kernels implement.
    DotPlusTimes,
    /// A `dot` over any other ring.
    DotOther,
    /// A masked or monoid reduction.
    Reduce,
}

/// The fusion-relevant footprint of one recorded op: what it writes, which
/// output slots it reads, and whether a mask gates it. Input slots cannot
/// alias an output slot — the borrow rules on the bindings enforce that —
/// so they are invisible to the pass.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpShape {
    pub(crate) kind: ShapeKind,
    pub(crate) out: Option<usize>,
    pub(crate) reads: [Option<usize>; 3],
    pub(crate) masked: bool,
}

impl OpShape {
    fn reads(&self) -> impl Iterator<Item = usize> + '_ {
        self.reads.iter().flatten().copied()
    }
}

/// Whether `shapes[i]` + `shapes[i + 1]` form a fusable SpMV-with-epilogue.
fn spmv_dot_fusable(shapes: &[OpShape], i: usize) -> bool {
    let Some(mxv) = shapes.get(i) else {
        return false;
    };
    if mxv.kind != ShapeKind::MxvFusable {
        return false;
    }
    let out = mxv.out.expect("mxv writes a vector");
    match shapes.get(i + 1) {
        Some(dot) => dot.kind == ShapeKind::DotPlusTimes && dot.reads().any(|r| r == out),
        None => false,
    }
}

/// Whether `shapes[i]` + `shapes[i + 1]` form a fusable axpy-with-norm.
fn axpy_norm_fusable(shapes: &[OpShape], i: usize) -> bool {
    let Some(axpy) = shapes.get(i) else {
        return false;
    };
    if axpy.kind != ShapeKind::Axpy {
        return false;
    }
    let out = axpy.out.expect("axpy writes a vector");
    match shapes.get(i + 1) {
        Some(dot) => {
            dot.kind == ShapeKind::DotPlusTimes
                && dot.reads[0] == Some(out)
                && dot.reads[1] == Some(out)
        }
        None => false,
    }
}

/// Whether an op can participate in a fused element-wise loop.
fn loop_candidate(shape: &OpShape) -> bool {
    match shape.kind {
        ShapeKind::Ewise | ShapeKind::Apply | ShapeKind::Lambda => !shape.masked,
        ShapeKind::Axpy => true,
        ShapeKind::MxvFusable
        | ShapeKind::MxvOther
        | ShapeKind::DotPlusTimes
        | ShapeKind::DotOther
        | ShapeKind::Reduce => false,
    }
}

/// Partitions a sequence of op shapes into a fused execution schedule.
///
/// `out_lens[s]` is the length of output registry slot `s`; element-wise
/// runs only merge ops whose outputs share one length.
pub(crate) fn fuse_shapes(shapes: &[OpShape], out_lens: &[usize]) -> Vec<Stage> {
    let mut stages = Vec::new();
    let mut i = 0;
    while i < shapes.len() {
        if spmv_dot_fusable(shapes, i) {
            stages.push(Stage::SpmvDot { mxv: i, dot: i + 1 });
            i += 2;
            continue;
        }
        if axpy_norm_fusable(shapes, i) {
            stages.push(Stage::AxpyNorm {
                axpy: i,
                dot: i + 1,
            });
            i += 2;
            continue;
        }
        if !loop_candidate(&shapes[i]) {
            stages.push(Stage::Single(i));
            i += 1;
            continue;
        }
        // Grow a maximal legal element-wise run starting at i.
        let n = out_lens[shapes[i].out.expect("element-wise ops write a vector")];
        let mut run = vec![i];
        let mut outs_in_run = vec![shapes[i].out.unwrap()];
        let mut inputs_in_run: Vec<usize> = shapes[i].reads().collect();
        let mut j = i + 1;
        while j < shapes.len() {
            if !loop_candidate(&shapes[j]) || axpy_norm_fusable(shapes, j) {
                break;
            }
            let out = shapes[j].out.unwrap();
            // One loop may not contain two writers of a slot, a reader of a
            // slot the run writes (it would observe a half-written vector),
            // or a writer of a slot the run reads (an earlier member's
            // shared view would alias the write).
            if out_lens[out] != n || outs_in_run.contains(&out) || inputs_in_run.contains(&out) {
                break;
            }
            let reads_run_output = shapes[j].reads().any(|o| outs_in_run.contains(&o));
            if reads_run_output {
                break;
            }
            outs_in_run.push(out);
            inputs_in_run.extend(shapes[j].reads());
            run.push(j);
            j += 1;
        }
        if run.len() >= 2 {
            stages.push(Stage::Loop(run));
        } else {
            stages.push(Stage::Single(i));
        }
        i = j;
    }
    stages
}
