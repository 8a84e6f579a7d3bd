//! Deferred (nonblocking) execution, the one-shot front door: record
//! operations on borrowed operands, fuse, run once.
//!
//! The paper cites the ALP nonblocking extension as the GraphBLAS answer to
//! the hand-fused kernels HPCG vendors ship: the program *expresses* each
//! primitive separately and the runtime merges compatible stages so paired
//! kernels stream their operands once. This crate has one such mechanism —
//! the slot-based op graph, fusion pass and interpreter in [`crate::plan`]
//! and [`crate::fusion`] — and two ways in. [`Ctx::plan`](crate::Ctx::plan)
//! records against declared slots and compiles a reusable
//! [`Plan`](crate::plan::Plan). [`Pipeline`] is the typed front door for a
//! graph that runs once:
//!
//! ```
//! use graphblas::{ctx, CsrMatrix, Sequential, Vector};
//!
//! let a = CsrMatrix::<f64>::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]).unwrap();
//! let p = Vector::from_dense(vec![1.0, 2.0]);
//! let mut ap = Vector::zeros(2);
//!
//! let mut pl = ctx::<Sequential>().pipeline();
//! let ap_h = pl.mxv(&a, &p).into(&mut ap);      // records, nothing runs yet
//! let p_ap = pl.dot(&p, ap_h).result();         // ⟨p, A·p⟩, also deferred
//! let out = pl.finish().unwrap();               // fuses into one SpMV pass
//! assert_eq!(out[p_ap], 1.0 * 2.0 + 2.0 * 6.0);
//! assert_eq!(ap.as_slice(), &[2.0, 6.0]);
//! ```
//!
//! # Recording model
//!
//! A pipeline owns a [`PlanBuilder`], and its recorders are the ones
//! [`Ctx`](crate::Ctx) hands out ([`PlanMxv`] & co.), on the recording
//! door [`Rec`] instead of the run-now one: one set of modifiers, defined
//! once in [`crate::plan`]. Every operand they take is an [`Operand`] — a
//! borrowed container, which the builder declares as a slot of the
//! container's own dimensions and binds on the spot, or the handle of an
//! earlier stage. Dataflow between recorded stages is expressed with
//! handles:
//!
//! * writing a vector (`.into(&mut y)`, `axpy`, `transform`) borrows it
//!   exclusively for the pipeline's lifetime and returns a [`VecHandle`];
//!   later stages use the handle as an *input* operand (the borrow checker
//!   rules out touching `y` directly until the pipeline is finished);
//! * in-place updates of an already-recorded vector pass its handle where
//!   the vector would go (`.into(h)`, `axpy_at`, `transform_at`);
//! * scalar-producing stages return a [`ScalarHandle`], redeemed against
//!   the [`PipelineResults`] that [`Pipeline::finish`] returns.
//!
//! The two front doors differ in one policy. An operand-length mismatch
//! that a [`Ctx::plan`](crate::Ctx::plan) builder panics on at record time
//! (`axpy`, `zip`) is kept by a pipeline's builder and returned by
//! [`Pipeline::finish`] before anything runs.
//!
//! What the type adds over a bare builder is the `'a` on every operand:
//! outputs enter exactly once as `&'a mut` and inputs as `&'a`, so the
//! borrow checker proves that the graph's vectors don't alias and that they
//! outlive execution — the property the interpreter's `out_mut` reborrows
//! rest on.
//! `transform` closures may borrow for `'a` too, which a compiled plan's
//! `'static` closures cannot.
//!
//! # Execution
//!
//! [`Pipeline::finish`] runs the pass in [`crate::fusion`] over the recorded
//! graph, validates the bindings and hands both to the interpreter a
//! [`Plan`](crate::plan::Plan) replays through — no plan is built, no
//! [`PlanCache`](crate::plan::PlanCache) is consulted. Pipeline execution
//! is therefore bit-identical to plan replay by construction, and both are
//! bit-identical to eager execution because unfused stages call the exact
//! kernels the run-now terminals call and fused kernels keep the
//! per-element arithmetic (pinned by dedicated tests). When the same graph
//! runs repeatedly — a CG iteration body, per-request serve work — compile
//! it once with [`Ctx::plan`](crate::Ctx::plan) instead; see
//! [`crate::plan`].
//!
//! # Algebra at recording time
//!
//! A deferred op must remember its algebra at runtime; the zero-sized
//! operator types a recorder carries in its type are recorded as tags
//! ([`RingTag`], [`BinOpTag`], [`UnaryOpTag`], [`MonoidTag`]) by the
//! recording terminals and re-monomorphized at execution. The
//! taggable subset (arithmetic + tropical rings, the arithmetic/min/max
//! operator families) covers HPCG and the workspace's graph workloads. An
//! algebra outside it (e.g. BFS's `LorLand`) runs on the run-now door,
//! and a recording terminal refuses it at compile time; `mxm` stays
//! eager-only (it is a setup-time primitive). The tags live here and both
//! front doors record them.

use crate::container::matrix::CsrMatrix;
use crate::container::vector::Vector;
use crate::context::Exec;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::fusion::PlannedStage;
use crate::ops::accum::{AccumWith, NoAccum};
use crate::ops::binary::{Divide, Max, Min, Minus, Plus, Times};
use crate::ops::scalar::Scalar;
use crate::ops::semiring::{MaxTimes, MinPlus, PlusTimes};
use crate::ops::unary::{Abs, AdditiveInverse, Identity, MultiplicativeInverse};
use crate::plan::{
    MatSlot, Operand, OutSlot, PlanApply, PlanBuilder, PlanDot, PlanEwise, PlanMxv, PlanRead,
    PlanReduce, PlanResults, PlanTransform, Rec, ScalarSlot,
};

// ---------------------------------------------------------------------------
// Runtime algebra tags
// ---------------------------------------------------------------------------

/// Runtime identifier of a semiring a recorded op executes over.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RingTag {
    /// The arithmetic semiring `(+, ×)`.
    PlusTimes,
    /// The tropical semiring `(min, +)`.
    MinPlus,
    /// The `(max, ×)` semiring.
    MaxTimes,
}

/// Runtime identifier of a binary operator (element-wise op or accumulator).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BinOpTag {
    /// Addition.
    Plus,
    /// Subtraction.
    Minus,
    /// Multiplication.
    Times,
    /// Division.
    Divide,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Runtime identifier of a unary operator.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum UnaryOpTag {
    /// The identity function.
    Identity,
    /// Absolute value.
    Abs,
    /// Additive inverse.
    AdditiveInverse,
    /// Multiplicative inverse.
    MultiplicativeInverse,
}

/// Runtime identifier of a reduction monoid.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MonoidTag {
    /// Sum.
    Plus,
    /// Product.
    Times,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Zero-sized semirings a pipeline can record (the runtime-taggable subset).
pub trait TaggedRing: Copy {
    /// The runtime tag of this semiring.
    const TAG: RingTag;
}
impl TaggedRing for PlusTimes {
    const TAG: RingTag = RingTag::PlusTimes;
}
impl TaggedRing for MinPlus {
    const TAG: RingTag = RingTag::MinPlus;
}
impl TaggedRing for MaxTimes {
    const TAG: RingTag = RingTag::MaxTimes;
}

/// Zero-sized binary operators a pipeline can record.
pub trait TaggedBinOp: Copy {
    /// The runtime tag of this operator.
    const TAG: BinOpTag;
}
impl TaggedBinOp for Plus {
    const TAG: BinOpTag = BinOpTag::Plus;
}
impl TaggedBinOp for Minus {
    const TAG: BinOpTag = BinOpTag::Minus;
}
impl TaggedBinOp for Times {
    const TAG: BinOpTag = BinOpTag::Times;
}
impl TaggedBinOp for Divide {
    const TAG: BinOpTag = BinOpTag::Divide;
}
impl TaggedBinOp for Min {
    const TAG: BinOpTag = BinOpTag::Min;
}
impl TaggedBinOp for Max {
    const TAG: BinOpTag = BinOpTag::Max;
}

/// Zero-sized unary operators a pipeline can record.
pub trait TaggedUnaryOp: Copy {
    /// The runtime tag of this operator.
    const TAG: UnaryOpTag;
}
impl TaggedUnaryOp for Identity {
    const TAG: UnaryOpTag = UnaryOpTag::Identity;
}
impl TaggedUnaryOp for Abs {
    const TAG: UnaryOpTag = UnaryOpTag::Abs;
}
impl TaggedUnaryOp for AdditiveInverse {
    const TAG: UnaryOpTag = UnaryOpTag::AdditiveInverse;
}
impl TaggedUnaryOp for MultiplicativeInverse {
    const TAG: UnaryOpTag = UnaryOpTag::MultiplicativeInverse;
}

/// Zero-sized monoids a pipeline can record.
pub trait TaggedMonoid: Copy {
    /// The runtime tag of this monoid.
    const TAG: MonoidTag;
}
impl TaggedMonoid for Plus {
    const TAG: MonoidTag = MonoidTag::Plus;
}
impl TaggedMonoid for Times {
    const TAG: MonoidTag = MonoidTag::Times;
}
impl TaggedMonoid for Min {
    const TAG: MonoidTag = MonoidTag::Min;
}
impl TaggedMonoid for Max {
    const TAG: MonoidTag = MonoidTag::Max;
}

/// Accumulation modes a pipeline can record: none, or a tagged operator.
pub trait TaggedAccum {
    /// The runtime tag of the accumulator, if any.
    const TAG: Option<BinOpTag>;
}
impl TaggedAccum for NoAccum {
    const TAG: Option<BinOpTag> = None;
}
impl<Op: TaggedBinOp> TaggedAccum for AccumWith<Op> {
    const TAG: Option<BinOpTag> = Some(Op::TAG);
}

/// Re-monomorphizes a [`RingTag`] into its zero-sized semiring.
macro_rules! with_ring {
    ($tag:expr, $R:ident => $body:expr) => {
        match $tag {
            RingTag::PlusTimes => {
                type $R = PlusTimes;
                $body
            }
            RingTag::MinPlus => {
                type $R = MinPlus;
                $body
            }
            RingTag::MaxTimes => {
                type $R = MaxTimes;
                $body
            }
        }
    };
}

/// Re-monomorphizes an optional accumulator tag into an `AccumMode`.
macro_rules! with_accum {
    ($tag:expr, $A:ident => $body:expr) => {
        match $tag {
            None => {
                type $A = NoAccum;
                $body
            }
            Some(BinOpTag::Plus) => {
                type $A = AccumWith<Plus>;
                $body
            }
            Some(BinOpTag::Minus) => {
                type $A = AccumWith<Minus>;
                $body
            }
            Some(BinOpTag::Times) => {
                type $A = AccumWith<Times>;
                $body
            }
            Some(BinOpTag::Divide) => {
                type $A = AccumWith<Divide>;
                $body
            }
            Some(BinOpTag::Min) => {
                type $A = AccumWith<Min>;
                $body
            }
            Some(BinOpTag::Max) => {
                type $A = AccumWith<Max>;
                $body
            }
        }
    };
}

/// Re-monomorphizes a [`BinOpTag`] into its zero-sized operator type.
macro_rules! with_binop {
    ($tag:expr, $Op:ident => $body:expr) => {
        match $tag {
            BinOpTag::Plus => {
                type $Op = Plus;
                $body
            }
            BinOpTag::Minus => {
                type $Op = Minus;
                $body
            }
            BinOpTag::Times => {
                type $Op = Times;
                $body
            }
            BinOpTag::Divide => {
                type $Op = Divide;
                $body
            }
            BinOpTag::Min => {
                type $Op = Min;
                $body
            }
            BinOpTag::Max => {
                type $Op = Max;
                $body
            }
        }
    };
}

/// Re-monomorphizes a [`UnaryOpTag`] into its zero-sized operator type.
macro_rules! with_unop {
    ($tag:expr, $Op:ident => $body:expr) => {
        match $tag {
            UnaryOpTag::Identity => {
                type $Op = Identity;
                $body
            }
            UnaryOpTag::Abs => {
                type $Op = Abs;
                $body
            }
            UnaryOpTag::AdditiveInverse => {
                type $Op = AdditiveInverse;
                $body
            }
            UnaryOpTag::MultiplicativeInverse => {
                type $Op = MultiplicativeInverse;
                $body
            }
        }
    };
}

/// Re-monomorphizes a [`MonoidTag`] into its zero-sized monoid type.
macro_rules! with_monoid {
    ($tag:expr, $M:ident => $body:expr) => {
        match $tag {
            MonoidTag::Plus => {
                type $M = Plus;
                $body
            }
            MonoidTag::Times => {
                type $M = Times;
                $body
            }
            MonoidTag::Min => {
                type $M = Min;
                $body
            }
            MonoidTag::Max => {
                type $M = Max;
                $body
            }
        }
    };
}

// The plan module replays the same tagged ops, so it shares the
// re-monomorphization macros.
pub(crate) use {with_accum, with_binop, with_monoid, with_ring, with_unop};

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Names the vector output of a recorded stage (or a vector bound with
/// [`Pipeline::bind`]); later stages use it as an input operand. It is the
/// output slot of the pipeline's op graph, branded with the issuing
/// pipeline's id, so passing one to another pipeline panics instead of
/// silently resolving to the wrong vector.
pub type VecHandle = OutSlot;

/// Names the scalar result of a recorded `dot`/`reduce`/norm stage; redeem
/// it against [`PipelineResults`] after [`Pipeline::finish`]. Branded like
/// [`VecHandle`].
pub type ScalarHandle = ScalarSlot;

/// Scalar results of an executed pipeline, indexed by [`ScalarHandle`].
pub type PipelineResults<T> = PlanResults<T>;

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

/// A deferred-execution context: records operations into an op graph,
/// fuses, and executes on [`finish`](Pipeline::finish). Created by
/// [`Ctx::pipeline`](crate::Ctx::pipeline); see the [module docs](self).
pub struct Pipeline<'a, T: Scalar, E: Exec> {
    /// The recorded graph and every operand bound into it; its closures
    /// and bindings borrow for `'a`.
    pb: PlanBuilder<'a, T, E>,
}

impl<'a, T: Scalar, E: Exec> Pipeline<'a, T, E> {
    pub(crate) fn new(exec: E, defaults: Descriptor) -> Pipeline<'a, T, E> {
        Pipeline {
            pb: PlanBuilder::new(exec, defaults, true),
        }
    }

    /// Number of operations recorded so far.
    pub fn len(&self) -> usize {
        self.pb.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.pb.is_empty()
    }

    /// Registers a vector the pipeline will update in place (e.g. the
    /// iterate a recorded smoother sweep refines), without recording an
    /// operation. Returns its handle for use as operand or in-place target.
    pub fn bind(&mut self, v: &'a mut Vector<T>) -> VecHandle {
        v.resolve(&mut self.pb)
    }

    /// Starts recording `y = A ⊕.⊗ x` (default ring: `PlusTimes`).
    pub fn mxv(
        &mut self,
        a: &'a CsrMatrix<T>,
        x: impl Operand<PlanBuilder<'a, T, E>, PlanRead>,
    ) -> PlanMxv<Rec<'_, 'a, T, E>, MatSlot, PlanRead, PlusTimes, NoAccum> {
        self.pb.mxv(a, x)
    }

    /// Starts recording `y = xᵀA` — an mxv with the transposition
    /// pre-toggled.
    pub fn vxm(
        &mut self,
        x: impl Operand<PlanBuilder<'a, T, E>, PlanRead>,
        a: &'a CsrMatrix<T>,
    ) -> PlanMxv<Rec<'_, 'a, T, E>, MatSlot, PlanRead, PlusTimes, NoAccum> {
        self.pb.vxm(x, a)
    }

    /// Starts recording `w = Op(x, y)` element-wise (default op: `Plus`).
    pub fn ewise(
        &mut self,
        x: impl Operand<PlanBuilder<'a, T, E>, PlanRead>,
        y: impl Operand<PlanBuilder<'a, T, E>, PlanRead>,
    ) -> PlanEwise<Rec<'_, 'a, T, E>, Plus, NoAccum> {
        self.pb.ewise(x, y)
    }

    /// Starts recording `out = Op(input)` (default op: `Identity`).
    pub fn apply(
        &mut self,
        input: impl Operand<PlanBuilder<'a, T, E>, PlanRead>,
    ) -> PlanApply<Rec<'_, 'a, T, E>, Identity, NoAccum> {
        self.pb.apply(input)
    }

    /// Records `x = x + α·y` on a vector entering the pipeline here.
    pub fn axpy(
        &mut self,
        x: &'a mut Vector<T>,
        alpha: T,
        y: impl Operand<PlanBuilder<'a, T, E>, PlanRead>,
    ) -> VecHandle {
        self.pb.axpy(x, alpha, y)
    }

    /// Records `x = x + α·y` on an already-registered vector.
    pub fn axpy_at(
        &mut self,
        x: VecHandle,
        alpha: T,
        y: impl Operand<PlanBuilder<'a, T, E>, PlanRead>,
    ) -> VecHandle {
        self.pb.axpy(x, alpha, y)
    }

    /// Starts recording an in-place indexed update of `out` (the paper's
    /// `eWiseLambda`).
    pub fn transform(&mut self, out: &'a mut Vector<T>) -> PlanTransform<Rec<'_, 'a, T, E>> {
        self.pb.transform(out)
    }

    /// Starts recording an in-place indexed update of an already-registered
    /// vector.
    pub fn transform_at(&mut self, out: VecHandle) -> PlanTransform<Rec<'_, 'a, T, E>> {
        self.pb.transform(out)
    }

    /// Starts recording `⟨x, y⟩` (default ring: `PlusTimes`).
    pub fn dot(
        &mut self,
        x: impl Operand<PlanBuilder<'a, T, E>, PlanRead>,
        y: impl Operand<PlanBuilder<'a, T, E>, PlanRead>,
    ) -> PlanDot<Rec<'_, 'a, T, E>, PlusTimes> {
        self.pb.dot(x, y)
    }

    /// Records `‖x‖² = ⟨x, x⟩` over the arithmetic semiring.
    pub fn norm2_squared(
        &mut self,
        x: impl Operand<PlanBuilder<'a, T, E>, PlanRead>,
    ) -> ScalarHandle {
        self.pb.norm2_squared(x)
    }

    /// Starts recording a fold of `x` over a monoid (default: `Plus`).
    pub fn reduce(
        &mut self,
        x: impl Operand<PlanBuilder<'a, T, E>, PlanRead>,
    ) -> PlanReduce<Rec<'_, 'a, T, E>, Plus> {
        self.pb.reduce(x)
    }

    /// The fusion plan `finish` would execute right now — for tests,
    /// benchmarks and debugging.
    pub fn plan(&self) -> Vec<PlannedStage> {
        self.pb.schedule()
    }

    /// Runs the fusion pass and executes the fused schedule, consuming the
    /// pipeline (and releasing its borrows). An operand-length mismatch
    /// caught while recording an `axpy` or a `zip` is returned before
    /// anything runs. On a kernel error, already-executed stages have
    /// taken effect; the contents of output vectors recorded after the
    /// failing stage are unspecified.
    pub fn finish(self) -> Result<PipelineResults<T>> {
        let _span = obs::span_enter("pipeline.finish", "plan");
        self.pb.run_once()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Parallel, Sequential};
    use crate::context::{ctx, BackendKind, DynCtx};
    use crate::error::GrbError;

    fn a3() -> CsrMatrix<f64> {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn deferred_mxv_runs_nothing_until_finish() {
        let a = a3();
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let mut y = Vector::zeros(3);
        let mut pl = ctx::<Sequential>().pipeline();
        let _ = pl.mxv(&a, &x).into(&mut y);
        assert_eq!(pl.len(), 1);
        pl.finish().unwrap();
        assert_eq!(y.as_slice(), &[5.0, 6.0, 19.0]);
    }

    #[test]
    fn spmv_dot_fuses_and_matches_eager() {
        let a = a3();
        let p = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let mut ap_pipe = Vector::zeros(3);
        let mut pl = ctx::<Sequential>().pipeline();
        let ap_h = pl.mxv(&a, &p).into(&mut ap_pipe);
        let d = pl.dot(&p, ap_h).result();
        assert_eq!(pl.plan(), vec![PlannedStage::SpmvDot]);
        let out = pl.finish().unwrap();

        let exec = ctx::<Sequential>();
        let mut ap = Vector::zeros(3);
        exec.mxv(&a, &p).into(&mut ap).unwrap();
        let d_eager = exec.dot(&p, &ap).compute().unwrap();
        assert_eq!(ap.as_slice(), ap_pipe.as_slice());
        assert_eq!(out[d].to_bits(), d_eager.to_bits());
    }

    #[test]
    fn spmv_norm_epilogue_fuses() {
        let a = a3();
        let x = Vector::from_dense(vec![1.0, -1.0, 2.0]);
        let mut y = Vector::zeros(3);
        let mut pl = ctx::<Sequential>().pipeline();
        let yh = pl.mxv(&a, &x).into(&mut y);
        let n = pl.norm2_squared(yh);
        assert_eq!(pl.plan(), vec![PlannedStage::SpmvDot]);
        let out = pl.finish().unwrap();
        let expected = ctx::<Sequential>().norm2_squared(&y).unwrap();
        assert_eq!(out[n], expected);
    }

    #[test]
    fn axpy_norm_fuses_and_matches_eager() {
        let q = Vector::from_dense((0..500).map(|i| (i % 7) as f64 - 3.0).collect::<Vec<_>>());
        let r0 = Vector::from_dense((0..500).map(|i| (i % 5) as f64).collect::<Vec<_>>());

        let mut r_pipe = r0.clone();
        let mut pl = ctx::<Parallel>().pipeline();
        let rh = pl.axpy(&mut r_pipe, -0.25, &q);
        let nh = pl.norm2_squared(rh);
        assert_eq!(pl.plan(), vec![PlannedStage::AxpyNorm]);
        let out = pl.finish().unwrap();

        let exec = ctx::<Parallel>();
        let mut r = r0.clone();
        exec.axpy(&mut r, -0.25, &q).unwrap();
        let n_eager = exec.norm2_squared(&r).unwrap();
        assert_eq!(r.as_slice(), r_pipe.as_slice());
        assert_eq!(out[nh].to_bits(), n_eager.to_bits());
    }

    #[test]
    fn elementwise_chain_runs_one_stage_per_op() {
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let y = Vector::from_dense(vec![10.0, 20.0, 30.0]);
        let mut w = Vector::zeros(3);
        let mut z = Vector::from_dense(vec![1.0, 1.0, 1.0]);
        let mut pl = ctx::<Sequential>().pipeline();
        let wh = pl.ewise(&x, &y).scaled(2.0, -1.0).into(&mut w);
        pl.axpy(&mut z, 0.5, &x);
        let _ = wh;
        assert_eq!(
            pl.plan(),
            vec![PlannedStage::Single("ewise"), PlannedStage::Single("axpy")]
        );
        pl.finish().unwrap();
        assert_eq!(w.as_slice(), &[-8.0, -16.0, -24.0]);
        assert_eq!(z.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn chain_reading_prior_output_splits_the_loop() {
        // The second stage reads the first stage's output, so they may not
        // share one loop (the read must see the fully written vector only
        // in the same-index sense — legality keeps them separate).
        let x = Vector::from_dense(vec![1.0, 2.0]);
        let y = Vector::from_dense(vec![3.0, 4.0]);
        let mut w = Vector::zeros(2);
        let mut v = Vector::zeros(2);
        let mut pl = ctx::<Sequential>().pipeline();
        let wh = pl.ewise(&x, &y).into(&mut w);
        let _ = pl.ewise(wh, &x).op(Times).into(&mut v);
        assert_eq!(
            pl.plan(),
            vec![PlannedStage::Single("ewise"), PlannedStage::Single("ewise")]
        );
        pl.finish().unwrap();
        assert_eq!(w.as_slice(), &[4.0, 6.0]);
        assert_eq!(v.as_slice(), &[4.0, 12.0]);
    }

    #[test]
    fn masked_stages_stay_unfused_but_execute() {
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let y = Vector::from_dense(vec![1.0, 1.0, 1.0]);
        let mask = Vector::<bool>::sparse_filled(3, vec![1], true).unwrap();
        let mut w = Vector::from_dense(vec![9.0, 9.0, 9.0]);
        let mut v = Vector::zeros(3);
        let mut pl = ctx::<Sequential>().pipeline();
        pl.ewise(&x, &y).mask(&mask).structural().into(&mut w);
        pl.apply(&x).op(AdditiveInverse).into(&mut v);
        assert_eq!(
            pl.plan(),
            vec![PlannedStage::Single("ewise"), PlannedStage::Single("apply")]
        );
        pl.finish().unwrap();
        assert_eq!(w.as_slice(), &[9.0, 3.0, 9.0]);
        assert_eq!(v.as_slice(), &[-1.0, -2.0, -3.0]);
    }

    #[test]
    fn bind_and_transform_zip_express_rbgs_shape() {
        // One masked color step: tmp⟨m⟩ = A·x, then x⟨m⟩ updated reading tmp.
        let a = a3();
        let r = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let diag = Vector::from_dense(vec![2.0, 3.0, 5.0]);
        let mask = Vector::<bool>::sparse_filled(3, vec![0, 2], true).unwrap();
        let mut x_pipe = Vector::from_dense(vec![0.5, 0.5, 0.5]);
        let mut tmp_pipe = Vector::zeros(3);

        let (rs, ds) = (r.as_slice(), diag.as_slice());
        let mut pl = ctx::<Sequential>().pipeline();
        let xh = pl.bind(&mut x_pipe);
        let th = pl.mxv(&a, xh).mask(&mask).structural().into(&mut tmp_pipe);
        pl.transform_at(xh)
            .mask(&mask)
            .structural()
            .zip(th)
            .apply(move |i, xi, ti| {
                let d = ds[i];
                *xi = (rs[i] - ti + *xi * d) / d;
            });
        pl.finish().unwrap();

        // Eager reference.
        let exec = ctx::<Sequential>();
        let mut x = Vector::from_dense(vec![0.5, 0.5, 0.5]);
        let mut tmp = Vector::zeros(3);
        exec.mxv(&a, &x)
            .mask(&mask)
            .structural()
            .into(&mut tmp)
            .unwrap();
        let ts = tmp.as_slice();
        exec.transform(&mut x)
            .mask(&mask)
            .structural()
            .apply(|i, xi| {
                let d = ds[i];
                *xi = (rs[i] - ts[i] + *xi * d) / d;
            })
            .unwrap();
        assert_eq!(x.as_slice(), x_pipe.as_slice());
        assert_eq!(tmp.as_slice(), tmp_pipe.as_slice());
    }

    #[test]
    fn dyn_ctx_pipeline_matches_static() {
        let a = a3();
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        for kind in [BackendKind::Sequential, BackendKind::Parallel] {
            let mut y = Vector::zeros(3);
            let mut pl = DynCtx::runtime(kind).pipeline();
            let yh = pl.mxv(&a, &x).into(&mut y);
            let d = pl.dot(&x, yh).result();
            let out = pl.finish().unwrap();
            let mut y_ref = Vector::zeros(3);
            ctx::<Sequential>().mxv(&a, &x).into(&mut y_ref).unwrap();
            let d_ref = ctx::<Sequential>().dot(&x, &y_ref).compute().unwrap();
            assert_eq!(y.as_slice(), y_ref.as_slice(), "backend {kind}");
            assert_eq!(out[d], d_ref, "backend {kind}");
        }
    }

    #[test]
    fn transposed_and_accumulated_mxv_records_faithfully() {
        let a = a3();
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let mut y_pipe = Vector::from_dense(vec![1.0, 1.0, 1.0]);
        let mut pl = ctx::<Sequential>().pipeline();
        pl.mxv(&a, &x).transpose().accum(Plus).into(&mut y_pipe);
        pl.finish().unwrap();

        let mut y = Vector::from_dense(vec![1.0, 1.0, 1.0]);
        ctx::<Sequential>()
            .mxv(&a, &x)
            .transpose()
            .accum(Plus)
            .into(&mut y)
            .unwrap();
        assert_eq!(y.as_slice(), y_pipe.as_slice());
    }

    #[test]
    fn reduce_and_ring_dot_through_pipeline() {
        use crate::ops::semiring::MinPlus;
        let x = Vector::from_dense(vec![3.0, 1.0, 9.0]);
        let y = Vector::from_dense(vec![2.0, 5.0, 1.0]);
        let mut pl = ctx::<Sequential>().pipeline();
        let s = pl.reduce(&x).monoid(Max).result();
        let d = pl.dot(&x, &y).ring(MinPlus).result();
        let out = pl.finish().unwrap();
        assert_eq!(out.get(s), 9.0);
        assert_eq!(out[d], 5.0);
    }

    #[test]
    fn dimension_error_propagates_from_finish() {
        let a = a3();
        let x_bad = Vector::from_dense(vec![1.0, 2.0]);
        let mut y = Vector::zeros(3);
        let mut pl = ctx::<Sequential>().pipeline();
        pl.mxv(&a, &x_bad).into(&mut y);
        assert!(pl.finish().is_err());
    }

    #[test]
    fn elementwise_chain_dimension_error_propagates() {
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let y_bad = Vector::from_dense(vec![1.0]);
        let mut w = Vector::zeros(3);
        let mut z = Vector::zeros(3);
        let mut pl = ctx::<Sequential>().pipeline();
        pl.ewise(&x, &y_bad).into(&mut w);
        pl.axpy(&mut z, 1.0, &x);
        assert!(pl.finish().is_err());
    }

    #[test]
    #[should_panic(expected = "does not belong to this pipeline")]
    fn foreign_handle_is_rejected() {
        let x = Vector::from_dense(vec![1.0]);
        let mut y = Vector::<f64>::zeros(1);
        let mut w = Vector::zeros(1);
        let mut other = ctx::<Sequential>().pipeline::<f64>();
        let h = other.apply(&x).into(&mut w);
        drop(other);
        let mut pl = ctx::<Sequential>().pipeline::<f64>();
        pl.apply(h).into(&mut y);
    }

    #[test]
    fn record_time_length_mismatch_is_an_error_from_finish_not_a_panic() {
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        for bad_len in [2, 5] {
            let bad = Vector::from_dense(vec![1.0; bad_len]);

            let mut out = x.clone();
            let mut pl = ctx::<Sequential>().pipeline();
            pl.transform(&mut out).zip(&bad).apply(|_, o, s| *o += s);
            assert!(matches!(
                pl.finish(),
                Err(GrbError::DimensionMismatch { .. })
            ));

            // The same through a handle, and for the other op whose plan
            // recorder asserts on operand length.
            let (mut out, mut src) = (x.clone(), bad.clone());
            let mut pl = ctx::<Sequential>().pipeline();
            let sh = pl.apply(&bad).into(&mut src);
            pl.transform(&mut out).zip(sh).apply(|_, o, s| *o += s);
            assert!(pl.finish().is_err());

            let mut out = x.clone();
            let mut pl = ctx::<Sequential>().pipeline();
            pl.axpy(&mut out, 2.0, &bad);
            assert!(matches!(
                pl.finish(),
                Err(GrbError::DimensionMismatch { .. })
            ));
        }
    }

    /// One `&Vector` read by several recorded ops, and a bound in-out
    /// vector read by a later stage after an in-place update.
    fn check_shared_input_and_bound_inout<E: Exec>(exec: crate::Ctx<E>) {
        let n = 1500;
        let entries: Vec<_> = (0..n)
            .flat_map(|i| [(i, i, 4.0 + (i % 3) as f64), (i, (i + 1) % n, -1.0 / 3.0)])
            .collect();
        let a = CsrMatrix::from_triplets(n, n, &entries).unwrap();
        let p = Vector::from_dense((0..n).map(|i| (i % 7) as f64 / 3.0 - 1.0).collect());
        let q = Vector::from_dense((0..n).map(|i| (i % 5) as f64 / 7.0).collect());
        let x0 = Vector::from_dense((0..n).map(|i| (i % 11) as f64 - 5.0).collect());

        let (mut x, mut w, mut y) = (x0.clone(), Vector::zeros(n), Vector::zeros(n));
        let mut pl = exec.pipeline();
        let xh = pl.bind(&mut x);
        pl.ewise(&p, &q).scaled(2.0, -1.0).into(&mut w);
        pl.axpy_at(xh, 0.5, &p);
        let yh = pl.mxv(&a, xh).into(&mut y);
        let d = pl.dot(&p, yh).result();
        let d = pl.finish().unwrap()[d];

        let (mut x_e, mut w_e, mut y_e) = (x0.clone(), Vector::zeros(n), Vector::zeros(n));
        exec.ewise(&p, &q).scaled(2.0, -1.0).into(&mut w_e).unwrap();
        exec.axpy(&mut x_e, 0.5, &p).unwrap();
        exec.mxv(&a, &x_e).into(&mut y_e).unwrap();
        let d_e = exec.dot(&p, &y_e).compute().unwrap();

        let name = exec.backend_name();
        assert_eq!(x.as_slice(), x_e.as_slice(), "{name}");
        assert_eq!(w.as_slice(), w_e.as_slice(), "{name}");
        assert_eq!(y.as_slice(), y_e.as_slice(), "{name}");
        assert_eq!(d.to_bits(), d_e.to_bits(), "{name}");
    }

    #[test]
    fn shared_input_and_bound_inout_match_eager_on_all_backends() {
        check_shared_input_and_bound_inout(ctx::<Sequential>());
        check_shared_input_and_bound_inout(ctx::<Parallel>());
        check_shared_input_and_bound_inout(crate::Distributed::new(2).ctx());
    }

    #[test]
    fn finish_emits_one_span_and_the_kernel_spans_of_the_equivalent_plan_run() {
        let a = a3();
        let p = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let mask = Vector::<bool>::sparse_filled(3, vec![0, 2], true).unwrap();
        let exec = ctx::<Sequential>();

        // Span recording is process-global and other tests run beside this
        // one: each arm records under a track of its own and reads only that.
        type Span = (&'static str, &'static str);
        let spans_of = |tid: u64| -> Vec<Span> {
            obs::snapshot()
                .iter()
                .filter(|s| s.tid == tid)
                .map(|s| (s.name, s.class))
                .collect()
        };
        let kernels = |spans: &[Span]| -> Vec<Span> {
            let mut k: Vec<_> = spans.iter().copied().filter(|s| s.1 != "plan").collect();
            k.sort_unstable();
            k
        };
        obs::set_enabled(true);

        let pipe_tid = obs::alloc_tid();
        obs::with_tid(pipe_tid, || {
            let (mut ap, mut r, mut t) = (Vector::zeros(3), p.clone(), Vector::zeros(3));
            let mut pl = exec.pipeline();
            let aph = pl.mxv(&a, &p).into(&mut ap);
            pl.dot(&p, aph).result();
            let rh = pl.axpy(&mut r, -0.5, aph);
            pl.norm2_squared(rh);
            pl.mxv(&a, rh).mask(&mask).structural().into(&mut t);
            pl.finish().unwrap();
        });

        let plan_tid = obs::alloc_tid();
        obs::with_tid(plan_tid, || {
            let (mut ap, mut r, mut t) = (Vector::zeros(3), p.clone(), Vector::zeros(3));
            let mut pb = exec.plan::<f64>();
            let (am, ps, ms) = (pb.matrix(3, 3), pb.input(3), pb.mask(3));
            let (aps, rs, ts) = (pb.output(3), pb.output(3), pb.output(3));
            pb.mxv(am, ps).into(aps);
            pb.dot(ps, aps).result();
            pb.axpy(rs, -0.5, aps);
            pb.norm2_squared(rs);
            pb.mxv(am, rs).mask(ms).structural().into(ts);
            let plan = pb.compile();
            let mut b = plan.bindings();
            b.bind_matrix(am, &a)
                .bind_input(ps, &p)
                .bind_mask(ms, &mask);
            b.bind_output(aps, &mut ap)
                .bind_output(rs, &mut r)
                .bind_output(ts, &mut t);
            plan.run(&mut b).unwrap();
        });
        obs::set_enabled(false);

        let (pipe, plan) = (spans_of(pipe_tid), spans_of(plan_tid));
        let finishes = pipe.iter().filter(|s| s.0 == "pipeline.finish").count();
        assert_eq!(finishes, 1, "{pipe:?}");
        assert_eq!(kernels(&pipe).len(), 3, "{pipe:?}");
        assert_eq!(kernels(&pipe), kernels(&plan));
    }
}
