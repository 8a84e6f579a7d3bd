//! The op IR, its recorders, its interpreter, and the compile-once front
//! door: reusable [`Plan`]s and a [`PlanCache`].
//!
//! This crate has **one** family of recorders, **one** recorded form and
//! **one** executor, all in this module. Each op has one recorder
//! ([`PlanMxv`], [`PlanEwise`], [`PlanApply`], [`PlanTransform`],
//! [`PlanDot`], [`PlanReduce`]) whose modifiers — mask, descriptor flags,
//! ring, operator, accumulator, scaling, monoid — are written once. A
//! recorder is generic over a [`Door`], which decides where the op goes:
//!
//! * [`Run`], from [`Ctx`](crate::Ctx)'s own methods: operands are
//!   borrowed containers and the terminal executes at once through the
//!   kernels, returning a [`Result`];
//! * [`Rec`], from a [`PlanBuilder`]: operands are slots (dimensions only)
//!   and the terminal pushes a node into the builder's graph. The pass in
//!   [`crate::fusion`] turns the op list into a fused schedule, and the
//!   interpreter runs a schedule against a [`Bindings`] table that maps
//!   each slot to a concrete buffer.
//!
//! Algebra stays in the recorder's type: `ring`, `op`, `accum` and
//! `monoid` change its type parameters, and both terminals take any
//! [`Semiring`] or operator. A `Run` terminal calls its kernel, a
//! monomorphized function such as `ewise::<T, Op, A, E>`; a `Rec` terminal
//! stores a plain `fn` pointer to that same function in the node, with the
//! algebra's [`TypeId`] for hashing and fusion, and replay calls the
//! pointer. So a recorded op runs exactly the code its eager call runs,
//! and a plan instantiates only the algebra it records.
//!
//! Every operand a `Rec` recorder takes is an [`Operand`]: a declared
//! slot, or a borrowed container that the builder declares and binds
//! itself. [`Ctx::plan`](crate::Ctx::plan) and
//! [`Ctx::pipeline`](crate::Ctx::pipeline) both hand out a
//! [`PlanBuilder`]; they differ only in what its operands may borrow:
//!
//! * `ctx.plan()` → [`compile`](PlanBuilder::compile) → [`Plan`]: the
//!   builder is `'static`, so it takes declared slots, not borrows; the
//!   schedule is frozen once and every [`Plan::run`] executes it against
//!   freshly bound buffers. This is what loops use — a CG iteration body,
//!   per-request serve work;
//! * `ctx.pipeline()` → [`finish`](PlanBuilder::finish): the builder's
//!   lifetime is its operands'. It is handed borrowed containers (and
//!   `transform` closures that borrow), and `finish()` fuses, validates
//!   and runs the graph once against them. That lifetime is what proves
//!   the operands do not alias and outlive execution.
//!
//! An operand-length mismatch in `axpy` or `zip` is kept by the builder
//! and returned by `finish()` or by every [`Plan::run`] before anything
//! runs, as a misdimensioned binding is.
//!
//! Compile once, replay many times:
//!
//! ```
//! use graphblas::{ctx, CsrMatrix, Sequential, Vector};
//!
//! let a = CsrMatrix::<f64>::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]).unwrap();
//!
//! // Record the op graph once, against slots instead of buffers.
//! let mut pb = ctx::<Sequential>().plan::<f64>();
//! let am = pb.matrix(2, 2);
//! let xs = pb.input(2);
//! let ys = pb.output(2);
//! let ap = pb.mxv(am, xs).into(ys);
//! let p_ap = pb.dot(xs, ap).result();
//! let plan = pb.compile(); // fuses into one SpMV-with-dot sweep
//!
//! // Replay it — per call only the bindings change, never the schedule.
//! let x = Vector::from_dense(vec![1.0, 2.0]);
//! let mut y = Vector::zeros(2);
//! let mut b = plan.bindings();
//! b.bind_matrix(plan.matrix_slot(0), &a)
//!     .bind_input(plan.input_slot(0), &x)
//!     .bind_output(plan.output_slot(0), &mut y);
//! let out = plan.run(&mut b).unwrap();
//! assert_eq!(out[p_ap], 1.0 * 2.0 + 2.0 * 6.0);
//! drop(b);
//! assert_eq!(y.as_slice(), &[2.0, 6.0]);
//! ```
//!
//! # Execution model
//!
//! `Plan::run` resolves each slot through a [`Bindings`] table and then
//! executes the fused stages: unfused ops through exactly the kernels the
//! `Run` terminals call, fused ones through kernels with the same
//! per-element arithmetic, so a replayed plan is **bit-identical** to eager
//! execution (pinned by tests) — and `finish()` is this interpreter on the
//! builder's own graph. Scalars (CG's alpha/beta) enter as [`ScalarParam`]
//! slots mutated with [`Bindings::set`] between runs. The borrow checker
//! gives replay the same aliasing guarantees recording had: all bindings
//! borrow for the lifetime of the `Bindings` value, so an input and an
//! output can never name the same vector.
//!
//! # Caching
//!
//! [`PlanCache`] memoizes compiled plans under a caller-chosen `u64` key
//! (see [`plan_key`]) so hot paths skip both recording and fusion. Keys
//! should describe the op-graph *shape* — ops, masks, descriptors,
//! dimensions — never concrete buffers; rebinding handles re-put matrices
//! with identical dimensions, and a dimension change must be part of the
//! key (or the stale plan's `run` fails validation rather than corrupting
//! memory). [`Plan::structural_hash`] is that shape digest for a compiled
//! plan. Two caveats, both documented per method: closures recorded with
//! `transform` hash by arity and operand slots only, and a plan captures
//! its backend handle by value, so plans for a specific
//! [`Distributed`](crate::Distributed) cluster belong in a cache owned next
//! to that cluster (as `serve` keeps one per worker). There is no
//! process-wide cache: each user owns its [`PlanCache::new`].

use crate::container::matrix::{CsrMatrix, GraphMatrix};
use crate::container::vector::{SparseVector, Vector};
use crate::context::{ElemOp, Exec};
use crate::descriptor::Descriptor;
use crate::error::{check_dims, GrbError, Result};
use crate::exec::sparse::FrontierMode;
use crate::exec::{apply, ewise, fused, reduce};
use crate::fusion::{fuse_shapes, OpShape, PlannedStage, Stage};
use crate::ops::accum::{AccumMode, AccumWith, NoAccum};
use crate::ops::binary::{BinaryOp, Plus};
use crate::ops::monoid::Monoid;
use crate::ops::scalar::Scalar;
use crate::ops::semiring::{PlusTimes, Semiring};
use crate::ops::unary::{Identity, UnaryOp};
use std::any::{Any, TypeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Slots
// ---------------------------------------------------------------------------

/// Names a matrix operand slot of a plan. Branded with the issuing
/// builder's id: passing it to another plan's bindings panics instead of
/// silently resolving to the wrong operand.
#[derive(Copy, Clone, Debug)]
pub struct MatSlot {
    plan: u64,
    idx: usize,
}

/// Names a read-only vector operand slot of a plan (branded, see
/// [`MatSlot`]).
#[derive(Copy, Clone, Debug)]
pub struct InSlot {
    plan: u64,
    idx: usize,
}

/// Names a mutable vector slot of a plan — recorded ops write it and may
/// read it in place (branded, see [`MatSlot`]).
#[derive(Copy, Clone, Debug)]
pub struct OutSlot {
    plan: u64,
    idx: usize,
}

/// Names a mask operand slot of a plan (branded, see [`MatSlot`]).
#[derive(Copy, Clone, Debug)]
pub struct MaskSlot {
    plan: u64,
    idx: usize,
}

/// Names a scalar parameter of a plan (CG's alpha/beta): recorded ops use
/// its value, and [`Bindings::set`] changes it between replays without
/// recompiling (branded, see [`MatSlot`]).
#[derive(Copy, Clone, Debug)]
pub struct ScalarParam {
    plan: u64,
    idx: usize,
}

/// Names the scalar result of a recorded `dot`/`reduce`/norm op; redeem it
/// against the [`PlanResults`] each [`Plan::run`] returns (branded, see
/// [`MatSlot`]).
#[derive(Copy, Clone, Debug)]
pub struct ScalarSlot {
    plan: u64,
    idx: usize,
}

/// A readable vector operand of a recorded plan op: an input slot or the
/// (possibly already written) contents of an output slot.
#[derive(Copy, Clone, Debug)]
pub enum PlanRead {
    /// A read-only input slot.
    In(InSlot),
    /// An output slot read as an operand.
    Out(OutSlot),
}

/// A scalar operand of a recorded plan op: a value baked in at recording
/// time or a [`ScalarParam`] resolved at each run. Recorders take either
/// a `T` or a `ScalarParam` wherever they need one.
#[derive(Copy, Clone, Debug)]
pub enum PlanScalar<T: Scalar> {
    /// A constant recorded into the plan.
    Const(T),
    /// A parameter slot read from the bindings at run time.
    Param(ScalarParam),
}

/// What a recorder accepts where it needs an operand resolved to `S`
/// against `D`, the door's [`Door::Sink`].
///
/// On [`Run`] a borrowed container resolves to itself. On [`Rec`] it may
/// be the slot itself or a borrowed container — a matrix, a vector read
/// as `&'f`, a mask, a vector written as `&'f mut` — which the builder
/// declares as a slot of the container's own dimensions and binds on the
/// spot. That is how a builder from [`Ctx::pipeline`](crate::Ctx::pipeline)
/// records; one from [`Ctx::plan`](crate::Ctx::plan) takes slots, because
/// its operands must outlive `'static` and [`PlanBuilder::compile`] refuses
/// any it bound. A slot from another builder panics here.
pub trait Operand<D, S> {
    /// The operand `door` sees.
    fn resolve(self, door: &mut D) -> S;
}

impl<'a, T: Scalar, E: Exec> Operand<Run<'a, T, E>, &'a Vector<bool>> for &'a Vector<bool> {
    fn resolve(self, _: &mut Run<'a, T, E>) -> &'a Vector<bool> {
        self
    }
}

impl<T: Scalar, E: Exec> Operand<Run<'_, T, E>, T> for T {
    fn resolve(self, _: &mut Run<'_, T, E>) -> T {
        self
    }
}

impl<'f, T: Scalar, E: Exec> Operand<PlanBuilder<'f, T, E>, MatSlot> for MatSlot {
    fn resolve(self, pb: &mut PlanBuilder<'f, T, E>) -> MatSlot {
        pb.check(self.plan, self.idx, pb.graph.mats.len(), "MatSlot");
        self
    }
}

impl<'f, T: Scalar, E: Exec> Operand<PlanBuilder<'f, T, E>, MatSlot> for &'f CsrMatrix<T> {
    fn resolve(self, pb: &mut PlanBuilder<'f, T, E>) -> MatSlot {
        let s = pb.matrix(self.nrows(), self.ncols());
        pb.bound.mats[s.idx] = Some(self);
        s
    }
}

impl<'f, T: Scalar, E: Exec> Operand<PlanBuilder<'f, T, E>, PlanRead> for InSlot {
    fn resolve(self, pb: &mut PlanBuilder<'f, T, E>) -> PlanRead {
        pb.check(self.plan, self.idx, pb.graph.ins.len(), "InSlot");
        PlanRead::In(self)
    }
}

impl<'f, T: Scalar, E: Exec> Operand<PlanBuilder<'f, T, E>, PlanRead> for OutSlot {
    fn resolve(self, pb: &mut PlanBuilder<'f, T, E>) -> PlanRead {
        PlanRead::Out(self.resolve(pb))
    }
}

impl<'f, T: Scalar, E: Exec> Operand<PlanBuilder<'f, T, E>, PlanRead> for &'f Vector<T> {
    fn resolve(self, pb: &mut PlanBuilder<'f, T, E>) -> PlanRead {
        let s = pb.input(self.len());
        pb.bound.ins[s.idx] = Some(self);
        PlanRead::In(s)
    }
}

impl<'f, T: Scalar, E: Exec> Operand<PlanBuilder<'f, T, E>, MaskSlot> for MaskSlot {
    fn resolve(self, pb: &mut PlanBuilder<'f, T, E>) -> MaskSlot {
        pb.check(self.plan, self.idx, pb.graph.masks.len(), "MaskSlot");
        self
    }
}

impl<'f, T: Scalar, E: Exec> Operand<PlanBuilder<'f, T, E>, MaskSlot> for &'f Vector<bool> {
    fn resolve(self, pb: &mut PlanBuilder<'f, T, E>) -> MaskSlot {
        let s = pb.mask(self.len());
        pb.bound.masks[s.idx] = Some(self);
        s
    }
}

impl<'f, T: Scalar, E: Exec> Operand<PlanBuilder<'f, T, E>, OutSlot> for OutSlot {
    fn resolve(self, pb: &mut PlanBuilder<'f, T, E>) -> OutSlot {
        pb.check(self.plan, self.idx, pb.graph.outs.len(), "OutSlot");
        self
    }
}

impl<'f, T: Scalar, E: Exec> Operand<PlanBuilder<'f, T, E>, OutSlot> for &'f mut Vector<T> {
    fn resolve(self, pb: &mut PlanBuilder<'f, T, E>) -> OutSlot {
        let s = pb.output(self.len());
        pb.bound.outs[s.idx] = Some(self as *mut Vector<T>);
        s
    }
}

impl<'f, T: Scalar, E: Exec> Operand<PlanBuilder<'f, T, E>, PlanScalar<T>> for T {
    fn resolve(self, _: &mut PlanBuilder<'f, T, E>) -> PlanScalar<T> {
        PlanScalar::Const(self)
    }
}

impl<'f, T: Scalar, E: Exec> Operand<PlanBuilder<'f, T, E>, PlanScalar<T>> for ScalarParam {
    fn resolve(self, pb: &mut PlanBuilder<'f, T, E>) -> PlanScalar<T> {
        pb.check(self.plan, self.idx, pb.graph.params.len(), "ScalarParam");
        PlanScalar::Param(self)
    }
}

impl PlanRead {
    /// The slot table and index this operand reads.
    fn src(self) -> PlanSrc {
        match self {
            PlanRead::In(s) => PlanSrc::In(s.idx),
            PlanRead::Out(s) => PlanSrc::Out(s.idx),
        }
    }
}

/// A resolved readable operand (slot index checked against the builder).
#[derive(Copy, Clone, Debug)]
enum PlanSrc {
    /// Index into the input-slot table.
    In(usize),
    /// Index into the output-slot table.
    Out(usize),
}

impl PlanSrc {
    fn out_index(self) -> Option<usize> {
        match self {
            PlanSrc::In(_) => None,
            PlanSrc::Out(o) => Some(o),
        }
    }
}

type F0<'f, T> = Box<dyn Fn(usize, &mut T) + Send + Sync + 'f>;
type F1<'f, T> = Box<dyn Fn(usize, &mut T, T) + Send + Sync + 'f>;
type F2<'f, T> = Box<dyn Fn(usize, &mut T, T, T) + Send + Sync + 'f>;
type F3<'f, T> = Box<dyn Fn(usize, &mut T, T, T, T) + Send + Sync + 'f>;

/// A recorded element-wise closure with zero to three zipped sources.
/// `'f` bounds what the closure may borrow: `'static` in a compiled
/// [`Plan`], the operands' lifetime in a builder that runs once.
enum PlanFn<'f, T> {
    F0(F0<'f, T>),
    F1(PlanSrc, F1<'f, T>),
    F2([PlanSrc; 2], F2<'f, T>),
    F3([PlanSrc; 3], F3<'f, T>),
}

/// The kernel a recorded `mxv` replays: `<E as Exec>::run_mxv::<T, R, A>`.
type MxvKernel<T, E> = fn(
    E,
    &mut Vector<T>,
    Option<&Vector<bool>>,
    Descriptor,
    &CsrMatrix<T>,
    &Vector<T>,
) -> Result<()>;
/// The kernel a recorded `ewise` replays: `ewise::<T, Op, A, E>`.
type EwiseKernel<T, E> = fn(
    E,
    &mut Vector<T>,
    Option<&Vector<bool>>,
    Descriptor,
    &Vector<T>,
    &Vector<T>,
    Option<(T, T)>,
) -> Result<()>;
/// The kernel a recorded `apply` replays: `apply::<T, Op, A, E>`.
type ApplyKernel<T, E> =
    fn(E, &mut Vector<T>, Option<&Vector<bool>>, Descriptor, &Vector<T>) -> Result<()>;
/// The kernel a recorded `dot` replays: `dot::<T, R, E>`.
type DotKernel<T, E> = fn(E, &Vector<T>, &Vector<T>) -> Result<T>;
/// The kernel a recorded `reduce` replays: `reduce::<T, M, E>`.
type ReduceKernel<T, E> = fn(E, &Vector<T>, Option<&Vector<bool>>, Descriptor) -> Result<T>;

/// One recorded op: operands are slot indices, never buffers. An op with
/// an algebra stores the kernel its `Run` terminal calls, as a plain `fn`
/// pointer, and the [`TypeId`] of its algebra types (`(R, A)`, `(Op, A)`,
/// `R` or `M`), which is what hashing and the fusion patterns read.
enum PlanNode<'f, T: Scalar, E> {
    Mxv {
        out: usize,
        a: usize,
        x: PlanSrc,
        mask: Option<usize>,
        desc: Descriptor,
        algebra: TypeId,
        kernel: MxvKernel<T, E>,
    },
    Ewise {
        out: usize,
        x: PlanSrc,
        y: PlanSrc,
        mask: Option<usize>,
        desc: Descriptor,
        scale: Option<(PlanScalar<T>, PlanScalar<T>)>,
        algebra: TypeId,
        kernel: EwiseKernel<T, E>,
    },
    Apply {
        out: usize,
        input: PlanSrc,
        mask: Option<usize>,
        desc: Descriptor,
        algebra: TypeId,
        kernel: ApplyKernel<T, E>,
    },
    Axpy {
        out: usize,
        alpha: PlanScalar<T>,
        y: PlanSrc,
    },
    Lambda {
        out: usize,
        mask: Option<usize>,
        desc: Descriptor,
        f: PlanFn<'f, T>,
    },
    Dot {
        sid: usize,
        x: PlanSrc,
        y: PlanSrc,
        algebra: TypeId,
        kernel: DotKernel<T, E>,
    },
    Reduce {
        sid: usize,
        x: PlanSrc,
        mask: Option<usize>,
        desc: Descriptor,
        algebra: TypeId,
        kernel: ReduceKernel<T, E>,
    },
}

impl<T: Scalar, E> PlanNode<'_, T, E> {
    /// Short kernel name for schedules and debugging.
    fn name(&self) -> &'static str {
        match self {
            PlanNode::Mxv { .. } => "mxv",
            PlanNode::Ewise { .. } => "ewise",
            PlanNode::Apply { .. } => "apply",
            PlanNode::Axpy { .. } => "axpy",
            PlanNode::Lambda {
                f: PlanFn::F0(_), ..
            } => "transform",
            PlanNode::Lambda { .. } => "transform_zip",
            PlanNode::Dot { .. } => "dot",
            PlanNode::Reduce { .. } => "reduce",
        }
    }

    /// The fusion-relevant footprint of this op (see [`OpShape`]).
    fn shape(&self) -> OpShape {
        match self {
            PlanNode::Mxv {
                out,
                mask: None,
                desc,
                algebra,
                ..
            } if !desc.is_transposed() && *algebra == TypeId::of::<(PlusTimes, NoAccum)>() => {
                OpShape::Mxv { out: *out }
            }
            PlanNode::Axpy { out, .. } => OpShape::Axpy { out: *out },
            PlanNode::Dot { x, y, algebra, .. } if *algebra == TypeId::of::<PlusTimes>() => {
                OpShape::Dot {
                    reads: [x.out_index(), y.out_index()],
                }
            }
            _ => OpShape::Other,
        }
    }

    /// Feeds this op's structure (not its data) into a hasher.
    fn hash_structure<H: Hasher>(&self, h: &mut H) {
        match self {
            PlanNode::Mxv {
                out,
                a,
                x,
                mask,
                desc,
                algebra,
                ..
            } => {
                0u8.hash(h);
                out.hash(h);
                a.hash(h);
                hash_src(h, *x);
                mask.hash(h);
                hash_desc(h, *desc);
                algebra.hash(h);
            }
            PlanNode::Ewise {
                out,
                x,
                y,
                mask,
                desc,
                scale,
                algebra,
                ..
            } => {
                1u8.hash(h);
                out.hash(h);
                hash_src(h, *x);
                hash_src(h, *y);
                mask.hash(h);
                hash_desc(h, *desc);
                algebra.hash(h);
                match scale {
                    None => 0u8.hash(h),
                    Some((a, b)) => {
                        1u8.hash(h);
                        hash_scalar(h, a);
                        hash_scalar(h, b);
                    }
                }
            }
            PlanNode::Apply {
                out,
                input,
                mask,
                desc,
                algebra,
                ..
            } => {
                2u8.hash(h);
                out.hash(h);
                hash_src(h, *input);
                mask.hash(h);
                hash_desc(h, *desc);
                algebra.hash(h);
            }
            PlanNode::Axpy { out, alpha, y } => {
                3u8.hash(h);
                out.hash(h);
                hash_scalar(h, alpha);
                hash_src(h, *y);
            }
            PlanNode::Lambda { out, mask, desc, f } => {
                4u8.hash(h);
                out.hash(h);
                mask.hash(h);
                hash_desc(h, *desc);
                // Closures hash by arity and operand slots only; see the
                // module docs' caching caveat.
                match f {
                    PlanFn::F0(_) => 0u8.hash(h),
                    PlanFn::F1(s, _) => {
                        1u8.hash(h);
                        hash_src(h, *s);
                    }
                    PlanFn::F2(ss, _) => {
                        2u8.hash(h);
                        for s in ss {
                            hash_src(h, *s);
                        }
                    }
                    PlanFn::F3(ss, _) => {
                        3u8.hash(h);
                        for s in ss {
                            hash_src(h, *s);
                        }
                    }
                }
            }
            PlanNode::Dot {
                sid, x, y, algebra, ..
            } => {
                5u8.hash(h);
                sid.hash(h);
                hash_src(h, *x);
                hash_src(h, *y);
                algebra.hash(h);
            }
            PlanNode::Reduce {
                sid,
                x,
                mask,
                desc,
                algebra,
                ..
            } => {
                6u8.hash(h);
                sid.hash(h);
                hash_src(h, *x);
                mask.hash(h);
                hash_desc(h, *desc);
                algebra.hash(h);
            }
        }
    }
}

fn hash_src<H: Hasher>(h: &mut H, s: PlanSrc) {
    match s {
        PlanSrc::In(i) => {
            0u8.hash(h);
            i.hash(h);
        }
        PlanSrc::Out(o) => {
            1u8.hash(h);
            o.hash(h);
        }
    }
}

fn hash_desc<H: Hasher>(h: &mut H, d: Descriptor) {
    d.is_structural().hash(h);
    d.is_transposed().hash(h);
    d.is_mask_inverted().hash(h);
}

fn hash_scalar<T: Scalar, H: Hasher>(h: &mut H, s: &PlanScalar<T>) {
    match s {
        // `Scalar` has no `Hash` bound (floats), so constants hash through
        // their exact `Debug` rendering.
        PlanScalar::Const(v) => {
            0u8.hash(h);
            format!("{v:?}").hash(h);
        }
        PlanScalar::Param(p) => {
            1u8.hash(h);
            p.idx.hash(h);
        }
    }
}

// ---------------------------------------------------------------------------
// The recorded graph and the builder
// ---------------------------------------------------------------------------

/// The one recorded form: ops over declared slots. A [`PlanBuilder`]
/// records it, and [`OpGraph::execute`] is the only interpreter.
struct OpGraph<'f, T: Scalar, E> {
    nodes: Vec<PlanNode<'f, T, E>>,
    /// Declared `(nrows, ncols)` of each matrix slot.
    mats: Vec<(usize, usize)>,
    /// Declared length of each input slot.
    ins: Vec<usize>,
    /// Declared length of each output slot.
    outs: Vec<usize>,
    /// Declared length of each mask slot.
    masks: Vec<usize>,
    /// Default value of each scalar parameter.
    params: Vec<T>,
    scalars: usize,
    /// The first record-time operand-length mismatch; validation returns
    /// it, so a graph that has one never runs.
    err: Option<GrbError>,
}

/// Records an op graph, then either compiles it into a reusable [`Plan`]
/// or runs it once with [`finish`](PlanBuilder::finish). Created by
/// [`Ctx::plan`](crate::Ctx::plan) and
/// [`Ctx::pipeline`](crate::Ctx::pipeline); see the [module docs](self).
///
/// It hands out the recorders [`Ctx`](crate::Ctx) does — `mxv`, `vxm`,
/// `ewise`, `apply`, `transform`, `dot`, `reduce`, plus `axpy` and
/// `norm2_squared` — on the [`Rec`] door: every operand is an
/// [`Operand`], a declared slot here, and every tunable scalar may be a
/// [`ScalarParam`].
///
/// `'f` bounds what `transform` closures and borrowed operands may
/// borrow. [`Ctx::plan`](crate::Ctx::plan) hands out `'static` builders,
/// the only ones that [`compile`](PlanBuilder::compile), so a borrow of a
/// local never reaches a plan:
///
/// ```compile_fail
/// use graphblas::{ctx, Sequential, Vector};
///
/// let x = Vector::from_dense(vec![1.0, 2.0]);
/// let mut pb = ctx::<Sequential>().plan::<f64>();
/// let ys = pb.output(2);
/// pb.apply(&x).into(ys); // `x` does not live for `'static`: declare `pb.input(2)`
/// let plan = pb.compile();
/// ```
///
/// A builder from [`Ctx::pipeline`](crate::Ctx::pipeline) carries its
/// operands' lifetime instead, takes borrowed containers and runs exactly
/// once, with [`finish`](PlanBuilder::finish), while they are still
/// borrowed (see the crate docs' deferred-execution example).
pub struct PlanBuilder<'f, T: Scalar, E: Exec> {
    /// Process-unique id branding this builder's slots (and its plan's).
    id: u64,
    exec: E,
    defaults: Descriptor,
    graph: OpGraph<'f, T, E>,
    /// Every slot declared so far; the ones a borrowed [`Operand`] created
    /// are bound. `finish` runs against it; `compile` refuses a builder
    /// with any binding.
    bound: Bindings<'f, T>,
}

impl<'f, T: Scalar, E: Exec> PlanBuilder<'f, T, E> {
    pub(crate) fn new(exec: E, defaults: Descriptor) -> PlanBuilder<'f, T, E> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let graph = OpGraph {
            nodes: Vec::new(),
            mats: Vec::new(),
            ins: Vec::new(),
            outs: Vec::new(),
            masks: Vec::new(),
            params: Vec::new(),
            scalars: 0,
            err: None,
        };
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        PlanBuilder {
            id,
            exec,
            defaults,
            bound: graph.bindings(id),
            graph,
        }
    }

    /// Number of operations recorded so far.
    pub fn len(&self) -> usize {
        self.graph.nodes.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.graph.nodes.is_empty()
    }

    /// Declares a matrix operand slot with the given dimensions.
    pub fn matrix(&mut self, nrows: usize, ncols: usize) -> MatSlot {
        let idx = self.graph.mats.len();
        self.graph.mats.push((nrows, ncols));
        self.bound.mats.push(None);
        MatSlot { plan: self.id, idx }
    }

    /// Declares a read-only vector operand slot of the given length.
    pub fn input(&mut self, len: usize) -> InSlot {
        let idx = self.graph.ins.len();
        self.graph.ins.push(len);
        self.bound.ins.push(None);
        InSlot { plan: self.id, idx }
    }

    /// Declares a mutable vector slot of the given length — the target of
    /// recorded writes, readable in place by later (or in-place) ops.
    pub fn output(&mut self, len: usize) -> OutSlot {
        let idx = self.graph.outs.len();
        self.graph.outs.push(len);
        self.bound.outs.push(None);
        OutSlot { plan: self.id, idx }
    }

    /// Declares a mask operand slot of the given length.
    pub fn mask(&mut self, len: usize) -> MaskSlot {
        let idx = self.graph.masks.len();
        self.graph.masks.push(len);
        self.bound.masks.push(None);
        MaskSlot { plan: self.id, idx }
    }

    /// Declares a scalar parameter with a default value; replays override
    /// it with [`Bindings::set`].
    pub fn param(&mut self, default: T) -> ScalarParam {
        let idx = self.graph.params.len();
        self.graph.params.push(default);
        self.bound.params.push(default);
        ScalarParam { plan: self.id, idx }
    }

    /// Panics unless slot `idx` of a table holding `len` slots was issued
    /// by this builder.
    fn check(&self, plan: u64, idx: usize, len: usize, what: &str) {
        assert!(
            plan == self.id && idx < len,
            "{what} does not belong to this plan"
        );
    }

    /// Declared length of a readable operand.
    fn src_len(&self, s: PlanSrc) -> usize {
        match s {
            PlanSrc::In(i) => self.graph.ins[i],
            PlanSrc::Out(o) => self.graph.outs[o],
        }
    }

    /// Checks that operand `src` is as long as output slot `out`. The op
    /// is recorded either way; the builder keeps the first mismatch, and
    /// its graph never runs.
    fn check_len(&mut self, op: &'static str, what: &'static str, out: usize, src: PlanSrc) {
        if let Err(e) = check_dims(op, what, self.graph.outs[out], self.src_len(src)) {
            self.graph.err.get_or_insert(e);
        }
    }

    /// Resolves a zip source of the transform writing output slot `out`.
    /// It may not alias the output, and its declared length must match the
    /// output's (see `check_len`) so execution never indexes out of bounds.
    fn zip_src(&mut self, out: usize, src: impl Operand<Self, PlanRead>) -> PlanSrc {
        let src = src.resolve(self).src();
        assert!(
            src.out_index() != Some(out),
            "zip source may not alias the transform output"
        );
        self.check_len("transform_zip", "src vs output", out, src);
        src
    }

    /// Records `node` writing output slot `out` after checking that none of
    /// `reads` aliases it.
    fn push_write(
        &mut self,
        out: OutSlot,
        reads: &[PlanSrc],
        node: PlanNode<'f, T, E>,
        what: &str,
    ) {
        assert!(
            reads.iter().all(|r| r.out_index() != Some(out.idx)),
            "{what} may not alias its output"
        );
        self.graph.nodes.push(node);
    }

    /// Records a scalar-producing node built from its result's index.
    fn push_scalar(&mut self, node: impl FnOnce(usize) -> PlanNode<'f, T, E>) -> ScalarSlot {
        let idx = self.graph.scalars;
        self.graph.scalars += 1;
        self.graph.nodes.push(node(idx));
        ScalarSlot { plan: self.id, idx }
    }

    /// Starts recording `y = A ⊕.⊗ x` (default ring: `PlusTimes`).
    pub fn mxv(
        &mut self,
        a: impl Operand<Self, MatSlot>,
        x: impl Operand<Self, PlanRead>,
    ) -> PlanMxv<Rec<'_, 'f, T, E>, MatSlot, PlanRead, PlusTimes, NoAccum> {
        let (a, x) = (a.resolve(self), x.resolve(self));
        let desc = self.defaults;
        PlanMxv::new(self, a, x, desc)
    }

    /// Starts recording `y = xᵀA` — an mxv with the transposition
    /// pre-toggled.
    pub fn vxm(
        &mut self,
        x: impl Operand<Self, PlanRead>,
        a: impl Operand<Self, MatSlot>,
    ) -> PlanMxv<Rec<'_, 'f, T, E>, MatSlot, PlanRead, PlusTimes, NoAccum> {
        self.mxv(a, x).transpose()
    }

    /// Starts recording `w = Op(x, y)` element-wise (default op: `Plus`).
    pub fn ewise(
        &mut self,
        x: impl Operand<Self, PlanRead>,
        y: impl Operand<Self, PlanRead>,
    ) -> PlanEwise<Rec<'_, 'f, T, E>, Plus, NoAccum> {
        let (x, y) = (x.resolve(self), y.resolve(self));
        let desc = self.defaults;
        PlanEwise::new(self, x, y, desc)
    }

    /// Starts recording `out = Op(input)` (default op: `Identity`).
    pub fn apply(
        &mut self,
        input: impl Operand<Self, PlanRead>,
    ) -> PlanApply<Rec<'_, 'f, T, E>, Identity, NoAccum> {
        let input = input.resolve(self);
        let desc = self.defaults;
        PlanApply::new(self, input, desc)
    }

    /// Records `x = x + α·y`, where `α` is a constant or a
    /// [`ScalarParam`]. Returns `x`'s slot for operand chaining.
    pub fn axpy(
        &mut self,
        x: impl Operand<Self, OutSlot>,
        alpha: impl Operand<Self, PlanScalar<T>>,
        y: impl Operand<Self, PlanRead>,
    ) -> OutSlot {
        let x = x.resolve(self);
        let alpha = alpha.resolve(self);
        let y = y.resolve(self).src();
        self.check_len("axpy", "y vs x", x.idx, y);
        let node = PlanNode::Axpy {
            out: x.idx,
            alpha,
            y,
        };
        self.push_write(x, &[y], node, "axpy operand");
        x
    }

    /// Starts recording an in-place indexed update of `out` (the paper's
    /// `eWiseLambda`). Closures recorded here must outlive `'f` —
    /// `'static` for a builder that compiles, so values they read per
    /// index enter through [`PlanTransform::zip`] sources, not captures.
    pub fn transform(
        &mut self,
        out: impl Operand<Self, OutSlot>,
    ) -> PlanTransform<Rec<'_, 'f, T, E>> {
        let out = out.resolve(self);
        let desc = self.defaults;
        PlanTransform::new(self, out, desc)
    }

    /// Starts recording `⟨x, y⟩` (default ring: `PlusTimes`).
    pub fn dot(
        &mut self,
        x: impl Operand<Self, PlanRead>,
        y: impl Operand<Self, PlanRead>,
    ) -> PlanDot<Rec<'_, 'f, T, E>, PlusTimes> {
        let (x, y) = (x.resolve(self), y.resolve(self));
        PlanDot::new(self, x, y)
    }

    /// Records `‖x‖² = ⟨x, x⟩` over the arithmetic semiring.
    pub fn norm2_squared(&mut self, x: impl Operand<Self, PlanRead>) -> ScalarSlot {
        let x = x.resolve(self).src();
        self.push_scalar(|sid| PlanNode::Dot {
            sid,
            x,
            y: x,
            algebra: TypeId::of::<PlusTimes>(),
            kernel: reduce::dot::<T, PlusTimes, E>,
        })
    }

    /// Starts recording a fold of `x` over a monoid (default: `Plus`).
    pub fn reduce(
        &mut self,
        x: impl Operand<Self, PlanRead>,
    ) -> PlanReduce<Rec<'_, 'f, T, E>, Plus> {
        let x = x.resolve(self);
        let desc = self.defaults;
        PlanReduce::new(self, x, desc)
    }

    /// The fused schedule this graph would run right now — for tests,
    /// benchmarks and debugging.
    pub fn schedule(&self) -> Vec<PlannedStage> {
        self.graph.describe(&self.graph.fuse())
    }

    /// Fuses and executes the graph once against the operands bound while
    /// recording, consuming the builder (and releasing its borrows). No
    /// [`Plan`] is built and no [`PlanCache`] is involved.
    ///
    /// An operand-length mismatch caught while recording an `axpy` or a
    /// `zip`, or an unbound slot, is returned before anything runs. On a
    /// kernel error, already-executed stages have taken effect.
    pub fn finish(self) -> Result<PlanResults<T>> {
        let _span = obs::span_enter("plan.finish", "plan");
        self.graph
            .execute(self.exec, &self.graph.fuse(), &self.bound)
    }
}

impl<T: Scalar, E: Exec> PlanBuilder<'static, T, E> {
    /// Runs the fusion pass once and freezes the schedule into an
    /// immutable, reusable [`Plan`].
    ///
    /// # Panics
    ///
    /// If an operand was recorded as a borrowed container rather than a
    /// declared slot: a plan binds its operands per run, through
    /// [`Plan::bindings`].
    pub fn compile(self) -> Plan<T, E> {
        if let Some(slot) = self.bound.first_bound() {
            panic!("compile: {slot} was recorded from a borrowed operand; declare it and bind it per run");
        }
        let _span = obs::span_enter("plan.compile", "plan");
        let stages = self.graph.fuse();
        let hash = self.graph.structural_hash();
        Plan {
            id: self.id,
            exec: self.exec,
            graph: self.graph,
            stages,
            hash,
        }
    }
}

// ---------------------------------------------------------------------------
// Doors and recorders
// ---------------------------------------------------------------------------

/// Where a recorder's op goes when its terminal is called: [`Run`]
/// executes it at once, [`Rec`] records it into a [`PlanBuilder`] (see
/// the [module docs](self)). Both take any algebra: a recorded op stores
/// the kernel its run-now call would run, so any semiring records,
/// BFS's `LorLand` included:
///
/// ```
/// use graphblas::algorithms::LorLand;
/// use graphblas::{ctx, CsrMatrix, Sequential, Vector};
///
/// let a = CsrMatrix::<f64>::from_triplets(3, 3, &[(1, 0, 1.0), (2, 1, 1.0)]).unwrap();
/// let mut pb = ctx::<Sequential>().plan::<f64>();
/// let (am, xs, ys) = (pb.matrix(3, 3), pb.input(3), pb.output(3));
/// pb.mxv(am, xs).ring(LorLand).into(ys);
/// let plan = pb.compile();
///
/// let frontier = Vector::from_dense(vec![1.0, 0.0, 0.0]);
/// let mut next = Vector::zeros(3);
/// let mut b = plan.bindings();
/// b.bind_matrix(am, &a).bind_input(xs, &frontier).bind_output(ys, &mut next);
/// plan.run(&mut b).unwrap();
/// drop(b);
/// assert_eq!(next.as_slice(), &[0.0, 1.0, 0.0]);
/// ```
pub trait Door {
    /// What operands resolve against: the door itself on [`Run`], the
    /// builder on [`Rec`].
    type Sink;
    /// A vector the op reads.
    type Read: Copy;
    /// The vector an in-place update writes.
    type Write;
    /// A mask.
    type Mask: Copy;
    /// A scalar factor.
    type Num: Copy;

    /// The sink operands resolve against.
    #[doc(hidden)]
    fn sink(&mut self) -> &mut Self::Sink;
}

/// The run-now door, handed out by [`Ctx`](crate::Ctx): terminals execute
/// on the held backend at once and return [`Result`]. Operands are
/// containers borrowed for `'a`.
pub struct Run<'a, T, E> {
    pub(crate) exec: E,
    pub(crate) _operands: PhantomData<&'a Vector<T>>,
}

impl<'a, T: Scalar, E: Exec> Door for Run<'a, T, E> {
    type Sink = Self;
    type Read = &'a Vector<T>;
    type Write = &'a mut Vector<T>;
    type Mask = &'a Vector<bool>;
    type Num = T;

    fn sink(&mut self) -> &mut Self {
        self
    }
}

/// The recording door, handed out by [`PlanBuilder`]: terminals push an op
/// into the builder's graph and return its slot. Operands are
/// [`Operand`]s.
pub type Rec<'p, 'f, T, E> = &'p mut PlanBuilder<'f, T, E>;

impl<'f, T: Scalar, E: Exec> Door for Rec<'_, 'f, T, E> {
    type Sink = PlanBuilder<'f, T, E>;
    type Read = PlanRead;
    type Write = OutSlot;
    type Mask = MaskSlot;
    type Num = PlanScalar<T>;

    fn sink(&mut self) -> &mut PlanBuilder<'f, T, E> {
        self
    }
}

/// `y⟨mask⟩ = y ⊙? (A ⊕.⊗ x)` (see [`Ctx::mxv`](crate::Ctx::mxv) and
/// [`PlanBuilder::mxv`]). `M` and `X` are the matrix and vector operands:
/// a [`CsrMatrix`] and a [`Vector`], or, from
/// [`Ctx::mxv_sparse`](crate::Ctx::mxv_sparse), a [`GraphMatrix`] and a
/// [`SparseVector`] frontier.
#[must_use = "recorders do nothing until the terminal `.into(..)`"]
pub struct PlanMxv<D: Door, M, X, R, A> {
    door: D,
    a: M,
    x: X,
    mask: Option<D::Mask>,
    desc: Descriptor,
    _algebra: PhantomData<(R, A)>,
}

impl<D: Door, M, X, R, A> PlanMxv<D, M, X, R, A> {
    pub(crate) fn new(door: D, a: M, x: X, desc: Descriptor) -> Self {
        PlanMxv {
            door,
            a,
            x,
            mask: None,
            desc,
            _algebra: PhantomData,
        }
    }

    fn retype<R2, A2>(self) -> PlanMxv<D, M, X, R2, A2> {
        PlanMxv {
            door: self.door,
            a: self.a,
            x: self.x,
            mask: self.mask,
            desc: self.desc,
            _algebra: PhantomData,
        }
    }

    /// Computes only the output positions selected by `mask`.
    pub fn mask(mut self, mask: impl Operand<D::Sink, D::Mask>) -> Self {
        self.mask = Some(mask.resolve(self.door.sink()));
        self
    }

    /// Interprets the mask structurally (pattern only, values ignored).
    pub fn structural(mut self) -> Self {
        self.desc = self.desc.with(Descriptor::STRUCTURAL);
        self
    }

    /// Selects where the mask does **not**.
    pub fn invert_mask(mut self) -> Self {
        self.desc = self.desc.with(Descriptor::INVERT_MASK);
        self
    }

    /// Toggles use of the matrix's transpose (no materialization; a
    /// [`GraphMatrix`] carries both orientations). On a `vxm` this undoes
    /// the implicit transposition.
    pub fn transpose(mut self) -> Self {
        self.desc = self.desc.toggled_transpose();
        self
    }

    /// ORs explicit descriptor flags into the op's descriptor.
    pub fn descriptor(mut self, desc: Descriptor) -> Self {
        self.desc = self.desc.with(desc);
        self
    }

    /// Switches the semiring (default: [`PlusTimes`]).
    pub fn ring<R2>(self, _ring: R2) -> PlanMxv<D, M, X, R2, A> {
        self.retype()
    }

    /// Accumulates into the output through `Op` (`y = Op(y, t)`) instead of
    /// overwriting — the GraphBLAS `accum` parameter.
    pub fn accum<Op>(self, _op: Op) -> PlanMxv<D, M, X, R, AccumWith<Op>> {
        self.retype()
    }
}

impl<'a, T: Scalar, E: Exec, R: Semiring<T>, A: AccumMode<T>>
    PlanMxv<Run<'a, T, E>, &'a CsrMatrix<T>, &'a Vector<T>, R, A>
{
    /// Executes into `y`. Unselected positions keep their prior values.
    pub fn into(self, y: &mut Vector<T>) -> Result<()> {
        let exec = self.door.exec;
        exec.run_mxv::<T, R, A>(y, self.mask, self.desc, self.a, self.x)
    }
}

impl<'a, T: Scalar, E: Exec, R: Semiring<T>, A: AccumMode<T>>
    PlanMxv<Run<'a, T, E>, &'a GraphMatrix<T>, &'a SparseVector<T>, R, A>
{
    /// Executes into `y`, reporting which [`FrontierMode`] (push or pull)
    /// the direction-optimizing kernel chose. Unselected positions keep
    /// their prior values. Sparse products have no recorded form.
    pub fn into(self, y: &mut Vector<T>) -> Result<FrontierMode> {
        let exec = self.door.exec;
        exec.run_mxv_sparse::<T, R, A>(y, self.mask, self.desc, self.a, self.x)
    }
}

impl<'f, T: Scalar, E: Exec, R: Semiring<T>, A: AccumMode<T>>
    PlanMxv<Rec<'_, 'f, T, E>, MatSlot, PlanRead, R, A>
{
    /// Records the op writing into `y`, returning the slot back for
    /// operand chaining.
    pub fn into(self, y: impl Operand<PlanBuilder<'f, T, E>, OutSlot>) -> OutSlot {
        let y = y.resolve(self.door);
        let x = self.x.src();
        let node = PlanNode::Mxv {
            out: y.idx,
            a: self.a.idx,
            x,
            mask: self.mask.map(|m| m.idx),
            desc: self.desc,
            algebra: TypeId::of::<(R, A)>(),
            kernel: E::run_mxv::<T, R, A>,
        };
        self.door.push_write(y, &[x], node, "mxv input");
        y
    }
}

/// `w⟨mask⟩ = w ⊙? Op(α·x, β·y)` (see [`Ctx::ewise`](crate::Ctx::ewise)
/// and [`PlanBuilder::ewise`]).
#[must_use = "recorders do nothing until the terminal `.into(..)`"]
pub struct PlanEwise<D: Door, Op, A> {
    door: D,
    x: D::Read,
    y: D::Read,
    mask: Option<D::Mask>,
    desc: Descriptor,
    scale: Option<(D::Num, D::Num)>,
    _algebra: PhantomData<(Op, A)>,
}

impl<D: Door, Op, A> PlanEwise<D, Op, A> {
    pub(crate) fn new(door: D, x: D::Read, y: D::Read, desc: Descriptor) -> Self {
        PlanEwise {
            door,
            x,
            y,
            mask: None,
            desc,
            scale: None,
            _algebra: PhantomData,
        }
    }

    fn retype<Op2, A2>(self) -> PlanEwise<D, Op2, A2> {
        PlanEwise {
            door: self.door,
            x: self.x,
            y: self.y,
            mask: self.mask,
            desc: self.desc,
            scale: self.scale,
            _algebra: PhantomData,
        }
    }

    /// Computes only the output positions selected by `mask`.
    pub fn mask(mut self, mask: impl Operand<D::Sink, D::Mask>) -> Self {
        self.mask = Some(mask.resolve(self.door.sink()));
        self
    }

    /// Interprets the mask structurally (pattern only, values ignored).
    pub fn structural(mut self) -> Self {
        self.desc = self.desc.with(Descriptor::STRUCTURAL);
        self
    }

    /// Selects where the mask does **not**.
    pub fn invert_mask(mut self) -> Self {
        self.desc = self.desc.with(Descriptor::INVERT_MASK);
        self
    }

    /// Scales the operands before the operator: `Op(α·x, β·y)`. With the
    /// default [`Plus`] this is HPCG's `waxpby`. A recorded factor may be
    /// a [`ScalarParam`].
    pub fn scaled(
        mut self,
        alpha: impl Operand<D::Sink, D::Num>,
        beta: impl Operand<D::Sink, D::Num>,
    ) -> Self {
        let alpha = alpha.resolve(self.door.sink());
        self.scale = Some((alpha, beta.resolve(self.door.sink())));
        self
    }

    /// Switches the element-wise operator (default: [`Plus`]).
    pub fn op<Op2>(self, _op: Op2) -> PlanEwise<D, Op2, A> {
        self.retype()
    }

    /// Accumulates into the output through `AccOp` instead of overwriting.
    pub fn accum<AccOp>(self, _op: AccOp) -> PlanEwise<D, Op, AccumWith<AccOp>> {
        self.retype()
    }
}

impl<T: Scalar, E: Exec, Op: BinaryOp<T>, A: AccumMode<T>> PlanEwise<Run<'_, T, E>, Op, A> {
    /// Executes into `w`. Unselected positions keep their prior values.
    pub fn into(self, w: &mut Vector<T>) -> Result<()> {
        let exec = self.door.exec;
        ewise::ewise::<T, Op, A, E>(exec, w, self.mask, self.desc, self.x, self.y, self.scale)
    }
}

impl<'f, T: Scalar, E: Exec, Op: BinaryOp<T>, A: AccumMode<T>> PlanEwise<Rec<'_, 'f, T, E>, Op, A> {
    /// Records the op writing into `w`, returning the slot back for
    /// operand chaining.
    pub fn into(self, w: impl Operand<PlanBuilder<'f, T, E>, OutSlot>) -> OutSlot {
        let w = w.resolve(self.door);
        let (x, y) = (self.x.src(), self.y.src());
        let node = PlanNode::Ewise {
            out: w.idx,
            x,
            y,
            mask: self.mask.map(|m| m.idx),
            desc: self.desc,
            scale: self.scale,
            algebra: TypeId::of::<(Op, A)>(),
            kernel: ewise::ewise::<T, Op, A, E>,
        };
        self.door.push_write(w, &[x, y], node, "ewise operand");
        w
    }
}

/// `out⟨mask⟩ = out ⊙? Op(input)` (see [`Ctx::apply`](crate::Ctx::apply)
/// and [`PlanBuilder::apply`]).
#[must_use = "recorders do nothing until the terminal `.into(..)`"]
pub struct PlanApply<D: Door, Op, A> {
    door: D,
    input: D::Read,
    mask: Option<D::Mask>,
    desc: Descriptor,
    _algebra: PhantomData<(Op, A)>,
}

impl<D: Door, Op, A> PlanApply<D, Op, A> {
    pub(crate) fn new(door: D, input: D::Read, desc: Descriptor) -> Self {
        PlanApply {
            door,
            input,
            mask: None,
            desc,
            _algebra: PhantomData,
        }
    }

    fn retype<Op2, A2>(self) -> PlanApply<D, Op2, A2> {
        PlanApply {
            door: self.door,
            input: self.input,
            mask: self.mask,
            desc: self.desc,
            _algebra: PhantomData,
        }
    }

    /// Computes only the output positions selected by `mask`.
    pub fn mask(mut self, mask: impl Operand<D::Sink, D::Mask>) -> Self {
        self.mask = Some(mask.resolve(self.door.sink()));
        self
    }

    /// Interprets the mask structurally (pattern only, values ignored).
    pub fn structural(mut self) -> Self {
        self.desc = self.desc.with(Descriptor::STRUCTURAL);
        self
    }

    /// Selects where the mask does **not**.
    pub fn invert_mask(mut self) -> Self {
        self.desc = self.desc.with(Descriptor::INVERT_MASK);
        self
    }

    /// Switches the unary operator (default: [`Identity`]).
    pub fn op<Op2>(self, _op: Op2) -> PlanApply<D, Op2, A> {
        self.retype()
    }

    /// Accumulates into the output through `AccOp` instead of overwriting.
    pub fn accum<AccOp>(self, _op: AccOp) -> PlanApply<D, Op, AccumWith<AccOp>> {
        self.retype()
    }
}

impl<T: Scalar, E: Exec, Op: UnaryOp<T>, A: AccumMode<T>> PlanApply<Run<'_, T, E>, Op, A> {
    /// Executes into `out`. Unselected positions keep their prior values.
    pub fn into(self, out: &mut Vector<T>) -> Result<()> {
        let exec = self.door.exec;
        apply::apply::<T, Op, A, E>(exec, out, self.mask, self.desc, self.input)
    }
}

impl<'f, T: Scalar, E: Exec, Op: UnaryOp<T>, A: AccumMode<T>> PlanApply<Rec<'_, 'f, T, E>, Op, A> {
    /// Records the op writing into `out`, returning the slot back for
    /// operand chaining.
    pub fn into(self, out: impl Operand<PlanBuilder<'f, T, E>, OutSlot>) -> OutSlot {
        let out = out.resolve(self.door);
        let input = self.input.src();
        let node = PlanNode::Apply {
            out: out.idx,
            input,
            mask: self.mask.map(|m| m.idx),
            desc: self.desc,
            algebra: TypeId::of::<(Op, A)>(),
            kernel: apply::apply::<T, Op, A, E>,
        };
        self.door.push_write(out, &[input], node, "apply input");
        out
    }
}

/// An in-place indexed update, the paper's `eWiseLambda` (see
/// [`Ctx::transform`](crate::Ctx::transform) and
/// [`PlanBuilder::transform`]). A recorded update may pair `out` with up
/// to three `N` sources read at the same index ([`zip`](Self::zip)).
#[must_use = "recorders do nothing until the terminal `.apply(f)`"]
pub struct PlanTransform<D: Door, const N: usize = 0> {
    door: D,
    out: D::Write,
    srcs: [PlanSrc; N],
    mask: Option<D::Mask>,
    desc: Descriptor,
}

impl<D: Door, const N: usize> PlanTransform<D, N> {
    /// Updates only the positions selected by `mask`.
    pub fn mask(mut self, mask: impl Operand<D::Sink, D::Mask>) -> Self {
        self.mask = Some(mask.resolve(self.door.sink()));
        self
    }

    /// Interprets the mask structurally (pattern only, values ignored).
    pub fn structural(mut self) -> Self {
        self.desc = self.desc.with(Descriptor::STRUCTURAL);
        self
    }

    /// Selects where the mask does **not**.
    pub fn invert_mask(mut self) -> Self {
        self.desc = self.desc.with(Descriptor::INVERT_MASK);
        self
    }
}

impl<D: Door> PlanTransform<D> {
    pub(crate) fn new(door: D, out: D::Write, desc: Descriptor) -> Self {
        PlanTransform {
            door,
            out,
            srcs: [],
            mask: None,
            desc,
        }
    }
}

impl<T: Scalar, E: Exec> PlanTransform<Run<'_, T, E>> {
    /// Executes `f(i, &mut out[i])` at every selected index. The closure
    /// may capture shared references to other vectors (as the paper's
    /// `eWiseLambda` captures `r`, `tmp`, `A_diag`); under a parallel
    /// backend it runs concurrently for different `i`.
    pub fn apply<F: Fn(usize, &mut T) + Send + Sync>(self, f: F) -> Result<()> {
        let exec = self.door.exec;
        exec.run_lambda(ElemOp::Transform, self.out, self.mask, self.desc, f)
    }
}

impl<'p, 'f, T: Scalar, E: Exec, const N: usize> PlanTransform<Rec<'p, 'f, T, E>, N> {
    /// Adds zip source `src` as the `M = N + 1`-th.
    fn zipped<const M: usize>(
        self,
        src: impl Operand<PlanBuilder<'f, T, E>, PlanRead>,
    ) -> PlanTransform<Rec<'p, 'f, T, E>, M> {
        let src = self.door.zip_src(self.out.idx, src);
        let mut srcs = [src; M];
        srcs[..N].copy_from_slice(&self.srcs);
        PlanTransform {
            door: self.door,
            out: self.out,
            srcs,
            mask: self.mask,
            desc: self.desc,
        }
    }

    fn record(self, f: PlanFn<'f, T>) -> OutSlot {
        self.door.graph.nodes.push(PlanNode::Lambda {
            out: self.out.idx,
            mask: self.mask.map(|m| m.idx),
            desc: self.desc,
            f,
        });
        self.out
    }
}

impl<'p, 'f, T: Scalar, E: Exec> PlanTransform<Rec<'p, 'f, T, E>> {
    /// Pairs the update with a vector read at the same index: the terminal
    /// closure receives `(i, &mut out[i], src[i])`. Chain up to three
    /// sources — this is how a `'static` plan closure reads other slots,
    /// and how any recorded closure reads another op's output.
    pub fn zip(
        self,
        src: impl Operand<PlanBuilder<'f, T, E>, PlanRead>,
    ) -> PlanTransform<Rec<'p, 'f, T, E>, 1> {
        self.zipped(src)
    }

    /// Records `f(i, &mut out[i])` at every selected index.
    pub fn apply(self, f: impl Fn(usize, &mut T) + Send + Sync + 'f) -> OutSlot {
        self.record(PlanFn::F0(Box::new(f)))
    }
}

impl<'p, 'f, T: Scalar, E: Exec> PlanTransform<Rec<'p, 'f, T, E>, 1> {
    /// Adds a second zipped source.
    pub fn zip(
        self,
        src: impl Operand<PlanBuilder<'f, T, E>, PlanRead>,
    ) -> PlanTransform<Rec<'p, 'f, T, E>, 2> {
        self.zipped(src)
    }

    /// Records `f(i, &mut out[i], src[i])` at every selected index.
    pub fn apply(self, f: impl Fn(usize, &mut T, T) + Send + Sync + 'f) -> OutSlot {
        let [s] = self.srcs;
        self.record(PlanFn::F1(s, Box::new(f)))
    }
}

impl<'p, 'f, T: Scalar, E: Exec> PlanTransform<Rec<'p, 'f, T, E>, 2> {
    /// Adds a third zipped source.
    pub fn zip(
        self,
        src: impl Operand<PlanBuilder<'f, T, E>, PlanRead>,
    ) -> PlanTransform<Rec<'p, 'f, T, E>, 3> {
        self.zipped(src)
    }

    /// Records `f(i, &mut out[i], src1[i], src2[i])` at every selected
    /// index.
    pub fn apply(self, f: impl Fn(usize, &mut T, T, T) + Send + Sync + 'f) -> OutSlot {
        let srcs = self.srcs;
        self.record(PlanFn::F2(srcs, Box::new(f)))
    }
}

impl<'f, T: Scalar, E: Exec> PlanTransform<Rec<'_, 'f, T, E>, 3> {
    /// Records `f(i, &mut out[i], src1[i], src2[i], src3[i])` at every
    /// selected index.
    pub fn apply(self, f: impl Fn(usize, &mut T, T, T, T) + Send + Sync + 'f) -> OutSlot {
        let srcs = self.srcs;
        self.record(PlanFn::F3(srcs, Box::new(f)))
    }
}

/// `⟨x, y⟩` (see [`Ctx::dot`](crate::Ctx::dot) and [`PlanBuilder::dot`]).
#[must_use = "recorders do nothing until the terminal"]
pub struct PlanDot<D: Door, R> {
    door: D,
    x: D::Read,
    y: D::Read,
    _algebra: PhantomData<R>,
}

impl<D: Door, R> PlanDot<D, R> {
    pub(crate) fn new(door: D, x: D::Read, y: D::Read) -> Self {
        PlanDot {
            door,
            x,
            y,
            _algebra: PhantomData,
        }
    }

    /// Switches the semiring (default: [`PlusTimes`]).
    pub fn ring<R2>(self, _ring: R2) -> PlanDot<D, R2> {
        PlanDot::new(self.door, self.x, self.y)
    }
}

impl<T: Scalar, E: Exec, R: Semiring<T>> PlanDot<Run<'_, T, E>, R> {
    /// Executes, returning the inner product.
    pub fn compute(self) -> Result<T> {
        reduce::dot::<T, R, E>(self.door.exec, self.x, self.y)
    }
}

impl<T: Scalar, E: Exec, R: Semiring<T>> PlanDot<Rec<'_, '_, T, E>, R> {
    /// Records the dot product, returning the slot of its result.
    pub fn result(self) -> ScalarSlot {
        let (x, y) = (self.x.src(), self.y.src());
        self.door.push_scalar(|sid| PlanNode::Dot {
            sid,
            x,
            y,
            algebra: TypeId::of::<R>(),
            kernel: reduce::dot::<T, R, E>,
        })
    }
}

/// A monoid fold of a vector (see [`Ctx::reduce`](crate::Ctx::reduce) and
/// [`PlanBuilder::reduce`]).
#[must_use = "recorders do nothing until the terminal"]
pub struct PlanReduce<D: Door, M> {
    door: D,
    x: D::Read,
    mask: Option<D::Mask>,
    desc: Descriptor,
    _algebra: PhantomData<M>,
}

impl<D: Door, M> PlanReduce<D, M> {
    pub(crate) fn new(door: D, x: D::Read, desc: Descriptor) -> Self {
        PlanReduce {
            door,
            x,
            mask: None,
            desc,
            _algebra: PhantomData,
        }
    }

    /// Folds only the positions selected by `mask`.
    pub fn mask(mut self, mask: impl Operand<D::Sink, D::Mask>) -> Self {
        self.mask = Some(mask.resolve(self.door.sink()));
        self
    }

    /// Interprets the mask structurally (pattern only, values ignored).
    pub fn structural(mut self) -> Self {
        self.desc = self.desc.with(Descriptor::STRUCTURAL);
        self
    }

    /// Selects where the mask does **not**.
    pub fn invert_mask(mut self) -> Self {
        self.desc = self.desc.with(Descriptor::INVERT_MASK);
        self
    }

    /// Switches the monoid (default: [`Plus`]).
    pub fn monoid<M2>(self, _monoid: M2) -> PlanReduce<D, M2> {
        PlanReduce {
            door: self.door,
            x: self.x,
            mask: self.mask,
            desc: self.desc,
            _algebra: PhantomData,
        }
    }
}

impl<T: Scalar, E: Exec, M: Monoid<T>> PlanReduce<Run<'_, T, E>, M> {
    /// Executes, returning the fold (the monoid identity on empty
    /// selections).
    pub fn compute(self) -> Result<T> {
        reduce::reduce::<T, M, E>(self.door.exec, self.x, self.mask, self.desc)
    }
}

impl<T: Scalar, E: Exec, M: Monoid<T>> PlanReduce<Rec<'_, '_, T, E>, M> {
    /// Records the fold, returning the slot of its result.
    pub fn result(self) -> ScalarSlot {
        let (x, mask, desc) = (self.x.src(), self.mask.map(|m| m.idx), self.desc);
        self.door.push_scalar(|sid| PlanNode::Reduce {
            sid,
            x,
            mask,
            desc,
            algebra: TypeId::of::<M>(),
            kernel: reduce::reduce::<T, M, E>,
        })
    }
}

// ---------------------------------------------------------------------------
// The compiled plan
// ---------------------------------------------------------------------------

/// A compiled, immutable, reusable fused schedule — the product of
/// [`PlanBuilder::compile`]. Replay it any number of times via
/// [`Plan::run`] with fresh [`Bindings`]; see the [module docs](self).
///
/// A plan captures its backend handle by value. For unit backends
/// (`Sequential`, `Parallel`) any cache may share it process-wide; a plan
/// compiled for a specific [`Distributed`](crate::Distributed) cluster
/// runs on *that* cluster, so cache it next to the cluster it belongs to.
pub struct Plan<T: Scalar, E: Exec> {
    /// Brand shared with the builder's slots and every `Bindings`.
    id: u64,
    exec: E,
    graph: OpGraph<'static, T, E>,
    stages: Vec<Stage>,
    hash: u64,
}

impl<T: Scalar, E: Exec> Plan<T, E> {
    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.graph.nodes.len()
    }

    /// Whether the plan records no operations.
    pub fn is_empty(&self) -> bool {
        self.graph.nodes.is_empty()
    }

    /// The shape digest computed at compile time (see the module docs'
    /// caching section for what it does and does not cover).
    pub fn structural_hash(&self) -> u64 {
        self.hash
    }

    /// The fused schedule, for tests, benchmarks and debugging.
    pub fn schedule(&self) -> Vec<PlannedStage> {
        self.graph.describe(&self.stages)
    }

    /// The `i`-th declared matrix slot (declaration order). Slot accessors
    /// exist so a consumer that got this plan from a [`PlanCache`] hit —
    /// and therefore never saw the builder — can still bind operands.
    pub fn matrix_slot(&self, i: usize) -> MatSlot {
        assert!(i < self.graph.mats.len(), "matrix slot index out of range");
        MatSlot {
            plan: self.id,
            idx: i,
        }
    }

    /// The `i`-th declared input slot (declaration order).
    pub fn input_slot(&self, i: usize) -> InSlot {
        assert!(i < self.graph.ins.len(), "input slot index out of range");
        InSlot {
            plan: self.id,
            idx: i,
        }
    }

    /// The `i`-th declared output slot (declaration order).
    pub fn output_slot(&self, i: usize) -> OutSlot {
        assert!(i < self.graph.outs.len(), "output slot index out of range");
        OutSlot {
            plan: self.id,
            idx: i,
        }
    }

    /// The `i`-th declared mask slot (declaration order).
    pub fn mask_slot(&self, i: usize) -> MaskSlot {
        assert!(i < self.graph.masks.len(), "mask slot index out of range");
        MaskSlot {
            plan: self.id,
            idx: i,
        }
    }

    /// The `i`-th declared scalar parameter (declaration order).
    pub fn param(&self, i: usize) -> ScalarParam {
        assert!(
            i < self.graph.params.len(),
            "scalar parameter index out of range"
        );
        ScalarParam {
            plan: self.id,
            idx: i,
        }
    }

    /// The `i`-th recorded scalar result (recording order).
    pub fn scalar(&self, i: usize) -> ScalarSlot {
        assert!(i < self.graph.scalars, "scalar result index out of range");
        ScalarSlot {
            plan: self.id,
            idx: i,
        }
    }

    /// An empty bindings table for this plan: every slot unbound, every
    /// parameter at its declared default.
    pub fn bindings<'b>(&self) -> Bindings<'b, T> {
        self.graph.bindings(self.id)
    }

    /// Validates the bindings and executes the fused schedule against
    /// them. Every declared slot must be bound, with dimensions matching
    /// the declaration — that is the whole invalidation rule: a plan can
    /// never silently run against buffers of the wrong shape. A plan
    /// recorded with an operand-length mismatch (`axpy`, `zip`) returns it
    /// here, every time, before anything runs. On a kernel error,
    /// already-executed stages have taken effect.
    pub fn run(&self, b: &mut Bindings<'_, T>) -> Result<PlanResults<T>> {
        let _span = obs::span_enter("plan.run", "plan");
        assert!(b.plan == self.id, "Bindings do not belong to this plan");
        self.graph.execute(self.exec, &self.stages, b)
    }
}

// ---------------------------------------------------------------------------
// Fusion, validation and the interpreter
// ---------------------------------------------------------------------------

impl<T: Scalar, E: Exec> OpGraph<'_, T, E> {
    /// Runs the fusion pass in [`crate::fusion`] over the recorded ops.
    fn fuse(&self) -> Vec<Stage> {
        let shapes: Vec<OpShape> = self.nodes.iter().map(PlanNode::shape).collect();
        fuse_shapes(&shapes)
    }

    fn describe(&self, stages: &[Stage]) -> Vec<PlannedStage> {
        stages
            .iter()
            .map(|s| s.describe_by(|i| self.nodes[i].name()))
            .collect()
    }

    /// Digest of the recorded op-graph *shape*: ops, algebra types, masks,
    /// descriptors, slot wiring, dimension signature, and the scalar/backend
    /// types — never concrete buffers or parameter values. Two builders
    /// that recorded the same graph over the same-shaped slots agree.
    fn structural_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        std::any::type_name::<T>().hash(&mut h);
        std::any::type_name::<E>().hash(&mut h);
        self.mats.hash(&mut h);
        self.ins.hash(&mut h);
        self.outs.hash(&mut h);
        self.masks.hash(&mut h);
        self.params.len().hash(&mut h);
        self.scalars.hash(&mut h);
        for node in &self.nodes {
            node.hash_structure(&mut h);
        }
        h.finish()
    }

    /// A bindings table sized for the slots declared so far, branded `plan`.
    fn bindings<'b>(&self, plan: u64) -> Bindings<'b, T> {
        Bindings {
            plan,
            mats: vec![None; self.mats.len()],
            ins: vec![None; self.ins.len()],
            masks: vec![None; self.masks.len()],
            outs: vec![None; self.outs.len()],
            params: self.params.clone(),
            _borrows: PhantomData,
        }
    }

    fn validate(&self, b: &Bindings<'_, T>) -> Result<()> {
        if let Some(e) = &self.err {
            return Err(e.clone());
        }
        fn unbound(what: &str, i: usize) -> GrbError {
            GrbError::InvalidInput(format!("plan: {what} slot {i} is unbound"))
        }
        for (i, &(nrows, ncols)) in self.mats.iter().enumerate() {
            let a = b.mats[i].ok_or_else(|| unbound("matrix", i))?;
            check_dims("plan", "matrix rows vs declaration", nrows, a.nrows())?;
            check_dims("plan", "matrix cols vs declaration", ncols, a.ncols())?;
        }
        for (i, &len) in self.ins.iter().enumerate() {
            let v = b.ins[i].ok_or_else(|| unbound("input", i))?;
            check_dims("plan", "input length vs declaration", len, v.len())?;
        }
        for (i, &len) in self.masks.iter().enumerate() {
            let m = b.masks[i].ok_or_else(|| unbound("mask", i))?;
            check_dims("plan", "mask length vs declaration", len, m.len())?;
        }
        for (i, &len) in self.outs.iter().enumerate() {
            let ptr = b.outs[i].ok_or_else(|| unbound("output", i))?;
            // SAFETY: `Bindings` holds each output's `&'a mut` exclusively;
            // no other reference exists while we only measure its length.
            let v = unsafe { &*ptr };
            check_dims("plan", "output length vs declaration", len, v.len())?;
        }
        Ok(())
    }

    /// The one interpreter: validates `b` against the declarations, then
    /// runs `stages` (a schedule [`fuse`](Self::fuse) produced for this
    /// graph) on `exec` through the kernels the `Run` terminals call.
    fn execute(&self, exec: E, stages: &[Stage], b: &Bindings<'_, T>) -> Result<PlanResults<T>> {
        self.validate(b)?;
        let mut scalars = vec![T::ZERO; self.scalars];
        for stage in stages {
            match stage {
                Stage::Single(i) => self.run_node(exec, b, &self.nodes[*i], &mut scalars),
                Stage::SpmvDot { mxv, dot } => self.run_spmv_dot(exec, b, *mxv, *dot, &mut scalars),
                Stage::AxpyNorm { axpy, dot } => {
                    self.run_fused_axpy_norm(exec, b, *axpy, *dot, &mut scalars)
                }
            }?;
        }
        Ok(PlanResults {
            plan_id: b.plan,
            values: scalars,
        })
    }

    /// Reborrows a bound output.
    ///
    /// # Safety
    ///
    /// The caller must not hold any other reference to the same slot for
    /// the returned lifetime. Record-time assertions guarantee an op's
    /// inputs never name its own output slot; distinct slots never alias
    /// because each is bound from a distinct `&'a mut`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn out_mut<'s>(&self, b: &'s Bindings<'_, T>, idx: usize) -> &'s mut Vector<T> {
        let ptr = b.outs[idx].expect("validated before execution");
        unsafe { &mut *ptr }
    }

    fn src_vec<'s>(&self, b: &'s Bindings<'_, T>, s: PlanSrc) -> &'s Vector<T> {
        match s {
            PlanSrc::In(i) => b.ins[i].expect("validated before execution"),
            // SAFETY: shared reborrow of a bound output; ops that hold an
            // exclusive reborrow of the same slot are never executed while
            // this one is live (record-time assertions).
            PlanSrc::Out(o) => unsafe { &*b.outs[o].expect("validated before execution") },
        }
    }

    fn mask_vec<'s>(&self, b: &'s Bindings<'_, T>, m: Option<usize>) -> Option<&'s Vector<bool>> {
        m.map(|i| b.masks[i].expect("validated before execution"))
    }

    fn mat<'s>(&self, b: &'s Bindings<'_, T>, a: usize) -> &'s CsrMatrix<T> {
        b.mats[a].expect("validated before execution")
    }

    fn scalar_val(&self, b: &Bindings<'_, T>, s: &PlanScalar<T>) -> T {
        match s {
            PlanScalar::Const(v) => *v,
            PlanScalar::Param(p) => b.params[p.idx],
        }
    }

    fn run_node(
        &self,
        exec: E,
        b: &Bindings<'_, T>,
        node: &PlanNode<'_, T, E>,
        scalars: &mut [T],
    ) -> Result<()> {
        match node {
            PlanNode::Mxv {
                out,
                a,
                x,
                mask,
                desc,
                kernel,
                ..
            } => {
                let a = self.mat(b, *a);
                let x = self.src_vec(b, *x);
                let mask = self.mask_vec(b, *mask);
                // SAFETY: record-time assertion — `x` never names `out`.
                let y = unsafe { self.out_mut(b, *out) };
                kernel(exec, y, mask, *desc, a, x)
            }
            PlanNode::Ewise {
                out,
                x,
                y,
                mask,
                desc,
                scale,
                kernel,
                ..
            } => {
                let xs = self.src_vec(b, *x);
                let ys = self.src_vec(b, *y);
                let mask = self.mask_vec(b, *mask);
                let scale = scale
                    .as_ref()
                    .map(|(al, be)| (self.scalar_val(b, al), self.scalar_val(b, be)));
                // SAFETY: record-time assertion — inputs never name `out`.
                let w = unsafe { self.out_mut(b, *out) };
                kernel(exec, w, mask, *desc, xs, ys, scale)
            }
            PlanNode::Apply {
                out,
                input,
                mask,
                desc,
                kernel,
                ..
            } => {
                let input = self.src_vec(b, *input);
                let mask = self.mask_vec(b, *mask);
                // SAFETY: record-time assertion — `input` never names `out`.
                let o = unsafe { self.out_mut(b, *out) };
                kernel(exec, o, mask, *desc, input)
            }
            PlanNode::Axpy { out, alpha, y } => {
                let ys = self.src_vec(b, *y);
                let alpha = self.scalar_val(b, alpha);
                // SAFETY: record-time assertion — `y` never names `out`.
                let x = unsafe { self.out_mut(b, *out) };
                ewise::axpy(exec, x, alpha, ys)
            }
            PlanNode::Lambda { out, mask, desc, f } => {
                let mask = self.mask_vec(b, *mask);
                // SAFETY: record-time assertions — zip sources never name
                // `out`; sole exclusive reference to the slot.
                let o = unsafe { self.out_mut(b, *out) };
                let op = ElemOp::Transform;
                match f {
                    PlanFn::F0(f) => exec.run_lambda(op, o, mask, *desc, f),
                    PlanFn::F1(s, f) => {
                        let ss = self.src_vec(b, *s).as_slice();
                        exec.run_lambda(op, o, mask, *desc, move |i, t| f(i, t, ss[i]))
                    }
                    PlanFn::F2(srcs, f) => {
                        let s1 = self.src_vec(b, srcs[0]).as_slice();
                        let s2 = self.src_vec(b, srcs[1]).as_slice();
                        exec.run_lambda(op, o, mask, *desc, move |i, t| f(i, t, s1[i], s2[i]))
                    }
                    PlanFn::F3(srcs, f) => {
                        let s1 = self.src_vec(b, srcs[0]).as_slice();
                        let s2 = self.src_vec(b, srcs[1]).as_slice();
                        let s3 = self.src_vec(b, srcs[2]).as_slice();
                        let f = move |i, t: &mut T| f(i, t, s1[i], s2[i], s3[i]);
                        exec.run_lambda(op, o, mask, *desc, f)
                    }
                }
            }
            PlanNode::Dot {
                sid, x, y, kernel, ..
            } => {
                let xs = self.src_vec(b, *x);
                let ys = self.src_vec(b, *y);
                scalars[*sid] = kernel(exec, xs, ys)?;
                Ok(())
            }
            PlanNode::Reduce {
                sid,
                x,
                mask,
                desc,
                kernel,
                ..
            } => {
                let xs = self.src_vec(b, *x);
                let mask = self.mask_vec(b, *mask);
                scalars[*sid] = kernel(exec, xs, mask, *desc)?;
                Ok(())
            }
        }
    }

    fn run_spmv_dot(
        &self,
        exec: E,
        b: &Bindings<'_, T>,
        mxv: usize,
        dot: usize,
        scalars: &mut [T],
    ) -> Result<()> {
        let (out, a, x) = match &self.nodes[mxv] {
            PlanNode::Mxv { out, a, x, .. } => (*out, *a, *x),
            _ => unreachable!("fusion pass pairs SpmvDot with an mxv node"),
        };
        let (sid, dx, dy) = match &self.nodes[dot] {
            PlanNode::Dot { sid, x, y, .. } => (*sid, *x, *y),
            _ => unreachable!("fusion pass pairs SpmvDot with a dot node"),
        };
        let a = self.mat(b, a);
        let xs = self.src_vec(b, x);
        let product_on_left = dx.out_index() == Some(out);
        let other = if product_on_left { dy } else { dx };
        let w = if other.out_index() == Some(out) {
            None
        } else {
            Some(self.src_vec(b, other))
        };
        // SAFETY: neither `x` nor the dot's other operand names `out`
        // (record-time assertion / the `None` branch above).
        let y = unsafe { self.out_mut(b, out) };
        scalars[sid] = exec.run_spmv_dot::<T, PlusTimes>(y, a, xs, w, product_on_left)?;
        Ok(())
    }

    fn run_fused_axpy_norm(
        &self,
        exec: E,
        b: &Bindings<'_, T>,
        axpy: usize,
        dot: usize,
        scalars: &mut [T],
    ) -> Result<()> {
        let (out, alpha, y) = match &self.nodes[axpy] {
            PlanNode::Axpy { out, alpha, y } => (*out, self.scalar_val(b, alpha), *y),
            _ => unreachable!("fusion pass pairs AxpyNorm with an axpy node"),
        };
        let sid = match &self.nodes[dot] {
            PlanNode::Dot { sid, .. } => *sid,
            _ => unreachable!("fusion pass pairs AxpyNorm with a dot node"),
        };
        let ys = self.src_vec(b, y);
        // SAFETY: record-time assertion — `y` never names `out`.
        let x = unsafe { self.out_mut(b, out) };
        scalars[sid] = fused::axpy_norm::<T, PlusTimes, E>(exec, x, alpha, ys)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Bindings and results
// ---------------------------------------------------------------------------

/// Per-run operand table of a [`Plan`]: which concrete buffers fill each
/// slot, and the current scalar parameter values. Created by
/// [`Plan::bindings`]; all bindings borrow for the table's lifetime, so
/// the borrow checker statically rules out an input aliasing an output —
/// the invariant the interpreter's `out_mut` reborrows rely on.
pub struct Bindings<'a, T: Scalar> {
    plan: u64,
    mats: Vec<Option<&'a CsrMatrix<T>>>,
    ins: Vec<Option<&'a Vector<T>>>,
    masks: Vec<Option<&'a Vector<bool>>>,
    outs: Vec<Option<*mut Vector<T>>>,
    params: Vec<T>,
    /// Holds the `'a` borrows of every bound output.
    _borrows: PhantomData<&'a mut Vector<T>>,
}

impl<'a, T: Scalar> Bindings<'a, T> {
    /// Binds a matrix slot.
    pub fn bind_matrix(&mut self, s: MatSlot, a: &'a CsrMatrix<T>) -> &mut Self {
        assert!(
            s.plan == self.plan && s.idx < self.mats.len(),
            "MatSlot does not belong to this plan"
        );
        self.mats[s.idx] = Some(a);
        self
    }

    /// Binds an input slot.
    pub fn bind_input(&mut self, s: InSlot, v: &'a Vector<T>) -> &mut Self {
        assert!(
            s.plan == self.plan && s.idx < self.ins.len(),
            "InSlot does not belong to this plan"
        );
        self.ins[s.idx] = Some(v);
        self
    }

    /// Binds a mask slot.
    pub fn bind_mask(&mut self, s: MaskSlot, m: &'a Vector<bool>) -> &mut Self {
        assert!(
            s.plan == self.plan && s.idx < self.masks.len(),
            "MaskSlot does not belong to this plan"
        );
        self.masks[s.idx] = Some(m);
        self
    }

    /// Binds an output slot (exclusively, for the table's lifetime).
    pub fn bind_output(&mut self, s: OutSlot, v: &'a mut Vector<T>) -> &mut Self {
        assert!(
            s.plan == self.plan && s.idx < self.outs.len(),
            "OutSlot does not belong to this plan"
        );
        self.outs[s.idx] = Some(v as *mut Vector<T>);
        self
    }

    /// Overrides a scalar parameter for subsequent runs.
    pub fn set(&mut self, p: ScalarParam, value: T) -> &mut Self {
        assert!(
            p.plan == self.plan && p.idx < self.params.len(),
            "ScalarParam does not belong to this plan"
        );
        self.params[p.idx] = value;
        self
    }

    /// The first bound slot, named for a panic message.
    fn first_bound(&self) -> Option<String> {
        let name = |what: &str, i: Option<usize>| i.map(|i| format!("{what} slot {i}"));
        name("matrix", self.mats.iter().position(Option::is_some))
            .or_else(|| name("input", self.ins.iter().position(Option::is_some)))
            .or_else(|| name("mask", self.masks.iter().position(Option::is_some)))
            .or_else(|| name("output", self.outs.iter().position(Option::is_some)))
    }
}

/// Scalar results of one plan replay, indexed by [`ScalarSlot`].
#[derive(Clone, Debug)]
pub struct PlanResults<T> {
    plan_id: u64,
    values: Vec<T>,
}

impl<T: Scalar> PlanResults<T> {
    /// The value a recorded scalar op produced.
    pub fn get(&self, s: ScalarSlot) -> T {
        self[s]
    }
}

impl<T: Scalar> std::ops::Index<ScalarSlot> for PlanResults<T> {
    type Output = T;
    fn index(&self, s: ScalarSlot) -> &T {
        assert!(
            s.plan == self.plan_id,
            "ScalarSlot does not belong to this plan"
        );
        &self.values[s.idx]
    }
}

// ---------------------------------------------------------------------------
// The plan cache
// ---------------------------------------------------------------------------

/// Process-wide `plan.cache.hit` / `plan.cache.miss` counters in the obs
/// registry, resolved once so a lookup costs a relaxed add, not a name
/// lookup under the registry lock.
fn cache_metrics() -> &'static (std::sync::Arc<obs::Counter>, std::sync::Arc<obs::Counter>) {
    static METRICS: std::sync::OnceLock<(
        std::sync::Arc<obs::Counter>,
        std::sync::Arc<obs::Counter>,
    )> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global();
        (
            reg.counter("plan.cache.hit"),
            reg.counter("plan.cache.miss"),
        )
    })
}

/// A concurrent memo table of compiled plans, keyed by `(plan type, u64)`.
///
/// The `u64` is caller-chosen (see [`plan_key`] and the module docs'
/// caching section): it must describe the op-graph shape and dimension
/// signature, never concrete buffers. The plan's scalar and backend types
/// join the key automatically, so one cache can hold plans of mixed types.
///
/// Hit/miss counters feed the serve-layer metering. The cache never
/// evicts — plan shapes per process are few (CG bodies, smoother sweeps,
/// per-matrix serve jobs), which is the premise of compile-once.
pub struct PlanCache {
    map: Mutex<HashMap<(TypeId, u64), Arc<dyn Any + Send + Sync>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the plan cached under `key`, or records, compiles and
    /// caches one via `build`. The `bool` is `true` on a cache hit (the
    /// builder was skipped).
    ///
    /// On a hit the caller never saw the builder, so operand slots come
    /// from the plan's accessors ([`Plan::matrix_slot`] & co.), which
    /// return them in declaration order.
    pub fn get_or_compile<T, E, F>(&self, key: u64, build: F) -> (Arc<Plan<T, E>>, bool)
    where
        T: Scalar,
        E: Exec,
        F: FnOnce() -> Plan<T, E>,
    {
        let _span = obs::span_enter("plan.cache", "plan");
        let tid = TypeId::of::<Plan<T, E>>();
        let mut map = self.map.lock().expect("plan cache lock poisoned");
        if let Some(entry) = map.get(&(tid, key)) {
            let plan = Arc::clone(entry)
                .downcast::<Plan<T, E>>()
                .expect("entry type matches its TypeId key");
            self.hits.fetch_add(1, Ordering::Relaxed);
            cache_metrics().0.inc();
            return (plan, true);
        }
        // Build under the lock: compiling is cheap (that is the point of
        // caching it), and this keeps one shape from compiling twice.
        let plan = Arc::new(build());
        map.insert((tid, key), Arc::clone(&plan) as Arc<dyn Any + Send + Sync>);
        self.misses.fetch_add(1, Ordering::Relaxed);
        cache_metrics().1.inc();
        (plan, false)
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.lock().expect("plan cache lock poisoned").len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan (counters keep their values).
    pub fn clear(&self) {
        self.map.lock().expect("plan cache lock poisoned").clear();
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

/// Hashes any `Hash` value into a [`PlanCache`] key with the same hasher
/// the structural digest uses. Key by shape — e.g.
/// `plan_key(&("cg-iteration", matrix_name, n))` — never by buffer
/// contents.
pub fn plan_key<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Min;
    use crate::ops::semiring::MinPlus;
    use crate::ops::unary::AdditiveInverse;
    use crate::{ctx, Ctx, Distributed, Parallel, Sequential};

    fn spd() -> CsrMatrix<f64> {
        CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 4.0),
                (0, 1, -1.0 / 3.0),
                (1, 0, -1.0 / 3.0),
                (1, 1, 4.1),
                (1, 2, -1.0 / 3.0),
                (2, 1, -1.0 / 3.0),
                (2, 2, 4.2),
                (2, 3, -1.0 / 3.0),
                (3, 2, -1.0 / 3.0),
                (3, 3, 4.3),
            ],
        )
        .expect("triplets are valid")
    }

    fn v(seed: f64) -> Vector<f64> {
        Vector::from_dense((0..4).map(|i| (i as f64 + seed) / 3.0 - 0.7).collect())
    }

    fn bits(v: &Vector<f64>) -> Vec<u64> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Compile an ⟨p, Ap⟩ plan once, replay it with rebound vectors on a
    /// backend, and compare bitwise against the eager two-call path.
    fn check_spmv_dot_replay<E: Exec>(exec: Ctx<E>) {
        let a = spd();
        let mut pb = exec.plan::<f64>();
        let am = pb.matrix(4, 4);
        let ps = pb.input(4);
        let aps = pb.output(4);
        let ap = pb.mxv(am, ps).into(aps);
        let p_ap = pb.dot(ps, ap).result();
        let plan = pb.compile();
        assert_eq!(plan.schedule(), vec![PlannedStage::SpmvDot]);

        for seed in [0.0, 1.0, 2.5] {
            let p = v(seed);
            let mut got = Vector::zeros(4);
            let mut b = plan.bindings();
            b.bind_matrix(am, &a)
                .bind_input(ps, &p)
                .bind_output(aps, &mut got);
            let out = plan.run(&mut b).expect("replay succeeds");
            drop(b);

            let mut want = Vector::zeros(4);
            exec.mxv(&a, &p).into(&mut want).expect("eager mxv");
            let want_dot = exec.dot(&p, &want).compute().expect("eager dot");
            assert_eq!(bits(&got), bits(&want), "replayed SpMV diverged");
            assert_eq!(
                out[p_ap].to_bits(),
                want_dot.to_bits(),
                "replayed dot diverged"
            );
        }
    }

    #[test]
    fn spmv_dot_plan_replays_bitwise_on_all_backends() {
        check_spmv_dot_replay(ctx::<Sequential>());
        check_spmv_dot_replay(ctx::<Parallel>());
        check_spmv_dot_replay(Distributed::new(3).ctx());
    }

    #[test]
    fn axpy_norm_plan_with_mutated_param_matches_eager() {
        let exec = ctx::<Sequential>();
        let mut pb = exec.plan::<f64>();
        let xs = pb.output(4);
        let ys = pb.input(4);
        let alpha = pb.param(0.0);
        pb.axpy(xs, alpha, ys);
        let norm = pb.norm2_squared(xs);
        let plan = pb.compile();
        assert_eq!(plan.schedule(), vec![PlannedStage::AxpyNorm]);

        for a in [0.5, -1.25, 3.0] {
            let y = v(1.0);
            let mut got = v(2.0);
            let mut want = v(2.0);
            let mut b = plan.bindings();
            b.bind_output(xs, &mut got).bind_input(ys, &y).set(alpha, a);
            let out = plan.run(&mut b).expect("replay succeeds");
            drop(b);

            exec.axpy(&mut want, a, &y).expect("eager axpy");
            let want_norm = exec.norm2_squared(&want).expect("eager norm");
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(out[norm].to_bits(), want_norm.to_bits());
        }
    }

    #[test]
    fn element_wise_plan_ops_run_one_stage_each_and_match_eager() {
        let exec = ctx::<Sequential>();
        let mut pb = exec.plan::<f64>();
        let xs = pb.input(4);
        let ys = pb.input(4);
        let beta = pb.param(1.0);
        let ws = pb.output(4);
        let us = pb.output(4);
        pb.ewise(xs, ys).scaled(2.0, beta).into(ws);
        pb.axpy(us, -0.5, ys);
        let plan = pb.compile();
        assert_eq!(
            plan.schedule(),
            vec![PlannedStage::Single("ewise"), PlannedStage::Single("axpy")]
        );

        let x = v(0.0);
        let y = v(1.0);
        let mut w = Vector::zeros(4);
        let mut u = v(2.0);
        let mut b = plan.bindings();
        b.bind_input(xs, &x)
            .bind_input(ys, &y)
            .bind_output(ws, &mut w)
            .bind_output(us, &mut u)
            .set(beta, -3.0);
        plan.run(&mut b).expect("replay succeeds");
        drop(b);

        let mut want_w = Vector::zeros(4);
        exec.ewise(&x, &y)
            .scaled(2.0, -3.0)
            .into(&mut want_w)
            .expect("eager ewise");
        let mut want_u = v(2.0);
        exec.axpy(&mut want_u, -0.5, &y).expect("eager axpy");
        assert_eq!(bits(&w), bits(&want_w));
        assert_eq!(bits(&u), bits(&want_u));
    }

    #[test]
    fn masked_zip3_transform_matches_capturing_pipeline() {
        let exec = ctx::<Sequential>();
        let mask = Vector::<bool>::sparse_filled(4, vec![0, 2, 3], true).expect("mask builds");
        let r = v(0.5);
        let t = v(1.5);
        let d = Vector::from_dense(vec![4.0, 4.1, 4.2, 4.3]);

        let mut pb = exec.plan::<f64>();
        let xs = pb.output(4);
        let rs = pb.input(4);
        let ts = pb.input(4);
        let ds = pb.input(4);
        let ms = pb.mask(4);
        pb.transform(xs)
            .mask(ms)
            .structural()
            .zip(ts)
            .zip(rs)
            .zip(ds)
            .apply(|_i, xi, ti, ri, di| *xi = (ri - ti + *xi * di) / di);
        let plan = pb.compile();

        let mut got = v(3.0);
        let mut b = plan.bindings();
        b.bind_output(xs, &mut got)
            .bind_input(rs, &r)
            .bind_input(ts, &t)
            .bind_input(ds, &d)
            .bind_mask(ms, &mask);
        plan.run(&mut b).expect("replay succeeds");
        drop(b);

        // The pipeline-recorded equivalent captures its sources instead.
        let mut want = v(3.0);
        {
            let (rs, ts, ds) = (r.as_slice(), t.as_slice(), d.as_slice());
            let mut pl = exec.pipeline::<f64>();
            pl.transform(&mut want)
                .mask(&mask)
                .structural()
                .apply(move |i, xi| *xi = (rs[i] - ts[i] + *xi * ds[i]) / ds[i]);
            pl.finish().expect("pipeline runs");
        }
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn replays_reflect_rebound_outputs_run_after_run() {
        let exec = ctx::<Sequential>();
        let mut pb = exec.plan::<f64>();
        let xs = pb.input(4);
        let os = pb.output(4);
        pb.apply(xs).op(AdditiveInverse).into(os);
        let plan = pb.compile();

        let x = v(1.0);
        let mut o1 = Vector::zeros(4);
        let mut o2 = Vector::zeros(4);
        let mut b = plan.bindings();
        b.bind_input(xs, &x).bind_output(os, &mut o1);
        plan.run(&mut b).expect("first run");
        b.bind_output(os, &mut o2);
        plan.run(&mut b).expect("second run");
        drop(b);
        assert_eq!(bits(&o1), bits(&o2));
        assert_eq!(o1.as_slice()[1], -x.as_slice()[1]);
    }

    /// Every [`PlanCache`] feeds the process-wide `plan.cache.*` counters;
    /// tests that move or read them take turns.
    static CACHE_COUNTERS: Mutex<()> = Mutex::new(());

    #[test]
    fn pipeline_finish_touches_no_plan_cache() {
        let _turn = CACHE_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let counters = || {
            let (hit, miss) = cache_metrics();
            (hit.get(), miss.get())
        };
        let before = counters();
        let a = spd();
        let p = v(1.0);
        let mut ap = Vector::zeros(4);
        let mut pl = ctx::<Sequential>().pipeline();
        let aph = pl.mxv(&a, &p).into(&mut ap);
        let d = pl.dot(&p, aph).result();
        assert!(pl.finish().expect("pipeline runs")[d] > 0.0);
        assert_eq!(counters(), before);
    }

    #[test]
    fn plan_cache_hits_and_counters() {
        let _turn = CACHE_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let cache = PlanCache::new();
        let exec = ctx::<Sequential>();
        let key = plan_key(&("negate", 4usize));
        let build = || {
            let mut pb = exec.plan::<f64>();
            let xs = pb.input(4);
            let os = pb.output(4);
            pb.apply(xs).op(AdditiveInverse).into(os);
            pb.compile()
        };
        let (first, hit1) = cache.get_or_compile(key, build);
        assert!(!hit1);
        let (second, hit2) = cache
            .get_or_compile::<f64, Sequential, _>(key, || panic!("cached entry must not rebuild"));
        assert!(hit2);
        assert_eq!(first.structural_hash(), second.structural_hash());
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));

        // A hit-side consumer binds through the plan's slot accessors.
        let x = v(0.0);
        let mut o = Vector::zeros(4);
        let mut b = second.bindings();
        b.bind_input(second.input_slot(0), &x)
            .bind_output(second.output_slot(0), &mut o);
        second.run(&mut b).expect("cached plan runs");
        drop(b);
        assert_eq!(o.as_slice()[2], -x.as_slice()[2]);

        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn structural_hash_tracks_shape_not_values() {
        let exec = ctx::<Sequential>();
        let build = |n: usize, alpha: f64| {
            let mut pb = exec.plan::<f64>();
            let xs = pb.output(n);
            let ys = pb.input(n);
            pb.axpy(xs, alpha, ys);
            pb.compile()
        };
        // Same shape (constants included — they select the kernel's
        // arithmetic) → same digest, across distinct builders.
        assert_eq!(
            build(4, 2.0).structural_hash(),
            build(4, 2.0).structural_hash()
        );
        // Different dimension or constant → different digest.
        assert_ne!(
            build(4, 2.0).structural_hash(),
            build(8, 2.0).structural_hash()
        );
        assert_ne!(
            build(4, 2.0).structural_hash(),
            build(4, 2.5).structural_hash()
        );

        // The algebra is part of the shape: an mxv recorded over another
        // ring, or with another accumulator, is another graph; the same
        // algebra recorded by two builders is the same graph.
        type Rec4 =
            fn(&mut PlanBuilder<'static, f64, Sequential>, MatSlot, InSlot, OutSlot) -> OutSlot;
        let mxv = |record: Rec4| {
            let mut pb = exec.plan::<f64>();
            let (am, xs, ys) = (pb.matrix(4, 4), pb.input(4), pb.output(4));
            record(&mut pb, am, xs, ys);
            pb.compile().structural_hash()
        };
        let plus_times = mxv(|pb, a, x, y| pb.mxv(a, x).into(y));
        let min_plus = mxv(|pb, a, x, y| pb.mxv(a, x).ring(MinPlus).into(y));
        assert_ne!(plus_times, min_plus, "ring");
        let acc_min = mxv(|pb, a, x, y| pb.mxv(a, x).ring(MinPlus).accum(Min).into(y));
        let acc_plus = mxv(|pb, a, x, y| pb.mxv(a, x).ring(MinPlus).accum(Plus).into(y));
        assert_ne!(acc_min, acc_plus, "accumulator");
        let acc_min_again = mxv(|pb, a, x, y| pb.mxv(a, x).ring(MinPlus).accum(Min).into(y));
        assert_eq!(acc_min, acc_min_again, "same algebra, two builders");
    }

    #[test]
    fn unbound_and_misdimensioned_slots_fail_validation() {
        let exec = ctx::<Sequential>();
        let mut pb = exec.plan::<f64>();
        let xs = pb.input(4);
        let os = pb.output(4);
        pb.apply(xs).into(os);
        let plan = pb.compile();

        let x = v(0.0);
        let mut o = Vector::zeros(4);

        let mut b = plan.bindings();
        b.bind_input(xs, &x);
        assert!(matches!(plan.run(&mut b), Err(GrbError::InvalidInput(_))));
        drop(b);

        let wrong = Vector::<f64>::zeros(5);
        let mut b = plan.bindings();
        b.bind_input(xs, &wrong).bind_output(os, &mut o);
        assert!(matches!(
            plan.run(&mut b),
            Err(GrbError::DimensionMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "InSlot does not belong to this plan")]
    fn foreign_slots_panic() {
        let exec = ctx::<Sequential>();
        let mut other = exec.plan::<f64>();
        let foreign = other.input(4);
        let mut pb = exec.plan::<f64>();
        let _ = pb.apply(foreign);
    }

    /// A record-time length mismatch compiles; every run of the plan
    /// returns it before anything runs, so no output is written — not
    /// even by the op recorded ahead of the bad one.
    #[test]
    fn zip_length_mismatch_is_returned_by_every_run_and_writes_nothing() {
        let exec = ctx::<Sequential>();
        let mut pb = exec.plan::<f64>();
        let (xs, short) = (pb.input(4), pb.input(3));
        let (negs, os) = (pb.output(4), pb.output(4));
        pb.apply(xs).op(AdditiveInverse).into(negs);
        pb.transform(os).zip(short).apply(|_, o, s| *o += s);
        let plan = pb.compile();

        let (x, s3) = (v(1.0), Vector::from_dense(vec![1.0, 2.0, 3.0]));
        let (mut neg, mut o) = (v(2.0), v(3.0));
        for _ in 0..2 {
            let mut b = plan.bindings();
            b.bind_input(xs, &x).bind_input(short, &s3);
            b.bind_output(negs, &mut neg).bind_output(os, &mut o);
            assert!(matches!(
                plan.run(&mut b),
                Err(GrbError::DimensionMismatch { .. })
            ));
        }
        assert_eq!(bits(&neg), bits(&v(2.0)));
        assert_eq!(bits(&o), bits(&v(3.0)));
    }

    /// The `compile_fail` example on [`PlanBuilder`] shows the type system
    /// rejecting a borrowed local; a `'static` borrow passes that check, so
    /// `compile` refuses it instead.
    #[test]
    #[should_panic(expected = "compile: input slot 0 was recorded from a borrowed operand")]
    fn compile_refuses_a_borrowed_operand() {
        let x: &'static Vector<f64> = Box::leak(Box::new(v(0.0)));
        let mut pb = ctx::<Sequential>().plan::<f64>();
        let os = pb.output(4);
        pb.apply(x).into(os);
        let _ = pb.compile();
    }
}
