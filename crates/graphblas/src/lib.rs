//! A GraphBLAS-style sparse linear algebra library in Rust.
//!
//! This crate implements the substrate the paper *"Effective implementation of
//! the High Performance Conjugate Gradient benchmark on GraphBLAS"* (Scolari &
//! Yzelman, IPDPS 2023) builds on: an ALP/GraphBLAS-like programming model
//! where
//!
//! * **containers are opaque** — [`Vector`] and [`CsrMatrix`] expose no
//!   storage details to algorithms, only algebraic operations;
//! * **operations are algebraic** — every primitive is parameterized by an
//!   algebraic structure ([`BinaryOp`], [`Monoid`], [`Semiring`]) expressed
//!   as a zero-sized Rust type, the analogue of ALP's C++ template
//!   metaprogramming: the operation monomorphizes and inlines to exactly
//!   the arithmetic the caller chose;
//! * **execution is owned by a context** — a [`Ctx`] pairs the kernels with
//!   an execution configuration, mirroring ALP's launcher (§IV). The
//!   backend is either fixed at compile time (`ctx::<Sequential>()`,
//!   `ctx::<Parallel>()` — rayon data-parallel) or selected at runtime
//!   through [`DynCtx`] and [`BackendKind`] (`--backend seq|par`,
//!   `GRB_BACKEND=par`);
//! * **modifiers are recorder state** — masks, the structural/transpose/
//!   inverted-mask descriptor flags and the optional accumulator chain
//!   fluently off each operation instead of riding along as positional
//!   arguments. Each op has one recorder, and the same recorder either runs
//!   its op at once (called on a [`Ctx`]) or records it (on a
//!   [`PlanBuilder`]).
//!
//! # Quickstart
//!
//! ```
//! use graphblas::{ctx, CsrMatrix, Plus, Sequential, Vector};
//!
//! // A 2x2 matrix [[2, 0], [1, 3]] from (row, col, value) triplets.
//! let a = CsrMatrix::<f64>::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, 1.0), (1, 1, 3.0)]).unwrap();
//! let x = Vector::from_dense(vec![1.0, 2.0]);
//! let exec = ctx::<Sequential>();          // or ctx::<Parallel>()
//!
//! // y = A ⊕.⊗ x over the default arithmetic semiring.
//! let mut y = Vector::zeros(2);
//! exec.mxv(&a, &x).into(&mut y).unwrap();
//! assert_eq!(y.as_slice(), &[2.0, 7.0]);
//!
//! // Modifiers are fluent recorder state: y += Aᵀ·x at masked rows only.
//! let mask = Vector::<bool>::sparse_filled(2, vec![1], true).unwrap();
//! exec.mxv(&a, &x).transpose().mask(&mask).structural().accum(Plus)
//!     .into(&mut y)
//!     .unwrap();
//! assert_eq!(y.as_slice(), &[2.0, 13.0]);
//!
//! // Reductions and element-wise kernels hang off the same context.
//! assert_eq!(exec.dot(&x, &y).compute().unwrap(), 28.0);
//! let mut w = Vector::zeros(2);
//! exec.ewise(&x, &y).scaled(2.0, -1.0).into(&mut w).unwrap();   // w = 2x − y
//! assert_eq!(w.as_slice(), &[0.0, -9.0]);
//! ```
//!
//! Runtime backend selection uses the same recorders through [`DynCtx`]:
//!
//! ```
//! use graphblas::{BackendKind, DynCtx, Vector};
//!
//! // Honors GRB_BACKEND; a set-but-invalid value is an error.
//! let exec = DynCtx::from_env_or(BackendKind::Parallel).unwrap();
//! let x = Vector::from_dense(vec![3.0, 4.0]);
//! assert_eq!(exec.norm2_squared(&x).unwrap(), 25.0);
//! ```
//!
//! # Deferred execution (nonblocking pipelines)
//!
//! The same recorders can *record* instead of executing: there is one
//! family of recorders, generic over where the op goes
//! ([`plan::Door`]), one recorded form — ops over dimensioned slots, each
//! carrying the kernel its eager call runs ([`plan`]) — one fusion pass
//! ([`fusion`]) and one interpreter. [`Ctx::pipeline`] hands out a
//! [`PlanBuilder`] that turns each borrowed operand into a bound slot as it
//! records, and [`PlanBuilder::finish`] fuses and runs the graph once — an
//! `mxv` feeding a `dot` becomes one SpMV-with-epilogue sweep, an `axpy`
//! feeding a norm one fused stream, and every other op runs as its own
//! stage through the kernel its eager call uses. Results are bit-identical
//! to the eager path on every backend.
//!
//! ```
//! use graphblas::{ctx, CsrMatrix, Sequential, Vector};
//!
//! let a = CsrMatrix::<f64>::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]).unwrap();
//! let p = Vector::from_dense(vec![1.0, 2.0]);
//! let mut ap = Vector::zeros(2);
//!
//! let mut pl = ctx::<Sequential>().pipeline();
//! let ap_h = pl.mxv(&a, &p).into(&mut ap);   // recorded, not yet executed
//! let p_ap = pl.dot(&p, ap_h).result();      // reads the recorded output
//! let out = pl.finish().unwrap();            // one fused SpMV+dot pass
//! assert_eq!(out[p_ap], 14.0);
//! ```
//!
//! When the same op graph runs many times (a CG iteration body, repeated
//! serve traffic), compile it once: [`Ctx::plan`] records the graph
//! against slots the caller declares, [`plan::PlanBuilder::compile`]
//! freezes the fused schedule into a reusable [`Plan`], and each replay just
//! binds fresh buffers and scalar parameters — the same interpreter, so
//! bit-identical results, with zero per-iteration recording or fusion cost.
//! A [`PlanCache`] memoizes compiled plans by shape. See the [`plan`]
//! module docs.
//!
//! The pre-0.2 free functions (`mxv(&mut y, None, Descriptor::DEFAULT, …)`),
//! deprecated in 0.2, have been **removed** in 0.3 as promised; every entry
//! point now goes through a context.
//!
//! # Module map
//!
//! | module | contents |
//! |--------|----------|
//! | [`context`] | [`Ctx`], [`DynCtx`], [`BackendKind`]: where every operation starts |
//! | [`plan`] | the one recorder family (run now or record), the slot-based op IR and its interpreter; [`PlanBuilder`]: run once or compile; [`Plan`]: replay; the [`PlanCache`] |
//! | [`fusion`] | the generic fusion pass over recorded ops |
//! | [`ops`] | algebraic structures: binary/unary operators, monoids, semirings, accumulation modes |
//! | [`container`] | [`Vector`] (dense or sparse pattern), [`SparseVector`] frontiers, [`CsrMatrix`] and the dual-orientation [`GraphMatrix`] |
//! | [`exec::sparse`] | direction-optimizing push/pull `mxv` on sparse frontiers ([`FrontierMode`]) |
//! | [`descriptor`] | operation descriptors (structural mask, transpose, …) |
//! | [`backend`] | [`Sequential`] and [`Parallel`] execution backends |
//! | [`backend::dist`] | [`Distributed`]: the whole surface on a simulated BSP cluster, costs recorded per superstep |
//! | [`exec`] | the kernels behind the recorders (incl. the fused entry points) |

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod algorithms;
pub mod backend;
pub mod container;
pub mod context;
pub mod descriptor;
pub mod error;
pub mod exec;
pub mod fusion;
pub mod io;
pub mod ops;
pub mod plan;
pub(crate) mod util;

pub use backend::dist::{ClassCost, CostSummary, DistConfig, Distributed, ShardLayout};
pub use backend::{Backend, Parallel, Sequential};
pub use container::matrix::{CsrMatrix, GraphMatrix};
pub use container::vector::{SparseVector, Vector};
pub use context::{ctx, ctx_on, BackendKind, Ctx, DynCtx, Exec, MxmBuilder, DEFAULT_DIST_NODES};
pub use descriptor::Descriptor;
pub use error::{GrbError, Result};
pub use fusion::PlannedStage;
pub use ops::accum::{AccumMode, AccumWith, NoAccum};
pub use ops::binary::{BinaryOp, Divide, First, Land, Lor, Max, Min, Minus, Plus, Second, Times};
pub use ops::monoid::Monoid;
pub use ops::scalar::Scalar;
pub use ops::semiring::{MaxTimes, MinPlus, PlusTimes, Semiring};
pub use ops::unary::{Abs, AdditiveInverse, Identity, MultiplicativeInverse, UnaryOp};
pub use plan::{
    plan_key, Bindings, InSlot, MaskSlot, MatSlot, Operand, OutSlot, Plan, PlanBuilder, PlanCache,
    PlanRead, PlanResults, PlanScalar, ScalarParam, ScalarSlot,
};

pub use exec::extract::extract_submatrix;
pub use exec::sparse::{FrontierMode, PUSH_PULL_THRESHOLD};

/// Tests of the builder [`Ctx::pipeline`] hands out.
#[cfg(test)]
mod pipeline {
    mod tests;
}
