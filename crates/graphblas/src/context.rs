//! Execution contexts — the public face of the primitive layer.
//!
//! ALP pairs its single-source/compile-time-backend kernels with a launcher
//! object that owns execution configuration (paper §IV). [`Ctx`] is that
//! object here: it carries the backend choice and descriptor defaults, and
//! every primitive family hangs off it as a **recorder** whose terminal
//! runs the op at once —
//!
//! ```
//! use graphblas::{ctx, CsrMatrix, Plus, Sequential, Vector};
//!
//! let a = CsrMatrix::<f64>::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]).unwrap();
//! let x = Vector::from_dense(vec![1.0, 2.0]);
//! let mut y = Vector::from_dense(vec![10.0, 10.0]);
//! let exec = ctx::<Sequential>();
//! exec.mxv(&a, &x).accum(Plus).into(&mut y).unwrap();   // y += A·x
//! assert_eq!(y.as_slice(), &[12.0, 16.0]);
//! ```
//!
//! — so mask, descriptor flags and accumulator are typed, optional,
//! self-documenting state instead of positional arguments, and the
//! historical `mxv`/`mxv_accum`-style twin entry points collapse into one
//! recorder with an optional `accum`.
//!
//! There is one recorder per op ([`PlanMxv`] & co., in [`crate::plan`]),
//! generic over a *door*. A context hands it out on the run-now door
//! [`Run`]: operands are borrowed containers, and the terminal (`into`,
//! `apply`, `compute`) calls the kernel directly and returns a [`Result`]
//! — no node is built and nothing is allocated. [`Ctx::pipeline`] and
//! [`Ctx::plan`] hand the same recorders out on the recording door, with
//! the same modifiers.
//!
//! # Backends: compile-time or runtime
//!
//! `Ctx` is generic over an [`Exec`] dispatcher. [`Sequential`] and
//! [`Parallel`] implement it statically — `ctx::<Parallel>()` monomorphizes
//! every kernel exactly like the old turbofish form, a zero-cost wrapper.
//! [`BackendKind`] implements it by matching at each operation, giving the
//! runtime-selected [`DynCtx`] (`--backend seq|par` in the benchmark
//! binaries, `GRB_BACKEND` in the environment):
//!
//! ```
//! use graphblas::{BackendKind, DynCtx, Vector};
//!
//! let exec = DynCtx::from_env_or(BackendKind::Sequential).unwrap();
//! let x = Vector::from_dense(vec![3.0, 4.0]);
//! assert_eq!(exec.norm2_squared(&x).unwrap(), 25.0);
//! ```
//!
//! # Deferred (nonblocking) execution
//!
//! [`Ctx::pipeline`] and [`Ctx::plan`] return a [`PlanBuilder`] on which
//! the recorders *record* operations instead of executing them. A
//! pipeline's builder borrows its operands and `finish()` runs a fusion
//! pass and executes the fused schedule once; a plan's records against
//! declared slots and compiles for replay. There is one op IR and one
//! interpreter; see [`crate::plan`].

use crate::backend::dist::Distributed;
use crate::backend::{Backend, Parallel, Sequential};
use crate::container::matrix::{CsrMatrix, GraphMatrix};
use crate::container::vector::{SparseVector, Vector};
use crate::descriptor::Descriptor;
use crate::error::{GrbError, Result};
use crate::exec::fused::spmv_dot_exec;
use crate::exec::mxm::mxm_exec;
use crate::exec::mxv::mxv_exec;
use crate::exec::sparse::{mxv_sparse_exec, FrontierMode};
use crate::exec::{ewise, fold_selected, for_each_selected, reduce};
use crate::ops::accum::{AccumMode, NoAccum};
use crate::ops::binary::Plus;
use crate::ops::monoid::Monoid;
use crate::ops::scalar::Scalar;
use crate::ops::semiring::{PlusTimes, Semiring};
use crate::ops::unary::Identity;
use crate::plan::{
    PlanApply, PlanBuilder, PlanDot, PlanEwise, PlanMxv, PlanReduce, PlanTransform, Run,
};
use crate::util::UnsafeSlice;
use std::marker::PhantomData;

/// A backend chosen at runtime — the dispatch target of [`DynCtx`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Single-threaded reference backend.
    Sequential,
    /// Shared-memory data-parallel backend.
    Parallel,
    /// Distributed backend over a simulated BSP cluster. Carries the
    /// cluster handle; two parses of `"dist:4"` create two *distinct*
    /// clusters (each with its own cost trace), so compare kinds with
    /// `matches!` rather than `==` when the identity does not matter.
    Dist(Distributed),
}

/// Node count used for `"dist"` when the `:<nodes>` suffix is omitted.
pub const DEFAULT_DIST_NODES: usize = 4;

impl BackendKind {
    /// Parses a backend spelling: `"seq"`/`"sequential"`,
    /// `"par"`/`"parallel"`, or the parameterized `"dist"` /
    /// `"dist:<nodes>"` (default node count: [`DEFAULT_DIST_NODES`]).
    ///
    /// Malformed values produce precise errors — an operator's typo must
    /// name exactly what was wrong, never silently pick a backend.
    ///
    /// Note that successfully parsing a `dist` spelling **registers a new
    /// cluster** (its state lives for the rest of the process, see
    /// [`Distributed`]): parse a spec once per intended cluster, not per
    /// validation round-trip.
    pub fn parse(s: &str) -> Result<BackendKind> {
        let norm = s.trim().to_ascii_lowercase();
        match norm.as_str() {
            "seq" | "sequential" => return Ok(BackendKind::Sequential),
            "par" | "parallel" => return Ok(BackendKind::Parallel),
            "dist" | "distributed" => {
                return Ok(BackendKind::Dist(Distributed::new(DEFAULT_DIST_NODES)))
            }
            _ => {}
        }
        if let Some(nodes) = norm
            .strip_prefix("dist:")
            .or_else(|| norm.strip_prefix("distributed:"))
        {
            let n: usize = nodes.parse().map_err(|_| {
                GrbError::InvalidInput(format!(
                    "invalid node count {nodes:?} in backend {s:?} \
                     (expected dist:<nodes> with a positive integer)"
                ))
            })?;
            if n == 0 {
                return Err(GrbError::InvalidInput(format!(
                    "invalid node count 0 in backend {s:?} (a cluster needs at least one node)"
                )));
            }
            return Ok(BackendKind::Dist(Distributed::new(n)));
        }
        Err(GrbError::InvalidInput(format!(
            "unknown backend {s:?} (expected seq|par|dist[:<nodes>])"
        )))
    }

    /// Reads the `GRB_BACKEND` environment variable.
    ///
    /// Returns `Ok(None)` when unset, `Ok(Some(kind))` when set to a valid
    /// spelling (including `dist:<nodes>`), and an error when the variable
    /// holds an unrecognized value — a typo in `GRB_BACKEND` must never
    /// silently run on a different backend than the operator asked for.
    pub fn from_env() -> Result<Option<BackendKind>> {
        match std::env::var("GRB_BACKEND") {
            Err(_) => Ok(None),
            Ok(v) => match BackendKind::parse(&v) {
                Ok(kind) => Ok(Some(kind)),
                Err(e) => Err(GrbError::InvalidInput(format!(
                    "invalid GRB_BACKEND value {v:?}: {e}"
                ))),
            },
        }
    }

    /// The short flag spelling (`"seq"` / `"par"` / `"dist"`); the
    /// [`Display`](std::fmt::Display) form additionally carries the node
    /// count (`"dist:4"`).
    pub const fn flag(self) -> &'static str {
        match self {
            BackendKind::Sequential => "seq",
            BackendKind::Parallel => "par",
            BackendKind::Dist(_) => "dist",
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = GrbError;
    fn from_str(s: &str) -> Result<BackendKind> {
        BackendKind::parse(s)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Dist(d) => write!(f, "dist:{}", d.nodes()),
            other => f.write_str(other.flag()),
        }
    }
}

/// Which element-wise op an `Exec::run_lambda` / `Exec::run_fold` call
/// carries out. The kernel shape is the same for all; the tag names the
/// call's trace span and picks what the distributed backend bills.
#[doc(hidden)]
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ElemOp {
    /// `w = Op(x, y)`; `scaled`: `Op(α·x, β·y)` (HPCG's `waxpby`).
    Ewise {
        scaled: bool,
    },
    Axpy,
    Apply,
    /// `transform`: a caller's `f(i, &mut out[i])`.
    Transform,
    Dot,
    Reduce,
    /// `x = x + α·y` returning `⟨x, x⟩`, fused into one stream.
    AxpyNorm,
}

impl ElemOp {
    /// Opens the op's kernel span, under its `dist.` name on the
    /// distributed backend.
    pub(crate) fn span_enter(self, dist: bool) -> Option<obs::SpanGuard> {
        let (name, dist_name, class) = match self {
            ElemOp::Ewise { .. } => ("ewise", "dist.ewise", "update"),
            ElemOp::Axpy => ("axpy", "dist.axpy", "update"),
            ElemOp::Apply => ("apply", "dist.apply", "update"),
            ElemOp::Transform => ("lambda", "dist.lambda", "update"),
            ElemOp::Dot => ("dot", "dist.dot", "dot"),
            ElemOp::Reduce => ("reduce", "dist.reduce", "dot"),
            ElemOp::AxpyNorm => ("axpy_norm", "dist.axpy_norm", "fused"),
        };
        obs::span_enter(if dist { dist_name } else { name }, class)
    }
}

/// The execution dispatcher behind a [`Ctx`]: forwards each kernel either
/// statically (a [`Backend`] type — zero cost) or through a runtime match
/// ([`BackendKind`]).
///
/// The `run_*` methods are plumbing between the recorders and the kernels in
/// [`crate::exec`]; user code never calls them directly. Besides the row
/// sweeps and `run_mxm`, every element-wise op is one of two element
/// streams: a write, `run_lambda`, or a fold, `run_fold`. A recorded
/// chain of element-wise ops makes one such call per op.
pub trait Exec: Copy + Send + Sync + 'static {
    /// The degree of parallelism operations will use.
    fn threads(self) -> usize;

    /// Human-readable backend name.
    fn backend_name(self) -> &'static str;

    #[doc(hidden)]
    fn run_mxv<T: Scalar, R: Semiring<T>, A: AccumMode<T>>(
        self,
        y: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        a: &CsrMatrix<T>,
        x: &Vector<T>,
    ) -> Result<()>;

    #[doc(hidden)]
    fn run_mxv_sparse<T: Scalar, R: Semiring<T>, A: AccumMode<T>>(
        self,
        y: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        m: &GraphMatrix<T>,
        x: &SparseVector<T>,
    ) -> Result<FrontierMode>;

    /// Calls `f(i, &mut out[i])` once at every index `mask` selects under
    /// `desc`; a parallel backend calls it concurrently for different `i`.
    #[doc(hidden)]
    fn run_lambda<T: Scalar, F: Fn(usize, &mut T) + Send + Sync>(
        self,
        op: ElemOp,
        out: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        f: F,
    ) -> Result<()>;

    /// Folds `map(i)` over monoid `M` across every index of `0..n` that
    /// `mask` selects under `desc`. `map` is called **exactly once** per
    /// selected index (concurrently for different indices on a parallel
    /// backend), so it may write index `i` of a vector it captures — how
    /// the fused `axpy`+norm updates `x` while folding `⟨x, x⟩`.
    #[doc(hidden)]
    fn run_fold<T: Scalar, M: Monoid<T>, F: Fn(usize) -> T + Send + Sync>(
        self,
        op: ElemOp,
        n: usize,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        map: F,
    ) -> Result<T>;

    #[doc(hidden)]
    fn run_mxm<T: Scalar, R: Semiring<T>>(
        self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        desc: Descriptor,
    ) -> Result<CsrMatrix<T>>;

    #[doc(hidden)]
    fn run_spmv_dot<T: Scalar, R: Semiring<T>>(
        self,
        y: &mut Vector<T>,
        a: &CsrMatrix<T>,
        x: &Vector<T>,
        w: Option<&Vector<T>>,
        product_on_left: bool,
    ) -> Result<T>;
}

macro_rules! impl_exec_for_backend {
    ($backend:ty) => {
        impl Exec for $backend {
            fn threads(self) -> usize {
                <$backend as Backend>::threads()
            }

            fn backend_name(self) -> &'static str {
                <$backend as Backend>::NAME
            }

            fn run_mxv<T: Scalar, R: Semiring<T>, A: AccumMode<T>>(
                self,
                y: &mut Vector<T>,
                mask: Option<&Vector<bool>>,
                desc: Descriptor,
                a: &CsrMatrix<T>,
                x: &Vector<T>,
            ) -> Result<()> {
                let _span = obs::span_enter("mxv", "spmv");
                mxv_exec::<T, R, A, $backend>(y, mask, desc, a, x)
            }

            fn run_mxv_sparse<T: Scalar, R: Semiring<T>, A: AccumMode<T>>(
                self,
                y: &mut Vector<T>,
                mask: Option<&Vector<bool>>,
                desc: Descriptor,
                m: &GraphMatrix<T>,
                x: &SparseVector<T>,
            ) -> Result<FrontierMode> {
                let _span = obs::span_enter("mxv_sparse", "spmv");
                mxv_sparse_exec::<T, R, A, $backend>(y, mask, desc, m, x)
            }

            fn run_lambda<T: Scalar, F: Fn(usize, &mut T) + Send + Sync>(
                self,
                op: ElemOp,
                out: &mut Vector<T>,
                mask: Option<&Vector<bool>>,
                desc: Descriptor,
                f: F,
            ) -> Result<()> {
                let _span = op.span_enter(false);
                let n = out.len();
                let slots = UnsafeSlice::new(out.as_mut_slice());
                // SAFETY: selected indices are unique per the mask contract,
                // so each slot is handed to exactly one closure invocation.
                for_each_selected::<$backend, _>(n, mask, desc, |i| {
                    f(i, unsafe { slots.get_mut(i) })
                })
            }

            fn run_fold<T: Scalar, M: Monoid<T>, F: Fn(usize) -> T + Send + Sync>(
                self,
                op: ElemOp,
                n: usize,
                mask: Option<&Vector<bool>>,
                desc: Descriptor,
                map: F,
            ) -> Result<T> {
                let _span = op.span_enter(false);
                fold_selected::<$backend, T, M, F>(n, mask, desc, map)
            }

            fn run_mxm<T: Scalar, R: Semiring<T>>(
                self,
                a: &CsrMatrix<T>,
                b: &CsrMatrix<T>,
                desc: Descriptor,
            ) -> Result<CsrMatrix<T>> {
                let _span = obs::span_enter("mxm", "spmv");
                mxm_exec::<T, R, $backend>(a, b, desc)
            }

            fn run_spmv_dot<T: Scalar, R: Semiring<T>>(
                self,
                y: &mut Vector<T>,
                a: &CsrMatrix<T>,
                x: &Vector<T>,
                w: Option<&Vector<T>>,
                product_on_left: bool,
            ) -> Result<T> {
                let _span = obs::span_enter("spmv_dot", "fused");
                spmv_dot_exec::<T, R, $backend>(y, a, x, w, product_on_left)
            }
        }
    };
}

impl_exec_for_backend!(Sequential);
impl_exec_for_backend!(Parallel);

/// Forwards every kernel through a two-way match — the single place runtime
/// backend selection pays its (branch-predictable) cost.
macro_rules! kind_dispatch {
    ($self:ident, $b:ident => $call:expr) => {
        match $self {
            BackendKind::Sequential => {
                let $b = Sequential;
                $call
            }
            BackendKind::Parallel => {
                let $b = Parallel;
                $call
            }
            BackendKind::Dist($b) => $call,
        }
    };
}

impl Exec for BackendKind {
    fn threads(self) -> usize {
        kind_dispatch!(self, b => b.threads())
    }

    fn backend_name(self) -> &'static str {
        kind_dispatch!(self, b => b.backend_name())
    }

    fn run_mxv<T: Scalar, R: Semiring<T>, A: AccumMode<T>>(
        self,
        y: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        a: &CsrMatrix<T>,
        x: &Vector<T>,
    ) -> Result<()> {
        kind_dispatch!(self, b => b.run_mxv::<T, R, A>(y, mask, desc, a, x))
    }

    fn run_mxv_sparse<T: Scalar, R: Semiring<T>, A: AccumMode<T>>(
        self,
        y: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        m: &GraphMatrix<T>,
        x: &SparseVector<T>,
    ) -> Result<FrontierMode> {
        kind_dispatch!(self, b => b.run_mxv_sparse::<T, R, A>(y, mask, desc, m, x))
    }

    fn run_lambda<T: Scalar, F: Fn(usize, &mut T) + Send + Sync>(
        self,
        op: ElemOp,
        out: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        f: F,
    ) -> Result<()> {
        kind_dispatch!(self, b => b.run_lambda::<T, F>(op, out, mask, desc, f))
    }

    fn run_fold<T: Scalar, M: Monoid<T>, F: Fn(usize) -> T + Send + Sync>(
        self,
        op: ElemOp,
        n: usize,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        map: F,
    ) -> Result<T> {
        kind_dispatch!(self, b => b.run_fold::<T, M, F>(op, n, mask, desc, map))
    }

    fn run_mxm<T: Scalar, R: Semiring<T>>(
        self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        desc: Descriptor,
    ) -> Result<CsrMatrix<T>> {
        kind_dispatch!(self, b2 => b2.run_mxm::<T, R>(a, b, desc))
    }

    fn run_spmv_dot<T: Scalar, R: Semiring<T>>(
        self,
        y: &mut Vector<T>,
        a: &CsrMatrix<T>,
        x: &Vector<T>,
        w: Option<&Vector<T>>,
        product_on_left: bool,
    ) -> Result<T> {
        kind_dispatch!(self, b => b.run_spmv_dot::<T, R>(y, a, x, w, product_on_left))
    }
}

/// An execution context: backend choice + descriptor defaults, the entry
/// point of every operation recorder. See the [module docs](self) for the
/// overall shape.
#[derive(Copy, Clone, Debug, Default)]
pub struct Ctx<E: Exec> {
    exec: E,
    defaults: Descriptor,
}

/// A context whose backend is chosen at runtime (CLI flag / environment).
pub type DynCtx = Ctx<BackendKind>;

/// Creates a compile-time-backend context: `ctx::<Parallel>()`.
pub fn ctx<B: Backend>() -> Ctx<B> {
    Ctx {
        exec: B::default(),
        defaults: Descriptor::DEFAULT,
    }
}

/// Creates a context on an explicit dispatcher value — the entry point for
/// dispatchers that carry state, like a [`Distributed`] cluster handle
/// (`ctx_on(Distributed::new(4))`, or equivalently `Distributed::new(4).ctx()`).
pub fn ctx_on<E: Exec>(exec: E) -> Ctx<E> {
    Ctx {
        exec,
        defaults: Descriptor::DEFAULT,
    }
}

impl<B: Backend> Ctx<B> {
    /// Creates a context on the statically chosen backend `B`.
    pub fn new() -> Ctx<B> {
        ctx::<B>()
    }
}

impl DynCtx {
    /// Creates a runtime-dispatched context on the given backend.
    pub fn runtime(kind: BackendKind) -> DynCtx {
        Ctx {
            exec: kind,
            defaults: Descriptor::DEFAULT,
        }
    }

    /// Creates a runtime-dispatched context from `GRB_BACKEND`, falling
    /// back to `default` when the variable is unset.
    ///
    /// A set-but-invalid `GRB_BACKEND` is an **error**, not a silent
    /// fallback: a typo must never run a benchmark on the wrong backend.
    pub fn from_env_or(default: BackendKind) -> Result<DynCtx> {
        Ok(DynCtx::runtime(BackendKind::from_env()?.unwrap_or(default)))
    }

    /// The runtime backend this context dispatches to.
    pub fn kind(&self) -> BackendKind {
        self.exec
    }
}

impl<E: Exec> Ctx<E> {
    /// Returns this context with `defaults` OR-ed into every recorder's
    /// starting descriptor (e.g. make all masked operations structural).
    #[must_use]
    pub fn with_defaults(mut self, defaults: Descriptor) -> Ctx<E> {
        self.defaults = self.defaults.with(defaults);
        self
    }

    /// The descriptor every recorder starts from.
    pub fn defaults(&self) -> Descriptor {
        self.defaults
    }

    /// The degree of parallelism operations on this context will use.
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// Human-readable backend name, used by benchmark reports.
    pub fn backend_name(&self) -> &'static str {
        self.exec.backend_name()
    }

    /// The run-now door every eager recorder starts from.
    fn run<'a, T: Scalar>(&self) -> Run<'a, T, E> {
        Run {
            exec: self.exec,
            _operands: PhantomData,
        }
    }

    /// Starts `y = A ⊕.⊗ x` (default ring: [`PlusTimes`]), over any
    /// semiring:
    ///
    /// ```
    /// use graphblas::algorithms::LorLand;
    /// use graphblas::{ctx, CsrMatrix, Sequential, Vector};
    ///
    /// let a = CsrMatrix::<f64>::from_triplets(3, 3, &[(1, 0, 1.0), (2, 1, 1.0)]).unwrap();
    /// let frontier = Vector::from_dense(vec![1.0, 0.0, 0.0]);
    /// let mut next = Vector::zeros(3);
    /// ctx::<Sequential>().mxv(&a, &frontier).ring(LorLand).into(&mut next).unwrap();
    /// assert_eq!(next.as_slice(), &[0.0, 1.0, 0.0]);
    /// ```
    pub fn mxv<'a, T: Scalar>(
        &self,
        a: &'a CsrMatrix<T>,
        x: &'a Vector<T>,
    ) -> PlanMxv<Run<'a, T, E>, &'a CsrMatrix<T>, &'a Vector<T>, PlusTimes, NoAccum> {
        PlanMxv::new(self.run(), a, x, self.defaults)
    }

    /// Starts `y = xᵀA` (`vxm`), equal to `Aᵀx`: an `mxv` with the
    /// transposition pre-toggled.
    pub fn vxm<'a, T: Scalar>(
        &self,
        x: &'a Vector<T>,
        a: &'a CsrMatrix<T>,
    ) -> PlanMxv<Run<'a, T, E>, &'a CsrMatrix<T>, &'a Vector<T>, PlusTimes, NoAccum> {
        self.mxv(a, x).transpose()
    }

    /// Starts `y = A ⊕.⊗ x` for a **sparse frontier** `x` over a
    /// [`GraphMatrix`] (default ring: [`PlusTimes`]).
    ///
    /// The same recorder as [`Ctx::mxv`] — mask, accumulator and
    /// descriptor flags compose identically — but the terminal `into`
    /// additionally reports which [`FrontierMode`] (push or pull) the
    /// direction-optimizing kernel chose. Results are bit-identical to
    /// densifying `x` and calling [`Ctx::mxv`]. Sparse products are
    /// eager-only: the op IR has no sparse node.
    pub fn mxv_sparse<'a, T: Scalar>(
        &self,
        m: &'a GraphMatrix<T>,
        x: &'a SparseVector<T>,
    ) -> PlanMxv<Run<'a, T, E>, &'a GraphMatrix<T>, &'a SparseVector<T>, PlusTimes, NoAccum> {
        PlanMxv::new(self.run(), m, x, self.defaults)
    }

    /// Starts `y = xᵀA` for a sparse frontier `x`: an `mxv_sparse` with
    /// the transposition pre-toggled.
    pub fn vxm_sparse<'a, T: Scalar>(
        &self,
        x: &'a SparseVector<T>,
        m: &'a GraphMatrix<T>,
    ) -> PlanMxv<Run<'a, T, E>, &'a GraphMatrix<T>, &'a SparseVector<T>, PlusTimes, NoAccum> {
        self.mxv_sparse(m, x).transpose()
    }

    /// Starts `C = A ⊕.⊗ B` (default ring: [`PlusTimes`]).
    pub fn mxm<'a, T: Scalar>(
        &self,
        a: &'a CsrMatrix<T>,
        b: &'a CsrMatrix<T>,
    ) -> MxmBuilder<'a, T, PlusTimes, E> {
        MxmBuilder {
            exec: self.exec,
            a,
            b,
            desc: self.defaults,
            _algebra: PhantomData,
        }
    }

    /// Starts `w = Op(x, y)` element-wise (default op: [`Plus`]).
    pub fn ewise<'a, T: Scalar>(
        &self,
        x: &'a Vector<T>,
        y: &'a Vector<T>,
    ) -> PlanEwise<Run<'a, T, E>, Plus, NoAccum> {
        PlanEwise::new(self.run(), x, y, self.defaults)
    }

    /// Starts `out = Op(input)` element-wise (default op: [`Identity`]).
    pub fn apply<'a, T: Scalar>(
        &self,
        input: &'a Vector<T>,
    ) -> PlanApply<Run<'a, T, E>, Identity, NoAccum> {
        PlanApply::new(self.run(), input, self.defaults)
    }

    /// Starts an in-place indexed update of `out` — the paper's
    /// `eWiseLambda` (Listing 3): the terminal `apply(f)` receives
    /// `(i, &mut out[i])` at every selected index.
    pub fn transform<'a, T: Scalar>(&self, out: &'a mut Vector<T>) -> PlanTransform<Run<'a, T, E>> {
        PlanTransform::new(self.run(), out, self.defaults)
    }

    /// Starts a fold of `x` over a monoid (default: [`Plus`]).
    pub fn reduce<'a, T: Scalar>(&self, x: &'a Vector<T>) -> PlanReduce<Run<'a, T, E>, Plus> {
        PlanReduce::new(self.run(), x, self.defaults)
    }

    /// Starts `⟨x, y⟩` (default ring: [`PlusTimes`]).
    pub fn dot<'a, T: Scalar>(
        &self,
        x: &'a Vector<T>,
        y: &'a Vector<T>,
    ) -> PlanDot<Run<'a, T, E>, PlusTimes> {
        PlanDot::new(self.run(), x, y)
    }

    /// `‖x‖² = ⟨x, x⟩` over the arithmetic semiring.
    pub fn norm2_squared<T: Scalar>(&self, x: &Vector<T>) -> Result<T>
    where
        PlusTimes: Semiring<T>,
    {
        reduce::dot::<T, PlusTimes, E>(self.exec, x, x)
    }

    /// `x = x + α·y` — in-place `axpy`. Stays a direct method because the
    /// output aliases an input, which the two-operand `ewise` recorder
    /// cannot express under Rust's borrow rules.
    pub fn axpy<T: Scalar>(&self, x: &mut Vector<T>, alpha: T, y: &Vector<T>) -> Result<()> {
        ewise::axpy(self.exec, x, alpha, y)
    }

    /// Starts a deferred-execution [`PlanBuilder`] over borrowed operands:
    /// the same operation recorders *record* into an op graph instead of
    /// executing, and [`PlanBuilder::finish`] fuses compatible stages
    /// before running them once on this context's backend. See the
    /// [`crate::plan`] module docs.
    pub fn pipeline<'a, T: Scalar>(&self) -> PlanBuilder<'a, T, E> {
        PlanBuilder::new(self.exec, self.defaults)
    }

    /// Starts a compile-once [`PlanBuilder`]: operands are declared as
    /// dimensioned slots, the recorded op graph compiles into a reusable
    /// fused [`Plan`](crate::plan::Plan), and each replay binds fresh
    /// buffers/scalars — record once, run every iteration. See the
    /// [`crate::plan`] module docs.
    pub fn plan<T: Scalar>(&self) -> PlanBuilder<'static, T, E> {
        PlanBuilder::new(self.exec, self.defaults)
    }
}

/// Builder for `C = A ⊕.⊗ B` (see [`Ctx::mxm`]). Eager-only: `mxm` is a
/// setup-time primitive with no recorded form.
#[must_use = "builders do nothing until the terminal `.compute()`"]
pub struct MxmBuilder<'a, T: Scalar, R, E: Exec> {
    exec: E,
    a: &'a CsrMatrix<T>,
    b: &'a CsrMatrix<T>,
    desc: Descriptor,
    _algebra: PhantomData<R>,
}

impl<'a, T: Scalar, R, E: Exec> MxmBuilder<'a, T, R, E> {
    /// Toggles use of `Aᵀ` (materialized once; `mxm` is setup-time).
    pub fn transpose(mut self) -> Self {
        self.desc = self.desc.toggled_transpose();
        self
    }

    /// Switches the semiring (default: [`PlusTimes`]).
    pub fn ring<R2>(self, _ring: R2) -> MxmBuilder<'a, T, R2, E> {
        MxmBuilder {
            exec: self.exec,
            a: self.a,
            b: self.b,
            desc: self.desc,
            _algebra: PhantomData,
        }
    }
}

impl<T: Scalar, R: Semiring<T>, E: Exec> MxmBuilder<'_, T, R, E> {
    /// Executes, returning the product matrix.
    pub fn compute(self) -> Result<CsrMatrix<T>> {
        self.exec.run_mxm::<T, R>(self.a, self.b, self.desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Times;
    use crate::ops::semiring::MinPlus;

    fn a2() -> CsrMatrix<f64> {
        CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 3.0)]).unwrap()
    }

    #[test]
    fn backend_kind_parsing() {
        assert_eq!(BackendKind::parse("seq").unwrap(), BackendKind::Sequential);
        assert_eq!(
            BackendKind::parse("SEQUENTIAL").unwrap(),
            BackendKind::Sequential
        );
        assert_eq!(BackendKind::parse("par").unwrap(), BackendKind::Parallel);
        assert_eq!(
            BackendKind::parse(" Parallel ").unwrap(),
            BackendKind::Parallel
        );
        assert!(BackendKind::parse("gpu").is_err());
        assert!("par".parse::<BackendKind>().is_ok());
        assert!("tpu".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Sequential.to_string(), "seq");
    }

    #[test]
    fn dist_backend_parsing() {
        match BackendKind::parse("dist:3").unwrap() {
            BackendKind::Dist(d) => assert_eq!(d.nodes(), 3),
            other => panic!("expected dist, got {other}"),
        }
        // Default node count when the suffix is omitted.
        match BackendKind::parse("dist").unwrap() {
            BackendKind::Dist(d) => assert_eq!(d.nodes(), DEFAULT_DIST_NODES),
            other => panic!("expected dist, got {other}"),
        }
        // The long spelling and case folding work too.
        assert!(matches!(
            BackendKind::parse("Distributed:2").unwrap(),
            BackendKind::Dist(_)
        ));
        // Display carries the node count; flag stays the family name.
        let kind = BackendKind::parse("dist:7").unwrap();
        assert_eq!(kind.to_string(), "dist:7");
        assert_eq!(kind.flag(), "dist");
    }

    #[test]
    fn malformed_dist_spellings_name_the_problem() {
        let e = BackendKind::parse("dist:abc").unwrap_err().to_string();
        assert!(e.contains("abc") && e.contains("node count"), "got: {e}");
        let e = BackendKind::parse("dist:0").unwrap_err().to_string();
        assert!(e.contains("at least one node"), "got: {e}");
        let e = BackendKind::parse("dist:-2").unwrap_err().to_string();
        assert!(e.contains("-2"), "got: {e}");
        let e = BackendKind::parse("dist:").unwrap_err().to_string();
        assert!(e.contains("node count"), "got: {e}");
        let e = BackendKind::parse("dust:4").unwrap_err().to_string();
        assert!(e.contains("dist[:<nodes>]"), "got: {e}");
        // Non-integer, internal-whitespace, and overflowing counts all
        // name the offending token instead of silently defaulting.
        let e = BackendKind::parse("dist:3.5").unwrap_err().to_string();
        assert!(e.contains("3.5"), "got: {e}");
        let e = BackendKind::parse("dist: 4").unwrap_err().to_string();
        assert!(e.contains("node count"), "got: {e}");
        let e = BackendKind::parse("distributed:").unwrap_err().to_string();
        assert!(e.contains("node count"), "got: {e}");
        let e = BackendKind::parse("dist:99999999999999999999999")
            .unwrap_err()
            .to_string();
        assert!(e.contains("node count"), "got: {e}");
    }

    #[test]
    fn empty_and_whitespace_specs_are_rejected() {
        let e = BackendKind::parse("").unwrap_err().to_string();
        assert!(e.contains("unknown backend"), "got: {e}");
        let e = BackendKind::parse("   \t ").unwrap_err().to_string();
        assert!(e.contains("unknown backend"), "got: {e}");
        assert!("".parse::<BackendKind>().is_err());
        // A separator with no family name is not a dist spelling.
        assert!(BackendKind::parse(":4").is_err());
    }

    #[test]
    fn dyn_ctx_dispatches_to_dist() {
        let a = a2();
        let x = Vector::from_dense(vec![1.0, 2.0]);
        let mut y_seq = Vector::zeros(2);
        ctx::<Sequential>().mxv(&a, &x).into(&mut y_seq).unwrap();
        let kind = BackendKind::parse("dist:3").unwrap();
        let exec = DynCtx::runtime(kind);
        assert_eq!(exec.threads(), 3);
        assert_eq!(exec.backend_name(), "distributed(bsp)");
        let mut y = Vector::zeros(2);
        exec.mxv(&a, &x).into(&mut y).unwrap();
        assert_eq!(y.as_slice(), y_seq.as_slice());
        match kind {
            BackendKind::Dist(d) => assert!(d.total_h_bytes() > 0.0, "cost was recorded"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn static_and_dynamic_contexts_agree() {
        let a = a2();
        let x = Vector::from_dense(vec![1.0, 2.0]);
        let mut y_static = Vector::zeros(2);
        ctx::<Sequential>().mxv(&a, &x).into(&mut y_static).unwrap();
        for kind in [BackendKind::Sequential, BackendKind::Parallel] {
            let mut y_dyn = Vector::zeros(2);
            DynCtx::runtime(kind).mxv(&a, &x).into(&mut y_dyn).unwrap();
            assert_eq!(y_static.as_slice(), y_dyn.as_slice(), "backend {kind}");
        }
    }

    #[test]
    fn dyn_ctx_reports_backend() {
        let seq = DynCtx::runtime(BackendKind::Sequential);
        assert_eq!(seq.kind(), BackendKind::Sequential);
        assert_eq!(seq.threads(), 1);
        assert_eq!(seq.backend_name(), "sequential");
        let par = DynCtx::runtime(BackendKind::Parallel);
        assert!(par.threads() >= 1);
    }

    #[test]
    fn defaults_seed_every_builder() {
        let a = a2();
        let x = Vector::from_dense(vec![1.0, 1.0]);
        let mask = Vector::<bool>::from_entries(2, &[(0, false), (1, true)]).unwrap();
        // A context whose masks are structural by default: the stored-but-
        // false entry still selects.
        let exec = ctx::<Sequential>().with_defaults(Descriptor::STRUCTURAL);
        assert!(exec.defaults().is_structural());
        let mut y = Vector::from_dense(vec![-1.0, -1.0]);
        exec.mxv(&a, &x).mask(&mask).into(&mut y).unwrap();
        assert_eq!(
            y.as_slice(),
            &[3.0, 3.0],
            "structural default selects both rows"
        );
    }

    #[test]
    fn fluent_chain_composes_every_axis() {
        // The ISSUE's canonical chain: mask + structural + transpose + accum.
        let a = a2();
        let x = Vector::from_dense(vec![1.0, 2.0]);
        let m = Vector::<bool>::sparse_filled(2, vec![1], true).unwrap();
        let mut y = Vector::from_dense(vec![5.0, 5.0]);
        ctx::<Sequential>()
            .mxv(&a, &x)
            .mask(&m)
            .structural()
            .transpose()
            .accum(Plus)
            .into(&mut y)
            .unwrap();
        // (Aᵀx)[1] = 1·1 + 3·2 = 7, accumulated onto 5; index 0 untouched.
        assert_eq!(y.as_slice(), &[5.0, 12.0]);
    }

    #[test]
    fn ring_rebinding_composes_with_dyn() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 2.0)]).unwrap();
        let x = Vector::from_dense(vec![0.0, 10.0]);
        let mut y = Vector::zeros(2);
        DynCtx::runtime(BackendKind::Parallel)
            .mxv(&a, &x)
            .ring(MinPlus)
            .into(&mut y)
            .unwrap();
        assert_eq!(y.as_slice(), &[11.0, 2.0]);
    }

    #[test]
    fn mxm_builder_transposes() {
        let a = a2();
        let exec = ctx::<Sequential>();
        let direct = exec.mxm(&a, &a).compute().unwrap();
        assert_eq!(direct.get(0, 1), Some(5.0), "(A²)[0,1] = 2·1 + 1·3");
        let at_a = exec.mxm(&a, &a).transpose().compute().unwrap();
        let manual = exec.mxm(&a.transpose(), &a).compute().unwrap();
        assert_eq!(at_a, manual);
    }

    #[test]
    fn ewise_times_and_dot_builders() {
        let exec = ctx::<Sequential>();
        let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
        let y = Vector::from_dense(vec![4.0, 5.0, 6.0]);
        let mut w = Vector::zeros(3);
        exec.ewise(&x, &y).op(Times).into(&mut w).unwrap();
        assert_eq!(w.as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(exec.dot(&x, &y).compute().unwrap(), 32.0);
        assert_eq!(exec.dot(&x, &y).ring(MinPlus).compute().unwrap(), 5.0);
    }

    /// Serializes the tests that read or mutate `GRB_BACKEND` — tests in
    /// one binary share the process environment.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn env_fallback_used_when_var_absent() {
        let _guard = ENV_LOCK.lock().unwrap();
        // GRB_BACKEND is not set in the test environment.
        if std::env::var("GRB_BACKEND").is_err() {
            let exec = DynCtx::from_env_or(BackendKind::Parallel).unwrap();
            assert_eq!(exec.kind(), BackendKind::Parallel);
            assert_eq!(BackendKind::from_env().unwrap(), None);
        }
    }

    #[test]
    fn invalid_env_value_is_an_error_not_a_fallback() {
        let _guard = ENV_LOCK.lock().unwrap();
        let previous = std::env::var("GRB_BACKEND").ok();
        std::env::set_var("GRB_BACKEND", "gpu");
        let err = DynCtx::from_env_or(BackendKind::Sequential);
        match previous {
            Some(v) => std::env::set_var("GRB_BACKEND", v),
            None => std::env::remove_var("GRB_BACKEND"),
        }
        let err = err.expect_err("invalid GRB_BACKEND must not silently fall back");
        assert!(err.to_string().contains("GRB_BACKEND"), "got: {err}");
        assert!(err.to_string().contains("gpu"), "got: {err}");
    }

    /// Runs `f` with `GRB_BACKEND` set to `value`, restoring the previous
    /// state afterwards (under [`ENV_LOCK`], which the caller must hold).
    fn with_env_backend<R>(value: &str, f: impl FnOnce() -> R) -> R {
        let previous = std::env::var("GRB_BACKEND").ok();
        std::env::set_var("GRB_BACKEND", value);
        let out = f();
        match previous {
            Some(v) => std::env::set_var("GRB_BACKEND", v),
            None => std::env::remove_var("GRB_BACKEND"),
        }
        out
    }

    #[test]
    fn malformed_dist_env_values_error_with_the_value() {
        let _guard = ENV_LOCK.lock().unwrap();
        for bad in ["dist:zero", "dist:0", "dist:-1", "dist:"] {
            let err = with_env_backend(bad, || DynCtx::from_env_or(BackendKind::Sequential))
                .expect_err("malformed dist count in GRB_BACKEND must error");
            let msg = err.to_string();
            assert!(msg.contains("GRB_BACKEND"), "{bad}: got {msg}");
            assert!(msg.contains(bad), "{bad}: got {msg}");
        }
    }

    #[test]
    fn empty_env_value_is_an_error_not_unset() {
        // `GRB_BACKEND=` (set but empty) is a malformed request, not the
        // absence of one: the default must NOT kick in silently.
        let _guard = ENV_LOCK.lock().unwrap();
        let err = with_env_backend("", || DynCtx::from_env_or(BackendKind::Parallel))
            .expect_err("empty GRB_BACKEND must error");
        assert!(err.to_string().contains("GRB_BACKEND"), "got: {err}");
        let err = with_env_backend("", BackendKind::from_env)
            .expect_err("from_env agrees with from_env_or");
        assert!(err.to_string().contains("invalid"), "got: {err}");
    }

    #[test]
    fn valid_env_value_overrides_the_default() {
        let _guard = ENV_LOCK.lock().unwrap();
        let exec = with_env_backend("seq", || DynCtx::from_env_or(BackendKind::Parallel))
            .expect("valid GRB_BACKEND parses");
        assert_eq!(exec.kind(), BackendKind::Sequential);
        // Whitespace is tolerated in a *valid* spelling.
        let exec = with_env_backend("  PAR  ", || DynCtx::from_env_or(BackendKind::Sequential))
            .expect("padded GRB_BACKEND parses");
        assert_eq!(exec.kind(), BackendKind::Parallel);
    }
}
