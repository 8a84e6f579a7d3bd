//! Sharded superstep execution: the kernels, actually run on `p` workers.
//!
//! Every operation is one superstep on the workspace's persistent worker
//! pool (`rayon::pool`, the runtime `Parallel` runs on too): node 0's part
//! on the calling thread, node `k`'s on pool worker `k`. Each part walks
//! only the blocks its node owns under the cluster's [`ShardLayout`] —
//! applying the mask test itself — and the bytes a superstep's h-relation
//! describes genuinely move through a [`bsp::Exchange`] mailbox fabric
//! in **split-phase** form: post the shard, compute the
//! interior rows while peers' shards are in flight, complete the exchange
//! only for the boundary tail (paper §VII's nonblocking proposal).
//!
//! There are five sharded kernels: three row sweeps (`mxv_sharded`,
//! `mxv_sparse_sharded`, `spmv_dot_sharded`) and two element streams
//! (`lambda_sharded` writes, `fold_sharded` folds). Every element-wise op
//! is one call of a stream, so a recorded chain of them is one superstep
//! per op, billed op by op.
//!
//! # What a row sweep derives once
//!
//! Which rows are interior and which input slots the boundary rows read
//! depend on (matrix pattern, node count, layout) only, so a sweep does
//! not work them out: it asks the matrix for its
//! [`ShardPlan`](super::plan::ShardPlan), built by one pass over the
//! pattern on the first sweep and cached on the matrix itself (the
//! pattern is immutable, the plan dies with the matrix, nothing is keyed
//! by address). With the plan a node
//!
//! 1. posts its shard to the mailboxes straight from `x` — the one
//!    `n/p` copy of a sweep, and the wire: still every node's whole shard
//!    to every peer, the paper's Table I allgather, which is what
//!    `cost.rs` records;
//! 2. sweeps its interior rows reading its own slots of `x` in place;
//! 3. copies into its `assembled` buffer only the slots its boundary rows
//!    read — its own before completing the exchange, each peer's out of
//!    that peer's chunk after;
//! 4. sweeps the boundary rows from `assembled`.
//!
//! `assembled` is therefore *not* a copy of `x`: slots off the plan's
//! lists hold whatever an earlier sweep left, and no row reads them.
//!
//! The steady state allocates nothing that grows with the vectors: the
//! boundary rows' input, the boundary list, the sparse-frontier shard,
//! the reduction scratch and the mailboxes live in [`Arena`]s, sized by
//! the first operation and reused by every later one (plans are per
//! matrix and built once). Arenas belong to the runtime,
//! one per element type and node count, not to a cluster: the pool runs
//! one superstep at a time process-wide, so clusters of one shape can
//! share buffers, and the registry (which never drops a cluster) does not
//! pin a set of n-length buffers per cluster ever made.
//!
//! # Bit-identity with `Sequential`
//!
//! The workspace invariant is zero-tolerance: every backend must produce
//! results bit-identical to [`Sequential`]. Sharding threatens that in
//! exactly one place — combine order of floating-point reductions — so
//! every kernel here is built from one of two provably-safe shapes:
//!
//! * **Disjoint writes** (`mxv`, and `lambda_sharded` — every element-wise
//!   write): each owned output slot is computed by exactly one worker with
//!   the same per-element expression as the sequential kernel, reading
//!   input values that are the global ones or bitwise copies of them (the
//!   allgather moves the exact bytes). Order across slots is irrelevant.
//! * **Scratch + owner-order fold** (`fold_sharded` — every element-wise
//!   fold — and `fused_sweep`, the `spmv`+`dot` epilogue): workers fill a
//!   shared per-element scratch array at their owned indices, then one
//!   ascending fold — the *same* `Sequential::fold` /
//!   `fold_selected::<Sequential>` the sequential backend runs — combines
//!   them. The combine is deterministic owner order by construction:
//!   ascending global index order, which block layouts enumerate node by
//!   node.
//!
//! The sparse-frontier push kernel reassembles the *full* frontier on
//! every node (sorted ascending, the kernel's `iter_stored` order) before
//! scattering, so each scratch slot sees its contributions in exactly the
//! sequence the global walk produces.
//!
//! # Measured overlap
//!
//! Each worker stamps its superstep entry, posts, computes its interior
//! phase, then completes. The envelope stamps tell it how long the
//! exchange was in flight; the hidden time is
//! `min(local work before complete, in-flight window)` and the step's
//! overlap win is the maximum over nodes — directly measured, attributed
//! onto the modeled trace via [`bsp::cost::CostTracker`] overlap
//! attribution, and 0 by construction on one node (no peers).
//!
//! Transposed `mxv` and `mxm` keep the global sequential kernels (their
//! exchange structure differs; the recorder still models them), reporting
//! zero overlap.

use super::layout::ShardLayout;
use crate::backend::Backend;
use crate::container::matrix::{CsrMatrix, GraphMatrix};
use crate::container::vector::{SparseVector, Vector};
use crate::descriptor::Descriptor;
use crate::error::{check_dims, Result};
use crate::exec::fold_selected;
use crate::exec::mxv::mxv_exec;
use crate::exec::sparse::{FrontierMode, PUSH_PULL_THRESHOLD};
use crate::ops::accum::{AccumMode, AccumWith};
use crate::ops::monoid::Monoid;
use crate::ops::scalar::Scalar;
use crate::ops::semiring::Semiring;
use crate::util::UnsafeSlice;
use crate::Sequential;
use bsp::dist::Distribution;
use bsp::{BlockCyclic1D, Exchange};
use std::any::{Any, TypeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The shape of a cluster, fixed at construction. Shared by `Arc`: an
/// operation takes its handle under the state lock and computes outside
/// it (the recorder takes the lock afterwards).
#[derive(Debug)]
pub(crate) struct ShardShape {
    /// Worker (node) count `p`.
    pub nodes: usize,
    /// Row/element sharding over the 1D node grid.
    pub layout: ShardLayout,
    /// Stable obs thread ids, one per node, labeled `node k/p`; a part
    /// records under its node's id for the length of the superstep, so the
    /// Chrome trace shows one named per-node track across operations.
    tids: Vec<u64>,
}

impl ShardShape {
    pub fn new(nodes: usize, layout: ShardLayout) -> ShardShape {
        let tids = (0..nodes)
            .map(|w| {
                let tid = obs::alloc_tid();
                obs::set_thread_label(tid, format!("node {}/{}", w + 1, nodes));
                tid
            })
            .collect();
        ShardShape {
            nodes,
            layout,
            tids,
        }
    }

    fn dist(&self, n: usize) -> BlockCyclic1D {
        self.layout.dist_for(n, self.nodes)
    }

    /// The arena for element type `T` on this many nodes, made on first
    /// use and then shared by every cluster of the shape.
    fn arena<T: Send + 'static>(&self) -> Arc<Arena<T>> {
        static ARENAS: Mutex<Vec<Arc<dyn Any + Send + Sync>>> = Mutex::new(Vec::new());
        let mut arenas = relock(&ARENAS);
        let fitting = arenas
            .iter()
            .filter_map(|a| a.clone().downcast::<Arena<T>>().ok())
            .find(|a| a.nodes.len() == self.nodes);
        fitting.unwrap_or_else(|| {
            let made = Arc::new(Arena::<T>::new(self.nodes));
            arenas.push(made.clone());
            made
        })
    }
}

/// Locks an arena mutex, poisoned or not: a kernel that panicked leaves
/// buffers whose contents the next operation overwrites before reading.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The reusable buffers of one element type and node count. Buffers only
/// ever grow; an operation on a shorter vector (a coarser multigrid
/// level) uses a prefix. Every use of `exchange` and `nodes` happens
/// inside a pool region, of which there is one at a time.
struct Arena<T> {
    exchange: Exchange<T>,
    /// Locked by node `w`'s part for the length of a superstep.
    nodes: Vec<Mutex<NodeArena<T>>>,
    /// The per-element scratch reductions fold over, shared by all nodes
    /// (each writes its owned slots); locked for the whole operation.
    scratch: Mutex<Vec<T>>,
}

struct NodeArena<T> {
    /// The stored frontier entries this node posts (sparse push only: a
    /// row sweep posts its shard straight from the input).
    shard: Vec<T>,
    /// Row sweeps: the input at the slots the node's boundary rows read,
    /// stale everywhere else. Sparse push: the reassembled frontier.
    assembled: Vec<T>,
    /// Owned rows that read remote columns, swept after the exchange.
    boundary: Vec<usize>,
}

impl<T: Send> Arena<T> {
    fn new(nodes: usize) -> Arena<T> {
        Arena {
            exchange: Exchange::new(nodes),
            nodes: (0..nodes)
                .map(|_| {
                    Mutex::new(NodeArena {
                        shard: Vec::new(),
                        assembled: Vec::new(),
                        boundary: Vec::new(),
                    })
                })
                .collect(),
            scratch: Mutex::new(Vec::new()),
        }
    }

    fn node(&self, w: usize) -> MutexGuard<'_, NodeArena<T>> {
        relock(&self.nodes[w])
    }

    /// The scratch, at least `n` long (new slots hold `fill`).
    fn scratch(&self, n: usize, fill: T) -> MutexGuard<'_, Vec<T>>
    where
        T: Clone,
    {
        let mut scratch = relock(&self.scratch);
        if scratch.len() < n {
            scratch.resize(n, fill);
        }
        scratch
    }
}

/// Runs `f(node)` for every node as one region of the worker pool and
/// returns the largest per-node hidden-exchange time. One node runs
/// inline: there are no peers, so nothing can be in flight and nothing
/// can hide.
fn run_superstep<F>(shape: &ShardShape, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    if shape.nodes == 1 {
        return f(0);
    }
    // Hidden times are non-negative, so their bit patterns order as they do.
    let hidden = AtomicU64::new(0);
    rayon::pool::run(shape.nodes, |w| {
        let secs = obs::with_tid(shape.tids[w], || f(w));
        hidden.fetch_max(secs.to_bits(), Ordering::Relaxed);
    });
    f64::from_bits(hidden.into_inner())
}

/// Exchange time hidden behind local work at one node: the in-flight
/// window (superstep entry to the last peer's post) clipped to the local
/// work done before completing. `None` arrival (no peers) hides nothing.
fn hidden_window(t_post: Instant, t_complete: Instant, last_arrival: Option<Instant>) -> f64 {
    let Some(arrival) = last_arrival else {
        return 0.0;
    };
    let local = t_complete.saturating_duration_since(t_post).as_secs_f64();
    let inflight = arrival.saturating_duration_since(t_post).as_secs_f64();
    local.min(inflight)
}

/// Replicates the kernels' mask-length check up front so sharded paths
/// fail with exactly the error the sequential kernel returns.
fn check_mask(n: usize, mask: Option<&Vector<bool>>) -> Result<()> {
    match mask {
        Some(m) => check_dims("mask", "mask length", n, m.len()),
        None => Ok(()),
    }
}

/// Calls `f(i)`, ascending, for every index `node` owns under `dist` that
/// `mask`/`desc` select — `for_each_selected`'s visit set restricted to one
/// node, found by walking only that node's blocks.
pub(super) fn for_owned_selected<F: FnMut(usize)>(
    dist: &BlockCyclic1D,
    node: usize,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    mut f: F,
) {
    let Some(m) = mask else {
        dist.owned_ranges(node).flatten().for_each(f);
        return;
    };
    let inverted = desc.is_mask_inverted();
    match (m.pattern(), desc.is_structural()) {
        (Some(idx), true) => {
            for range in dist.owned_ranges(node) {
                let from = idx.partition_point(|&j| (j as usize) < range.start);
                if inverted {
                    let mut stored = idx[from..].iter().peekable();
                    for i in range {
                        if stored.next_if(|&&j| j as usize == i).is_none() {
                            f(i);
                        }
                    }
                } else {
                    idx[from..]
                        .iter()
                        .map(|&j| j as usize)
                        .take_while(|&j| j < range.end)
                        .for_each(&mut f);
                }
            }
        }
        (None, true) if inverted => { /* complement of a dense structural mask is empty */ }
        (None, true) => dist.owned_ranges(node).flatten().for_each(f),
        (_, false) => {
            let vals = m.as_slice();
            dist.owned_ranges(node)
                .flatten()
                .filter(|&i| vals[i] != inverted)
                .for_each(f);
        }
    }
}

/// The split-phase sharded row sweep shared by `mxv` and `spmv_dot`.
///
/// Each worker posts its `x` shard straight from `xs`, sweeps every owned
/// selected row the matrix's [`ShardPlan`](super::plan::ShardPlan) flags
/// interior — reading the node's own slots of `xs` in place — while peer
/// shards are in flight, then completes the allgather and sweeps the
/// boundary tail from `assembled`, into which it has copied exactly the
/// slots the plan lists. `sink(i, acc)` stores row `i`'s accumulator (the
/// only per-kernel difference) and must touch nothing but row `i`'s
/// slots. Returns the measured hidden-exchange time.
fn sharded_row_sweep<T, R, G>(
    a: &CsrMatrix<T>,
    xs: &[T],
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    shape: &ShardShape,
    sink: G,
) -> f64
where
    T: Scalar,
    R: Semiring<T>,
    G: Fn(usize, T) + Sync,
{
    let x_dist = shape.dist(xs.len());
    let row_dist = shape.dist(a.nrows());
    let plan = a.shard_plan(shape.nodes, shape.layout);
    let arena = shape.arena::<T>();
    run_superstep(shape, |w| {
        let compute_row = |i: usize, src: &[T]| {
            let (cols, vals) = a.row(i);
            let mut acc = R::zero();
            for (&c, &v) in cols.iter().zip(vals) {
                acc = R::add(acc, R::mul(v, src[c as usize]));
            }
            sink(i, acc);
        };
        let gather = &plan.gathers[w];
        let mut buffers = arena.node(w);
        let NodeArena {
            assembled,
            boundary,
            ..
        } = &mut *buffers;
        // Post phase: ship this node's x shard to every peer, copied into
        // the mailboxes from where it lies in `xs`.
        let t_post = Instant::now();
        arena
            .exchange
            .post_allgather_pieces(w, || x_dist.owned_ranges(w).map(|range| &xs[range]));
        // Interior phase, overlapping the in-flight exchange: interior
        // rows read only this node's slots of `xs`; boundary rows wait
        // for the peers.
        boundary.clear();
        for_owned_selected(&row_dist, w, mask, desc, |i| {
            if plan.interior[i] {
                compute_row(i, xs);
            } else {
                boundary.push(i);
            }
        });
        // `assembled` is written at the plan's slots only — the union of
        // the columns this node's boundary rows store — so whatever an
        // earlier sweep (of any matrix) left elsewhere is never read.
        if assembled.len() < xs.len() {
            assembled.resize(xs.len(), R::zero());
        }
        for &c in &gather.own {
            assembled[c as usize] = xs[c as usize];
        }
        let t_complete = Instant::now();
        // Complete phase: drain the mailboxes, then the boundary tail.
        let last_arrival = arena.exchange.complete_allgather_with(w, |peer, chunk| {
            for &(c, offset) in &gather.from_peer[peer] {
                assembled[c as usize] = chunk[offset as usize];
            }
        });
        let t_boundary = Instant::now();
        for &i in boundary.iter() {
            compute_row(i, assembled);
        }
        if obs::enabled() {
            obs::record_span("shard.interior", "shard", t_post, t_complete);
            obs::record_span("shard.exchange", "shard", t_complete, t_boundary);
            obs::record_span("shard.boundary", "shard", t_boundary, Instant::now());
        }
        hidden_window(t_post, t_complete, last_arrival)
    })
}

/// Sharded `y⟨mask⟩ = y ⊙? (A ⊕.⊗ x)`. Returns the hidden-exchange time.
pub(crate) fn mxv_sharded<T, R, A>(
    y: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    a: &CsrMatrix<T>,
    x: &Vector<T>,
    shape: &ShardShape,
) -> Result<f64>
where
    T: Scalar,
    R: Semiring<T>,
    A: AccumMode<T>,
{
    if desc.is_transposed() {
        mxv_exec::<T, R, A, Sequential>(y, mask, desc, a, x)?;
        return Ok(0.0);
    }
    check_dims("mxv", "x vs ncols", a.ncols(), x.len())?;
    check_dims("mxv", "y vs nrows", a.nrows(), y.len())?;
    check_mask(a.nrows(), mask)?;
    let out = UnsafeSlice::new(y.as_mut_slice());
    // SAFETY: the nodes' owned rows are disjoint, so each output slot is
    // written by exactly one worker exactly once.
    let hidden =
        sharded_row_sweep::<T, R, _>(a, x.as_slice(), mask, desc, shape, |i, acc| unsafe {
            A::store(out.get_mut(i), acc)
        });
    Ok(hidden)
}

/// Sharded direction-optimizing sparse-frontier product. Returns the mode
/// the kernel chose plus the hidden-exchange time.
pub(crate) fn mxv_sparse_sharded<T, R, A>(
    y: &mut Vector<T>,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    m: &GraphMatrix<T>,
    x: &SparseVector<T>,
    shape: &ShardShape,
) -> Result<(FrontierMode, f64)>
where
    T: Scalar,
    R: Semiring<T>,
    A: AccumMode<T>,
{
    if desc.is_transposed() {
        check_dims("mxv_sparse^T", "x vs nrows", m.nrows(), x.len())?;
        check_dims("mxv_sparse^T", "y vs ncols", m.ncols(), y.len())?;
    } else {
        check_dims("mxv_sparse", "x vs ncols", m.ncols(), x.len())?;
        check_dims("mxv_sparse", "y vs nrows", m.nrows(), y.len())?;
    }

    // The kernel's direction heuristic, replicated decision-for-decision
    // (see `mxv_sparse_exec`) so dist picks the mode Sequential picks.
    let transposed_fused_accum = desc.is_transposed()
        && mask.is_none()
        && TypeId::of::<A>() == TypeId::of::<AccumWith<R::Add>>();
    let push_legal = R::ANNIHILATING_ZERO
        && !x.is_promoted()
        && x.fill() == R::zero()
        && !transposed_fused_accum;
    if !push_legal || x.density() > PUSH_PULL_THRESHOLD {
        let hidden = mxv_sharded::<T, R, A>(y, mask, desc, m.csr(), &x.to_dense(), shape)?;
        return Ok((FrontierMode::Pull, hidden));
    }

    // Push: a real sparse frontier exchange. Each node posts its owned
    // stored entries; every node reassembles the full frontier sorted
    // ascending — the kernel's `iter_stored` order — and scatters it into
    // the scratch slots its node owns, so each slot accumulates its
    // contributions in exactly the global walk's sequence.
    let col_major = if desc.is_transposed() {
        m.csr()
    } else {
        m.csc()
    };
    let out_len = y.len();
    check_mask(out_len, mask)?;
    let out_dist = shape.dist(out_len);
    let x_dist = shape.dist(x.len());
    let frontiers = shape.arena::<(u32, T)>();
    let arena = shape.arena::<T>();
    let mut scratch = arena.scratch(out_len, R::zero());
    let sc = UnsafeSlice::new(&mut scratch[..out_len]);
    let out = UnsafeSlice::new(y.as_mut_slice());
    let hidden = run_superstep(shape, |w| {
        let mut buffers = frontiers.node(w);
        let NodeArena {
            shard,
            assembled: frontier,
            ..
        } = &mut *buffers;
        let t_post = Instant::now();
        shard.clear();
        shard.extend(
            x.iter_stored()
                .filter(|&(j, _)| x_dist.owner(j) == w)
                .map(|(j, v)| (j as u32, v)),
        );
        frontiers.exchange.post_allgather(w, shard);
        frontier.clear();
        frontier.extend_from_slice(shard);
        for i in out_dist.owned_ranges(w).flatten() {
            // SAFETY: each scratch slot belongs to exactly one worker via
            // `out_dist`.
            unsafe { sc.write(i, R::zero()) };
        }
        let t_complete = Instant::now();
        let last_arrival = frontiers
            .exchange
            .complete_allgather_with(w, |_, chunk| frontier.extend_from_slice(chunk));
        // Frontier indices are unique, so the sort fully determines
        // the walk order.
        frontier.sort_unstable_by_key(|&(j, _)| j);
        for &(j, xv) in frontier.iter() {
            let (rows, vals) = col_major.row(j as usize);
            for (&i, &av) in rows.iter().zip(vals) {
                let i = i as usize;
                if out_dist.owner(i) == w {
                    // SAFETY: each scratch slot belongs to exactly one
                    // worker via `out_dist`.
                    unsafe {
                        let slot = sc.get_mut(i);
                        *slot = R::add(*slot, R::mul(av, xv));
                    }
                }
            }
        }
        for_owned_selected(&out_dist, w, mask, desc, |i| {
            // SAFETY: selected owned indices are unique per worker and
            // this worker finished all writes to its scratch slots.
            unsafe { A::store(out.get_mut(i), *sc.get_mut(i)) };
        });
        hidden_window(t_post, t_complete, last_arrival)
    });
    Ok((FrontierMode::Push, hidden))
}

/// Sharded fused `y = A ⊕.⊗ x` with a dot epilogue. Returns the dot value
/// and the hidden-exchange time.
pub(crate) fn spmv_dot_sharded<T, R>(
    y: &mut Vector<T>,
    a: &CsrMatrix<T>,
    x: &Vector<T>,
    w: Option<&Vector<T>>,
    product_on_left: bool,
    shape: &ShardShape,
) -> Result<(T, f64)>
where
    T: Scalar,
    R: Semiring<T>,
{
    check_dims("spmv_dot", "x vs ncols", a.ncols(), x.len())?;
    check_dims("spmv_dot", "y vs nrows", a.nrows(), y.len())?;
    if let Some(w) = w {
        check_dims("spmv_dot", "w vs nrows", a.nrows(), w.len())?;
    }
    // Same epilogue monomorphization as the fused kernel.
    Ok(match (w.map(|v| v.as_slice()), product_on_left) {
        (Some(ws), true) => fused_sweep::<T, R, _>(y, a, x, shape, |i, acc| R::mul(acc, ws[i])),
        (Some(ws), false) => fused_sweep::<T, R, _>(y, a, x, shape, |i, acc| R::mul(ws[i], acc)),
        (None, _) => fused_sweep::<T, R, _>(y, a, x, shape, |_, acc| R::mul(acc, acc)),
    })
}

/// The shared sharded sweep of [`spmv_dot_sharded`]: workers store each
/// row's accumulator into `y` and its epilogue value into a scratch
/// array; the ascending `Sequential::fold` over the scratch then combines
/// exactly as the eager `dot` kernel would.
fn fused_sweep<T, R, F>(
    y: &mut Vector<T>,
    a: &CsrMatrix<T>,
    x: &Vector<T>,
    shape: &ShardShape,
    epilogue: F,
) -> (T, f64)
where
    T: Scalar,
    R: Semiring<T>,
    F: Fn(usize, T) -> T + Sync,
{
    let n = a.nrows();
    let arena = shape.arena::<T>();
    let mut scratch = arena.scratch(n, R::zero());
    let hidden = {
        let out = UnsafeSlice::new(y.as_mut_slice());
        let sc = UnsafeSlice::new(&mut scratch[..n]);
        // SAFETY: the nodes' owned rows are disjoint, so each y and
        // scratch slot is written by exactly one worker exactly once.
        let sink = |i, acc| unsafe {
            *out.get_mut(i) = acc;
            *sc.get_mut(i) = epilogue(i, acc);
        };
        sharded_row_sweep::<T, R, _>(a, x.as_slice(), None, Descriptor::DEFAULT, shape, sink)
    };
    (Sequential::fold::<T, R::Add, _>(n, |i| scratch[i]), hidden)
}

/// Sharded masked fold of `map(i)` over monoid `M`: `map` runs once per
/// selected index, on its owner, into the scratch the sequential fold then
/// combines.
pub(crate) fn fold_sharded<T, M, F>(
    n: usize,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    map: F,
    shape: &ShardShape,
) -> Result<T>
where
    T: Scalar,
    M: Monoid<T>,
    F: Fn(usize) -> T + Sync,
{
    // Unselected slots are never read: `fold_selected` maps selected
    // indices only (unselected contribute `M::identity()` directly).
    let arena = shape.arena::<T>();
    let mut scratch = arena.scratch(n, M::identity());
    lambda_sharded(&mut scratch[..n], mask, desc, |i, s| *s = map(i), shape)?;
    // The exact fold structure of the sequential kernel, including its
    // identity handling on unselected indices.
    fold_selected::<Sequential, T, M, _>(n, mask, desc, |i| scratch[i])
}

/// Sharded in-place lambda over the selected indices of `out`.
pub(crate) fn lambda_sharded<T, F>(
    out: &mut [T],
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    f: F,
    shape: &ShardShape,
) -> Result<()>
where
    T: Scalar,
    F: Fn(usize, &mut T) + Sync,
{
    let n = out.len();
    check_mask(n, mask)?;
    let dist = shape.dist(n);
    let slots = UnsafeSlice::new(out);
    run_superstep(shape, |w| {
        for_owned_selected(&dist, w, mask, desc, |i| {
            // SAFETY: owned indices are disjoint across workers.
            f(i, unsafe { slots.get_mut(i) });
        });
        0.0
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::dist::cost;
    use crate::backend::dist::plan::tests::{irregular, stencil27};
    use crate::exec::fused::spmv_dot_exec;
    use crate::ops::accum::NoAccum;
    use crate::ops::semiring::PlusTimes;

    /// A sweep writes `assembled` at the plan's slots only, so everything
    /// else in it is stale — from an earlier input, another matrix, or
    /// here NaN. None of it may reach a result: `mxv`, the masked
    /// structural `mxv` and `spmv_dot` stay bitwise `Sequential`'s.
    /// (The mailboxes' standing buffers are private to `bsp::Exchange`
    /// and rewritten whole by every post.)
    #[test]
    fn stale_assembled_slots_never_reach_a_result() {
        let bits = |v: &Vector<f64>| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let poison = |shape: &ShardShape, n: usize| {
            let arena = shape.arena::<f64>();
            for w in 0..shape.nodes {
                let assembled = &mut arena.node(w).assembled;
                assembled.clear();
                assembled.resize(n, f64::NAN);
            }
        };
        for a in [stencil27(5, 4, 6), irregular(257, 257)] {
            let n = a.nrows();
            let inputs = [0.37, -1.9].map(|scale| {
                Vector::from_dense((0..n).map(|i| scale * (1 + i % 11) as f64).collect())
            });
            let every_third = (0..n as u32).step_by(3).collect();
            let mask = Vector::<bool>::sparse_filled(n, every_third, true).unwrap();
            let masked = Some((&mask, Descriptor::STRUCTURAL));
            let layouts = [ShardLayout::Block, ShardLayout::BlockCyclic { block: 3 }];
            for layout in layouts {
                for p in [2usize, 3, 7] {
                    let shape = ShardShape::new(p, layout);
                    for x in &inputs {
                        for selection in [None, masked] {
                            let (m, desc) = selection.unzip();
                            let desc = desc.unwrap_or(Descriptor::DEFAULT);
                            let mut want = Vector::filled(n, -7.0);
                            mxv_exec::<f64, PlusTimes, NoAccum, Sequential>(
                                &mut want, m, desc, &a, x,
                            )
                            .unwrap();
                            let mut got = Vector::filled(n, -7.0);
                            poison(&shape, n);
                            mxv_sharded::<f64, PlusTimes, NoAccum>(
                                &mut got, m, desc, &a, x, &shape,
                            )
                            .unwrap();
                            assert_eq!(bits(&got), bits(&want), "{layout:?} p={p} mask={m:?}");
                        }
                        let mut want = Vector::zeros(n);
                        let want_dot = spmv_dot_exec::<f64, PlusTimes, Sequential>(
                            &mut want,
                            &a,
                            x,
                            Some(x),
                            false,
                        )
                        .unwrap();
                        let mut got = Vector::zeros(n);
                        poison(&shape, n);
                        let (got_dot, _) = spmv_dot_sharded::<f64, PlusTimes>(
                            &mut got,
                            &a,
                            x,
                            Some(x),
                            false,
                            &shape,
                        )
                        .unwrap();
                        assert_eq!(bits(&got), bits(&want), "{layout:?} p={p} spmv_dot");
                        assert_eq!(got_dot.to_bits(), want_dot.to_bits(), "{layout:?} p={p}");
                    }
                }
            }
        }
    }

    /// The per-node walk must visit exactly what the serial selection
    /// (`cost::for_selected`, itself pinned to the kernels') visits, split
    /// by owner, in ascending order.
    #[test]
    fn owned_selection_is_the_serial_selection_split_by_owner() {
        let n = 23;
        let sparse = Vector::<bool>::sparse_filled(n, vec![0, 3, 4, 11, 12, 22], true).unwrap();
        let valued =
            Vector::<bool>::from_entries(n, &[(0, false), (5, true), (12, true), (13, false)])
                .unwrap();
        let dense = Vector::<bool>::filled(n, true);
        let descs = [
            Descriptor::DEFAULT,
            Descriptor::STRUCTURAL,
            Descriptor::INVERT_MASK,
            Descriptor::STRUCTURAL.with(Descriptor::INVERT_MASK),
        ];
        let layouts = [ShardLayout::Block, ShardLayout::BlockCyclic { block: 3 }];
        for layout in layouts {
            for p in [1usize, 2, 3, 7] {
                let dist = layout.dist_for(n, p);
                for mask in [None, Some(&sparse), Some(&valued), Some(&dense)] {
                    for desc in descs {
                        let mut expect = vec![Vec::new(); p];
                        cost::for_selected(n, mask, desc, |i| expect[dist.owner(i)].push(i));
                        for (node, want) in expect.iter().enumerate() {
                            let mut got = Vec::new();
                            for_owned_selected(&dist, node, mask, desc, |i| got.push(i));
                            assert_eq!(
                                &got,
                                want,
                                "{layout:?} p={p} node={node} desc={desc:?} mask={:?}",
                                mask.map(|m| m.nnz())
                            );
                        }
                    }
                }
            }
        }
    }
}
