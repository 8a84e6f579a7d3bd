//! Shard plans: what a sharded row sweep needs to know about a matrix
//! under a layout, derived once instead of on every call.
//!
//! Which owned rows read only columns their node owns, and which input
//! slots the other rows read (and from whom), are properties of
//! (matrix pattern, node count, [`ShardLayout`]) — not of the vectors a
//! sweep runs on. A [`ShardPlan`] records them in one pass over the
//! pattern:
//!
//! * one **interior flag per row** (`interior[i]`: every column row `i`
//!   stores belongs to the node that owns row `i`), so a sweep tests a
//!   byte per row where it used to compute an owner per stored entry;
//! * per node a **gather list**: the sorted own columns its boundary rows
//!   read, and per peer the `(global column, offset in that peer's posted
//!   chunk)` pairs they read — the only slots a node copies into the
//!   buffer its boundary rows sweep from.
//!
//! A plan is cached **on the matrix it describes** (a [`ShardPlanCache`]
//! field of [`CsrMatrix`]): the pattern is immutable after construction,
//! so a plan can never go stale, and it is freed with the matrix (with
//! the last of its clones, which share the cache). Nothing
//! process-global is keyed by matrix address — a freed matrix's address
//! can be handed to the next one. The plan changes what a node *copies
//! and tests*, never what moves: the exchange is still the paper's
//! Table I allgather of whole shards.

use super::layout::ShardLayout;
use crate::container::matrix::CsrMatrix;
use crate::ops::scalar::Scalar;
use bsp::dist::Distribution;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// The pattern-derived facts of one matrix on one `(nodes, layout)`.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    /// Per row: every stored column is owned (as an input slot) by the
    /// node that owns the row, so the row can be swept before any peer's
    /// shard arrives, straight from the node's own slots of the input.
    pub interior: Vec<bool>,
    /// Per node: the input slots its boundary rows read.
    pub gathers: Vec<NodeGather>,
    /// Per node: `(rows, nonzeroes)` of the rows it owns — what the cost
    /// recorder bills an unmasked sweep, without walking the rows again.
    pub owned_rows_nnz: Vec<(usize, usize)>,
}

/// The columns one node's boundary rows read, split by who owns them.
/// Together the lists hold each such column exactly once.
#[derive(Debug)]
pub(crate) struct NodeGather {
    /// Columns the node itself owns, ascending.
    pub own: Vec<u32>,
    /// Indexed by peer: `(global column, offset in the peer's posted
    /// chunk)`, ascending. The node's own entry stays empty.
    pub from_peer: Vec<Vec<(u32, u32)>>,
}

impl ShardPlan {
    fn build<T: Scalar>(a: &CsrMatrix<T>, nodes: usize, layout: ShardLayout) -> ShardPlan {
        let x_dist = layout.dist_for(a.ncols(), nodes);
        let row_dist = layout.dist_for(a.nrows(), nodes);
        let mut interior = vec![true; a.nrows()];
        // Marks the columns already on the current node's list.
        let mut listed = vec![false; a.ncols()];
        let mut cols: Vec<u32> = Vec::new();
        let mut owned_rows_nnz = vec![(0usize, 0usize); nodes];
        let gathers = (0..nodes)
            .map(|w| {
                cols.clear();
                for i in row_dist.owned_ranges(w).flatten() {
                    let (row, _) = a.row(i);
                    owned_rows_nnz[w].0 += 1;
                    owned_rows_nnz[w].1 += row.len();
                    if row.iter().all(|&c| x_dist.owner(c as usize) == w) {
                        continue;
                    }
                    interior[i] = false;
                    for &c in row {
                        if !std::mem::replace(&mut listed[c as usize], true) {
                            cols.push(c);
                        }
                    }
                }
                cols.sort_unstable();
                let mut gather = NodeGather {
                    own: Vec::new(),
                    from_peer: vec![Vec::new(); nodes],
                };
                for &c in &cols {
                    listed[c as usize] = false;
                    let (owner, offset) = x_dist.to_local(c as usize);
                    if owner == w {
                        gather.own.push(c);
                    } else {
                        gather.from_peer[owner].push((c, offset as u32));
                    }
                }
                gather
            })
            .collect();
        ShardPlan {
            interior,
            gathers,
            owned_rows_nnz,
        }
    }
}

/// A cached plan under its `(nodes, layout)` key.
type KeyedPlan = ((usize, ShardLayout), Arc<ShardPlan>);

/// The plans made so far for one matrix. A handful at most (one per
/// cluster shape the matrix has run on), so a list.
///
/// The list sits behind an `Arc`, not in the matrix: every kernel takes
/// `&CsrMatrix`, and a shared reference to a struct with a lock in it is
/// no longer read-only to the compiler, which then reloads the CSR
/// arrays' pointers around every store (measured on `bfs-rmat16`: +0.7 to
/// +2.2 % with the lock inline, −1.0 % behind the pointer). A cloned
/// matrix has the same pattern, so it shares the list with its original.
#[derive(Clone, Default)]
pub(crate) struct ShardPlanCache {
    plans: Arc<Mutex<Vec<KeyedPlan>>>,
}

impl ShardPlanCache {
    fn lock(&self) -> MutexGuard<'_, Vec<KeyedPlan>> {
        // The only update is a push after a finished build, so a panic
        // while the lock was held left the list as it was.
        self.plans.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Plans are derived from the pattern: they never make two matrices differ.
impl PartialEq for ShardPlanCache {
    fn eq(&self, _: &ShardPlanCache) -> bool {
        true
    }
}

impl fmt::Debug for ShardPlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardPlanCache").finish_non_exhaustive()
    }
}

impl<T: Scalar> CsrMatrix<T> {
    /// This matrix's plan on `nodes` nodes under `layout`: built by one
    /// pass over the pattern on first request, shared afterwards.
    pub(crate) fn shard_plan(&self, nodes: usize, layout: ShardLayout) -> Arc<ShardPlan> {
        let key = (nodes, layout);
        let mut plans = self.shard_plans().lock();
        if let Some((_, plan)) = plans.iter().find(|(k, _)| *k == key) {
            return plan.clone();
        }
        let plan = Arc::new(ShardPlan::build(self, nodes, layout));
        plans.push((key, plan.clone()));
        plan
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The 27-point stencil pattern on an `nx × ny × nz` grid, HPCG's
    /// index order (`x` fastest).
    pub fn stencil27(nx: usize, ny: usize, nz: usize) -> CsrMatrix<f64> {
        let n = nx * ny * nz;
        CsrMatrix::from_row_fn(n, n, 27 * n, |i, row| {
            let (x, y, z) = (i % nx, (i / nx) % ny, i / (nx * ny));
            for dz in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let (cx, cy, cz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                        let inside = (0..nx as i64).contains(&cx)
                            && (0..ny as i64).contains(&cy)
                            && (0..nz as i64).contains(&cz);
                        if inside {
                            let c = cx as usize + nx * (cy as usize + ny * cz as usize);
                            row.push((c as u32, if c == i { 26.0 } else { -1.0 }));
                        }
                    }
                }
            }
        })
        .unwrap()
    }

    /// A rectangular pattern with scattered long-range columns.
    pub fn irregular(nrows: usize, ncols: usize) -> CsrMatrix<f64> {
        CsrMatrix::from_row_fn(nrows, ncols, 4 * nrows, |i, row| {
            let mut cols = BTreeSet::from([(i * 7 + 3) % ncols, (i * i + 1) % ncols]);
            if i % 3 == 0 {
                cols.insert(i % ncols);
            }
            if i % 5 == 0 {
                cols.insert((i + ncols / 2) % ncols);
            }
            row.extend(cols.into_iter().map(|c| (c as u32, 1.0)));
        })
        .unwrap()
    }

    /// `a`, its rows stored last to first.
    pub fn stored_reversed(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
        let order: Vec<u32> = (0..a.nrows() as u32).rev().collect();
        CsrMatrix::from_row_fn_stored(a.nrows(), a.ncols(), a.nnz(), &order, |i, row| {
            let (cols, vals) = a.row(i);
            row.extend(cols.iter().copied().zip(vals.iter().copied()));
        })
        .unwrap()
    }

    const LAYOUTS: [ShardLayout; 3] = [
        ShardLayout::Block,
        ShardLayout::BlockCyclic { block: 3 },
        ShardLayout::BlockCyclic { block: 64 },
    ];

    #[test]
    fn flags_and_lists_are_the_per_entry_owner_test_done_once() {
        let reordered = stored_reversed(&irregular(190, 257));
        for a in [
            stencil27(6, 5, 7),
            irregular(190, 257),
            irregular(257, 190),
            reordered,
        ] {
            for layout in LAYOUTS {
                for p in [1usize, 2, 3, 4, 7] {
                    let x_dist = layout.dist_for(a.ncols(), p);
                    let row_dist = layout.dist_for(a.nrows(), p);
                    let plan = a.shard_plan(p, layout);
                    assert_eq!(plan.interior.len(), a.nrows());
                    assert_eq!(plan.gathers.len(), p);
                    // The union of boundary-row columns, per (node, owner).
                    let mut expect = vec![vec![BTreeSet::new(); p]; p];
                    let mut owned = vec![(0, 0); p];
                    for i in 0..a.nrows() {
                        let w = row_dist.owner(i);
                        let (cols, _) = a.row(i);
                        owned[w].0 += 1;
                        owned[w].1 += cols.len();
                        let local = cols.iter().all(|&c| x_dist.owner(c as usize) == w);
                        assert_eq!(plan.interior[i], local, "{layout:?} p={p} row {i}");
                        if !local {
                            for &c in cols {
                                expect[w][x_dist.owner(c as usize)].insert(c);
                            }
                        }
                    }
                    assert_eq!(plan.owned_rows_nnz, owned, "{layout:?} p={p}");
                    for (w, gather) in plan.gathers.iter().enumerate() {
                        let ctx = format!("{layout:?} p={p} node {w}");
                        // Vec equality with an ascending set: sorted,
                        // unique, nothing extra, nothing missing.
                        let own: Vec<u32> = expect[w][w].iter().copied().collect();
                        assert_eq!(gather.own, own, "{ctx}");
                        assert_eq!(gather.from_peer.len(), p);
                        assert!(gather.from_peer[w].is_empty(), "{ctx}");
                        for peer in (0..p).filter(|&q| q != w) {
                            let want: Vec<(u32, u32)> = expect[w][peer]
                                .iter()
                                .map(|&c| (c, x_dist.to_local(c as usize).1 as u32))
                                .collect();
                            assert_eq!(gather.from_peer[peer], want, "{ctx} peer {peer}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_node_has_no_boundary_and_no_lists() {
        for layout in LAYOUTS {
            let plan = stencil27(4, 4, 4).shard_plan(1, layout);
            assert!(plan.interior.iter().all(|&local| local));
            assert!(plan.gathers[0].own.is_empty());
            assert!(plan.gathers[0].from_peer.iter().all(Vec::is_empty));
        }
    }

    /// A `Block` split of the stencil into z-slabs: across each cut a node
    /// reads exactly the neighbouring slab's facing plane.
    #[test]
    fn z_slab_cuts_read_one_plane_per_side() {
        let (nx, ny, nz) = (5, 4, 24);
        let a = stencil27(nx, ny, nz);
        for p in [2usize, 3, 4] {
            let plan = a.shard_plan(p, ShardLayout::Block);
            let slab = nz / p * nx * ny;
            for (w, gather) in plan.gathers.iter().enumerate() {
                for (peer, pairs) in gather.from_peer.iter().enumerate() {
                    let adjacent = peer + 1 == w || w + 1 == peer;
                    assert_eq!(pairs.len(), if adjacent { nx * ny } else { 0 });
                    // The facing plane: the lower neighbour's last, the
                    // upper neighbour's first.
                    let first = if peer < w { slab - nx * ny } else { 0 };
                    for (k, &(c, offset)) in pairs.iter().enumerate() {
                        assert_eq!(offset as usize, first + k, "p={p} {w}<-{peer}");
                        assert_eq!(c as usize, peer * slab + first + k);
                    }
                }
                // Own columns: the node's own planes next to its cuts.
                let cuts = usize::from(w > 0) + usize::from(w + 1 < p);
                assert_eq!(gather.own.len(), cuts * 2 * nx * ny, "p={p} node {w}");
            }
        }
    }

    #[test]
    fn plans_are_cached_on_the_matrix_per_nodes_and_layout() {
        let a = stencil27(4, 4, 4);
        let block2 = a.shard_plan(2, ShardLayout::Block);
        assert!(Arc::ptr_eq(&block2, &a.shard_plan(2, ShardLayout::Block)));
        let block3 = a.shard_plan(3, ShardLayout::Block);
        let cyclic2 = a.shard_plan(2, ShardLayout::BlockCyclic { block: 3 });
        assert!(!Arc::ptr_eq(&block2, &block3));
        assert!(!Arc::ptr_eq(&block2, &cyclic2));
        assert!(Arc::ptr_eq(&block3, &a.shard_plan(3, ShardLayout::Block)));
        assert_eq!(a.shard_plans().lock().len(), 3);

        // A clone shares the plans, made before it or after; the cache
        // never decides equality.
        let b = a.clone();
        assert!(Arc::ptr_eq(&block2, &b.shard_plan(2, ShardLayout::Block)));
        let block7 = b.shard_plan(7, ShardLayout::Block);
        assert!(Arc::ptr_eq(&block7, &a.shard_plan(7, ShardLayout::Block)));
        assert_eq!(a, b);
        assert_eq!(a, stencil27(4, 4, 4));

        // Freed with the matrix: ours is the last handle once both are gone.
        drop((a, b));
        assert_eq!(Arc::strong_count(&block2), 1);
    }
}
