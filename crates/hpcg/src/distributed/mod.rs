//! Distributed HPCG on the simulated BSP cluster (paper §II-G, §IV, §V-B).
//!
//! Two distributed designs, one per implementation:
//!
//! * [`alp::AlpDistHpcg`] — ALP's hybrid backend: **1D block-cyclic** rows
//!   and vector entries. Opaque containers hide the problem geometry, so
//!   before *every* `mxv` (including each RBGS color step and each grid
//!   transfer) all nodes must receive the full input vector — the
//!   `Θ(n(p−1)/p)` allgather of Table I. GraphBLAS semantics are blocking:
//!   no compute/communication overlap. Since the generic distributed
//!   backend landed this is literally [`crate::grb_impl::GrbHpcg`] on a
//!   `Ctx<graphblas::Distributed>`: the allgather/allreduce recording
//!   lives in the backend, and this type only scopes each superstep to
//!   its multigrid level and kernel class.
//! * [`ref_dist::RefDistHpcg`] — the reference design: **3D geometric**
//!   boxes with 2D halo exchange, `Θ(∛(n²/p²))` per `mxv`, color-sliced
//!   halo messages inside RBGS, `MPI_Irecv/Isend`-style overlap
//!   (`max(compute, comm)` per step), and fully *local* restriction /
//!   refinement (the process grids of successive levels are aligned).
//!
//! # Execution model
//!
//! ALP's kernels execute **sharded**: `Ctx<Distributed>` runs each one on
//! a worker per node over the rows that node owns, with the input shards
//! moving through `bsp::Exchange`, bit-identical to `Sequential`. Ref's
//! kernels still execute **once on global state** — the color schedule
//! makes the distributed algorithm's numerics identical to the
//! shared-memory schedule, so per-node re-execution would reproduce the
//! same values. Both record costs **per node** from the distribution's
//! exact owner/halo sets (not closed-form estimates): per-node flops and
//! touched bytes feed the roofline, per-message byte counts feed the
//! h-relation, and every exchange closes a BSP superstep. Modeled
//! wall-clock follows
//! `Σ max_i(w_i) + g·max_i(h_i) + l` (Table I). The `table1_bsp_costs`
//! harness cross-checks recorded volumes against the paper's closed forms.
//!
//! Both types implement [`crate::Kernels`], so the *same* generic CG/MG
//! drives them; convergence results are asserted (in tests) to match the
//! shared-memory implementations.

pub mod alp;
pub mod ref_dist;
pub mod report;

pub use alp::AlpDistHpcg;
pub use ref_dist::RefDistHpcg;
pub use report::{reprice_block2d, run_distributed, DistReport};

use crate::problem::MgLevel;
use bsp::dist::Distribution;

/// Per-level, per-node partition metadata the Ref-design cost recorder
/// indexes (the ALP design now gets its partitions from the generic
/// backend's [`graphblas::ShardLayout`]).
#[derive(Clone, Debug)]
pub(crate) struct LevelPartition {
    /// Unknowns owned by each node.
    pub local_n: Vec<usize>,
    /// Stored nonzeroes in each node's owned rows.
    pub local_nnz: Vec<usize>,
    /// Per node, per color: owned rows of that color.
    pub rows_by_color: Vec<Vec<usize>>,
    /// Per node, per color: nonzeroes in owned rows of that color.
    pub nnz_by_color: Vec<Vec<usize>>,
}

impl LevelPartition {
    /// Computes the partition of `level` under `dist`.
    pub(crate) fn new<D: Distribution>(level: &MgLevel, dist: &D) -> LevelPartition {
        let p = dist.nodes();
        let ncolors = level.coloring.num_colors;
        let mut local_n = vec![0usize; p];
        let mut local_nnz = vec![0usize; p];
        let mut rows_by_color = vec![vec![0usize; ncolors]; p];
        let mut nnz_by_color = vec![vec![0usize; ncolors]; p];
        for g in 0..level.n() {
            let node = dist.owner(g);
            let color = level.coloring.color[g] as usize;
            let nnz = level.a.row_nnz(g);
            local_n[node] += 1;
            local_nnz[node] += nnz;
            rows_by_color[node][color] += 1;
            nnz_by_color[node][color] += nnz;
        }
        LevelPartition {
            local_n,
            local_nnz,
            rows_by_color,
            nnz_by_color,
        }
    }
}

/// Bytes of one `f64`.
pub(crate) const F64: f64 = 8.0;

// One roofline price list for every distributed cost model: the Ref-design
// simulator below uses the exact helpers the generic backend records with,
// so the ALP-vs-Ref comparison can never drift apples-to-oranges.
pub(crate) use graphblas::backend::dist::cost::{spmv_bytes, stream_bytes};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Grid3;
    use crate::problem::{Problem, RhsVariant};
    use bsp::dist::{BlockCyclic1D, Geometric3D};

    #[test]
    fn partition_sums_match_level_totals() {
        let p = Problem::build_with(Grid3::cube(8), 2, RhsVariant::Reference).unwrap();
        let l = &p.levels[0];
        for nodes in [1usize, 2, 4] {
            let d = BlockCyclic1D::new(l.n(), nodes, 32);
            let part = LevelPartition::new(l, &d);
            assert_eq!(part.local_n.iter().sum::<usize>(), l.n());
            assert_eq!(part.local_nnz.iter().sum::<usize>(), l.a.nnz());
            for node in 0..nodes {
                assert_eq!(
                    part.rows_by_color[node].iter().sum::<usize>(),
                    part.local_n[node]
                );
                assert_eq!(
                    part.nnz_by_color[node].iter().sum::<usize>(),
                    part.local_nnz[node]
                );
            }
        }
    }

    #[test]
    fn geometric_partition_balances_colors() {
        let p = Problem::build_with(Grid3::cube(8), 1, RhsVariant::Reference).unwrap();
        let l = &p.levels[0];
        let d = Geometric3D::new(8, 8, 8, 8);
        let part = LevelPartition::new(l, &d);
        // Each 4³ box contains 8 colors × 8 points each.
        for node in 0..8 {
            assert_eq!(part.local_n[node], 64);
            for c in 0..8 {
                assert_eq!(part.rows_by_color[node][c], 8);
            }
        }
    }
}
