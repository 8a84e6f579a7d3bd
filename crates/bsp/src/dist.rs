//! Data distributions across the simulated cluster.
//!
//! Two layouts matter to the paper:
//!
//! * [`BlockCyclic1D`] — ALP/GraphBLAS's hybrid backend assumes a 1D grid of
//!   nodes and splits matrix rows and vectors block-cyclically (§IV). The
//!   layout is domain-oblivious: before an `mxv`, every node needs the whole
//!   input vector → `Θ(n(p−1)/p)` communication (Table I).
//! * [`Geometric3D`] — the HPCG reference splits the physical `nx×ny×nz`
//!   grid into `px×py×pz` boxes (§II-G). Only 2D halos are exchanged →
//!   `Θ(∛(n²/p²))` communication.
//!
//! Both implement [`Distribution`], the owner/local-index algebra the
//! distributed HPCG simulator drives.

use crate::factor::factor3d;

/// An assignment of `0..global_len` to `nodes` with local renumbering.
pub trait Distribution {
    /// Number of nodes in the cluster.
    fn nodes(&self) -> usize;
    /// Global number of elements distributed.
    fn global_len(&self) -> usize;
    /// The node owning global index `g`.
    fn owner(&self, g: usize) -> usize;
    /// Number of elements local to `node`.
    fn local_len(&self, node: usize) -> usize;
    /// Maps a global index to `(owner, local index)`.
    fn to_local(&self, g: usize) -> (usize, usize);
    /// Maps `(node, local index)` back to the global index.
    fn to_global(&self, node: usize, local: usize) -> usize;
}

/// 1D block-cyclic distribution with block size `block`.
///
/// Global index `g` lives in block `g / block`, owned by node
/// `(g / block) mod p`. ALP's hybrid backend default.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BlockCyclic1D {
    n: usize,
    p: usize,
    block: usize,
}

impl BlockCyclic1D {
    /// Distributes `n` elements over `p` nodes in blocks of `block`.
    pub fn new(n: usize, p: usize, block: usize) -> BlockCyclic1D {
        assert!(p > 0 && block > 0);
        BlockCyclic1D { n, p, block }
    }

    /// The block size.
    pub fn block(&self) -> usize {
        self.block
    }

    /// The global index ranges `node` owns, ascending: its blocks `node`,
    /// `node + p`, … clipped to `n`. Concatenated they enumerate the
    /// node's elements in local-index order.
    pub fn owned_ranges(&self, node: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
        let (n, block) = (self.n, self.block);
        (node * block..n)
            .step_by(self.p * block)
            .map(move |start| start..(start + block).min(n))
    }
}

impl Distribution for BlockCyclic1D {
    fn nodes(&self) -> usize {
        self.p
    }

    fn global_len(&self) -> usize {
        self.n
    }

    fn owner(&self, g: usize) -> usize {
        debug_assert!(g < self.n);
        (g / self.block) % self.p
    }

    fn local_len(&self, node: usize) -> usize {
        // Full cycles plus the partial tail cycle.
        let full_cycles = self.n / (self.block * self.p);
        let mut len = full_cycles * self.block;
        let tail_start = full_cycles * self.block * self.p;
        let tail = self.n - tail_start;
        // Within the tail, node k holds min(block, max(0, tail - k·block)).
        let offset = node * self.block;
        if tail > offset {
            len += (tail - offset).min(self.block);
        }
        len
    }

    fn to_local(&self, g: usize) -> (usize, usize) {
        let blk = g / self.block;
        let node = blk % self.p;
        let local = (blk / self.p) * self.block + g % self.block;
        (node, local)
    }

    fn to_global(&self, node: usize, local: usize) -> usize {
        let cycle = local / self.block;
        (cycle * self.p + node) * self.block + local % self.block
    }
}

/// 3D geometric block distribution over an `nx×ny×nz` point grid.
///
/// Global index order follows HPCG: `g = x + nx·(y + ny·z)`. Each node owns
/// the box of points whose coordinates fall in its `sx×sy×sz` sub-grid.
/// Requires each dimension to divide evenly — the same restriction the HPCG
/// reference imposes on its process grid.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Geometric3D {
    /// Grid points per dimension.
    pub nx: usize,
    /// Grid points per dimension.
    pub ny: usize,
    /// Grid points per dimension.
    pub nz: usize,
    /// Process grid.
    pub px: usize,
    /// Process grid.
    pub py: usize,
    /// Process grid.
    pub pz: usize,
}

impl Geometric3D {
    /// Builds the distribution, choosing the optimal process factorization
    /// for `p` nodes via [`factor3d`]. Panics if the factors do not divide
    /// the grid (mirroring the reference's setup assertion).
    pub fn new(nx: usize, ny: usize, nz: usize, p: usize) -> Geometric3D {
        let (px, py, pz) = factor3d(p, nx, ny, nz);
        Self::with_process_grid(nx, ny, nz, px, py, pz)
    }

    /// Builds with an explicit process grid.
    pub fn with_process_grid(
        nx: usize,
        ny: usize,
        nz: usize,
        px: usize,
        py: usize,
        pz: usize,
    ) -> Geometric3D {
        assert!(
            nx.is_multiple_of(px) && ny.is_multiple_of(py) && nz.is_multiple_of(pz),
            "process grid {px}x{py}x{pz} must divide point grid {nx}x{ny}x{nz}"
        );
        Geometric3D {
            nx,
            ny,
            nz,
            px,
            py,
            pz,
        }
    }

    /// Local box dimensions `(sx, sy, sz)`.
    pub fn local_dims(&self) -> (usize, usize, usize) {
        (self.nx / self.px, self.ny / self.py, self.nz / self.pz)
    }

    /// Decomposes a global index into grid coordinates.
    #[inline]
    pub fn coords(&self, g: usize) -> (usize, usize, usize) {
        let x = g % self.nx;
        let y = (g / self.nx) % self.ny;
        let z = g / (self.nx * self.ny);
        (x, y, z)
    }

    /// Composes grid coordinates into a global index.
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        x + self.nx * (y + self.ny * z)
    }

    /// The node-grid coordinates of `node`.
    #[inline]
    pub fn node_coords(&self, node: usize) -> (usize, usize, usize) {
        let ix = node % self.px;
        let iy = (node / self.px) % self.py;
        let iz = node / (self.px * self.py);
        (ix, iy, iz)
    }

    /// The half-open coordinate ranges of the box owned by `node`.
    pub fn node_box(
        &self,
        node: usize,
    ) -> (
        std::ops::Range<usize>,
        std::ops::Range<usize>,
        std::ops::Range<usize>,
    ) {
        let (sx, sy, sz) = self.local_dims();
        let (ix, iy, iz) = self.node_coords(node);
        (
            ix * sx..(ix + 1) * sx,
            iy * sy..(iy + 1) * sy,
            iz * sz..(iz + 1) * sz,
        )
    }
}

impl Distribution for Geometric3D {
    fn nodes(&self) -> usize {
        self.px * self.py * self.pz
    }

    fn global_len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    fn owner(&self, g: usize) -> usize {
        let (sx, sy, sz) = self.local_dims();
        let (x, y, z) = self.coords(g);
        (x / sx) + self.px * ((y / sy) + self.py * (z / sz))
    }

    fn local_len(&self, _node: usize) -> usize {
        let (sx, sy, sz) = self.local_dims();
        sx * sy * sz
    }

    fn to_local(&self, g: usize) -> (usize, usize) {
        let (sx, sy, sz) = self.local_dims();
        let (x, y, z) = self.coords(g);
        let node = (x / sx) + self.px * ((y / sy) + self.py * (z / sz));
        let local = (x % sx) + sx * ((y % sy) + sy * (z % sz));
        (node, local)
    }

    fn to_global(&self, node: usize, local: usize) -> usize {
        let (sx, sy, sz) = self.local_dims();
        let (ix, iy, iz) = self.node_coords(node);
        let lx = local % sx;
        let ly = (local / sx) % sy;
        let lz = local / (sx * sy);
        debug_assert!(lz < sz);
        self.index(ix * sx + lx, iy * sy + ly, iz * sz + lz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<D: Distribution>(d: &D) {
        let mut seen = vec![false; d.global_len()];
        for node in 0..d.nodes() {
            for local in 0..d.local_len(node) {
                let g = d.to_global(node, local);
                assert!(g < d.global_len());
                assert!(!seen[g], "index {g} owned twice");
                seen[g] = true;
                assert_eq!(d.owner(g), node);
                assert_eq!(d.to_local(g), (node, local));
            }
        }
        assert!(seen.iter().all(|&s| s), "every index owned exactly once");
    }

    #[test]
    fn block_cyclic_roundtrip_even() {
        roundtrip(&BlockCyclic1D::new(64, 4, 4));
    }

    #[test]
    fn block_cyclic_roundtrip_ragged() {
        // 50 elements, 4 nodes, block 4: tail of 2 blocks + 2 leftovers.
        roundtrip(&BlockCyclic1D::new(50, 4, 4));
        roundtrip(&BlockCyclic1D::new(7, 3, 2));
        roundtrip(&BlockCyclic1D::new(1, 5, 3));
    }

    #[test]
    fn block_cyclic_ownership_pattern() {
        let d = BlockCyclic1D::new(16, 2, 2);
        // blocks: [0,1]→n0, [2,3]→n1, [4,5]→n0, ...
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(2), 1);
        assert_eq!(d.owner(4), 0);
        assert_eq!(d.owner(15), 1);
        assert_eq!(d.local_len(0), 8);
        assert_eq!(d.local_len(1), 8);
    }

    #[test]
    fn owned_ranges_enumerate_local_order() {
        for (n, p, b) in [(64, 4, 4), (50, 4, 4), (7, 3, 2), (1, 5, 3), (0, 2, 4)] {
            let d = BlockCyclic1D::new(n, p, b);
            for node in 0..p {
                let walked: Vec<usize> = d.owned_ranges(node).flatten().collect();
                let expect: Vec<usize> = (0..d.local_len(node))
                    .map(|l| d.to_global(node, l))
                    .collect();
                assert_eq!(walked, expect, "n={n} p={p} b={b} node={node}");
            }
        }
    }

    #[test]
    fn block_cyclic_local_len_sums_to_n() {
        for (n, p, b) in [(100, 3, 7), (64, 4, 4), (5, 8, 2), (1000, 7, 13)] {
            let d = BlockCyclic1D::new(n, p, b);
            let total: usize = (0..p).map(|k| d.local_len(k)).sum();
            assert_eq!(total, n, "n={n} p={p} b={b}");
        }
    }

    #[test]
    fn geometric_roundtrip() {
        roundtrip(&Geometric3D::new(8, 8, 8, 8));
        roundtrip(&Geometric3D::new(4, 8, 16, 4));
        roundtrip(&Geometric3D::new(6, 6, 6, 1));
    }

    #[test]
    fn geometric_boxes_are_contiguous_in_space() {
        let d = Geometric3D::new(8, 8, 8, 8); // 2x2x2 process grid
        let (bx, by, bz) = d.node_box(0);
        assert_eq!((bx.start, by.start, bz.start), (0, 0, 0));
        assert_eq!((bx.end, by.end, bz.end), (4, 4, 4));
        // Opposite corner node.
        let last = d.nodes() - 1;
        let (bx, by, bz) = d.node_box(last);
        assert_eq!((bx.start, by.start, bz.start), (4, 4, 4));
    }

    #[test]
    fn geometric_coords_inverse() {
        let d = Geometric3D::new(4, 5, 6, 1);
        for g in 0..d.global_len() {
            let (x, y, z) = d.coords(g);
            assert_eq!(d.index(x, y, z), g);
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn geometric_rejects_non_dividing_grid() {
        let _ = Geometric3D::with_process_grid(7, 8, 8, 2, 1, 1);
    }

    #[test]
    fn prime_node_count_still_works() {
        // 7 nodes → pencil decomposition along one axis that divides.
        let d = Geometric3D::new(14, 14, 14, 7);
        assert_eq!(d.nodes(), 7);
        roundtrip(&d);
    }
}
