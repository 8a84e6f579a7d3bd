//! Row/element sharding of the distributed backend.
//!
//! The paper's hybrid ALP backend assumes a 1D grid of nodes and splits
//! matrix rows and vector entries either in contiguous blocks or
//! block-cyclically (§IV). Containers stay opaque — the layout never shows
//! in a result — but it is what the backend executes by: it decides which
//! node owns which global index, so which rows each worker sweeps, which
//! input slots it must receive from peers (the matrix's shard plan), and
//! how much the cost model bills each node for both.

use bsp::dist::BlockCyclic1D;

/// How the distributed backend shards rows and vector entries over the
/// 1D node grid.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ShardLayout {
    /// Contiguous 1D blocks: node `k` owns `[k·⌈n/p⌉, (k+1)·⌈n/p⌉)`.
    #[default]
    Block,
    /// 1D block-cyclic with the given block size (ALP's hybrid default).
    BlockCyclic {
        /// Elements per block.
        block: usize,
    },
}

impl ShardLayout {
    /// The distribution of `n` elements over `p` nodes under this layout.
    ///
    /// A contiguous block layout is a block-cyclic layout whose block size
    /// is one full share, so both variants lower onto [`BlockCyclic1D`].
    pub fn dist_for(self, n: usize, p: usize) -> BlockCyclic1D {
        let block = match self {
            ShardLayout::Block => n.div_ceil(p).max(1),
            ShardLayout::BlockCyclic { block } => block.max(1),
        };
        BlockCyclic1D::new(n, p, block)
    }

    /// Short human-readable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ShardLayout::Block => "1D block",
            ShardLayout::BlockCyclic { .. } => "1D block-cyclic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp::dist::Distribution;

    #[test]
    fn block_layout_is_contiguous() {
        let d = ShardLayout::Block.dist_for(10, 3);
        // ⌈10/3⌉ = 4: node 0 owns 0..4, node 1 owns 4..8, node 2 owns 8..10.
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(3), 0);
        assert_eq!(d.owner(4), 1);
        assert_eq!(d.owner(9), 2);
        assert_eq!(
            (0..3).map(|k| d.local_len(k)).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
    }

    #[test]
    fn block_cyclic_layout_cycles() {
        let d = ShardLayout::BlockCyclic { block: 2 }.dist_for(8, 2);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(2), 1);
        assert_eq!(d.owner(4), 0);
        assert_eq!(d.local_len(0), 4);
        assert_eq!(d.local_len(1), 4);
    }

    #[test]
    fn local_lens_always_sum_to_n() {
        for layout in [ShardLayout::Block, ShardLayout::BlockCyclic { block: 3 }] {
            for (n, p) in [(0usize, 4usize), (1, 4), (17, 5), (64, 4), (100, 7)] {
                let d = layout.dist_for(n, p);
                assert_eq!(
                    (0..p).map(|k| d.local_len(k)).sum::<usize>(),
                    n,
                    "{layout:?} n={n} p={p}"
                );
            }
        }
    }
}
