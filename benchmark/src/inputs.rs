//! Seed-determined inputs. The program only ever sees what these produce.

use graphblas::CsrMatrix;
use hpcg_bench::rmat::{GRAPH500_A, GRAPH500_B, GRAPH500_C};

/// splitmix64: the next value of the stream `state` walks.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The undirected adjacency (all weights 1, no self-loops, no duplicates)
/// of an RMAT graph with Graph500 quadrant probabilities: `2^scale`
/// vertices and `edge_factor · 2^scale` drawn edges.
///
/// The generator in `hpcg_bench::rmat` draws the same kind of graph but
/// through two `BTreeSet`s and a triplet list, which at scale 16 peak above
/// everything the measured program allocates and so would decide
/// `peak_rss_mb`. This one keeps 8 bytes per directed edge.
pub fn rmat_adjacency(scale: u32, edge_factor: usize, seed: u64) -> CsrMatrix<f64> {
    let n = 1usize << scale;
    let mut state = seed;
    // Both directions of every edge as `row << 32 | col`: sorted, the keys
    // are the CSR in row-major order.
    let mut keys: Vec<u64> = Vec::with_capacity(2 * n * edge_factor);
    for _ in 0..n * edge_factor {
        let (mut r, mut c) = (0u64, 0u64);
        for bit in (0..scale).rev() {
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            if u >= GRAPH500_A + GRAPH500_B {
                r |= 1 << bit;
            }
            if (GRAPH500_A..GRAPH500_A + GRAPH500_B).contains(&u)
                || u >= GRAPH500_A + GRAPH500_B + GRAPH500_C
            {
                c |= 1 << bit;
            }
        }
        if r != c {
            keys.extend([r << 32 | c, c << 32 | r]);
        }
    }
    keys.sort_unstable();
    keys.dedup();
    let mut rest = keys.iter().peekable();
    CsrMatrix::from_row_fn(n, n, keys.len(), |r, row| {
        while let Some(&key) = rest.next_if(|&&key| (key >> 32) as usize == r) {
            row.push((key as u32, 1.0));
        }
    })
    .expect("sorted, deduplicated keys are a valid CSR")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_seed_determined_symmetric_and_skewed() {
        let a = rmat_adjacency(8, 16, 42);
        let b = rmat_adjacency(8, 16, 42);
        assert_eq!(a.csr_parts(), b.csr_parts(), "same seed, same graph");
        assert_ne!(a.csr_parts(), rmat_adjacency(8, 16, 43).csr_parts());
        assert_eq!(a.csr_parts(), a.transpose().csr_parts(), "undirected");
        assert!(
            (0..a.nrows()).all(|v| !a.row(v).0.contains(&(v as u32))),
            "no self-loops"
        );
        // Graph500 probabilities pile the edges onto the low vertex ids.
        let max_degree = (0..a.nrows()).map(|v| a.row_nnz(v)).max().unwrap();
        assert!(
            max_degree > 4 * a.nnz() / a.nrows(),
            "hubs well above the mean degree"
        );
    }
}
