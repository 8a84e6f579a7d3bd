//! Red-Black Gauss-Seidel, reference style (paper §IV, `Ref`).
//!
//! The paper ports its RBGS into the official HPCG code base using OpenMP:
//! colors are processed sequentially to honor inter-color dependencies, and
//! the rows *within* one color — which are mutually independent by the
//! coloring property — update in parallel with direct CSR array access.
//! This module is that implementation, each color's rows cut into fixed
//! contiguous chunks by `rayon::for_chunks` (one fork-join per color).
//!
//! Numerically, a forward pass here computes exactly what the GraphBLAS
//! version (Listing 3) computes, in the same color order, so the two agree
//! bitwise (asserted in `smoother::tests`).

use crate::util::SyncSlice;
use graphblas::CsrMatrix;

/// Minimum color-class size before parallelizing (coarse levels are tiny).
const PAR_THRESHOLD: usize = 256;

#[inline(always)]
fn update_row(a: &CsrMatrix<f64>, diag: &[f64], r: &[f64], x: &SyncSlice<'_, f64>, i: usize) {
    let (cols, vals) = a.row(i);
    // Accumulate the full row product first, then combine — the same
    // association order as the GraphBLAS `mxv` + `eWiseLambda` pair, so the
    // two implementations agree bitwise.
    let mut acc = 0.0f64;
    // SAFETY: reads cover neighbor values; neighbors of `i` never share
    // `i`'s color, so no concurrent writer touches them, and `i` itself is
    // written only by this call.
    unsafe {
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x.read(c as usize);
        }
        let d = diag[i];
        let xi = x.read(i);
        x.write(i, (r[i] - acc + xi * d) / d);
    }
}

/// One forward RBGS pass: colors in ascending order, rows of each color in
/// parallel.
pub fn rbgs_forward(
    a: &CsrMatrix<f64>,
    diag: &[f64],
    classes: &[Vec<u32>],
    r: &[f64],
    x: &mut [f64],
) {
    let xs = SyncSlice::new(x);
    for class in classes {
        run_class(a, diag, r, &xs, class);
    }
}

/// One backward RBGS pass: colors in descending order.
pub fn rbgs_backward(
    a: &CsrMatrix<f64>,
    diag: &[f64],
    classes: &[Vec<u32>],
    r: &[f64],
    x: &mut [f64],
) {
    let xs = SyncSlice::new(x);
    for class in classes.iter().rev() {
        run_class(a, diag, r, &xs, class);
    }
}

/// One symmetric RBGS sweep (forward + backward), the smoother HPCG's MG
/// preconditioner invokes (Listing 1, lines 2 and 10).
pub fn rbgs_symmetric(
    a: &CsrMatrix<f64>,
    diag: &[f64],
    classes: &[Vec<u32>],
    r: &[f64],
    x: &mut [f64],
) {
    rbgs_forward(a, diag, classes, r, x);
    rbgs_backward(a, diag, classes, r, x);
}

fn run_class(a: &CsrMatrix<f64>, diag: &[f64], r: &[f64], xs: &SyncSlice<'_, f64>, class: &[u32]) {
    if class.len() < PAR_THRESHOLD {
        for &i in class {
            update_row(a, diag, r, xs, i as usize);
        }
    } else {
        rayon::for_chunks(class.len(), PAR_THRESHOLD, |range| {
            for &i in &class[range] {
                update_row(a, diag, r, xs, i as usize);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::Coloring;
    use crate::geometry::Grid3;
    use crate::problem::{build_rhs, build_stencil_matrix, RhsVariant};

    fn setup(n: usize) -> (CsrMatrix<f64>, Vec<f64>, Vec<Vec<u32>>, Vec<f64>) {
        let grid = Grid3::cube(n);
        let a = build_stencil_matrix(grid);
        let diag: Vec<f64> = (0..a.nrows()).map(|i| a.get(i, i).unwrap()).collect();
        let coloring = Coloring::greedy(&a);
        let classes = coloring.classes();
        let b = build_rhs(&a, RhsVariant::Reference);
        (a, diag, classes, b.as_slice().to_vec())
    }

    fn residual_norm(a: &CsrMatrix<f64>, b: &[f64], x: &[f64]) -> f64 {
        (0..a.nrows())
            .map(|i| {
                let (cols, vals) = a.row(i);
                let ax: f64 = cols
                    .iter()
                    .zip(vals)
                    .map(|(&c, &v)| v * x[c as usize])
                    .sum();
                (b[i] - ax) * (b[i] - ax)
            })
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn forward_pass_reduces_residual() {
        let (a, diag, classes, b) = setup(6);
        let mut x = vec![0.0; a.nrows()];
        let r0 = residual_norm(&a, &b, &x);
        rbgs_forward(&a, &diag, &classes, &b, &mut x);
        assert!(residual_norm(&a, &b, &x) < r0);
    }

    #[test]
    fn symmetric_sweeps_converge_to_ones() {
        let (a, diag, classes, b) = setup(4);
        let mut x = vec![0.0; a.nrows()];
        for _ in 0..25 {
            rbgs_symmetric(&a, &diag, &classes, &b, &mut x);
        }
        for &v in &x {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        // The color schedule fixes the data flow; repeated runs (and thus
        // any thread interleavings within a color) must agree bitwise.
        let (a, diag, classes, b) = setup(8);
        let mut x1 = vec![0.0; a.nrows()];
        let mut x2 = vec![0.0; a.nrows()];
        rbgs_symmetric(&a, &diag, &classes, &b, &mut x1);
        rbgs_symmetric(&a, &diag, &classes, &b, &mut x2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn backward_is_reverse_schedule() {
        // On a 2-color (tridiagonal) system, forward then backward differs
        // from forward twice — order matters, which is the point of GS.
        let n = 16;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.5));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let diag = vec![2.5; n];
        let coloring = Coloring::greedy(&a);
        let classes = coloring.classes();
        let b = vec![1.0; n];
        let mut x_fb = vec![0.0; n];
        rbgs_forward(&a, &diag, &classes, &b, &mut x_fb);
        rbgs_backward(&a, &diag, &classes, &b, &mut x_fb);
        let mut x_ff = vec![0.0; n];
        rbgs_forward(&a, &diag, &classes, &b, &mut x_ff);
        rbgs_forward(&a, &diag, &classes, &b, &mut x_ff);
        assert_ne!(x_fb, x_ff);
    }
}
