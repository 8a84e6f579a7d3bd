//! Cross-request SpMV batching.
//!
//! Small `mxv` jobs against the same matrix arrive independently but are
//! bandwidth-bound on the same data: sweeping the matrix once per job
//! re-reads every row per request. The batcher coalesces `k` same-matrix
//! jobs into **one** row sweep that loads each row once and accumulates
//! all `k` outputs while the row is hot.
//!
//! Bit-identicality contract: each output must equal what a direct
//! `ctx::<Sequential>().mxv` would produce. The sequential kernel folds
//! a row as `acc = acc + A_ij * x_j` over the row's entries in storage
//! order starting from `0.0` (`mxv_exec`'s loop), so the batched sweep
//! keeps that exact per-vector association order — only the *matrix*
//! traversal is shared, never the accumulation.

use crate::error::{Result, ServeError};
use graphblas::{CsrMatrix, Vector};

/// Computes `y_j = A · x_j` for all inputs in one sweep over `A`.
///
/// Every `x_j` must have length `A.ncols()`; each output has length
/// `A.nrows()` and is bit-identical to a standalone sequential `mxv`.
pub fn batch_mxv(a: &CsrMatrix<f64>, xs: &[&Vector<f64>]) -> Result<Vec<Vector<f64>>> {
    for (j, x) in xs.iter().enumerate() {
        if x.len() != a.ncols() {
            return Err(ServeError::BadRequest(format!(
                "batched mxv input {j} has length {} but the matrix has {} columns",
                x.len(),
                a.ncols()
            )));
        }
    }
    let k = xs.len();
    let mut outs: Vec<Vector<f64>> = (0..k).map(|_| Vector::zeros(a.nrows())).collect();
    let inputs: Vec<&[f64]> = xs.iter().map(|x| x.as_slice()).collect();
    let mut acc = vec![0.0f64; k];
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        acc.iter_mut().for_each(|v| *v = 0.0);
        for (&c, &v) in cols.iter().zip(vals) {
            let c = c as usize;
            for (j, a_j) in acc.iter_mut().enumerate() {
                *a_j += v * inputs[j][c];
            }
        }
        for (j, a_j) in acc.iter().enumerate() {
            outs[j].as_mut_slice()[i] = *a_j;
        }
    }
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas::{ctx, Sequential};

    fn awkward_matrix(n: usize) -> CsrMatrix<f64> {
        // Values with no exact binary representation, irregular sparsity:
        // any reassociation of the accumulation would change low bits.
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 0.1 + i as f64 / 3.0));
            if i + 1 < n {
                triplets.push((i, i + 1, -1.0 / 7.0));
            }
            if i >= 2 {
                triplets.push((i, i - 2, 0.3 * i as f64));
            }
            if i % 5 == 0 && i + 3 < n {
                triplets.push((i, i + 3, 1e-12 + i as f64));
            }
        }
        CsrMatrix::from_triplets(n, n, &triplets).unwrap()
    }

    #[test]
    fn batched_outputs_are_bit_identical_to_sequential_mxv() {
        let n = 64;
        let a = awkward_matrix(n);
        let xs: Vec<Vector<f64>> = (0..5)
            .map(|j| {
                Vector::from_dense(
                    (0..n)
                        .map(|i| (i as f64 + 0.1 * j as f64) / 3.0 - 7.0 / 11.0)
                        .collect(),
                )
            })
            .collect();
        let refs: Vec<&Vector<f64>> = xs.iter().collect();
        let batched = batch_mxv(&a, &refs).unwrap();
        for (j, x) in xs.iter().enumerate() {
            let mut direct = Vector::zeros(n);
            ctx::<Sequential>().mxv(&a, x).into(&mut direct).unwrap();
            for (b, d) in batched[j].as_slice().iter().zip(direct.as_slice()) {
                assert_eq!(b.to_bits(), d.to_bits(), "vector {j} diverged");
            }
        }
    }

    #[test]
    fn batch_of_one_matches_too() {
        let a = awkward_matrix(10);
        let x = Vector::from_dense((0..10).map(|i| 1.0 / (i as f64 + 2.0)).collect());
        let batched = batch_mxv(&a, &[&x]).unwrap();
        let mut direct = Vector::zeros(10);
        ctx::<Sequential>().mxv(&a, &x).into(&mut direct).unwrap();
        assert_eq!(batched[0].as_slice(), direct.as_slice());
    }

    #[test]
    fn dimension_mismatch_is_a_bad_request() {
        let a = awkward_matrix(4);
        let short = Vector::from_dense(vec![1.0, 2.0]);
        let e = batch_mxv(&a, &[&short]).unwrap_err();
        assert!(matches!(e, ServeError::BadRequest(_)));
        assert!(e.to_string().contains("length 2"), "got: {e}");
    }
}
