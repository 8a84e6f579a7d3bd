//! `extract`: submatrix selection.
//!
//! The GraphBLAS C API's `GrB_Matrix_extract`, restricted to explicit index
//! lists (the form solvers use to carve subdomains out of global
//! containers). It is a setup-time operation here — HPCG's hot path never
//! slices — so the kernel favors clarity and validation over parallel
//! tuning.

use crate::backend::Backend;
use crate::container::matrix::CsrMatrix;
use crate::error::{GrbError, Result};
use crate::ops::scalar::Scalar;

/// Extracts the submatrix `A[rows, cols]` as a new CSR matrix.
///
/// `rows` and `cols` are explicit index lists; `cols` must be strictly
/// increasing (keeps the output's column order sorted in one pass), `rows`
/// may repeat or reorder — the `GrB_Matrix_extract` contract.
pub fn extract_submatrix<T, B>(a: &CsrMatrix<T>, rows: &[u32], cols: &[u32]) -> Result<CsrMatrix<T>>
where
    T: Scalar,
    B: Backend,
{
    for &r in rows {
        if r as usize >= a.nrows() {
            return Err(GrbError::IndexOutOfBounds {
                index: r as usize,
                len: a.nrows(),
            });
        }
    }
    // Inverse column map: global column -> output column (or absent).
    let mut col_map: Vec<u32> = vec![u32::MAX; a.ncols()];
    for (k, &c) in cols.iter().enumerate() {
        if c as usize >= a.ncols() {
            return Err(GrbError::IndexOutOfBounds {
                index: c as usize,
                len: a.ncols(),
            });
        }
        if k > 0 && cols[k - 1] >= c {
            return Err(GrbError::InvalidInput(
                "extract columns must be strictly increasing".into(),
            ));
        }
        col_map[c as usize] = k as u32;
    }
    CsrMatrix::from_row_fn(rows.len(), cols.len(), rows.len() * 8, |out_r, row| {
        let (rcols, rvals) = a.row(rows[out_r] as usize);
        for (&c, &v) in rcols.iter().zip(rvals) {
            let mapped = col_map[c as usize];
            if mapped != u32::MAX {
                row.push((mapped, v));
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Sequential;

    #[test]
    fn extract_submatrix_basic() {
        // [[1, 2, 0],
        //  [0, 3, 4],
        //  [5, 0, 6]]
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 1, 3.0),
                (1, 2, 4.0),
                (2, 0, 5.0),
                (2, 2, 6.0),
            ],
        )
        .unwrap();
        // Rows [2, 0], columns [0, 2] → [[5, 6], [1, 0]].
        let sub = extract_submatrix::<f64, Sequential>(&a, &[2, 0], &[0, 2]).unwrap();
        assert_eq!(sub.nrows(), 2);
        assert_eq!(sub.ncols(), 2);
        assert_eq!(sub.get(0, 0), Some(5.0));
        assert_eq!(sub.get(0, 1), Some(6.0));
        assert_eq!(sub.get(1, 0), Some(1.0));
        assert_eq!(sub.get(1, 1), None);
    }

    #[test]
    fn extract_submatrix_validates() {
        let a = CsrMatrix::<f64>::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        assert!(extract_submatrix::<f64, Sequential>(&a, &[5], &[0]).is_err());
        assert!(extract_submatrix::<f64, Sequential>(&a, &[0], &[5]).is_err());
        assert!(
            extract_submatrix::<f64, Sequential>(&a, &[0], &[1, 0]).is_err(),
            "cols must increase"
        );
    }

    #[test]
    fn extract_principal_submatrix_keeps_symmetry() {
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 2, -1.0),
                (2, 0, -1.0),
                (1, 1, 3.0),
                (2, 2, 2.0),
            ],
        )
        .unwrap();
        let sub = extract_submatrix::<f64, Sequential>(&a, &[0, 2], &[0, 2]).unwrap();
        assert!(sub.is_symmetric());
        assert_eq!(sub.get(0, 1), Some(-1.0));
    }
}
