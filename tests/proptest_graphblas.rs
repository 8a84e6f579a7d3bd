//! Property-based tests of the GraphBLAS substrate's algebraic contracts
//! and of the deferred (pipeline) path's equivalence with the eager
//! builders.
//!
//! Values are drawn from small integer ranges mapped into `f64`, so every
//! arithmetic identity holds *exactly* (no floating-point tolerance games):
//! linearity of `mxv`, transpose involution, mask decomposition, semiring
//! annihilation, monoid laws — and bit-identity of the `ctx.pipeline()`
//! recording path against the eager builders across every
//! masked/structural/inverted/transposed/accumulated combination, on both
//! backends.

use graphblas::{
    ctx, Backend, CsrMatrix, Max, Min, MinPlus, Parallel, Plus, Sequential, Times, Vector,
};
use proptest::prelude::*;

/// A random sparse matrix with integer-valued entries.
fn arb_matrix(max_dim: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    (1..max_dim, 1..max_dim).prop_flat_map(|(nrows, ncols)| {
        proptest::collection::vec((0..nrows, 0..ncols, -4i64..=4), 0..(nrows * ncols).min(64))
            .prop_map(move |trips| {
                let t: Vec<(usize, usize, f64)> = trips
                    .into_iter()
                    .map(|(r, c, v)| (r, c, v as f64))
                    .collect();
                CsrMatrix::from_triplets(nrows, ncols, &t).unwrap()
            })
    })
}

fn arb_vector(len: usize) -> impl Strategy<Value = Vector<f64>> {
    proptest::collection::vec(-4i64..=4, len)
        .prop_map(|v| Vector::from_dense(v.into_iter().map(|x| x as f64).collect()))
}

fn run_mxv(a: &CsrMatrix<f64>, x: &Vector<f64>) -> Vector<f64> {
    let mut y = Vector::zeros(a.nrows());
    ctx::<Sequential>().mxv(a, x).into(&mut y).unwrap();
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mxv_is_linear(a in arb_matrix(12)) {
        let n = a.ncols();
        let exec = ctx::<Sequential>();
        let strategy = (arb_vector(n), arb_vector(n), -3i64..=3, -3i64..=3);
        proptest!(|((x, y, alpha, beta) in strategy)| {
            let (alpha, beta) = (alpha as f64, beta as f64);
            // A(αx + βy)
            let mut combo = Vector::zeros(n);
            exec.ewise(&x, &y).scaled(alpha, beta).into(&mut combo).unwrap();
            let lhs = run_mxv(&a, &combo);
            // αAx + βAy
            let ax = run_mxv(&a, &x);
            let ay = run_mxv(&a, &y);
            let mut rhs = Vector::zeros(a.nrows());
            exec.ewise(&ax, &ay).scaled(alpha, beta).into(&mut rhs).unwrap();
            prop_assert_eq!(lhs.as_slice(), rhs.as_slice());
        });
    }

    #[test]
    fn transpose_is_involution(a in arb_matrix(14)) {
        let tt = a.transpose().transpose();
        prop_assert_eq!(a.nrows(), tt.nrows());
        prop_assert_eq!(a.ncols(), tt.ncols());
        prop_assert_eq!(a.nnz(), tt.nnz());
        for (r, c, v) in a.iter_entries() {
            prop_assert_eq!(tt.get(r, c), Some(v));
        }
    }

    #[test]
    fn transpose_descriptor_matches_materialized(a in arb_matrix(12), seed in 0u64..1000) {
        let x: Vector<f64> = Vector::from_dense(
            (0..a.nrows()).map(|i| ((i as u64 * 7 + seed) % 9) as f64 - 4.0).collect(),
        );
        let mut via_desc = Vector::zeros(a.ncols());
        ctx::<Sequential>().mxv(&a, &x).transpose().into(&mut via_desc).unwrap();
        let at = a.transpose();
        let via_mat = run_mxv(&at, &x);
        prop_assert_eq!(via_desc.as_slice(), via_mat.as_slice());
    }

    #[test]
    fn dot_transpose_adjoint(a in arb_matrix(10)) {
        // ⟨Ax, y⟩ == ⟨x, Aᵀy⟩ exactly for integer data.
        let exec = ctx::<Sequential>();
        let nr = a.nrows();
        let nc = a.ncols();
        let x = Vector::from_dense((0..nc).map(|i| ((i * 3) % 7) as f64 - 3.0).collect());
        let y = Vector::from_dense((0..nr).map(|i| ((i * 5) % 9) as f64 - 4.0).collect());
        let ax = run_mxv(&a, &x);
        let lhs = exec.dot(&ax, &y).compute().unwrap();
        let mut aty = Vector::zeros(nc);
        exec.mxv(&a, &y).transpose().into(&mut aty).unwrap();
        let rhs = exec.dot(&x, &aty).compute().unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mask_and_complement_partition_the_output(
        a in arb_matrix(12),
        mask_bits in proptest::collection::vec(proptest::bool::ANY, 0..12),
    ) {
        let n = a.nrows();
        let bits: Vec<bool> = (0..n).map(|i| mask_bits.get(i).copied().unwrap_or(false)).collect();
        let idx: Vec<u32> =
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i as u32).collect();
        if idx.is_empty() || idx.len() == n {
            return Ok(());
        }
        let mask = Vector::<bool>::sparse_filled(n, idx, true).unwrap();
        let x = Vector::from_dense((0..a.ncols()).map(|i| (i % 5) as f64 - 2.0).collect());
        let exec = ctx::<Sequential>();

        let full = run_mxv(&a, &x);
        let mut masked = Vector::from_dense(vec![f64::NAN; n]);
        exec.mxv(&a, &x).mask(&mask).structural().into(&mut masked).unwrap();
        let mut complement = Vector::from_dense(vec![f64::NAN; n]);
        exec.mxv(&a, &x).mask(&mask).structural().invert_mask().into(&mut complement).unwrap();

        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                prop_assert_eq!(masked.as_slice()[i], full.as_slice()[i]);
                prop_assert!(complement.as_slice()[i].is_nan(), "complement untouched at {}", i);
            } else {
                prop_assert!(masked.as_slice()[i].is_nan(), "masked untouched at {}", i);
                prop_assert_eq!(complement.as_slice()[i], full.as_slice()[i]);
            }
        }
    }

    #[test]
    fn mxv_accum_is_mxv_plus_previous(a in arb_matrix(12)) {
        let exec = ctx::<Sequential>();
        let x = Vector::from_dense((0..a.ncols()).map(|i| (i % 3) as f64).collect());
        let y0 = Vector::from_dense((0..a.nrows()).map(|i| (i % 4) as f64 - 1.0).collect());
        let mut accumed = y0.clone();
        exec.mxv(&a, &x).accum(Plus).into(&mut accumed).unwrap();
        let ax = run_mxv(&a, &x);
        let mut expected = Vector::zeros(a.nrows());
        exec.ewise(&y0, &ax).scaled(1.0, 1.0).into(&mut expected).unwrap();
        prop_assert_eq!(accumed.as_slice(), expected.as_slice());
    }

    #[test]
    fn masked_transpose_equals_masked_materialized_transpose(
        a in arb_matrix(12),
        mask_bits in proptest::collection::vec(proptest::bool::ANY, 0..12),
    ) {
        // The satellite fix: TRANSPOSE + mask (formerly Unsupported) must
        // agree with masking the materialized-transpose product.
        let n = a.ncols();
        let bits: Vec<bool> = (0..n).map(|i| mask_bits.get(i).copied().unwrap_or(false)).collect();
        let idx: Vec<u32> =
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i as u32).collect();
        if idx.is_empty() {
            return Ok(());
        }
        let mask = Vector::<bool>::sparse_filled(n, idx, true).unwrap();
        let x = Vector::from_dense((0..a.nrows()).map(|i| (i % 7) as f64 - 3.0).collect());
        let exec = ctx::<Sequential>();

        let mut via_desc = Vector::from_dense(vec![-9.0; n]);
        exec.mxv(&a, &x).transpose().mask(&mask).structural().into(&mut via_desc).unwrap();

        let at = a.transpose();
        let mut via_mat = Vector::from_dense(vec![-9.0; n]);
        exec.mxv(&at, &x).mask(&mask).structural().into(&mut via_mat).unwrap();
        prop_assert_eq!(via_desc.as_slice(), via_mat.as_slice());
    }

    #[test]
    fn reduce_agrees_with_iterator_folds(v in proptest::collection::vec(-50i64..=50, 0..64)) {
        let exec = ctx::<Sequential>();
        let x = Vector::from_dense(v.iter().map(|&i| i as f64).collect::<Vec<_>>());
        let sum = exec.reduce(&x).compute().unwrap();
        prop_assert_eq!(sum, v.iter().sum::<i64>() as f64);
        let mn = exec.reduce(&x).monoid(Min).compute().unwrap();
        let expected_min = v.iter().copied().min().map(|m| m as f64).unwrap_or(f64::INFINITY);
        prop_assert_eq!(mn, expected_min);
        let mx = exec.reduce(&x).monoid(Max).compute().unwrap();
        let expected_max = v.iter().copied().max().map(|m| m as f64).unwrap_or(f64::NEG_INFINITY);
        prop_assert_eq!(mx, expected_max);
    }

    #[test]
    fn min_plus_mxv_relaxes_distances(a in arb_matrix(10)) {
        // One tropical mxv step never *increases* any distance bound
        // reachable through an edge: y_i = min_j (A_ij + x_j) ≤ A_ik + x_k.
        let x = Vector::from_dense((0..a.ncols()).map(|i| (i % 6) as f64).collect());
        let mut y = Vector::zeros(a.nrows());
        ctx::<Sequential>().mxv(&a, &x).ring(MinPlus).into(&mut y).unwrap();
        for (r, c, v) in a.iter_entries() {
            prop_assert!(y.as_slice()[r] <= v + x.as_slice()[c] + 1e-12);
        }
    }

    #[test]
    fn ewise_times_matches_pointwise(len in 1usize..40) {
        let x = Vector::from_dense((0..len).map(|i| (i % 7) as f64 - 3.0).collect());
        let y = Vector::from_dense((0..len).map(|i| (i % 5) as f64 - 2.0).collect());
        let mut w = Vector::zeros(len);
        ctx::<Sequential>().ewise(&x, &y).op(graphblas::Times).into(&mut w).unwrap();
        for i in 0..len {
            prop_assert_eq!(w.as_slice()[i], x.as_slice()[i] * y.as_slice()[i]);
        }
    }
}

/// Bit-identity of the deferred (pipeline) path against the eager builder
/// path, the acceptance contract for the nonblocking-execution subsystem:
/// for every combination of mask presence × structural × inverted ×
/// transposed × accumulator, on both backends, recording the op into a
/// `ctx.pipeline()` and finishing must produce exactly the bytes the eager
/// builder did.
mod pipeline_equals_eager {
    use super::*;

    fn mask_for(len: usize, bits: &[bool]) -> Option<Vector<bool>> {
        let idx: Vec<u32> = (0..len)
            .filter(|&i| bits.get(i).copied().unwrap_or(false))
            .map(|i| i as u32)
            .collect();
        if idx.is_empty() {
            None
        } else {
            Some(Vector::<bool>::sparse_filled(len, idx, true).unwrap())
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_mxv_equivalence<B: Backend>(
        a: &CsrMatrix<f64>,
        x_rows: &Vector<f64>,
        x_cols: &Vector<f64>,
        mask_bits: &[bool],
        structural: bool,
        inverted: bool,
        transposed: bool,
        accumulate: bool,
    ) -> Result<(), TestCaseError> {
        let (x, out_len) = if transposed {
            (x_rows, a.ncols())
        } else {
            (x_cols, a.nrows())
        };
        let mask = mask_for(out_len, mask_bits);
        let y0: Vector<f64> =
            Vector::from_dense((0..out_len).map(|i| (i % 5) as f64 - 2.0).collect());

        let mut y_eager = y0.clone();
        let mut b = ctx::<B>().mxv(a, x);
        if let Some(m) = mask.as_ref() {
            b = b.mask(m);
        }
        if structural {
            b = b.structural();
        }
        if inverted {
            b = b.invert_mask();
        }
        if transposed {
            b = b.transpose();
        }
        let eager_result = if accumulate {
            b.accum(Plus).into(&mut y_eager)
        } else {
            b.into(&mut y_eager)
        };

        let mut y_pipe = y0.clone();
        let mut pl = ctx::<B>().pipeline();
        {
            let mut pb = pl.mxv(a, x);
            if let Some(m) = mask.as_ref() {
                pb = pb.mask(m);
            }
            if structural {
                pb = pb.structural();
            }
            if inverted {
                pb = pb.invert_mask();
            }
            if transposed {
                pb = pb.transpose();
            }
            if accumulate {
                pb.accum(Plus).into(&mut y_pipe);
            } else {
                pb.into(&mut y_pipe);
            }
        }
        let pipe_result = pl.finish();

        prop_assert_eq!(eager_result.is_ok(), pipe_result.is_ok());
        if eager_result.is_ok() {
            prop_assert_eq!(y_eager.as_slice(), y_pipe.as_slice());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn mxv_pipeline_bit_identical_to_eager(
            a in arb_matrix(10),
            mask_bits in proptest::collection::vec(proptest::bool::ANY, 0..10),
            flags in (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
        ) {
            let (structural, inverted, transposed, accumulate) = flags;
            let x_rows = Vector::from_dense((0..a.nrows()).map(|i| (i % 7) as f64 - 3.0).collect());
            let x_cols = Vector::from_dense((0..a.ncols()).map(|i| (i % 7) as f64 - 3.0).collect());
            check_mxv_equivalence::<Sequential>(
                &a, &x_rows, &x_cols, &mask_bits, structural, inverted, transposed, accumulate,
            )?;
            check_mxv_equivalence::<Parallel>(
                &a, &x_rows, &x_cols, &mask_bits, structural, inverted, transposed, accumulate,
            )?;
        }

        #[test]
        fn ewise_pipeline_bit_identical_to_eager(
            len in 1usize..24,
            mask_bits in proptest::collection::vec(proptest::bool::ANY, 0..24),
            structural in proptest::bool::ANY,
            inverted in proptest::bool::ANY,
            accumulate in proptest::bool::ANY,
            scale in (-3i64..=3, -3i64..=3),
        ) {
            let x = Vector::from_dense((0..len).map(|i| (i % 7) as f64 - 3.0).collect());
            let y = Vector::from_dense((0..len).map(|i| (i % 5) as f64 - 2.0).collect());
            let mask = mask_for(len, &mask_bits);
            let (alpha, beta) = (scale.0 as f64, scale.1 as f64);
            let w0: Vector<f64> = Vector::from_dense(vec![9.0; len]);

            for par in [false, true] {
                macro_rules! run_both {
                    ($B:ty) => {{
                        let mut w_eager = w0.clone();
                        let mut b = ctx::<$B>().ewise(&x, &y).op(Times).scaled(alpha, beta);
                        if let Some(m) = mask.as_ref() { b = b.mask(m); }
                        if structural { b = b.structural(); }
                        if inverted { b = b.invert_mask(); }
                        if accumulate {
                            b.accum(Plus).into(&mut w_eager).unwrap();
                        } else {
                            b.into(&mut w_eager).unwrap();
                        }

                        let mut w_pipe = w0.clone();
                        let mut pl = ctx::<$B>().pipeline();
                        {
                            let mut pb = pl.ewise(&x, &y).op(Times).scaled(alpha, beta);
                            if let Some(m) = mask.as_ref() { pb = pb.mask(m); }
                            if structural { pb = pb.structural(); }
                            if inverted { pb = pb.invert_mask(); }
                            if accumulate {
                                pb.accum(Plus).into(&mut w_pipe);
                            } else {
                                pb.into(&mut w_pipe);
                            }
                        }
                        pl.finish().unwrap();
                        prop_assert_eq!(w_eager.as_slice(), w_pipe.as_slice());
                    }};
                }
                if par { run_both!(Parallel) } else { run_both!(Sequential) }
            }
        }

        #[test]
        fn reduce_and_dot_pipeline_bit_identical_to_eager(
            v in proptest::collection::vec(-9i64..=9, 1..48),
            mask_bits in proptest::collection::vec(proptest::bool::ANY, 0..48),
            structural in proptest::bool::ANY,
            inverted in proptest::bool::ANY,
        ) {
            let x = Vector::from_dense(v.iter().map(|&i| i as f64).collect::<Vec<_>>());
            let y = Vector::from_dense(v.iter().map(|&i| (i * 2 % 5) as f64).collect::<Vec<_>>());
            let mask = mask_for(x.len(), &mask_bits);

            macro_rules! reduce_eager {
                ($B:ty, $monoid:expr) => {{
                    let mut b = ctx::<$B>().reduce(&x).monoid($monoid);
                    if let Some(m) = mask.as_ref() { b = b.mask(m); }
                    if structural { b = b.structural(); }
                    if inverted { b = b.invert_mask(); }
                    b.compute().unwrap()
                }};
            }
            macro_rules! reduce_pipe {
                ($B:ty, $monoid:expr) => {{
                    let mut pl = ctx::<$B>().pipeline();
                    let h = {
                        let mut pb = pl.reduce(&x).monoid($monoid);
                        if let Some(m) = mask.as_ref() { pb = pb.mask(m); }
                        if structural { pb = pb.structural(); }
                        if inverted { pb = pb.invert_mask(); }
                        pb.result()
                    };
                    pl.finish().unwrap()[h]
                }};
            }

            prop_assert_eq!(reduce_eager!(Sequential, Plus), reduce_pipe!(Sequential, Plus));
            prop_assert_eq!(reduce_eager!(Parallel, Max), reduce_pipe!(Parallel, Max));

            let dot_eager = ctx::<Parallel>().dot(&x, &y).compute().unwrap();
            let mut pl = ctx::<Parallel>().pipeline();
            let dh = pl.dot(&x, &y).result();
            prop_assert_eq!(dot_eager, pl.finish().unwrap()[dh]);

            let min_eager = ctx::<Sequential>().dot(&x, &y).ring(MinPlus).compute().unwrap();
            let mut pl = ctx::<Sequential>().pipeline();
            let mh = pl.dot(&x, &y).ring(MinPlus).result();
            prop_assert_eq!(min_eager, pl.finish().unwrap()[mh]);
        }
    }
}
