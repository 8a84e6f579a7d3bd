//! Property-based tests of the HPCG layers: problem generation invariants,
//! coloring validity, smoother equivalences and solver behaviour on
//! randomly shaped (small) grids.

use graphblas::{ctx, CsrMatrix, Ctx, Distributed, Exec, Plus, Sequential, Vector};
use hpcg::coloring::{octant_coloring, Coloring};
use hpcg::problem::{build_rhs, build_stencil_matrix, Problem, RhsVariant};
use hpcg::smoother::{rbgs_grb, rbgs_ref};
use hpcg::Grid3;
use proptest::prelude::*;

fn arb_grid() -> impl Strategy<Value = Grid3> {
    (2usize..6, 2usize..6, 2usize..6).prop_map(|(x, y, z)| Grid3::new(x, y, z))
}

/// Refines `zc` into zeros through the restriction's transpose, restricts
/// the result back, and returns its bits.
fn refine_then_restrict<E: Exec>(exec: Ctx<E>, r: &CsrMatrix<f64>, zc: &Vector<f64>) -> Vec<u64> {
    let mut fine = Vector::zeros(r.ncols());
    exec.mxv(r, zc)
        .transpose()
        .accum(Plus)
        .into(&mut fine)
        .unwrap();
    let mut back = Vector::zeros(r.nrows());
    exec.mxv(r, &fine).into(&mut back).unwrap();
    back.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stencil_matrix_invariants(grid in arb_grid()) {
        let a = build_stencil_matrix(grid);
        prop_assert_eq!(a.nrows(), grid.len());
        prop_assert!(a.is_symmetric());
        for r in 0..a.nrows() {
            let nnz = a.row_nnz(r);
            prop_assert!((8..=27).contains(&nnz) || grid.len() < 8);
            // Diagonal dominance: 26 > nnz - 1 (≤ 26).
            prop_assert_eq!(a.get(r, r), Some(26.0));
        }
    }

    #[test]
    fn reference_rhs_solution_is_ones(grid in arb_grid()) {
        let a = build_stencil_matrix(grid);
        let b = build_rhs(&a, RhsVariant::Reference);
        for r in 0..a.nrows() {
            let (_, vals) = a.row(r);
            let row_sum: f64 = vals.iter().sum();
            prop_assert!((row_sum - b.as_slice()[r]).abs() < 1e-12);
        }
    }

    #[test]
    fn greedy_coloring_valid_and_at_most_eight(grid in arb_grid()) {
        let a = build_stencil_matrix(grid);
        let c = Coloring::greedy(&a);
        prop_assert!(c.verify(&a));
        prop_assert!(c.num_colors <= 8);
        // Classes partition the index set.
        let total: usize = c.classes().iter().map(Vec::len).sum();
        prop_assert_eq!(total, grid.len());
        // Octant coloring is also valid on every grid.
        let oct = octant_coloring(grid);
        prop_assert!(oct.verify(&a));
    }

    #[test]
    fn rbgs_ref_equals_rbgs_grb_bitwise(grid in arb_grid(), sweeps in 1usize..3) {
        let a = build_stencil_matrix(grid);
        let diag = a.extract_diagonal();
        let coloring = Coloring::greedy(&a);
        let classes = coloring.classes();
        let masks = coloring.masks(a.nrows());
        let b = build_rhs(&a, RhsVariant::Reference);

        let mut x_ref = vec![0.0f64; a.nrows()];
        let mut x_grb = Vector::zeros(a.nrows());
        let mut tmp = Vector::zeros(a.nrows());
        for _ in 0..sweeps {
            rbgs_ref::rbgs_symmetric(&a, diag.as_slice(), &classes, b.as_slice(), &mut x_ref);
            rbgs_grb::rbgs_symmetric(ctx::<Sequential>(), &a, &diag, &masks, &b, &mut x_grb, &mut tmp)
                .unwrap();
        }
        prop_assert_eq!(x_ref.as_slice(), x_grb.as_slice());
    }

    #[test]
    fn smoother_is_a_contraction_toward_the_solution(grid in arb_grid()) {
        // ‖x − 1‖ must shrink under symmetric RBGS for the reference rhs.
        let a = build_stencil_matrix(grid);
        let diag = a.extract_diagonal();
        let coloring = Coloring::greedy(&a);
        let classes = coloring.classes();
        let b = build_rhs(&a, RhsVariant::Reference);
        let mut x = vec![0.0f64; a.nrows()];
        let err = |x: &[f64]| -> f64 {
            x.iter().map(|&v| (v - 1.0) * (v - 1.0)).sum::<f64>().sqrt()
        };
        let e0 = err(&x);
        rbgs_ref::rbgs_symmetric(&a, diag.as_slice(), &classes, b.as_slice(), &mut x);
        let e1 = err(&x);
        prop_assert!(e1 < e0, "error grew: {} -> {}", e0, e1);
    }

    #[test]
    fn hierarchy_sizes_shrink_by_eight(exp in 0usize..2) {
        let side = 8 << exp; // 8 or 16
        let levels = 3;
        let p = Problem::build_with(Grid3::cube(side), levels, RhsVariant::Reference).unwrap();
        for w in p.levels.windows(2) {
            prop_assert_eq!(w[0].n(), 8 * w[1].n());
            // Restriction maps the coarse space from the fine one.
            let r = w[0].restriction.as_ref().unwrap();
            prop_assert_eq!(r.nrows(), w[1].n());
            prop_assert_eq!(r.ncols(), w[0].n());
        }
    }

    #[test]
    fn injection_roundtrip_preserves_coarse_values(grid in arb_grid()) {
        // restrict(refine(zc)) == zc: straight injection is a left inverse
        // of its transpose. Refinement is the transposed, accumulating
        // `mxv` every `prolong_add` runs.
        if grid.nx % 2 != 0 || grid.ny % 2 != 0 || grid.nz % 2 != 0 {
            return Ok(());
        }
        let p = Problem::build_with(grid, 2, RhsVariant::Reference).unwrap();
        let r = p.levels[0].restriction.as_ref().unwrap();
        let zc = Vector::from_dense((0..r.nrows()).map(|i| (i % 9) as f64 - 4.0).collect());
        let want: Vec<u64> = zc.as_slice().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(refine_then_restrict(ctx::<Sequential>(), r, &zc), want.clone());
        prop_assert_eq!(refine_then_restrict(Distributed::new(2).ctx(), r, &zc), want);
    }
}
