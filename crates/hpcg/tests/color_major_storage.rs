//! HPCG's operators are stored colour-major — and nothing but speed knows.
//!
//! `problem::build_stencil_matrix` lays every multigrid level's rows out
//! by parity octant (paper §III: the container is opaque, so its storage
//! order is the implementation's to choose) so that one RBGS colour step
//! is one contiguous stream. Two things pin that here: the layout really
//! is what the smoother's masks select, on every level of cubic and
//! non-cubic grids; and a whole multigrid-preconditioned solve on it is
//! bit-identical, residual by residual, to the same solve on index-order
//! copies of the operators.

use graphblas::{ctx, CsrMatrix, Ctx, Distributed, Exec, Parallel, Sequential};
use hpcg::coloring::octant_coloring;
use hpcg::{cg_solve, CgWorkspace, GrbHpcg, Grid3, Kernels, MgWorkspace, Problem, RhsVariant};
use std::collections::BTreeMap;

#[test]
fn every_colour_mask_selects_one_contiguous_ascending_run_of_storage() {
    for grid in [
        Grid3::cube(8),
        Grid3::cube(16),
        Grid3::cube(32),
        Grid3::new(8, 16, 24),
    ] {
        let problem = Problem::build(grid).unwrap();
        for level in &problem.levels {
            let g = level.grid;
            // The storage order is built from the closed-form octants; the
            // masks come from the greedy colouring. They are the same
            // classes in the same order (a grid one point thin uses fewer
            // octants, which greedy numbers without gaps).
            let mut octants = BTreeMap::<u8, Vec<u32>>::new();
            for (r, &c) in octant_coloring(g).color.iter().enumerate() {
                octants.entry(c).or_default().push(r as u32);
            }
            let octants: Vec<Vec<u32>> = octants.into_values().collect();
            assert_eq!(level.color_classes, octants, "{g:?}");
            let mut next_slot = 0;
            for (colour, mask) in level.color_masks.iter().enumerate() {
                let rows = mask.pattern().expect("colour masks are sparse patterns");
                assert_eq!(rows, &level.color_classes[colour][..]);
                for &r in rows {
                    assert_eq!(
                        level.a.storage_slot(r as usize),
                        next_slot,
                        "{g:?} colour {colour} row {r}"
                    );
                    next_slot += 1;
                }
            }
            assert_eq!(next_slot, level.n(), "{g:?}: the masks cover every row");
        }
    }
}

/// `a` with the same rows under the same numbers, stored in index order.
fn index_order_copy(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    CsrMatrix::from_row_fn(a.nrows(), a.ncols(), a.nnz(), |r, row| {
        let (cols, vals) = a.row(r);
        row.extend(cols.iter().copied().zip(vals.iter().copied()));
    })
    .unwrap()
}

/// Every bit a preconditioned solve produces: the residual after each
/// iteration, then the solution.
fn solve_bits<E: Exec>(exec: Ctx<E>, problem: &Problem) -> Vec<u64> {
    let mut k = GrbHpcg::with_ctx(problem.clone(), exec);
    let mut cg_ws = CgWorkspace::new(&k);
    let mut mg_ws = MgWorkspace::new(&k);
    let mut x = k.alloc(0);
    let b = problem.b.clone();
    let res = cg_solve(&mut k, &mut cg_ws, &mut mg_ws, &b, &mut x, 8, 0.0, true);
    assert_eq!(res.residual_history.len(), 8, "one residual per iteration");
    res.residual_history
        .iter()
        .chain(x.as_slice())
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn a_solve_on_index_order_operators_has_the_same_residual_history() {
    let stored = Problem::build_with(Grid3::cube(16), 4, RhsVariant::Reference).unwrap();
    let mut index = stored.clone();
    for level in &mut index.levels {
        let copy = index_order_copy(&level.a);
        assert_eq!(copy, level.a, "same matrix");
        assert_eq!(copy.storage_slot(1), 1, "stored in index order");
        level.a = copy;
    }
    assert_ne!(stored.levels[0].a.storage_slot(1), 1, "stored colour-major");
    assert_eq!(
        solve_bits(ctx::<Sequential>(), &stored),
        solve_bits(ctx::<Sequential>(), &index),
        "seq"
    );
    assert_eq!(
        solve_bits(ctx::<Parallel>(), &stored),
        solve_bits(ctx::<Parallel>(), &index),
        "par"
    );
    assert_eq!(
        solve_bits(Distributed::new(2).ctx(), &stored),
        solve_bits(Distributed::new(2).ctx(), &index),
        "dist:2"
    );
}
