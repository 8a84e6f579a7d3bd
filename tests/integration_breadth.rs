//! Breadth integration tests: the GraphBLAS layer's general-purpose
//! features exercised through HPCG-shaped data — I/O roundtrips feeding
//! the solver, graph algorithms on the stencil graph and subdomain
//! extraction.

use graphblas::io::{
    read_matrix_market, read_vector_market, write_matrix_market, write_vector_market,
};
use graphblas::{algorithms, ctx, extract_submatrix, CsrMatrix, Sequential, Vector};
use hpcg::problem::{build_rhs, build_stencil_matrix, Problem, RhsVariant};
use hpcg::Grid3;
use std::io::BufReader;

#[test]
fn matrix_market_roundtrip_preserves_solver_behaviour() {
    // Serialize the HPCG system, read it back, and check CG sees the same
    // operator: identical spmv results and symmetry.
    let a = build_stencil_matrix(Grid3::cube(6));
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, &a).unwrap();
    let b = read_matrix_market(BufReader::new(&buf[..])).unwrap();
    assert_eq!(a, b);
    assert!(b.is_symmetric());

    let rhs = build_rhs(&a, RhsVariant::Reference);
    let mut vbuf = Vec::new();
    write_vector_market(&mut vbuf, &rhs).unwrap();
    let rhs_back = read_vector_market(BufReader::new(&vbuf[..])).unwrap();
    assert_eq!(rhs.as_slice(), rhs_back.as_slice());
}

#[test]
fn bfs_on_the_stencil_graph_is_chebyshev_distance() {
    let grid = Grid3::cube(5);
    let a = build_stencil_matrix(grid);
    let levels = algorithms::bfs_levels(ctx::<Sequential>(), &a, 0).unwrap();
    for (g, &level) in levels.iter().enumerate() {
        let (x, y, z) = grid.coords(g);
        assert_eq!(level, x.max(y).max(z) as i64, "at {:?}", (x, y, z));
    }
}

#[test]
fn sssp_on_uniform_stencil_weights_matches_bfs() {
    // All off-diagonal weights are −1 in HPCG's A; build a unit-weight
    // version of the adjacency for SSSP.
    let grid = Grid3::cube(4);
    let a = build_stencil_matrix(grid);
    let unit = CsrMatrix::from_row_fn(a.nrows(), a.ncols(), a.nnz(), |r, row| {
        let (cols, _) = a.row(r);
        for &c in cols {
            if c as usize != r {
                row.push((c, 1.0));
            }
        }
    })
    .unwrap();
    let dist = algorithms::sssp(ctx::<Sequential>(), &unit, 0).unwrap();
    let levels = algorithms::bfs_levels(ctx::<Sequential>(), &unit, 0).unwrap();
    for g in 0..grid.len() {
        assert_eq!(dist[g], levels[g] as f64);
    }
}

#[test]
fn stencil_interior_triangle_count_is_positive_and_symmetric() {
    // The 27-point stencil graph is full of triangles; the count must be
    // invariant under the (symmetric) transpose.
    let a = build_stencil_matrix(Grid3::cube(3));
    // Strip the diagonal (triangle counting expects a simple graph).
    let simple = CsrMatrix::from_row_fn(a.nrows(), a.ncols(), a.nnz(), |r, row| {
        let (cols, _) = a.row(r);
        for &c in cols {
            if c as usize != r {
                row.push((c, 1.0));
            }
        }
    })
    .unwrap();
    let t1 = algorithms::triangle_count(ctx::<Sequential>(), &simple).unwrap();
    let t2 = algorithms::triangle_count(ctx::<Sequential>(), &simple.transpose()).unwrap();
    assert!(t1 > 0);
    assert_eq!(t1, t2);
}

#[test]
fn extracted_subdomain_is_a_valid_smaller_stencil() {
    // Extract the principal submatrix of the first z-plane: it must be
    // symmetric and diagonally dominant like the full system.
    let grid = Grid3::cube(4);
    let a = build_stencil_matrix(grid);
    let plane: Vec<u32> = (0..16u32).collect(); // z = 0 plane of a 4³ grid
    let sub = extract_submatrix::<f64, Sequential>(&a, &plane, &plane).unwrap();
    assert_eq!(sub.nrows(), 16);
    assert!(sub.is_symmetric());
    for r in 0..sub.nrows() {
        assert_eq!(sub.get(r, r), Some(26.0));
        let (_, vals) = sub.row(r);
        let offdiag: f64 = vals.iter().filter(|&&v| v < 0.0).map(|v| -v).sum();
        assert!(offdiag < 26.0, "still diagonally dominant");
    }
}

#[test]
fn pagerank_on_stencil_graph_is_uniform_for_interior_symmetry() {
    // A symmetric regular-ish graph gives near-uniform ranks; corners get
    // slightly more mass than interiors under the column-stochastic walk
    // (fewer out-links raises the per-link weight). Just check mass and
    // positivity — the algorithm layer on HPCG-shaped data.
    let a = build_stencil_matrix(Grid3::cube(3));
    let n = a.nrows();
    let mut outdeg = vec![0usize; n];
    for (r, c, _) in a.iter_entries() {
        if r != c {
            outdeg[r] += 1;
        }
    }
    let m = CsrMatrix::from_row_fn(n, n, a.nnz(), |r, row| {
        let (cols, _) = a.row(r);
        // Column r of M gets 1/outdeg(r) at each neighbor: emit by rows of
        // M = transpose of the out-link structure; the stencil is
        // symmetric, so neighbors(r) are exactly the in-links of r.
        for &c in cols {
            if c as usize != r {
                row.push((c, 1.0 / outdeg[c as usize] as f64));
            }
        }
    })
    .unwrap();
    let (rank, iters) = algorithms::pagerank(ctx::<Sequential>(), &m, 0.85, 1e-10, 500).unwrap();
    assert!(iters < 500);
    let total: f64 = rank.as_slice().iter().sum();
    assert!((total - 1.0).abs() < 1e-8);
    assert!(rank.as_slice().iter().all(|&v| v > 0.0));
}

#[test]
fn heat_source_superposition() {
    // Linearity end-to-end: solving for b1 + b2 equals the sum of the two
    // solutions (CG to tight tolerance on an SPD system).
    use graphblas::Parallel;
    use hpcg::cg::{cg_solve, CgWorkspace};
    use hpcg::mg::MgWorkspace;
    use hpcg::{GrbHpcg, Kernels};
    let p = Problem::build_with(Grid3::cube(8), 2, RhsVariant::Reference).unwrap();
    let n = p.n();
    let mut k = GrbHpcg::<Parallel>::new(p);
    let mut cg_ws = CgWorkspace::new(&k);
    let mut mg_ws = MgWorkspace::new(&k);
    let solve = |b: &Vector<f64>,
                 k: &mut GrbHpcg<Parallel>,
                 cg_ws: &mut CgWorkspace<Vector<f64>>,
                 mg_ws: &mut MgWorkspace<Vector<f64>>| {
        let mut x = k.alloc(0);
        let r = cg_solve(k, cg_ws, mg_ws, b, &mut x, 200, 1e-12, true);
        assert!(r.relative_residual <= 1e-12);
        x
    };
    let b1 = Vector::from_dense((0..n).map(|i| ((i % 7) as f64) - 3.0).collect());
    let b2 = Vector::from_dense((0..n).map(|i| ((i % 5) as f64) * 0.5).collect());
    let mut b12 = Vector::zeros(n);
    graphblas::ctx::<Sequential>()
        .ewise(&b1, &b2)
        .scaled(1.0, 1.0)
        .into(&mut b12)
        .unwrap();
    let x1 = solve(&b1, &mut k, &mut cg_ws, &mut mg_ws);
    let x2 = solve(&b2, &mut k, &mut cg_ws, &mut mg_ws);
    let x12 = solve(&b12, &mut k, &mut cg_ws, &mut mg_ws);
    for i in 0..n {
        let sum = x1.as_slice()[i] + x2.as_slice()[i];
        assert!(
            (x12.as_slice()[i] - sum).abs() < 1e-7,
            "superposition violated at {i}: {} vs {sum}",
            x12.as_slice()[i]
        );
    }
}
