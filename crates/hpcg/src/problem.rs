//! HPCG input generation (paper §II-B).
//!
//! Generates the synthetic heat-diffusion problem: the 27-point stencil
//! matrix `A` (diagonal 26, off-diagonals −1 — diagonally dominant and
//! symmetric positive definite), the right-hand side `b`, the initial guess
//! `x⁽⁰⁾ = 0`, and the multigrid hierarchy: each coarser level halves every
//! grid dimension and regenerates the stencil on the coarse grid, exactly
//! as the HPCG reference does (rediscretization, not Galerkin coarsening).
//!
//! Every operator is **stored colour-major**: row numbers are HPCG's
//! lexicographic grid indices and stay so — `b`, the masks, the restriction
//! matrices and every shard layout are untouched — but inside the
//! `CsrMatrix` (an opaque container, paper §III) the rows of one parity
//! octant lie together, so each RBGS colour step streams one contiguous
//! eighth of the operator instead of every second row in x, y and z.
//! [`build_stencil_matrix`] generates the rows directly in that order; ALP
//! and Ref share the matrix, so both get the layout. It is a locality
//! choice only: every result bit is what an index-order operator gives.
//!
//! Per level the generator also precomputes everything the smoothers and
//! grid-transfer kernels need:
//!
//! * `a_diag` — the diagonal as a vector, because GraphBLAS gives no
//!   constant-time access to matrix entries (§III-A);
//! * the greedy coloring, its index classes (for the reference RBGS) and
//!   its sparse boolean masks (for the GraphBLAS RBGS);
//! * the coarse→fine injection map, as a raw index array (reference) and
//!   as a materialized `n/8 × n` CSR restriction matrix (GraphBLAS,
//!   §III-B) with one `1.0` per row `i`, at column `f2c[i]`.

use crate::coloring::{octant_coloring, Coloring};
use crate::geometry::Grid3;
use graphblas::{CsrMatrix, GrbError, Vector};

/// Stencil diagonal value (HPCG reference: 26).
pub const DIAG_VALUE: f64 = 26.0;
/// Stencil off-diagonal value (HPCG reference: −1).
pub const OFFDIAG_VALUE: f64 = -1.0;
/// Default number of multigrid levels (HPCG reference: 4).
pub const DEFAULT_LEVELS: usize = 4;

/// Which right-hand side to generate.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum RhsVariant {
    /// The HPCG reference rhs `b_i = 26 − (nnz_i − 1)`, whose exact solution
    /// is the all-ones vector — lets tests check convergence to a known x.
    #[default]
    Reference,
    /// `b = 1`, the variant the paper's §II-B quotes.
    Ones,
}

/// Builds the 27-point stencil matrix on `grid`, stored colour-major:
/// rows sorted by [`octant_coloring`] — the classes the greedy colouring
/// finds on this stencil — and by index within a colour, so every colour
/// mask selects one contiguous run of storage (see the module docs).
pub fn build_stencil_matrix(grid: Grid3) -> CsrMatrix<f64> {
    let n = grid.len();
    let octant = octant_coloring(grid).color;
    let mut storage_order: Vec<u32> = (0..n as u32).collect();
    storage_order.sort_by_key(|&r| octant[r as usize]);
    CsrMatrix::from_row_fn_stored(n, n, n * 27, &storage_order, |r, row| {
        grid.for_each_stencil_neighbor(r, |j| {
            row.push((j as u32, if j == r { DIAG_VALUE } else { OFFDIAG_VALUE }));
        });
    })
    .expect("stencil emission yields valid CSR by construction")
}

/// Builds the rhs for `a` under `variant`.
pub fn build_rhs(a: &CsrMatrix<f64>, variant: RhsVariant) -> Vector<f64> {
    match variant {
        RhsVariant::Ones => Vector::filled(a.nrows(), 1.0),
        RhsVariant::Reference => {
            let vals: Vec<f64> = (0..a.nrows())
                .map(|r| DIAG_VALUE - (a.row_nnz(r) as f64 - 1.0))
                .collect();
            Vector::from_dense(vals)
        }
    }
}

/// One level of the multigrid hierarchy.
#[derive(Clone, Debug)]
pub struct MgLevel {
    /// The level's grid geometry.
    pub grid: Grid3,
    /// The system matrix at this level.
    pub a: CsrMatrix<f64>,
    /// The diagonal of `a` as a vector (§III-A).
    pub a_diag: Vector<f64>,
    /// Greedy coloring of `a` (8 colors on HPCG grids).
    pub coloring: Coloring,
    /// Per-color sorted index lists — the reference RBGS iterates these.
    pub color_classes: Vec<Vec<u32>>,
    /// Per-color sparse boolean masks — the GraphBLAS RBGS passes these to
    /// masked `mxv`/`eWiseLambda` (Listing 3).
    pub color_masks: Vec<Vector<bool>>,
    /// Coarse→fine injection index map (`len == coarse n`); empty at the
    /// coarsest level.
    pub f2c: Vec<u32>,
    /// The materialized `n_c × n_f` restriction matrix (GraphBLAS form,
    /// §III-B); `None` at the coarsest level.
    pub restriction: Option<CsrMatrix<f64>>,
}

impl MgLevel {
    /// Number of unknowns at this level.
    pub fn n(&self) -> usize {
        self.grid.len()
    }

    /// Whether a coarser level exists below this one.
    pub fn has_coarse(&self) -> bool {
        self.restriction.is_some()
    }
}

/// The generated HPCG problem: multigrid hierarchy plus rhs.
#[derive(Clone, Debug)]
pub struct Problem {
    /// Levels from finest (`levels[0]`) to coarsest.
    pub levels: Vec<MgLevel>,
    /// Right-hand side at the finest level.
    pub b: Vector<f64>,
}

impl Problem {
    /// Generates the full problem with [`DEFAULT_LEVELS`] levels and the
    /// reference rhs.
    pub fn build(grid: Grid3) -> Result<Problem, GrbError> {
        Self::build_with(grid, DEFAULT_LEVELS, RhsVariant::Reference)
    }

    /// Generates with explicit level count and rhs variant.
    ///
    /// Every dimension of `grid` must be divisible by `2^(num_levels-1)` so
    /// each level can coarsen (the HPCG setup requirement).
    pub fn build_with(
        grid: Grid3,
        num_levels: usize,
        rhs: RhsVariant,
    ) -> Result<Problem, GrbError> {
        if num_levels == 0 {
            return Err(GrbError::InvalidInput(
                "need at least one multigrid level".into(),
            ));
        }
        let factor = 1usize << (num_levels - 1);
        if !grid.nx.is_multiple_of(factor)
            || !grid.ny.is_multiple_of(factor)
            || !grid.nz.is_multiple_of(factor)
        {
            return Err(GrbError::InvalidInput(format!(
                "grid {}x{}x{} not divisible by 2^{} for {} levels",
                grid.nx,
                grid.ny,
                grid.nz,
                num_levels - 1,
                num_levels
            )));
        }
        let mut levels = Vec::with_capacity(num_levels);
        let mut g = grid;
        for lvl in 0..num_levels {
            let a = build_stencil_matrix(g);
            let a_diag = a.extract_diagonal();
            let coloring = Coloring::greedy(&a);
            let color_classes = coloring.classes();
            let color_masks = coloring.masks(g.len());
            let (f2c, restriction) = if lvl + 1 < num_levels {
                let coarse = g.coarsen();
                let map: Vec<u32> = (0..coarse.len())
                    .map(|gc| g.fine_index_of_coarse(coarse, gc) as u32)
                    .collect();
                let restriction =
                    CsrMatrix::from_row_fn(map.len(), g.len(), map.len(), |i, row| {
                        row.push((map[i], 1.0));
                    })?;
                (map, Some(restriction))
            } else {
                (Vec::new(), None)
            };
            levels.push(MgLevel {
                grid: g,
                a,
                a_diag,
                coloring,
                color_classes,
                color_masks,
                f2c,
                restriction,
            });
            if lvl + 1 < num_levels {
                g = g.coarsen();
            }
        }
        let b = build_rhs(&levels[0].a, rhs);
        Ok(Problem { levels, b })
    }

    /// Number of unknowns at the finest level.
    pub fn n(&self) -> usize {
        self.levels[0].n()
    }

    /// Total stored nonzeroes across all levels.
    pub fn total_nnz(&self) -> usize {
        self.levels.iter().map(|l| l.a.nnz()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas::{ctx, Sequential};

    #[test]
    fn stencil_matrix_properties() {
        let grid = Grid3::cube(4);
        let a = build_stencil_matrix(grid);
        assert_eq!(a.nrows(), 64);
        assert!(a.is_symmetric());
        // Row nnz between 8 and 27; interior row has 27.
        for r in 0..a.nrows() {
            let nnz = a.row_nnz(r);
            assert!((8..=27).contains(&nnz));
        }
        assert_eq!(a.row_nnz(grid.index(1, 1, 1)), 27);
        assert_eq!(a.row_nnz(grid.index(0, 0, 0)), 8);
        // Diagonal dominance: 26 > (nnz-1)·1.
        for r in 0..a.nrows() {
            assert_eq!(a.get(r, r), Some(DIAG_VALUE));
        }
    }

    #[test]
    fn reference_rhs_has_all_ones_solution() {
        let grid = Grid3::cube(4);
        let a = build_stencil_matrix(grid);
        let b = build_rhs(&a, RhsVariant::Reference);
        // A·1 must equal b.
        for r in 0..a.nrows() {
            let (_, vals) = a.row(r);
            let row_sum: f64 = vals.iter().sum();
            assert!((row_sum - b.as_slice()[r]).abs() < 1e-12);
        }
    }

    #[test]
    fn ones_rhs() {
        let grid = Grid3::cube(2);
        let a = build_stencil_matrix(grid);
        let b = build_rhs(&a, RhsVariant::Ones);
        assert!(b.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn hierarchy_shapes() {
        let p = Problem::build_with(Grid3::cube(16), 4, RhsVariant::Reference).unwrap();
        assert_eq!(p.levels.len(), 4);
        let sizes: Vec<usize> = p.levels.iter().map(MgLevel::n).collect();
        assert_eq!(sizes, vec![4096, 512, 64, 8]);
        for (i, l) in p.levels.iter().enumerate() {
            let is_last = i + 1 == p.levels.len();
            assert_eq!(l.has_coarse(), !is_last);
            assert_eq!(l.f2c.is_empty(), is_last);
            if let Some(r) = &l.restriction {
                assert_eq!(r.nrows(), p.levels[i + 1].n());
                assert_eq!(r.ncols(), l.n());
                assert_eq!(
                    r.nnz(),
                    r.nrows(),
                    "straight injection: one nonzero per row"
                );
                assert!(r.columns_conflict_free());
            }
        }
    }

    #[test]
    fn eight_colors_on_every_level() {
        let p = Problem::build_with(Grid3::cube(16), 3, RhsVariant::Reference).unwrap();
        for l in &p.levels {
            assert_eq!(l.coloring.num_colors, 8, "level {:?}", l.grid);
            assert!(l.coloring.verify(&l.a));
            assert_eq!(l.color_classes.len(), 8);
            assert_eq!(l.color_masks.len(), 8);
        }
    }

    #[test]
    fn diag_vector_matches_matrix() {
        let p = Problem::build_with(Grid3::cube(8), 2, RhsVariant::Reference).unwrap();
        for l in &p.levels {
            for i in 0..l.n() {
                assert_eq!(l.a_diag.get_or_zero(i), DIAG_VALUE);
                assert_eq!(l.a.get(i, i), Some(DIAG_VALUE));
            }
        }
    }

    #[test]
    fn indivisible_grid_rejected() {
        assert!(Problem::build_with(Grid3::new(12, 12, 12), 4, RhsVariant::Reference).is_err());
        assert!(Problem::build_with(Grid3::new(12, 12, 12), 3, RhsVariant::Reference).is_ok());
        assert!(Problem::build_with(Grid3::cube(4), 0, RhsVariant::Reference).is_err());
    }

    /// Straight injection: one `1.0` per coarse row, at a fine column that
    /// strictly increases with the row and stays inside the fine level.
    #[test]
    fn restriction_has_one_unit_entry_per_row() {
        let p = Problem::build_with(Grid3::new(8, 4, 12), 3, RhsVariant::Reference).unwrap();
        for (l, fine) in p.levels.iter().enumerate() {
            let Some(r) = &fine.restriction else {
                assert_eq!(l + 1, p.levels.len(), "only the coarsest level has none");
                continue;
            };
            assert_eq!((r.nrows(), r.ncols()), (p.levels[l + 1].n(), fine.n()));
            let mut prev = None;
            for i in 0..r.nrows() {
                let (cols, vals) = r.row(i);
                assert_eq!((cols.len(), vals), (1, &[1.0][..]), "row {i}");
                assert_eq!(cols[0], fine.f2c[i]);
                assert!(prev < Some(cols[0]) && (cols[0] as usize) < fine.n());
                prev = Some(cols[0]);
            }
        }
    }

    /// An 8×2×2 grid coarsens to 4×1×1: coarse point `i` sits at fine
    /// point `2i` of the first line.
    fn line_restriction() -> CsrMatrix<f64> {
        let p = Problem::build_with(Grid3::new(8, 2, 2), 2, RhsVariant::Reference).unwrap();
        p.levels[0].restriction.clone().unwrap()
    }

    #[test]
    fn injection_restricts() {
        let r = line_restriction();
        let x = Vector::from_dense((0..32).map(|i| i as f64).collect());
        let mut y = Vector::zeros(4);
        ctx::<Sequential>().mxv(&r, &x).into(&mut y).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn injection_transpose_refines_with_zeros() {
        let r = line_restriction();
        let xc = Vector::from_dense(vec![1.0, 2.0, 3.0, 4.0]);
        let mut yf = Vector::from_dense(vec![9.0; 32]);
        ctx::<Sequential>()
            .mxv(&r, &xc)
            .transpose()
            .into(&mut yf)
            .unwrap();
        let mut want = vec![0.0; 32];
        want[..8].copy_from_slice(&[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]);
        assert_eq!(yf.as_slice(), &want[..]);
    }

    #[test]
    fn total_nnz_dominated_by_finest() {
        let p = Problem::build(Grid3::cube(16)).unwrap();
        let finest = p.levels[0].a.nnz();
        assert!(
            finest * 2 > p.total_nnz(),
            "coarser levels add less than the finest level"
        );
        assert_eq!(p.n(), 4096);
    }
}
