//! Red-Black Gauss-Seidel on GraphBLAS primitives (paper Listings 2 & 3).
//!
//! Per color `k`, two primitives off the caller's execution context:
//!
//! 1. a **structural masked `mxv`** computing `s_i = Σ_j A_ij·x_j` only for
//!    `i ∈ C_k` — the structural descriptor makes the kernel follow the
//!    mask's sparsity pattern without reading its boolean values (and
//!    the problem generator stores `A` colour-major, so the rows of `C_k`
//!    are one contiguous run of the CSR arrays, not every second row);
//! 2. a **masked `transform`** (the paper's `eWiseLambda`) applying
//!    `x_i ← (r_i − s_i + x_i·A_ii) / A_ii` at the same indices, reading the
//!    separately stored diagonal vector (GraphBLAS offers no constant-time
//!    matrix element access, §III-A).
//!
//! Colors run sequentially (the `for` of Listing 2 line 2); parallelism
//! lives inside each primitive, supplied by the [`Ctx`]'s backend — the
//! exact division of labor ALP's shared-memory backend uses. The context is
//! an explicit parameter (rather than a type-level choice here) so the same
//! smoother text serves compile-time backends and the runtime-dispatched
//! [`DynCtx`](graphblas::DynCtx).

use graphblas::{CsrMatrix, Ctx, Exec, Plan, Result, Vector};

/// One forward RBGS pass (Listing 3's `grb_rbgs_forward`).
///
/// `tmp` is the caller-provided workspace buffer (Listing 3 line 7) — MG
/// reuses one per level to avoid per-sweep allocation.
pub fn rbgs_forward<E: Exec>(
    exec: Ctx<E>,
    a: &CsrMatrix<f64>,
    a_diag: &Vector<f64>,
    colors: &[Vector<bool>],
    r: &Vector<f64>,
    x: &mut Vector<f64>,
    tmp: &mut Vector<f64>,
) -> Result<()> {
    for mask in colors {
        color_step(exec, a, a_diag, mask, r, x, tmp)?;
    }
    Ok(())
}

/// One backward RBGS pass: identical update, colors in reverse.
pub fn rbgs_backward<E: Exec>(
    exec: Ctx<E>,
    a: &CsrMatrix<f64>,
    a_diag: &Vector<f64>,
    colors: &[Vector<bool>],
    r: &Vector<f64>,
    x: &mut Vector<f64>,
    tmp: &mut Vector<f64>,
) -> Result<()> {
    for mask in colors.iter().rev() {
        color_step(exec, a, a_diag, mask, r, x, tmp)?;
    }
    Ok(())
}

/// One symmetric sweep (forward + backward) — the MG smoother call.
pub fn rbgs_symmetric<E: Exec>(
    exec: Ctx<E>,
    a: &CsrMatrix<f64>,
    a_diag: &Vector<f64>,
    colors: &[Vector<bool>],
    r: &Vector<f64>,
    x: &mut Vector<f64>,
    tmp: &mut Vector<f64>,
) -> Result<()> {
    rbgs_forward(exec, a, a_diag, colors, r, x, tmp)?;
    rbgs_backward(exec, a, a_diag, colors, r, x, tmp)
}

/// Compiles one symmetric sweep over `num_colors` colors into a reusable
/// [`Plan`]: the `2 × num_colors` masked `mxv` + masked update pairs of
/// [`rbgs_symmetric`], recorded once against slots.
///
/// Slot layout (what [`rbgs_symmetric_replay`] binds): matrix 0 is `A`,
/// inputs 0/1 are `r` and the diagonal, outputs 0/1 are the iterate and
/// the scratch buffer, and mask `k` is the `k`-th color of the
/// forward-then-backward order. The per-index update reads its operands
/// through zip sources — the slot-based rendering of Listing 3's
/// capture-by-reference lambda — with the eager update's arithmetic.
/// Color steps are not fusable with each other (the masked `mxv` is not
/// element-wise), so replay runs the exact eager kernels in the exact
/// eager order and stays bit-identical to [`rbgs_symmetric`].
pub fn build_rbgs_plan<E: Exec>(exec: Ctx<E>, n: usize, num_colors: usize) -> Plan<f64, E> {
    let mut pb = exec.plan::<f64>();
    let am = pb.matrix(n, n);
    let rs = pb.input(n);
    let ds = pb.input(n);
    let xs = pb.output(n);
    let ts = pb.output(n);
    for _ in 0..2 * num_colors {
        let m = pb.mask(n);
        pb.mxv(am, xs).mask(m).structural().into(ts);
        pb.transform(xs)
            .mask(m)
            .structural()
            .zip(ts)
            .zip(rs)
            .zip(ds)
            .apply(|_i, xi, ti, ri, di| *xi = (ri - ti + *xi * di) / di);
    }
    pb.compile()
}

/// Replays a [`build_rbgs_plan`] plan — one symmetric sweep, bit-identical
/// to [`rbgs_symmetric`]. `colors` must have the color count the plan was
/// compiled for.
pub fn rbgs_symmetric_replay<E: Exec>(
    plan: &Plan<f64, E>,
    a: &CsrMatrix<f64>,
    a_diag: &Vector<f64>,
    colors: &[Vector<bool>],
    r: &Vector<f64>,
    x: &mut Vector<f64>,
    tmp: &mut Vector<f64>,
) -> Result<()> {
    let mut b = plan.bindings();
    b.bind_matrix(plan.matrix_slot(0), a)
        .bind_input(plan.input_slot(0), r)
        .bind_input(plan.input_slot(1), a_diag)
        .bind_output(plan.output_slot(0), x)
        .bind_output(plan.output_slot(1), tmp);
    for (k, mask) in colors.iter().chain(colors.iter().rev()).enumerate() {
        b.bind_mask(plan.mask_slot(k), mask);
    }
    plan.run(&mut b)?;
    Ok(())
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn color_step<E: Exec>(
    exec: Ctx<E>,
    a: &CsrMatrix<f64>,
    a_diag: &Vector<f64>,
    mask: &Vector<bool>,
    r: &Vector<f64>,
    x: &mut Vector<f64>,
    tmp: &mut Vector<f64>,
) -> Result<()> {
    // Listing 3 line 11: tmp⟨mask, structural⟩ = A ⊕.⊗ x.
    exec.mxv(a, &*x).mask(mask).structural().into(tmp)?;
    // Listing 3 lines 13-17: the masked lambda update.
    let rs = r.as_slice();
    let ts = tmp.as_slice();
    let ds = a_diag.as_slice();
    exec.transform(x).mask(mask).structural().apply(|i, xi| {
        let d = ds[i];
        *xi = (rs[i] - ts[i] + *xi * d) / d;
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::Coloring;
    use crate::geometry::Grid3;
    use crate::problem::{build_rhs, build_stencil_matrix, RhsVariant};
    use graphblas::{ctx, BackendKind, Distributed, DynCtx, Sequential};

    fn setup(n: usize) -> (CsrMatrix<f64>, Vector<f64>, Vec<Vector<bool>>, Vector<f64>) {
        let grid = Grid3::cube(n);
        let a = build_stencil_matrix(grid);
        let diag = a.extract_diagonal();
        let coloring = Coloring::greedy(&a);
        let masks = coloring.masks(a.nrows());
        let b = build_rhs(&a, RhsVariant::Reference);
        (a, diag, masks, b)
    }

    fn residual_norm(a: &CsrMatrix<f64>, b: &Vector<f64>, x: &Vector<f64>) -> f64 {
        let (bs, xs) = (b.as_slice(), x.as_slice());
        (0..a.nrows())
            .map(|i| {
                let (cols, vals) = a.row(i);
                let ax: f64 = cols
                    .iter()
                    .zip(vals)
                    .map(|(&c, &v)| v * xs[c as usize])
                    .sum();
                (bs[i] - ax) * (bs[i] - ax)
            })
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn forward_reduces_residual() {
        let (a, diag, masks, b) = setup(6);
        let mut x = Vector::zeros(a.nrows());
        let mut tmp = Vector::zeros(a.nrows());
        let r0 = residual_norm(&a, &b, &x);
        rbgs_forward(ctx::<Sequential>(), &a, &diag, &masks, &b, &mut x, &mut tmp).unwrap();
        assert!(residual_norm(&a, &b, &x) < r0);
    }

    #[test]
    fn symmetric_converges_to_ones() {
        let (a, diag, masks, b) = setup(4);
        let mut x = Vector::zeros(a.nrows());
        let mut tmp = Vector::zeros(a.nrows());
        for _ in 0..25 {
            rbgs_symmetric(ctx::<Sequential>(), &a, &diag, &masks, &b, &mut x, &mut tmp).unwrap();
        }
        for &v in x.as_slice() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn runtime_context_matches_static_backend() {
        // The same smoother text on a DynCtx must be bit-identical per
        // backend (the smoother is deterministic on either backend).
        let (a, diag, masks, b) = setup(4);
        let mut x_static = Vector::zeros(a.nrows());
        let mut x_dyn = Vector::zeros(a.nrows());
        let mut tmp = Vector::zeros(a.nrows());
        rbgs_symmetric(
            ctx::<Sequential>(),
            &a,
            &diag,
            &masks,
            &b,
            &mut x_static,
            &mut tmp,
        )
        .unwrap();
        let dyn_ctx = DynCtx::runtime(BackendKind::Sequential);
        rbgs_symmetric(dyn_ctx, &a, &diag, &masks, &b, &mut x_dyn, &mut tmp).unwrap();
        assert_eq!(x_static.as_slice(), x_dyn.as_slice());
    }

    /// The compiled sweep `GrbHpcg::smooth` replays against Listing 3's
    /// eager text, on every backend.
    #[test]
    fn compiled_sweep_replays_bit_identical_to_eager() {
        for n in [4, 6] {
            let (a, diag, masks, b) = setup(n);
            for kind in [
                BackendKind::Sequential,
                BackendKind::Parallel,
                BackendKind::Dist(Distributed::new(3)),
            ] {
                check_compiled_sweep(DynCtx::runtime(kind), &a, &diag, &masks, &b);
            }
        }
    }

    fn check_compiled_sweep(
        exec: DynCtx,
        a: &CsrMatrix<f64>,
        diag: &Vector<f64>,
        masks: &[Vector<bool>],
        b: &Vector<f64>,
    ) {
        let kind = exec.kind();
        let plan = build_rbgs_plan(exec, a.nrows(), masks.len());
        let mut x_eager = Vector::from_dense((0..a.nrows()).map(|i| (i % 3) as f64).collect());
        let mut x_plan = x_eager.clone();
        let mut tmp_eager = Vector::zeros(a.nrows());
        let mut tmp_plan = Vector::zeros(a.nrows());
        for _ in 0..3 {
            rbgs_symmetric(exec, a, diag, masks, b, &mut x_eager, &mut tmp_eager).unwrap();
            rbgs_symmetric_replay(&plan, a, diag, masks, b, &mut x_plan, &mut tmp_plan).unwrap();
        }
        let n = a.nrows();
        assert_eq!(
            x_eager.as_slice(),
            x_plan.as_slice(),
            "backend {kind}, n {n}"
        );
        assert_eq!(
            tmp_eager.as_slice(),
            tmp_plan.as_slice(),
            "backend {kind}, n {n}"
        );
    }

    #[test]
    fn color_masks_required_to_cover_all_rows_for_full_smoothing() {
        // Smoothing with only 4 of the 8 masks leaves the other rows at
        // their initial value — masked semantics touch nothing else.
        let (a, diag, masks, b) = setup(4);
        let mut x = Vector::zeros(a.nrows());
        let mut tmp = Vector::zeros(a.nrows());
        rbgs_forward(
            ctx::<Sequential>(),
            &a,
            &diag,
            &masks[..4],
            &b,
            &mut x,
            &mut tmp,
        )
        .unwrap();
        let untouched: usize = masks[4..]
            .iter()
            .flat_map(|m| m.pattern().unwrap().iter())
            .filter(|&&i| x.as_slice()[i as usize] == 0.0)
            .count();
        let expected: usize = masks[4..].iter().map(|m| m.nnz()).sum();
        assert_eq!(untouched, expected);
    }
}
