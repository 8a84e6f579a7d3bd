//! The preconditioned Conjugate Gradient solver (paper §II-C).
//!
//! Standard PCG with the MG V-cycle as preconditioner, mirroring the HPCG
//! reference's `CG()`: one `spmv`, one preconditioner application, two
//! `dot`s plus a norm, and three vector updates per iteration. The two
//! kernel pairs fusion admits — `spmv` with `⟨p, Ap⟩`, and the residual
//! `axpy` with `‖r‖²` — go through the combined [`Kernels`] entry points so
//! fused implementations (the deferred-execution pipeline) drop in without
//! changing this control flow. Like the benchmark (and the paper's
//! experiments), iteration count is fixed by the caller so runtimes are
//! directly comparable; convergence data is returned for validation.

use crate::kernels::Kernels;
use crate::mg::{mg_precondition, MgWorkspace};

/// Outcome of a CG run.
#[derive(Clone, Debug)]
pub struct CgResult {
    /// Iterations executed.
    pub iterations: usize,
    /// `‖r‖₂` after each iteration (index 0 = after the first).
    pub residual_history: Vec<f64>,
    /// Final `‖r‖₂ / ‖r⁰‖₂`.
    pub relative_residual: f64,
}

/// Scratch vectors for the CG loop, allocated once.
pub struct CgWorkspace<V> {
    r: V,
    z: V,
    p: V,
    ap: V,
}

impl<V> CgWorkspace<V> {
    /// Allocates fine-level scratch from `k`.
    pub fn new<K: Kernels<V = V>>(k: &K) -> CgWorkspace<V> {
        CgWorkspace {
            r: k.alloc(0),
            z: k.alloc(0),
            p: k.alloc(0),
            ap: k.alloc(0),
        }
    }
}

/// Runs `max_iters` of (optionally MG-preconditioned) CG on
/// `A₀·x = b`, updating `x` in place.
///
/// Stops early only if the residual reaches `tolerance` (pass `0.0` to run
/// all iterations, as the benchmark does).
#[allow(clippy::too_many_arguments)]
pub fn cg_solve<K: Kernels>(
    k: &mut K,
    cg_ws: &mut CgWorkspace<K::V>,
    mg_ws: &mut MgWorkspace<K::V>,
    b: &K::V,
    x: &mut K::V,
    max_iters: usize,
    tolerance: f64,
    preconditioned: bool,
) -> CgResult {
    // r ← b − A·x.
    k.spmv(0, &mut cg_ws.ap, x);
    k.waxpby(0, &mut cg_ws.r, 1.0, b, -1.0, &cg_ws.ap);
    let norm0 = k.dot(0, &cg_ws.r, &cg_ws.r).sqrt();
    let mut normr = norm0;
    let mut rtz = 0.0f64;
    let mut history = Vec::with_capacity(max_iters);
    let mut iterations = 0;

    for iter in 1..=max_iters {
        if preconditioned {
            mg_precondition(k, mg_ws, &cg_ws.r, &mut cg_ws.z);
        } else {
            let (z, r) = (&mut cg_ws.z, &cg_ws.r);
            k.copy(0, r, z);
        }
        let old_rtz = rtz;
        rtz = k.dot(0, &cg_ws.r, &cg_ws.z);
        if iter == 1 {
            let (p, z) = (&mut cg_ws.p, &cg_ws.z);
            k.copy(0, z, p);
        } else {
            let beta = rtz / old_rtz;
            let (p, z) = (&mut cg_ws.p, &cg_ws.z);
            k.xpay(0, p, beta, z);
        }
        // Ap = A·p and ⟨p, Ap⟩ in one logical step (fusable, paper §VI).
        let p_ap = {
            let (ap, p) = (&mut cg_ws.ap, &cg_ws.p);
            k.spmv_dot(0, ap, p)
        };
        let alpha = rtz / p_ap;
        k.axpy(0, x, alpha, &cg_ws.p);
        // r ← r − α·Ap and ‖r‖² in one logical step (fusable).
        normr = {
            let (r, ap) = (&mut cg_ws.r, &cg_ws.ap);
            k.axpy_norm2(0, r, -alpha, ap)
        }
        .sqrt();
        history.push(normr);
        iterations = iter;
        if tolerance > 0.0 && normr / norm0 <= tolerance {
            break;
        }
    }

    CgResult {
        iterations,
        residual_history: history,
        relative_residual: if norm0 > 0.0 { normr / norm0 } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Grid3;
    use crate::grb_impl::GrbHpcg;
    use crate::kernels::Unfused;
    use crate::problem::{Problem, RhsVariant};
    use graphblas::{BackendKind, Distributed, DynCtx, Sequential, Vector};

    fn solve(preconditioned: bool, max_iters: usize, tol: f64) -> (CgResult, Vec<f64>) {
        let p = Problem::build_with(Grid3::cube(16), 4, RhsVariant::Reference).unwrap();
        let b = p.b.clone();
        let mut k = GrbHpcg::<Sequential>::new(p);
        let mut cg_ws = CgWorkspace::new(&k);
        let mut mg_ws = MgWorkspace::new(&k);
        let mut x = k.alloc(0);
        let res = cg_solve(
            &mut k,
            &mut cg_ws,
            &mut mg_ws,
            &b,
            &mut x,
            max_iters,
            tol,
            preconditioned,
        );
        (res, x.as_slice().to_vec())
    }

    #[test]
    fn converges_to_known_solution() {
        // Reference rhs → exact solution is all ones.
        let (res, x) = solve(true, 50, 1e-10);
        assert!(res.relative_residual <= 1e-10);
        for &v in &x {
            assert!((v - 1.0).abs() < 1e-7, "expected 1.0, got {v}");
        }
    }

    #[test]
    fn preconditioning_cuts_iterations() {
        // The whole point of MG (paper §II-D): fewer iterations to a fixed
        // tolerance than unpreconditioned CG.
        let (pcg, _) = solve(true, 200, 1e-8);
        let (plain, _) = solve(false, 200, 1e-8);
        assert!(
            pcg.iterations < plain.iterations,
            "MG-PCG took {} iters, plain CG took {}",
            pcg.iterations,
            plain.iterations
        );
    }

    #[test]
    fn residual_monotone_within_tolerance() {
        let (res, _) = solve(true, 30, 0.0);
        assert_eq!(res.iterations, 30, "tolerance 0 runs all iterations");
        // CG residuals can oscillate slightly, but the trend must be a
        // decrease of orders of magnitude.
        let first = res.residual_history[0];
        let last = *res.residual_history.last().unwrap();
        assert!(last < first * 1e-6, "first {first}, last {last}");
    }

    #[test]
    fn fixed_iteration_mode_matches_benchmark_contract() {
        let (res, _) = solve(true, 7, 0.0);
        assert_eq!(res.iterations, 7);
        assert_eq!(res.residual_history.len(), 7);
    }

    type Bits = (Vec<u64>, Vec<u64>);

    /// Solution and residual history of a preconditioned solve, as bits.
    fn solve_bits<K: Kernels<V = Vector<f64>>>(mut k: K, b: &Vector<f64>, iters: usize) -> Bits {
        let mut cg_ws = CgWorkspace::new(&k);
        let mut mg_ws = MgWorkspace::new(&k);
        let mut x = k.alloc(0);
        let res = cg_solve(&mut k, &mut cg_ws, &mut mg_ws, b, &mut x, iters, 0.0, true);
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect();
        (bits(x.as_slice()), bits(&res.residual_history))
    }

    #[test]
    fn pipelined_cg_is_bit_identical_to_eager_cg() {
        // The acceptance contract of the deferred-execution subsystem: the
        // whole preconditioned solve — fused spmv+dot, fused axpy+norm, the
        // recorded MG residual/restrict and the compiled RBGS sweep —
        // produces the exact bytes of the unfused kernel sequence on every
        // backend. The residual involves irrational intermediate values, so
        // this catches any fused reduction whose association order drifts.
        for (n, levels, iters) in [(16, 3, 12), (8, 2, 9)] {
            let p = Problem::build_with(Grid3::cube(n), levels, RhsVariant::Reference).unwrap();
            let b = &p.b;
            let on = |exec| GrbHpcg::with_ctx(p.clone(), exec);
            let seq = solve_bits(on(DynCtx::runtime(BackendKind::Sequential)), b, iters);
            for kind in [
                BackendKind::Sequential,
                BackendKind::Parallel,
                BackendKind::Dist(Distributed::new(4)),
            ] {
                let fused = solve_bits(on(DynCtx::runtime(kind)), b, iters);
                let unfused = solve_bits(Unfused(on(DynCtx::runtime(kind))), b, iters);
                assert_eq!(fused, unfused, "{n}³ on {kind}");
                // The simulated cluster matches the sequential solve too.
                if !matches!(kind, BackendKind::Parallel) {
                    assert_eq!(fused, seq, "{n}³ on {kind}");
                }
            }
        }
    }
}
