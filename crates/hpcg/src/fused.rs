//! Fused kernels — the nonblocking-execution ablation (paper §VI, §VII-A).
//!
//! The related-work section singles out kernel fusion as the key
//! hand-optimization HPCG vendors apply ("\[29\] stresses the importance of
//! kernels fusion to improve access locality and save on bandwidth"), and
//! cites the ALP nonblocking extension \[32\] as the GraphBLAS answer.
//! Fusion is a property of the execution layer: [`spmv_dot_fused`] and
//! [`axpy_norm_fused`] are **thin wrappers** that record the unfused op
//! pair on the caller's context (`ctx.pipeline()`, a
//! [`PlanBuilder`](graphblas::PlanBuilder) over the borrowed vectors),
//! let the generic fusion pass merge it and run it once with `finish()`.
//!
//! The original hand-written single-pass loops survive as
//! [`spmv_dot_hand`] / [`axpy_norm_hand`]: they are the oracles the tests
//! pin the generic pass against (bit-identical on the sequential backend)
//! and the "hand-fused" arm of the `fusion_ablation` benchmark's three-way
//! comparison (hand-fused vs pipeline-fused vs unfused).
//!
//! Both pairs also exist in **compile-once** form: [`build_spmv_dot_plan`]
//! and [`build_axpy_norm_plan`] record the same op graphs against
//! dimensioned slots and freeze the fused schedule into a reusable
//! [`Plan`]; [`spmv_dot_replay`] / [`axpy_norm_replay`] bind fresh buffers
//! into it. The CG driver compiles each kernel once per level (through
//! `GrbHpcg`'s plan cache) and replays it every iteration; the one-shot
//! wrappers run the same graph through the same interpreter, so the two
//! forms differ only by the compile and bind steps.

use graphblas::{CsrMatrix, Ctx, Exec, Plan, Vector};

/// Computes `y = A·x` and returns `⟨x, y⟩`, reading `x` once — the op pair
/// recorded into a pipeline on `exec` and merged by the generic fusion
/// pass. This is the single implementation `GrbHpcg::spmv_dot` and the
/// ablation bench share.
pub fn spmv_dot_fused<E: Exec>(
    exec: Ctx<E>,
    a: &CsrMatrix<f64>,
    x: &Vector<f64>,
    y: &mut Vector<f64>,
) -> f64 {
    let mut pl = exec.pipeline();
    let yh = pl.mxv(a, x).into(y);
    let d = pl.dot(x, yh).result();
    pl.finish().expect("spmv_dot dimensions fixed by caller")[d]
}

/// Computes `r ← r − α·q` and returns `‖r‖²`, streaming `r` once — the op
/// pair recorded into a pipeline on `exec` and merged by the generic
/// fusion pass (shared by `GrbHpcg::axpy_norm2` and the ablation bench).
pub fn axpy_norm_fused<E: Exec>(
    exec: Ctx<E>,
    r: &mut Vector<f64>,
    alpha: f64,
    q: &Vector<f64>,
) -> f64 {
    let mut pl = exec.pipeline();
    let rh = pl.axpy(r, -alpha, q);
    let n = pl.norm2_squared(rh);
    pl.finish().expect("axpy_norm dimensions fixed by caller")[n]
}

/// Compiles the `y = A·x` + `⟨x, y⟩` pair for an `n × n` system into a
/// reusable plan: matrix slot 0 is `A`, input 0 is `x`, output 0 is `y`,
/// scalar 0 the dot. The schedule fuses into one SpMV-with-epilogue sweep,
/// so replaying it is the compile-once form of [`spmv_dot_fused`].
pub fn build_spmv_dot_plan<E: Exec>(exec: Ctx<E>, n: usize) -> Plan<f64, E> {
    let mut pb = exec.plan::<f64>();
    let am = pb.matrix(n, n);
    let xs = pb.input(n);
    let ys = pb.output(n);
    let yh = pb.mxv(am, xs).into(ys);
    pb.dot(xs, yh).result();
    pb.compile()
}

/// Replays a [`build_spmv_dot_plan`] plan: `y = A·x`, returns `⟨x, y⟩` —
/// bit-identical to [`spmv_dot_fused`] on the plan's backend.
pub fn spmv_dot_replay<E: Exec>(
    plan: &Plan<f64, E>,
    a: &CsrMatrix<f64>,
    x: &Vector<f64>,
    y: &mut Vector<f64>,
) -> f64 {
    let mut b = plan.bindings();
    b.bind_matrix(plan.matrix_slot(0), a)
        .bind_input(plan.input_slot(0), x)
        .bind_output(plan.output_slot(0), y);
    let out = plan
        .run(&mut b)
        .expect("spmv_dot dimensions fixed by caller");
    out[plan.scalar(0)]
}

/// Compiles the `r ← r − α·q` + `‖r‖²` pair for length-`n` vectors into a
/// reusable plan: output 0 is `r`, input 0 is `q`, parameter 0 the (already
/// negated) axpy coefficient, scalar 0 the norm.
pub fn build_axpy_norm_plan<E: Exec>(exec: Ctx<E>, n: usize) -> Plan<f64, E> {
    let mut pb = exec.plan::<f64>();
    let rs = pb.output(n);
    let qs = pb.input(n);
    let alpha = pb.param(0.0);
    pb.axpy(rs, alpha, qs);
    pb.norm2_squared(rs);
    pb.compile()
}

/// Replays a [`build_axpy_norm_plan`] plan with [`axpy_norm_fused`]'s
/// convention — `r ← r − α·q`, returns `‖r‖²` — by rebinding the vectors
/// and setting the coefficient parameter to `−α`.
pub fn axpy_norm_replay<E: Exec>(
    plan: &Plan<f64, E>,
    r: &mut Vector<f64>,
    alpha: f64,
    q: &Vector<f64>,
) -> f64 {
    let mut b = plan.bindings();
    b.bind_output(plan.output_slot(0), r)
        .bind_input(plan.input_slot(0), q)
        .set(plan.param(0), -alpha);
    let out = plan
        .run(&mut b)
        .expect("axpy_norm dimensions fixed by caller");
    out[plan.scalar(0)]
}

/// The hand-written `y = A·x` + `⟨x, y⟩` single pass — the ablation's
/// hand-fused oracle the generic pass must match bit for bit.
pub fn spmv_dot_hand(a: &CsrMatrix<f64>, x: &Vector<f64>, y: &mut Vector<f64>) -> f64 {
    let xs = x.as_slice();
    let ys = y.as_mut_slice();
    let mut acc = 0.0;
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        let mut row = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            row += v * xs[c as usize];
        }
        ys[i] = row;
        acc += xs[i] * row;
    }
    acc
}

/// The hand-written `r ← r − α·q` + `‖r‖²` single pass — the ablation's
/// hand-fused oracle the generic pass must match bit for bit.
pub fn axpy_norm_hand(r: &mut Vector<f64>, alpha: f64, q: &Vector<f64>) -> f64 {
    let qs = q.as_slice();
    let rs = r.as_mut_slice();
    let mut acc = 0.0;
    for (ri, &qi) in rs.iter_mut().zip(qs) {
        *ri -= alpha * qi;
        acc += *ri * *ri;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Grid3;
    use crate::problem::build_stencil_matrix;
    use graphblas::{ctx, Sequential};

    #[test]
    fn generic_fusion_matches_hand_oracle_bitwise() {
        let a = build_stencil_matrix(Grid3::cube(6));
        let x = Vector::from_dense((0..a.nrows()).map(|i| ((i % 7) as f64) - 3.0).collect());

        let mut y_hand = Vector::zeros(a.nrows());
        let d_hand = spmv_dot_hand(&a, &x, &mut y_hand);
        let mut y_pipe = Vector::zeros(a.nrows());
        let d_pipe = spmv_dot_fused(ctx::<Sequential>(), &a, &x, &mut y_pipe);
        assert_eq!(y_hand.as_slice(), y_pipe.as_slice());
        assert_eq!(d_hand.to_bits(), d_pipe.to_bits());

        let q = Vector::from_dense((0..1000).map(|i| (i % 5) as f64 - 2.0).collect::<Vec<_>>());
        let mut r_hand =
            Vector::from_dense((0..1000).map(|i| (i % 13) as f64 - 6.0).collect::<Vec<_>>());
        let mut r_pipe = r_hand.clone();
        let n_hand = axpy_norm_hand(&mut r_hand, 0.37, &q);
        let n_pipe = axpy_norm_fused(ctx::<Sequential>(), &mut r_pipe, 0.37, &q);
        assert_eq!(r_hand.as_slice(), r_pipe.as_slice());
        assert_eq!(n_hand.to_bits(), n_pipe.to_bits());
    }

    #[test]
    fn fused_spmv_dot_matches_unfused() {
        let a = build_stencil_matrix(Grid3::cube(6));
        let x = Vector::from_dense((0..a.nrows()).map(|i| ((i % 7) as f64) - 3.0).collect());
        let mut y_f = Vector::zeros(a.nrows());
        let d_f = spmv_dot_fused(ctx::<Sequential>(), &a, &x, &mut y_f);

        let exec = ctx::<Sequential>();
        let mut y_u = Vector::zeros(a.nrows());
        exec.mxv(&a, &x).into(&mut y_u).unwrap();
        let d_u = exec.dot(&x, &y_u).compute().unwrap();

        assert_eq!(y_f.as_slice(), y_u.as_slice());
        assert_eq!(d_f.to_bits(), d_u.to_bits(), "fused pass is bit-identical");
    }

    #[test]
    fn fused_axpy_norm_matches_unfused() {
        let n = 1000;
        let mut r1 = Vector::from_dense((0..n).map(|i| (i % 13) as f64 - 6.0).collect());
        let mut r2 = r1.clone();
        let q = Vector::from_dense((0..n).map(|i| (i % 5) as f64 - 2.0).collect());
        let alpha = 0.37;

        let norm_f = axpy_norm_fused(ctx::<Sequential>(), &mut r1, alpha, &q);

        let exec = ctx::<Sequential>();
        exec.axpy(&mut r2, -alpha, &q).unwrap();
        let norm_u = exec.norm2_squared(&r2).unwrap();

        assert_eq!(r1.as_slice(), r2.as_slice());
        assert_eq!(
            norm_f.to_bits(),
            norm_u.to_bits(),
            "fused pass is bit-identical"
        );
    }

    #[test]
    fn compiled_plans_replay_bit_identical_to_recording() {
        let a = build_stencil_matrix(Grid3::cube(6));
        let n = a.nrows();
        let exec = ctx::<Sequential>();
        let spmv_plan = build_spmv_dot_plan(exec, n);
        let axpy_plan = build_axpy_norm_plan(exec, n);

        // Replay twice with different bindings; each must match the
        // record-every-time wrapper bitwise.
        for seed in [3, 11] {
            let x = Vector::from_dense((0..n).map(|i| ((i % seed) as f64) - 2.0).collect());
            let mut y_replay = Vector::zeros(n);
            let mut y_record = Vector::zeros(n);
            let d_replay = spmv_dot_replay(&spmv_plan, &a, &x, &mut y_replay);
            let d_record = spmv_dot_fused(exec, &a, &x, &mut y_record);
            assert_eq!(y_replay.as_slice(), y_record.as_slice());
            assert_eq!(d_replay.to_bits(), d_record.to_bits());

            let alpha = 0.1 * seed as f64;
            let q = Vector::from_dense((0..n).map(|i| (i % 5) as f64 - 2.0).collect::<Vec<_>>());
            let mut r_replay =
                Vector::from_dense((0..n).map(|i| (i % 13) as f64 - 6.0).collect::<Vec<_>>());
            let mut r_record = r_replay.clone();
            let n_replay = axpy_norm_replay(&axpy_plan, &mut r_replay, alpha, &q);
            let n_record = axpy_norm_fused(exec, &mut r_record, alpha, &q);
            assert_eq!(r_replay.as_slice(), r_record.as_slice());
            assert_eq!(n_replay.to_bits(), n_record.to_bits());
        }
    }

    #[test]
    fn fused_spmv_dot_is_spd_quadratic_form() {
        // x'Ax > 0 for x ≠ 0: A is SPD, and the fused kernel computes
        // exactly that quadratic form.
        let a = build_stencil_matrix(Grid3::cube(4));
        let x = Vector::from_dense((0..a.nrows()).map(|i| (i as f64).sin()).collect());
        let mut y = Vector::zeros(a.nrows());
        assert!(spmv_dot_fused(ctx::<Sequential>(), &a, &x, &mut y) > 0.0);
    }
}
