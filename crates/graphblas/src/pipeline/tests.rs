//! The builder [`Ctx::pipeline`](crate::Ctx::pipeline) hands out: it
//! records borrowed operands, fuses, and runs once with `finish()`.

use crate::backend::{Parallel, Sequential};
use crate::context::{ctx, BackendKind, DynCtx, Exec};
use crate::error::GrbError;
use crate::fusion::PlannedStage;
use crate::ops::binary::{Max, Plus, Times};
use crate::ops::semiring::MinPlus;
use crate::ops::unary::AdditiveInverse;
use crate::plan::Operand;
use crate::{CsrMatrix, Vector};

fn a3() -> CsrMatrix<f64> {
    CsrMatrix::from_triplets(
        3,
        3,
        &[
            (0, 0, 2.0),
            (0, 2, 1.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
        ],
    )
    .unwrap()
}

#[test]
fn deferred_mxv_runs_nothing_until_finish() {
    let a = a3();
    let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
    let mut y = Vector::zeros(3);
    let mut pl = ctx::<Sequential>().pipeline();
    let _ = pl.mxv(&a, &x).into(&mut y);
    assert_eq!(pl.len(), 1);
    pl.finish().unwrap();
    assert_eq!(y.as_slice(), &[5.0, 6.0, 19.0]);
}

#[test]
fn spmv_dot_fuses_and_matches_eager() {
    let a = a3();
    let p = Vector::from_dense(vec![1.0, 2.0, 3.0]);
    let mut ap_pipe = Vector::zeros(3);
    let mut pl = ctx::<Sequential>().pipeline();
    let ap_h = pl.mxv(&a, &p).into(&mut ap_pipe);
    let d = pl.dot(&p, ap_h).result();
    assert_eq!(pl.schedule(), vec![PlannedStage::SpmvDot]);
    let out = pl.finish().unwrap();

    let exec = ctx::<Sequential>();
    let mut ap = Vector::zeros(3);
    exec.mxv(&a, &p).into(&mut ap).unwrap();
    let d_eager = exec.dot(&p, &ap).compute().unwrap();
    assert_eq!(ap.as_slice(), ap_pipe.as_slice());
    assert_eq!(out[d].to_bits(), d_eager.to_bits());
}

#[test]
fn spmv_norm_epilogue_fuses() {
    let a = a3();
    let x = Vector::from_dense(vec![1.0, -1.0, 2.0]);
    let mut y = Vector::zeros(3);
    let mut pl = ctx::<Sequential>().pipeline();
    let yh = pl.mxv(&a, &x).into(&mut y);
    let n = pl.norm2_squared(yh);
    assert_eq!(pl.schedule(), vec![PlannedStage::SpmvDot]);
    let out = pl.finish().unwrap();
    let expected = ctx::<Sequential>().norm2_squared(&y).unwrap();
    assert_eq!(out[n], expected);
}

#[test]
fn axpy_norm_fuses_and_matches_eager() {
    let q = Vector::from_dense((0..500).map(|i| (i % 7) as f64 - 3.0).collect::<Vec<_>>());
    let r0 = Vector::from_dense((0..500).map(|i| (i % 5) as f64).collect::<Vec<_>>());

    let mut r_pipe = r0.clone();
    let mut pl = ctx::<Parallel>().pipeline();
    let rh = pl.axpy(&mut r_pipe, -0.25, &q);
    let nh = pl.norm2_squared(rh);
    assert_eq!(pl.schedule(), vec![PlannedStage::AxpyNorm]);
    let out = pl.finish().unwrap();

    let exec = ctx::<Parallel>();
    let mut r = r0.clone();
    exec.axpy(&mut r, -0.25, &q).unwrap();
    let n_eager = exec.norm2_squared(&r).unwrap();
    assert_eq!(r.as_slice(), r_pipe.as_slice());
    assert_eq!(out[nh].to_bits(), n_eager.to_bits());
}

#[test]
fn elementwise_chain_runs_one_stage_per_op() {
    let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
    let y = Vector::from_dense(vec![10.0, 20.0, 30.0]);
    let mut w = Vector::zeros(3);
    let mut z = Vector::from_dense(vec![1.0, 1.0, 1.0]);
    let mut pl = ctx::<Sequential>().pipeline();
    let wh = pl.ewise(&x, &y).scaled(2.0, -1.0).into(&mut w);
    pl.axpy(&mut z, 0.5, &x);
    let _ = wh;
    assert_eq!(
        pl.schedule(),
        vec![PlannedStage::Single("ewise"), PlannedStage::Single("axpy")]
    );
    pl.finish().unwrap();
    assert_eq!(w.as_slice(), &[-8.0, -16.0, -24.0]);
    assert_eq!(z.as_slice(), &[1.5, 2.0, 2.5]);
}

#[test]
fn chain_reading_prior_output_splits_the_loop() {
    // The second stage reads the first stage's output, so they may not
    // share one loop (the read must see the fully written vector only
    // in the same-index sense — legality keeps them separate).
    let x = Vector::from_dense(vec![1.0, 2.0]);
    let y = Vector::from_dense(vec![3.0, 4.0]);
    let mut w = Vector::zeros(2);
    let mut v = Vector::zeros(2);
    let mut pl = ctx::<Sequential>().pipeline();
    let wh = pl.ewise(&x, &y).into(&mut w);
    let _ = pl.ewise(wh, &x).op(Times).into(&mut v);
    assert_eq!(
        pl.schedule(),
        vec![PlannedStage::Single("ewise"), PlannedStage::Single("ewise")]
    );
    pl.finish().unwrap();
    assert_eq!(w.as_slice(), &[4.0, 6.0]);
    assert_eq!(v.as_slice(), &[4.0, 12.0]);
}

#[test]
fn masked_stages_stay_unfused_but_execute() {
    let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
    let y = Vector::from_dense(vec![1.0, 1.0, 1.0]);
    let mask = Vector::<bool>::sparse_filled(3, vec![1], true).unwrap();
    let mut w = Vector::from_dense(vec![9.0, 9.0, 9.0]);
    let mut v = Vector::zeros(3);
    let mut pl = ctx::<Sequential>().pipeline();
    pl.ewise(&x, &y).mask(&mask).structural().into(&mut w);
    pl.apply(&x).op(AdditiveInverse).into(&mut v);
    assert_eq!(
        pl.schedule(),
        vec![PlannedStage::Single("ewise"), PlannedStage::Single("apply")]
    );
    pl.finish().unwrap();
    assert_eq!(w.as_slice(), &[9.0, 3.0, 9.0]);
    assert_eq!(v.as_slice(), &[-1.0, -2.0, -3.0]);
}

#[test]
fn bind_and_transform_zip_express_rbgs_shape() {
    // One masked color step: tmp⟨m⟩ = A·x, then x⟨m⟩ updated reading tmp.
    let a = a3();
    let r = Vector::from_dense(vec![1.0, 2.0, 3.0]);
    let diag = Vector::from_dense(vec![2.0, 3.0, 5.0]);
    let mask = Vector::<bool>::sparse_filled(3, vec![0, 2], true).unwrap();
    let mut x_pipe = Vector::from_dense(vec![0.5, 0.5, 0.5]);
    let mut tmp_pipe = Vector::zeros(3);

    let (rs, ds) = (r.as_slice(), diag.as_slice());
    let mut pl = ctx::<Sequential>().pipeline();
    let xh = Operand::resolve(&mut x_pipe, &mut pl);
    let th = pl.mxv(&a, xh).mask(&mask).structural().into(&mut tmp_pipe);
    pl.transform(xh)
        .mask(&mask)
        .structural()
        .zip(th)
        .apply(move |i, xi, ti| {
            let d = ds[i];
            *xi = (rs[i] - ti + *xi * d) / d;
        });
    pl.finish().unwrap();

    // Eager reference.
    let exec = ctx::<Sequential>();
    let mut x = Vector::from_dense(vec![0.5, 0.5, 0.5]);
    let mut tmp = Vector::zeros(3);
    exec.mxv(&a, &x)
        .mask(&mask)
        .structural()
        .into(&mut tmp)
        .unwrap();
    let ts = tmp.as_slice();
    exec.transform(&mut x)
        .mask(&mask)
        .structural()
        .apply(|i, xi| {
            let d = ds[i];
            *xi = (rs[i] - ts[i] + *xi * d) / d;
        })
        .unwrap();
    assert_eq!(x.as_slice(), x_pipe.as_slice());
    assert_eq!(tmp.as_slice(), tmp_pipe.as_slice());
}

#[test]
fn dyn_ctx_pipeline_matches_static() {
    let a = a3();
    let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
    for kind in [BackendKind::Sequential, BackendKind::Parallel] {
        let mut y = Vector::zeros(3);
        let mut pl = DynCtx::runtime(kind).pipeline();
        let yh = pl.mxv(&a, &x).into(&mut y);
        let d = pl.dot(&x, yh).result();
        let out = pl.finish().unwrap();
        let mut y_ref = Vector::zeros(3);
        ctx::<Sequential>().mxv(&a, &x).into(&mut y_ref).unwrap();
        let d_ref = ctx::<Sequential>().dot(&x, &y_ref).compute().unwrap();
        assert_eq!(y.as_slice(), y_ref.as_slice(), "backend {kind}");
        assert_eq!(out[d], d_ref, "backend {kind}");
    }
}

#[test]
fn transposed_and_accumulated_mxv_records_faithfully() {
    let a = a3();
    let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
    let mut y_pipe = Vector::from_dense(vec![1.0, 1.0, 1.0]);
    let mut pl = ctx::<Sequential>().pipeline();
    pl.mxv(&a, &x).transpose().accum(Plus).into(&mut y_pipe);
    pl.finish().unwrap();

    let mut y = Vector::from_dense(vec![1.0, 1.0, 1.0]);
    ctx::<Sequential>()
        .mxv(&a, &x)
        .transpose()
        .accum(Plus)
        .into(&mut y)
        .unwrap();
    assert_eq!(y.as_slice(), y_pipe.as_slice());
}

#[test]
fn reduce_and_ring_dot_through_pipeline() {
    let x = Vector::from_dense(vec![3.0, 1.0, 9.0]);
    let y = Vector::from_dense(vec![2.0, 5.0, 1.0]);
    let mut pl = ctx::<Sequential>().pipeline();
    let s = pl.reduce(&x).monoid(Max).result();
    let d = pl.dot(&x, &y).ring(MinPlus).result();
    let out = pl.finish().unwrap();
    assert_eq!(out.get(s), 9.0);
    assert_eq!(out[d], 5.0);
}

#[test]
fn dimension_error_propagates_from_finish() {
    let a = a3();
    let x_bad = Vector::from_dense(vec![1.0, 2.0]);
    let mut y = Vector::zeros(3);
    let mut pl = ctx::<Sequential>().pipeline();
    pl.mxv(&a, &x_bad).into(&mut y);
    assert!(pl.finish().is_err());
}

#[test]
fn elementwise_chain_dimension_error_propagates() {
    let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
    let y_bad = Vector::from_dense(vec![1.0]);
    let mut w = Vector::zeros(3);
    let mut z = Vector::zeros(3);
    let mut pl = ctx::<Sequential>().pipeline();
    pl.ewise(&x, &y_bad).into(&mut w);
    pl.axpy(&mut z, 1.0, &x);
    assert!(pl.finish().is_err());
}

#[test]
#[should_panic(expected = "OutSlot does not belong to this plan")]
fn foreign_handle_is_rejected() {
    let x = Vector::from_dense(vec![1.0]);
    let mut y = Vector::<f64>::zeros(1);
    let mut w = Vector::zeros(1);
    let mut other = ctx::<Sequential>().pipeline::<f64>();
    let h = other.apply(&x).into(&mut w);
    drop(other);
    let mut pl = ctx::<Sequential>().pipeline::<f64>();
    pl.apply(h).into(&mut y);
}

#[test]
fn record_time_length_mismatch_is_an_error_from_finish_not_a_panic() {
    let x = Vector::from_dense(vec![1.0, 2.0, 3.0]);
    for bad_len in [2, 5] {
        let bad = Vector::from_dense(vec![1.0; bad_len]);

        let mut out = x.clone();
        let mut pl = ctx::<Sequential>().pipeline();
        pl.transform(&mut out).zip(&bad).apply(|_, o, s| *o += s);
        assert!(matches!(
            pl.finish(),
            Err(GrbError::DimensionMismatch { .. })
        ));

        // The same through a recorded output, and for the other op
        // whose recorder checks operand length.
        let (mut out, mut src) = (x.clone(), bad.clone());
        let mut pl = ctx::<Sequential>().pipeline();
        let sh = pl.apply(&bad).into(&mut src);
        pl.transform(&mut out).zip(sh).apply(|_, o, s| *o += s);
        assert!(pl.finish().is_err());

        let mut out = x.clone();
        let mut pl = ctx::<Sequential>().pipeline();
        pl.axpy(&mut out, 2.0, &bad);
        assert!(matches!(
            pl.finish(),
            Err(GrbError::DimensionMismatch { .. })
        ));
    }
}

/// One `&Vector` read by several recorded ops, and a bound in-out
/// vector read by a later stage after an in-place update.
fn check_shared_input_and_bound_inout<E: Exec>(exec: crate::Ctx<E>) {
    let n = 1500;
    let entries: Vec<_> = (0..n)
        .flat_map(|i| [(i, i, 4.0 + (i % 3) as f64), (i, (i + 1) % n, -1.0 / 3.0)])
        .collect();
    let a = CsrMatrix::from_triplets(n, n, &entries).unwrap();
    let p = Vector::from_dense((0..n).map(|i| (i % 7) as f64 / 3.0 - 1.0).collect());
    let q = Vector::from_dense((0..n).map(|i| (i % 5) as f64 / 7.0).collect());
    let x0 = Vector::from_dense((0..n).map(|i| (i % 11) as f64 - 5.0).collect());

    let (mut x, mut w, mut y) = (x0.clone(), Vector::zeros(n), Vector::zeros(n));
    let mut pl = exec.pipeline();
    let xh = Operand::resolve(&mut x, &mut pl);
    pl.ewise(&p, &q).scaled(2.0, -1.0).into(&mut w);
    pl.axpy(xh, 0.5, &p);
    let yh = pl.mxv(&a, xh).into(&mut y);
    let d = pl.dot(&p, yh).result();
    let d = pl.finish().unwrap()[d];

    let (mut x_e, mut w_e, mut y_e) = (x0.clone(), Vector::zeros(n), Vector::zeros(n));
    exec.ewise(&p, &q).scaled(2.0, -1.0).into(&mut w_e).unwrap();
    exec.axpy(&mut x_e, 0.5, &p).unwrap();
    exec.mxv(&a, &x_e).into(&mut y_e).unwrap();
    let d_e = exec.dot(&p, &y_e).compute().unwrap();

    let name = exec.backend_name();
    assert_eq!(x.as_slice(), x_e.as_slice(), "{name}");
    assert_eq!(w.as_slice(), w_e.as_slice(), "{name}");
    assert_eq!(y.as_slice(), y_e.as_slice(), "{name}");
    assert_eq!(d.to_bits(), d_e.to_bits(), "{name}");
}

#[test]
fn shared_input_and_bound_inout_match_eager_on_all_backends() {
    check_shared_input_and_bound_inout(ctx::<Sequential>());
    check_shared_input_and_bound_inout(ctx::<Parallel>());
    check_shared_input_and_bound_inout(crate::Distributed::new(2).ctx());
}

#[test]
fn finish_emits_one_span_and_the_kernel_spans_of_the_equivalent_plan_run() {
    let a = a3();
    let p = Vector::from_dense(vec![1.0, 2.0, 3.0]);
    let mask = Vector::<bool>::sparse_filled(3, vec![0, 2], true).unwrap();
    let exec = ctx::<Sequential>();

    // Span recording is process-global and other tests run beside this
    // one: each arm records under a track of its own and reads only that.
    type Span = (&'static str, &'static str);
    let spans_of = |tid: u64| -> Vec<Span> {
        obs::snapshot()
            .iter()
            .filter(|s| s.tid == tid)
            .map(|s| (s.name, s.class))
            .collect()
    };
    let kernels = |spans: &[Span]| -> Vec<Span> {
        let mut k: Vec<_> = spans.iter().copied().filter(|s| s.1 != "plan").collect();
        k.sort_unstable();
        k
    };
    obs::set_enabled(true);

    let pipe_tid = obs::alloc_tid();
    obs::with_tid(pipe_tid, || {
        let (mut ap, mut r, mut t) = (Vector::zeros(3), p.clone(), Vector::zeros(3));
        let mut pl = exec.pipeline();
        let aph = pl.mxv(&a, &p).into(&mut ap);
        pl.dot(&p, aph).result();
        let rh = pl.axpy(&mut r, -0.5, aph);
        pl.norm2_squared(rh);
        pl.mxv(&a, rh).mask(&mask).structural().into(&mut t);
        pl.finish().unwrap();
    });

    let plan_tid = obs::alloc_tid();
    obs::with_tid(plan_tid, || {
        let (mut ap, mut r, mut t) = (Vector::zeros(3), p.clone(), Vector::zeros(3));
        let mut pb = exec.plan::<f64>();
        let (am, ps, ms) = (pb.matrix(3, 3), pb.input(3), pb.mask(3));
        let (aps, rs, ts) = (pb.output(3), pb.output(3), pb.output(3));
        pb.mxv(am, ps).into(aps);
        pb.dot(ps, aps).result();
        pb.axpy(rs, -0.5, aps);
        pb.norm2_squared(rs);
        pb.mxv(am, rs).mask(ms).structural().into(ts);
        let plan = pb.compile();
        let mut b = plan.bindings();
        b.bind_matrix(am, &a)
            .bind_input(ps, &p)
            .bind_mask(ms, &mask);
        b.bind_output(aps, &mut ap)
            .bind_output(rs, &mut r)
            .bind_output(ts, &mut t);
        plan.run(&mut b).unwrap();
    });
    obs::set_enabled(false);

    let (pipe, plan) = (spans_of(pipe_tid), spans_of(plan_tid));
    let finishes = pipe.iter().filter(|s| s.0 == "plan.finish").count();
    assert_eq!(finishes, 1, "{pipe:?}");
    assert_eq!(kernels(&pipe).len(), 3, "{pipe:?}");
    assert_eq!(kernels(&pipe), kernels(&plan));
}
