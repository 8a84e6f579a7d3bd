//! Zero-cost check of the execution-context API: the fluent builders must
//! lower onto the kernels with no measurable overhead versus calling the
//! monomorphized kernel through a static context, the runtime-dispatched
//! `DynCtx` must add only its one predictable branch per operation, and a
//! deferred `Ctx::pipeline()` recording of the same single op (a
//! `PlanBuilder` over borrowed operands, run once by `finish()`) must cost
//! only its small constant graph setup. A recorded op replays through the
//! `fn` pointer its node stores: one indirect call per op.
//!
//! The `plan` arms run the same op through a plan compiled **once**
//! outside the measurement loop — the replay path a CG iteration or
//! repeated serve job takes. Replay skips per-call recording and fusion,
//! so it must never be slower than the re-record pipeline arm.
//!
//! The `waxpby_path` and `transform_path` groups put the eager
//! element-wise builders — each a closure handed to the backend's one
//! element-write loop — next to the loop a user would write by hand.
//!
//! The `chain_path` group runs three adjacent element-wise ops (a scaled
//! `ewise`, an `axpy`, an `ewise` under `Times`) as three eager calls, as
//! one `ctx.pipeline()` recording, and as a plan compiled once and
//! replayed. Recorded element-wise ops run one stage each through the
//! eager helpers, so the pipeline arm should sit within a few percent of
//! the eager one.
//!
//! Acceptance gate for the API redesign (PR 1) and the pipeline layer:
//! builder-API `mxv`/`dot`/`ewise`/`transform` within noise (≤2 %) of the
//! static or hand-written path, and the single-op pipeline path within a
//! few percent on kernels this size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphblas::{ctx, BackendKind, DynCtx, Sequential, Times, Vector};
use hpcg::problem::build_stencil_matrix;
use hpcg::Grid3;
use std::hint::black_box;

const SIZE: usize = 24; // 24³ = 13 824 rows, ~370 k nonzeroes

fn bench_mxv_paths(c: &mut Criterion) {
    let a = build_stencil_matrix(Grid3::cube(SIZE));
    let n = a.nrows();
    let x = Vector::from_dense((0..n).map(|i| (i % 17) as f64).collect());
    let mut y = Vector::zeros(n);

    let mut g = c.benchmark_group("mxv_path");
    g.throughput(Throughput::Elements(a.nnz() as u64));
    g.bench_function(BenchmarkId::new("builder", "sequential"), |b| {
        let exec = ctx::<Sequential>();
        b.iter(|| {
            exec.mxv(black_box(&a), black_box(&x)).into(&mut y).unwrap();
        })
    });
    g.bench_function(BenchmarkId::new("builder", "dyn_runtime"), |b| {
        let exec = DynCtx::runtime(BackendKind::Sequential);
        b.iter(|| {
            exec.mxv(black_box(&a), black_box(&x)).into(&mut y).unwrap();
        })
    });
    g.bench_function(BenchmarkId::new("pipeline", "sequential"), |b| {
        let exec = ctx::<Sequential>();
        b.iter(|| {
            let mut pl = exec.pipeline();
            pl.mxv(black_box(&a), black_box(&x)).into(&mut y);
            pl.finish().unwrap();
        })
    });
    g.bench_function(BenchmarkId::new("plan", "sequential"), |b| {
        let exec = ctx::<Sequential>();
        // Compiled once; the loop only rebinds and replays.
        let plan = {
            let mut pb = exec.plan::<f64>();
            let am = pb.matrix(n, n);
            let xs = pb.input(n);
            let ys = pb.output(n);
            pb.mxv(am, xs).into(ys);
            pb.compile()
        };
        b.iter(|| {
            let mut bnd = plan.bindings();
            bnd.bind_matrix(plan.matrix_slot(0), black_box(&a))
                .bind_input(plan.input_slot(0), black_box(&x))
                .bind_output(plan.output_slot(0), &mut y);
            plan.run(&mut bnd).unwrap();
        })
    });
    g.finish();
}

fn bench_dot_paths(c: &mut Criterion) {
    let n = SIZE * SIZE * SIZE;
    let x = Vector::from_dense((0..n).map(|i| (i % 13) as f64).collect());
    let y = Vector::from_dense((0..n).map(|i| (i % 7) as f64).collect());

    let mut g = c.benchmark_group("dot_path");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function(BenchmarkId::new("builder", "sequential"), |b| {
        let exec = ctx::<Sequential>();
        b.iter(|| exec.dot(black_box(&x), black_box(&y)).compute().unwrap())
    });
    g.bench_function(BenchmarkId::new("builder", "dyn_runtime"), |b| {
        let exec = DynCtx::runtime(BackendKind::Sequential);
        b.iter(|| exec.dot(black_box(&x), black_box(&y)).compute().unwrap())
    });
    g.bench_function(BenchmarkId::new("pipeline", "sequential"), |b| {
        let exec = ctx::<Sequential>();
        b.iter(|| {
            let mut pl = exec.pipeline();
            let d = pl.dot(black_box(&x), black_box(&y)).result();
            pl.finish().unwrap()[d]
        })
    });
    g.bench_function(BenchmarkId::new("plan", "sequential"), |b| {
        let exec = ctx::<Sequential>();
        let plan = {
            let mut pb = exec.plan::<f64>();
            let xs = pb.input(n);
            let ys = pb.input(n);
            pb.dot(xs, ys).result();
            pb.compile()
        };
        b.iter(|| {
            let mut bnd = plan.bindings();
            bnd.bind_input(plan.input_slot(0), black_box(&x))
                .bind_input(plan.input_slot(1), black_box(&y));
            plan.run(&mut bnd).unwrap()[plan.scalar(0)]
        })
    });
    g.finish();
}

/// Vector length of the element-wise arms.
const ELEMS: usize = 100_000;

fn bench_elementwise_paths(c: &mut Criterion) {
    let n = ELEMS;
    let x = Vector::from_dense((0..n).map(|i| (i % 13) as f64).collect());
    let y = Vector::from_dense((0..n).map(|i| (i % 7) as f64).collect());
    let mut w = Vector::zeros(n);

    let mut g = c.benchmark_group("waxpby_path");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function(BenchmarkId::new("hand", "loop"), |b| {
        b.iter(|| {
            let (xs, ys) = (black_box(&x).as_slice(), black_box(&y).as_slice());
            for ((wi, &xi), &yi) in w.as_mut_slice().iter_mut().zip(xs).zip(ys) {
                *wi = 2.0 * xi + -1.5 * yi;
            }
        })
    });
    g.bench_function(BenchmarkId::new("builder", "sequential"), |b| {
        let exec = ctx::<Sequential>();
        b.iter(|| {
            exec.ewise(black_box(&x), black_box(&y))
                .scaled(2.0, -1.5)
                .into(&mut w)
                .unwrap()
        })
    });
    g.finish();

    let mut g = c.benchmark_group("transform_path");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function(BenchmarkId::new("hand", "loop"), |b| {
        b.iter(|| {
            let ys = black_box(&y).as_slice();
            for (i, wi) in w.as_mut_slice().iter_mut().enumerate() {
                *wi = 0.5 * *wi + ys[i];
            }
        })
    });
    g.bench_function(BenchmarkId::new("builder", "sequential"), |b| {
        let exec = ctx::<Sequential>();
        b.iter(|| {
            let ys = black_box(&y).as_slice();
            exec.transform(&mut w)
                .apply(|i, wi| *wi = 0.5 * *wi + ys[i])
                .unwrap()
        })
    });
    g.finish();
}

fn bench_chain_paths(c: &mut Criterion) {
    let n = SIZE * SIZE * SIZE;
    let x = Vector::from_dense((0..n).map(|i| (i % 13) as f64).collect());
    let y = Vector::from_dense((0..n).map(|i| (i % 7) as f64).collect());
    let (mut w, mut u, mut v) = (Vector::zeros(n), Vector::zeros(n), Vector::zeros(n));

    let mut g = c.benchmark_group("chain_path");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function(BenchmarkId::new("eager", "sequential"), |b| {
        let exec = ctx::<Sequential>();
        b.iter(|| {
            let (x, y) = (black_box(&x), black_box(&y));
            exec.ewise(x, y).scaled(2.0, -1.5).into(&mut w).unwrap();
            exec.axpy(&mut u, 0.5, y).unwrap();
            exec.ewise(x, y).op(Times).into(&mut v).unwrap();
        })
    });
    g.bench_function(BenchmarkId::new("pipeline", "sequential"), |b| {
        let exec = ctx::<Sequential>();
        b.iter(|| {
            let (x, y) = (black_box(&x), black_box(&y));
            let mut pl = exec.pipeline();
            pl.ewise(x, y).scaled(2.0, -1.5).into(&mut w);
            pl.axpy(&mut u, 0.5, y);
            pl.ewise(x, y).op(Times).into(&mut v);
            pl.finish().unwrap();
        })
    });
    g.bench_function(BenchmarkId::new("plan", "sequential"), |b| {
        let exec = ctx::<Sequential>();
        let mut pb = exec.plan::<f64>();
        let (xs, ys) = (pb.input(n), pb.input(n));
        let (ws, us, vs) = (pb.output(n), pb.output(n), pb.output(n));
        pb.ewise(xs, ys).scaled(2.0, -1.5).into(ws);
        pb.axpy(us, 0.5, ys);
        pb.ewise(xs, ys).op(Times).into(vs);
        let plan = pb.compile();
        b.iter(|| {
            let mut bnd = plan.bindings();
            bnd.bind_input(xs, black_box(&x))
                .bind_input(ys, black_box(&y))
                .bind_output(ws, &mut w)
                .bind_output(us, &mut u)
                .bind_output(vs, &mut v);
            plan.run(&mut bnd).unwrap();
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_mxv_paths, bench_dot_paths, bench_elementwise_paths, bench_chain_paths
);
criterion_main!(benches);
