//! Trace-track hygiene of the shared worker runtime (a test binary of its
//! own: span recording is process-global).
//!
//! `Parallel` and `Distributed` run on the same pool threads, and a
//! superstep's node 0 runs on the calling thread; a thread records under a
//! `node k/p` track only for the length of the superstep it serves.

use graphblas::{
    ctx, ctx_on, Backend, BackendKind, CsrMatrix, DistConfig, Distributed, DynCtx, Max, Parallel,
    ShardLayout, Vector,
};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// Span recording is process-global; tests that switch it on take this
/// lock so the parallel test runner cannot interleave them.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn parallel_spans_after_a_superstep_stay_off_the_node_tracks() {
    let _lock = trace_lock();
    // Two chunks per `Parallel` kernel, so the pool worker that just served
    // node 2/2 runs the second one.
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build_global()
        .unwrap();
    let n = 4096usize;
    let diagonal: Vec<_> = (0..n).map(|i| (i, i, 2.0)).collect();
    let a = CsrMatrix::<f64>::from_triplets(n, n, &diagonal).unwrap();
    let x = Vector::filled(n, 1.0);
    let mut y = Vector::zeros(n);

    obs::set_enabled(true);
    Distributed::new(2).ctx().mxv(&a, &x).into(&mut y).unwrap();
    let node_tracks: BTreeSet<u64> = obs::snapshot()
        .iter()
        .filter(|s| s.class == "shard")
        .map(|s| s.tid)
        .collect();
    assert_eq!(node_tracks.len(), 2, "one track per node of dist:2");

    // The kernel's own span lands on the caller (which ran node 1/2); the
    // first and last index run on the caller and on the pool worker.
    ctx::<Parallel>().mxv(&a, &x).into(&mut y).unwrap();
    Parallel::for_n(n, |i| {
        if i == 0 || i == n - 1 {
            drop(obs::span_enter("probe", "test"));
        }
    });
    obs::set_enabled(false);

    let after: Vec<_> = obs::snapshot()
        .into_iter()
        .filter(|s| matches!(s.name, "mxv" | "probe"))
        .collect();
    assert_eq!(after.len(), 3, "{after:?}");
    let probe_threads: BTreeSet<u64> = after
        .iter()
        .filter(|s| s.name == "probe")
        .map(|s| s.tid)
        .collect();
    assert_eq!(probe_threads.len(), 2, "both pool participants probed");
    for span in &after {
        assert!(
            !node_tracks.contains(&span.tid),
            "{} recorded on a node track",
            span.name
        );
    }
}

/// The kernel spans one eager call leaves behind: everything but the
/// `dist` ledger's retrospective superstep slices and a pipeline's own
/// `finish` span.
fn kernel_spans(call: impl FnOnce()) -> Vec<(&'static str, &'static str)> {
    obs::clear();
    obs::set_enabled(true);
    call();
    obs::set_enabled(false);
    obs::snapshot()
        .into_iter()
        .filter(|s| !matches!(s.class, "superstep" | "plan"))
        .map(|s| (s.name, s.class))
        .collect()
}

/// Each element-wise and fold op emits exactly one kernel span per eager
/// call, under the name and class the trace categories (`update`, `dot`,
/// `fused`) count — on `Sequential` and on a 3-node block-cyclic cluster.
#[test]
fn each_elementwise_op_emits_one_named_span() {
    let _lock = trace_lock();
    let cluster =
        Distributed::with_config(DistConfig::new(3).layout(ShardLayout::BlockCyclic { block: 3 }));
    let n = 100usize;
    let x = Vector::from_dense((0..n).map(|i| 1.0 + i as f64).collect());
    let y = Vector::filled(n, 0.5);
    let mask = Vector::<bool>::sparse_filled(n, (0..n as u32).step_by(4).collect(), true).unwrap();
    type Call = fn(DynCtx, &Vector<f64>, &Vector<f64>, &Vector<bool>, &mut Vector<f64>);
    let cases: [(&str, &str, Call); 9] = [
        ("ewise", "update", |c, x, y, m, w| {
            c.ewise(x, y).mask(m).structural().into(w).unwrap()
        }),
        ("ewise", "update", |c, x, y, _, w| {
            c.ewise(x, y).scaled(2.0, -1.0).into(w).unwrap()
        }),
        ("axpy", "update", |c, _, y, _, w| c.axpy(w, 0.5, y).unwrap()),
        ("apply", "update", |c, x, _, m, w| {
            c.apply(x).mask(m).structural().into(w).unwrap()
        }),
        ("lambda", "update", |c, _, y, _, w| {
            let ys = y.as_slice();
            c.transform(w).apply(|i, t| *t += ys[i]).unwrap()
        }),
        ("dot", "dot", |c, x, y, _, _| {
            c.dot(x, y).compute().unwrap();
        }),
        ("dot", "dot", |c, x, _, _, _| {
            c.norm2_squared(x).unwrap();
        }),
        ("reduce", "dot", |c, x, _, m, _| {
            c.reduce(x)
                .monoid(Max)
                .mask(m)
                .structural()
                .compute()
                .unwrap();
        }),
        ("axpy_norm", "fused", |c, _, y, _, w| {
            let mut pl = c.pipeline();
            let h = pl.axpy(w, 0.5, y);
            pl.norm2_squared(h);
            pl.finish().unwrap();
        }),
    ];
    for (name, class, call) in cases {
        for (backend, prefix) in [
            (BackendKind::Sequential, ""),
            (BackendKind::Dist(cluster), "dist."),
        ] {
            let mut w = Vector::filled(n, 1.0);
            let spans = kernel_spans(|| call(ctx_on(backend), &x, &y, &mask, &mut w));
            let want = format!("{prefix}{name}");
            assert_eq!(spans.len(), 1, "{want} on {backend}: {spans:?}");
            assert_eq!(
                (spans[0].0, spans[0].1),
                (want.as_str(), class),
                "on {backend}"
            );
        }
    }
}
