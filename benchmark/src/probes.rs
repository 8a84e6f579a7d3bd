//! Direct measurements of single layers, taken in the traced run after the
//! rounds: each probe calls one layer's public entry point a few hundred
//! times on the workload's own operator and backend and reports the fast
//! decile, so a per-layer number can be read next to the end-to-end one.

use crate::stats;
use bsp::Exchange;
use graphblas::{BackendKind, CsrMatrix, DynCtx, Vector};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Calls per probe (the issue fixes 200); a smoke run uses fewer.
pub fn calls(smoke: bool) -> usize {
    if smoke {
        20
    } else {
        200
    }
}

/// Fast-decile time of one `f()` in microseconds, after three warm-ups.
pub fn fast_us(calls: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::fast_decile(&samples)
}

/// A dense vector of small non-trivial values, the same on every run.
fn test_vector(n: usize) -> Vector<f64> {
    Vector::from_dense(
        (0..n)
            .map(|i| ((i * 7 + 3) % 11) as f64 / 4.0 - 1.0)
            .collect(),
    )
}

/// A structural mask over every `stride`-th index from `offset`: the shape
/// of one RBGS colour class.
pub fn stride_mask(n: usize, stride: usize, offset: usize) -> Vector<bool> {
    let idx = (offset..n).step_by(stride).map(|i| i as u32).collect();
    Vector::sparse_filled(n, idx, true).expect("strided indices increase and are in range")
}

/// What the program itself recorded while `f` ran: its `obs` spans (switched
/// on for `f` only, so timed rounds never pay for them) and the process-wide
/// plan-cache counters.
pub struct Census {
    spans: Vec<obs::SpanRecord>,
    dropped: u64,
    plan_hits: u64,
    plan_misses: u64,
}

pub fn census(f: impl FnOnce()) -> Census {
    let hits = obs::global().counter("plan.cache.hit");
    let misses = obs::global().counter("plan.cache.miss");
    let (hits0, misses0) = (hits.get(), misses.get());
    obs::clear();
    obs::set_enabled(true);
    f();
    obs::set_enabled(false);
    let census = Census {
        spans: obs::snapshot(),
        dropped: obs::dropped_count(),
        plan_hits: hits.get() - hits0,
        plan_misses: misses.get() - misses0,
    };
    obs::clear();
    census
}

impl Census {
    /// Spans of the kernel classes: one per call into the backend runtime.
    pub fn kernel_spans(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| matches!(s.class, "spmv" | "dot" | "update" | "fused"))
            .count()
    }

    /// Durations (µs) of the program's spans called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// The count metrics, per op when `f` ran `ops` of them.
    pub fn metrics(&self, ops: usize) -> Vec<(&'static str, f64)> {
        let per_op = |count: f64| count / ops as f64;
        vec![
            (
                "backend.kernel_spans_per_op",
                per_op(self.kernel_spans() as f64),
            ),
            ("plan.cache_hits_per_op", per_op(self.plan_hits as f64)),
            ("plan.cache_misses_per_op", per_op(self.plan_misses as f64)),
            ("obs.spans_recorded", self.spans.len() as f64),
            ("obs.spans_dropped", self.dropped as f64),
        ]
    }
}

/// Every probe that applies to all workloads: `exec.*`, `plan.*` and
/// `backend.dispatch_us` on `ctx` and `a`, `backend.runtime_share` (dispatch
/// cost times the kernel spans of one op, over the op's time), and the
/// exchange primitives on half-vector payloads.
pub fn standard(
    ctx: DynCtx,
    a: &CsrMatrix<f64>,
    mask: &Vector<bool>,
    calls: usize,
    kernel_spans_per_op: f64,
    op_secs: f64,
) -> Vec<(&'static str, f64)> {
    let mut out = layer_probes(ctx, a, mask, calls);
    let dispatch_us = out.last().expect("dispatch is the last layer probe").1;
    out.push((
        "backend.runtime_share",
        dispatch_us * 1e-6 * kernel_spans_per_op / op_secs,
    ));
    out.extend(exchange_probes(a.nrows() / 2, calls));
    out
}

/// `exec.*` (builder calls on `a`), `plan.*` (the fused SpMV+dot graph
/// replayed, re-recorded and compiled) and, last, `backend.dispatch_us`.
fn layer_probes(
    ctx: DynCtx,
    a: &CsrMatrix<f64>,
    mask: &Vector<bool>,
    calls: usize,
) -> Vec<(&'static str, f64)> {
    let n = a.nrows();
    let x = test_vector(n);
    let mut y = Vector::zeros(n);
    let mut w = Vector::zeros(n);

    let spmv_us = fast_us(calls, || ctx.mxv(a, &x).into(&mut y).expect("spmv"));
    let masked_us = fast_us(calls, || {
        ctx.mxv(a, &x)
            .mask(mask)
            .structural()
            .into(&mut w)
            .expect("masked mxv")
    });
    let dot_us = fast_us(calls, || {
        black_box(ctx.dot(&x, &y).compute().expect("dot"));
    });
    let waxpby_us = fast_us(calls, || {
        ctx.ewise(&x, &y)
            .scaled(2.0, -1.0)
            .into(&mut w)
            .expect("waxpby")
    });

    let plan = hpcg::fused::build_spmv_dot_plan(ctx, n);
    let replay_us = fast_us(calls, || {
        black_box(hpcg::fused::spmv_dot_replay(&plan, a, &x, &mut y));
    });
    let record_us = fast_us(calls, || {
        black_box(hpcg::fused::spmv_dot_fused(ctx, a, &x, &mut y));
    });
    let compile_us = fast_us(calls, || {
        black_box(hpcg::fused::build_spmv_dot_plan(ctx, n));
    });

    // Computed, not measured, traffic: 12 B per stored entry (value and
    // column index) plus 20 B per row (row pointer, x read, y write); cache
    // misses are ignored. 2 flops per entry, so about 0.16 flop/B.
    let spmv_bytes = 12.0 * a.nnz() as f64 + 20.0 * n as f64;

    vec![
        ("exec.spmv_us", spmv_us),
        ("exec.masked_mxv_us", masked_us),
        ("exec.dot_us", dot_us),
        ("exec.waxpby_us", waxpby_us),
        ("exec.spmv_dot_us", replay_us),
        ("exec.spmv_gbps", spmv_bytes / (spmv_us * 1e-6) / 1e9),
        ("plan.replay_us", replay_us),
        ("plan.record_us", record_us),
        ("plan.compile_us", compile_us),
        ("backend.dispatch_us", dispatch_us(ctx, calls)),
    ]
}

/// The runtime's cost per kernel call: a 1 024-element `ewise` (twice the
/// backends' 512-element serial cut-off, so it does go through the
/// runtime) on `ctx`, minus the same on `Sequential`.
fn dispatch_us(ctx: DynCtx, calls: usize) -> f64 {
    let x = test_vector(1024);
    let y = test_vector(1024);
    let mut w = Vector::zeros(1024);
    let mut ewise_us = |c: DynCtx| {
        fast_us(calls, || {
            c.ewise(&x, &y)
                .scaled(2.0, -1.0)
                .into(&mut w)
                .expect("ewise")
        })
    };
    ewise_us(ctx) - ewise_us(DynCtx::runtime(BackendKind::Sequential))
}

/// `bsp.allgather_us` / `bsp.allreduce_us`: the exchange primitives timed
/// directly between two threads on `chunk`-element payloads. Both nodes
/// post and complete in lock step; node 0's post-to-completion time is the
/// sample.
fn exchange_probes(chunk: usize, calls: usize) -> Vec<(&'static str, f64)> {
    let ex = Exchange::<f64>::new(2);
    let payload = vec![1.0f64; chunk];
    // A mailbox must be drained before its next post, so the nodes meet at
    // a barrier between exchanges (outside the timed interval).
    let barrier = Barrier::new(2);
    let lock_step = |exchange: &dyn Fn()| -> f64 {
        let samples: Vec<f64> = (0..calls)
            .map(|_| {
                barrier.wait();
                let t0 = Instant::now();
                exchange();
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        stats::fast_decile(&samples)
    };
    let allgather = |node: usize| {
        ex.post_allgather(node, &payload);
        black_box(ex.complete_allgather(node));
    };
    let allreduce = |node: usize| {
        ex.post_allreduce(node, 1.0);
        black_box(ex.complete_allreduce(node));
    };
    let (allgather_us, allreduce_us) = std::thread::scope(|s| {
        s.spawn(|| {
            lock_step(&|| allgather(1));
            lock_step(&|| allreduce(1));
        });
        (lock_step(&|| allgather(0)), lock_step(&|| allreduce(0)))
    });
    vec![
        ("bsp.allgather_us", allgather_us),
        ("bsp.allreduce_us", allreduce_us),
    ]
}
