//! Min-of-N probe for the fusion acceptance gate — a noise-robust
//! complement to the `fusion_ablation` criterion bench.
//!
//! On shared/1-CPU containers the criterion medians drift between arms
//! (they run sequentially, seconds apart); the minimum of many direct
//! calls is stable to ~1 % (the record/replay pair, which ci.sh compares
//! both ways, is timed alternately within one loop). This probe prints, for each fusable pair, the
//! hand-written single pass, the raw fused `Exec` kernel, the full
//! record-fuse-finish pipeline, and the unfused eager pair, and writes
//! the same numbers as JSON — the shared-memory counterpart of
//! `BENCH_dist.json`, so both backends have a diffable perf file. Each
//! kernel also runs its raw `Exec` entry on `Parallel`, and the report
//! bills the worker runtime as its own layer (`runtime_overhead_secs`, an
//! empty 2-part pool region), so a `Parallel` that loses to `Sequential`
//! says so in the artifact, next to what the runtime charged it per call:
//!
//! ```text
//! cargo run --release -p hpcg-bench --bin perf_probe -- \
//!     [--size 24] [--reps 300] [--out BENCH_shared.json]
//! ```
//!
//! Acceptance: `pipeline` within 10 % of `hand` (the probe regularly shows
//! them equal) and ahead of `unfused`.
//!
//! The report stamps the host (Table II analogue) and an ISO timestamp,
//! and ends with an `obs_overhead` entry measuring the tracing-disabled
//! instrumentation cost: the per-call price of the span probe every
//! `Exec` kernel entry now carries, relative to one kernel invocation.
//! ci.sh gates its ratio at ≤ 1.01.
//!
//! A `color_pass` entry times what one RBGS half-sweep asks of the
//! operator — eight structural masked `mxv`, one per colour mask — against
//! one unmasked `mxv` over the same rows, alternately, on `Sequential`.
//! Same rows, same flops: the ratio is what the masks' row access pattern
//! costs. The operator is stored colour-major (`hpcg::problem`), so each
//! masked sweep is one contiguous stream: 1.09–1.13 at 32³ on the
//! reference host (the rest is the index list and the strided output),
//! against 1.56–1.63 for the same operator stored in index order. ci.sh
//! gates a 32³ run at ≤ 1.25.

use graphblas::exec::fused::axpy_norm;
use graphblas::{ctx, Exec, Parallel, PlusTimes, Sequential, Vector};
use hpcg::coloring::Coloring;
use hpcg::fused::{
    axpy_norm_fused, axpy_norm_hand, axpy_norm_replay, build_axpy_norm_plan, build_spmv_dot_plan,
    spmv_dot_fused, spmv_dot_hand, spmv_dot_replay,
};
use hpcg::problem::build_stencil_matrix;
use hpcg::Grid3;
use hpcg_bench::cli::Args;
use hpcg_bench::hostinfo::{iso_timestamp_utc, runtime_overhead_secs, HostInfo};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

fn min_time<F: FnMut() -> f64>(mut f: F, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0.0;
    for _ in 0..reps {
        let t0 = Instant::now();
        sink += f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    black_box(sink);
    best
}

/// [`min_time`] of two arms timed alternately, rep by rep: host drift (the
/// arms of one run differ by up to 10 % when timed seconds apart on a
/// shared machine) hits both alike, which is what lets ci.sh hold record
/// and replay within 5 % of each other. `f(false)` is the first arm.
fn min_time_pair<F: FnMut(bool) -> f64>(mut f: F, reps: usize) -> (f64, f64) {
    let mut best = [f64::INFINITY; 2];
    let mut sink = 0.0;
    for _ in 0..reps {
        for second in [false, true] {
            let t0 = Instant::now();
            sink += f(second);
            let arm = &mut best[usize::from(second)];
            *arm = arm.min(t0.elapsed().as_secs_f64());
        }
    }
    black_box(sink);
    (best[0], best[1])
}

/// One probed kernel: its name, working-set descriptor, and arm timings
/// (seconds). `pipe` records, fuses and runs the op graph every rep —
/// the record-every-iteration cost; `replay` runs a plan compiled once
/// outside the loop, so the gap is the amortized record+fuse overhead.
struct Probe {
    kernel: &'static str,
    elements: usize,
    hand: f64,
    raw: f64,
    /// The raw fused kernel on `Parallel` (same entry point as `raw`).
    par: f64,
    pipe: f64,
    replay: f64,
    unfused: f64,
}

fn main() {
    let args = Args::from_env();
    let size = args.get_usize("size", 24);
    let reps = args.get_usize("reps", 300);
    let out_path = args
        .get_str("out")
        .unwrap_or("BENCH_shared.json")
        .to_string();
    let exec = ctx::<Sequential>();

    let a = build_stencil_matrix(Grid3::cube(size));
    let n = a.nrows();
    let x = Vector::from_dense((0..n).map(|i| (i % 17) as f64).collect());
    let mut y = Vector::zeros(n);

    let hand = min_time(|| spmv_dot_hand(black_box(&a), black_box(&x), &mut y), reps);
    let raw = min_time(
        || {
            Sequential
                .run_spmv_dot::<f64, PlusTimes>(
                    &mut y,
                    black_box(&a),
                    black_box(&x),
                    Some(&x),
                    false,
                )
                .unwrap()
        },
        reps,
    );
    let par = min_time(
        || {
            Parallel
                .run_spmv_dot::<f64, PlusTimes>(
                    &mut y,
                    black_box(&a),
                    black_box(&x),
                    Some(&x),
                    false,
                )
                .unwrap()
        },
        reps,
    );
    let spmv_plan = build_spmv_dot_plan(exec, n);
    let (pipe, replay) = min_time_pair(
        |replay| {
            if replay {
                spmv_dot_replay(&spmv_plan, black_box(&a), black_box(&x), &mut y)
            } else {
                spmv_dot_fused(exec, black_box(&a), black_box(&x), &mut y)
            }
        },
        reps,
    );
    // Replay must be bit-identical to recording the graph fresh.
    {
        let mut y_rec = Vector::zeros(n);
        let mut y_rep = Vector::zeros(n);
        let d_rec = spmv_dot_fused(exec, &a, &x, &mut y_rec);
        let d_rep = spmv_dot_replay(&spmv_plan, &a, &x, &mut y_rep);
        assert_eq!(d_rec.to_bits(), d_rep.to_bits(), "spmv_dot replay diverged");
        assert_eq!(
            y_rec.as_slice(),
            y_rep.as_slice(),
            "spmv_dot replay diverged"
        );
    }
    let unfused = min_time(
        || {
            exec.mxv(black_box(&a), black_box(&x)).into(&mut y).unwrap();
            exec.dot(&x, &y).compute().unwrap()
        },
        reps,
    );
    println!(
        "spmv+dot ({} rows, {} nnz, min of {reps}):\n  hand {:9.1} us\n  raw  {:9.1} us\n  par  {:9.1} us ({:.2}x raw)\n  pipe {:9.1} us ({:+.1}% vs hand)\n  plan {:9.1} us ({:+.1}% vs pipe)\n  unf  {:9.1} us",
        n,
        a.nnz(),
        hand * 1e6,
        raw * 1e6,
        par * 1e6,
        par / raw,
        pipe * 1e6,
        (pipe / hand - 1.0) * 100.0,
        replay * 1e6,
        (replay / pipe - 1.0) * 100.0,
        unfused * 1e6,
    );
    let spmv_probe = Probe {
        kernel: "spmv_dot",
        elements: a.nnz(),
        hand,
        raw,
        par,
        pipe,
        replay,
        unfused,
    };

    let m = n * 8;
    let q = Vector::from_dense((0..m).map(|i| (i % 7) as f64).collect());
    let mut r = Vector::from_dense((0..m).map(|i| (i % 13) as f64).collect());
    let hand = min_time(|| axpy_norm_hand(&mut r, 0.5, black_box(&q)), reps);
    // The raw fused kernel computes `r += alpha*q` + norm; `-0.5` matches
    // the hand/pipeline arms' `r -= 0.5*q` convention.
    let raw = min_time(
        || axpy_norm::<f64, PlusTimes, _>(Sequential, &mut r, -0.5, black_box(&q)).unwrap(),
        reps,
    );
    let par = min_time(
        || axpy_norm::<f64, PlusTimes, _>(Parallel, &mut r, -0.5, black_box(&q)).unwrap(),
        reps,
    );
    let axpy_plan = build_axpy_norm_plan(exec, m);
    let (pipe, replay) = min_time_pair(
        |replay| {
            if replay {
                axpy_norm_replay(&axpy_plan, &mut r, 0.5, black_box(&q))
            } else {
                axpy_norm_fused(exec, &mut r, 0.5, black_box(&q))
            }
        },
        reps,
    );
    {
        let mut r_rec = Vector::from_dense((0..m).map(|i| (i % 13) as f64).collect::<Vec<_>>());
        let mut r_rep = r_rec.clone();
        let n_rec = axpy_norm_fused(exec, &mut r_rec, 0.5, &q);
        let n_rep = axpy_norm_replay(&axpy_plan, &mut r_rep, 0.5, &q);
        assert_eq!(
            n_rec.to_bits(),
            n_rep.to_bits(),
            "axpy_norm replay diverged"
        );
        assert_eq!(
            r_rec.as_slice(),
            r_rep.as_slice(),
            "axpy_norm replay diverged"
        );
    }
    let unfused = min_time(
        || {
            exec.axpy(&mut r, -0.5, black_box(&q)).unwrap();
            exec.norm2_squared(&r).unwrap()
        },
        reps,
    );
    println!(
        "axpy+norm ({m} elements, min of {reps}):\n  hand {:9.1} us\n  raw  {:9.1} us\n  par  {:9.1} us ({:.2}x raw)\n  pipe {:9.1} us ({:+.1}% vs hand)\n  plan {:9.1} us ({:+.1}% vs pipe)\n  unf  {:9.1} us",
        hand * 1e6,
        raw * 1e6,
        par * 1e6,
        par / raw,
        pipe * 1e6,
        (pipe / hand - 1.0) * 100.0,
        replay * 1e6,
        (replay / pipe - 1.0) * 100.0,
        unfused * 1e6,
    );
    let axpy_probe = Probe {
        kernel: "axpy_norm",
        elements: m,
        hand,
        raw,
        par,
        pipe,
        replay,
        unfused,
    };

    // One colour pass vs one unmasked sweep (see the module docs).
    let color_masks = Coloring::greedy(&a).masks(n);
    let (spmv_secs, color_pass_secs) = min_time_pair(
        |masked| {
            if masked {
                for mask in &color_masks {
                    exec.mxv(black_box(&a), black_box(&x))
                        .mask(mask)
                        .structural()
                        .into(&mut y)
                        .unwrap();
                }
            } else {
                exec.mxv(black_box(&a), black_box(&x)).into(&mut y).unwrap();
            }
            y.as_slice()[n / 2]
        },
        reps,
    );
    let color_pass_vs_spmv = color_pass_secs / spmv_secs;
    println!(
        "colour pass ({} masks, min of {reps}):\n  masked {:9.1} us\n  spmv   {:9.1} us ({color_pass_vs_spmv:.3}x)",
        color_masks.len(),
        color_pass_secs * 1e6,
        spmv_secs * 1e6,
    );

    // Tracing-off overhead. Every `Exec` kernel entry now leads with one
    // `obs::span_enter` whose disabled path is a single relaxed atomic
    // load. Kernel-vs-kernel A/B cannot resolve that (container noise and
    // the hand/exec codegen gap are both orders of magnitude larger), so
    // measure the probe itself — a tight amortized loop of the exact call
    // the kernels gained — and relate it to one kernel invocation. The
    // ci.sh gate holds the ratio at ≤ 1.01; it lands at ~1.0001.
    assert!(
        !obs::enabled(),
        "the overhead probe measures the tracing-disabled path"
    );
    let span_probe_secs = {
        const CALLS: u32 = 1 << 20;
        let mut best = f64::INFINITY;
        for _ in 0..8 {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                black_box(obs::span_enter(black_box("probe"), "probe"));
            }
            best = best.min(t0.elapsed().as_secs_f64() / f64::from(CALLS));
        }
        best
    };
    let kernel_secs = spmv_probe.raw;
    let obs_ratio = (kernel_secs + span_probe_secs) / kernel_secs;
    println!(
        "obs overhead (tracing off): span probe {:.2} ns/call on a {:.1} us \
         spmv_dot kernel (ratio {obs_ratio:.6})",
        span_probe_secs * 1e9,
        kernel_secs * 1e6,
    );

    let mut kernels_json = String::new();
    let mut amortization_json = String::new();
    for (i, p) in [spmv_probe, axpy_probe].iter().enumerate() {
        let _ = write!(
            kernels_json,
            "{}    {{\n      \"kernel\": \"{}\",\n      \"elements\": {},\n      \
             \"hand_secs\": {:.9e},\n      \"raw_exec_secs\": {:.9e},\n      \
             \"parallel_exec_secs\": {:.9e},\n      \"parallel_vs_sequential\": {:.4},\n      \
             \"pipeline_secs\": {:.9e},\n      \"replay_secs\": {:.9e},\n      \
             \"unfused_secs\": {:.9e},\n      \"pipeline_vs_hand\": {:.4}\n    }}",
            if i == 0 { "" } else { ",\n" },
            p.kernel,
            p.elements,
            p.hand,
            p.raw,
            p.par,
            p.par / p.raw,
            p.pipe,
            p.replay,
            p.unfused,
            p.pipe / p.hand,
        );
        // `record_secs` re-records + fuses + runs the op graph each rep;
        // `replay_secs` runs the once-compiled plan. The gate: replay
        // must never cost more than re-recording.
        let _ = write!(
            amortization_json,
            "{}    {{\"kernel\": \"{}\", \"record_secs\": {:.9e}, \
             \"replay_secs\": {:.9e}, \"speedup\": {:.4}}}",
            if i == 0 { "" } else { ",\n" },
            p.kernel,
            p.pipe,
            p.replay,
            p.pipe / p.replay,
        );
    }
    let runtime_overhead = runtime_overhead_secs(2);
    println!(
        "worker runtime: {:.2} us per empty 2-part region; Parallel runs on {} thread(s)",
        runtime_overhead * 1e6,
        Parallel.threads(),
    );
    let json = format!(
        "{{\n  \"bench\": \"perf_probe\",\n  \"backend\": \"sequential (shared memory)\",\n  \
         \"timestamp\": \"{}\",\n  \"host\": {},\n  \
         \"parallel_threads\": {},\n  \"runtime_overhead_secs\": {runtime_overhead:.9e},\n  \
         \"grid\": {size},\n  \"n\": {n},\n  \"reps\": {reps},\n  \"timing\": \"min of reps\",\n  \
         \"kernels\": [\n{kernels_json}\n  ],\n  \
         \"amortization\": [\n{amortization_json}\n  ],\n  \
         \"color_pass\": {{\"colors\": {}, \"color_pass_secs\": {color_pass_secs:.9e}, \
         \"spmv_secs\": {spmv_secs:.9e}, \"color_pass_vs_spmv\": {color_pass_vs_spmv:.4}}},\n  \
         \"obs_overhead\": {{\"kernel\": \"spmv_dot\", \
         \"kernel_secs\": {kernel_secs:.9e}, \
         \"span_probe_secs\": {span_probe_secs:.9e}, \"ratio\": {obs_ratio:.6}}}\n}}\n",
        iso_timestamp_utc(),
        HostInfo::gather().to_json(),
        Parallel.threads(),
        color_masks.len(),
    );
    std::fs::write(&out_path, &json).expect("writing the JSON report must succeed");
    println!("wrote {out_path} ({} bytes)", json.len());
}
