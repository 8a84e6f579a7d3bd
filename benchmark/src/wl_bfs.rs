//! `bfs-rmat16`: direction-optimizing BFS on a skewed graph.
//!
//! The same `exec` and runtime layers as HPCG, used differently: the
//! Lor-Land ring, sparse push/pull frontiers, and a handful of large kernel
//! calls per op where an HPCG solve makes thousands of small ones. A round
//! is one `bfs_levels_on` from each of the sixteen highest-degree vertices
//! of an RMAT scale-16 graph (edge factor 16) on `Parallel`; `--seed`
//! feeds the generator.

use crate::inputs::rmat_adjacency;
use crate::probes;
use crate::report::{share, use_threads, Opts, Outcome, SETUPS};
use crate::stats;
use crate::trace::Tracer;
use graphblas::algorithms::{bfs_levels_dense, bfs_levels_on, LorLand};
use graphblas::{
    ctx, BackendKind, DynCtx, FrontierMode, GraphMatrix, Sequential, SparseVector, Vector,
};
use std::time::Instant;

const SOURCES: usize = 16;
/// Rounds per second on the calibration host (2 vCPUs).
const ROUND_RATE: f64 = 11.0;

/// One source with what a correct BFS from it must return.
struct Source {
    vertex: usize,
    levels: Vec<i64>,
    /// Stored entries incident to the vertices the BFS reaches: the
    /// "traversed edges" of the TEPS rate.
    edges: usize,
}

/// Times one op per source, checks each result against its reference
/// (untimed) and returns the round's summed op time.
fn round(
    sources: &[Source],
    attempted: &mut u64,
    failed: &mut u64,
    mut bfs: impl FnMut(usize) -> Vec<i64>,
) -> f64 {
    let mut secs = 0.0;
    for s in sources {
        let t0 = Instant::now();
        let levels = bfs(s.vertex);
        secs += t0.elapsed().as_secs_f64();
        *attempted += 1;
        if levels != s.levels {
            *failed += 1;
        }
    }
    secs
}

pub fn run(opts: &Opts, logical_cpus: usize) -> Outcome {
    let threads = logical_cpus.min(4);
    use_threads(threads);
    let par = DynCtx::runtime(BackendKind::Parallel);

    // Benchmark-side set-up, all untimed: the graph, its hubs, and the
    // reference levels from the dense-frontier BFS on `Sequential`.
    let a = rmat_adjacency(if opts.smoke { 8 } else { 16 }, 16, opts.seed);
    let n = a.nrows();
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(a.row_nnz(v)), v));
    let sources: Vec<Source> = by_degree[..SOURCES]
        .iter()
        .map(|&vertex| {
            let mut levels =
                bfs_levels_dense(ctx::<Sequential>(), &a, vertex).expect("reference bfs");
            let edges = (0..n)
                .filter(|&v| levels[v] >= 0)
                .map(|v| a.row_nnz(v))
                .sum();
            if opts.selftest_fail {
                levels[vertex] = 1;
            }
            Source {
                vertex,
                levels,
                edges,
            }
        })
        .collect();
    let edges_per_round: usize = sources.iter().map(|s| s.edges).sum();

    let rounds = opts.rounds(ROUND_RATE);
    let mut out = Outcome::new(SOURCES, edges_per_round as f64 / 1e6, "Medge", threads);
    let (mut attempted, mut failed) = (0, 0);
    let bfs_on = |exec: DynCtx, g: &GraphMatrix<f64>, v: usize| {
        bfs_levels_on(exec, g, v).expect("bfs on a square graph").0
    };

    let budget = opts.budget();
    if !opts.trace {
        for instance in 0..SETUPS {
            // The program side of set-up: both orientations of the graph,
            // and the first round.
            let csr = a.clone();
            let t0 = Instant::now();
            let g = GraphMatrix::from_csr(csr);
            round(&sources, &mut attempted, &mut failed, |v| {
                bfs_on(par, &g, v)
            });
            out.setup_secs.push(t0.elapsed().as_secs_f64());
            round(&sources, &mut attempted, &mut failed, |v| {
                bfs_on(par, &g, v)
            }); // warm-up
            for _ in 0..share(rounds, instance) {
                if budget.exhausted(out.round_secs.len()) {
                    break;
                }
                out.round_secs
                    .push(round(&sources, &mut attempted, &mut failed, |v| {
                        bfs_on(par, &g, v)
                    }));
            }
        }
    } else {
        let g = GraphMatrix::from_csr(a.clone());
        round(&sources, &mut attempted, &mut failed, |v| {
            bfs_on(par, &g, v)
        }); // warm-up
        let seq = DynCtx::runtime(BackendKind::Sequential);
        let mut tracer = Tracer::new(Instant::now(), 0);
        let mut walk = Walk::default();
        let mut seq_secs = Vec::new();
        for done in 0..rounds {
            if budget.exhausted(done) {
                break;
            }
            // The untraced and the traced round swap places every cycle,
            // so neither always runs on the caches the other left warm.
            for traced in [done % 2 == 1, done % 2 == 0] {
                if !traced {
                    out.round_secs
                        .push(round(&sources, &mut attempted, &mut failed, |v| {
                            bfs_on(par, &g, v)
                        }));
                    continue;
                }
                tracer.set_on(true);
                walk = Walk::default();
                out.traced_round_secs
                    .push(round(&sources, &mut attempted, &mut failed, |v| {
                        bfs_traced(par, &g, v, &mut tracer, &mut walk)
                    }));
                tracer.set_on(false);
            }
            seq_secs.push(round(&sources, &mut attempted, &mut failed, |v| {
                bfs_on(seq, &g, v)
            }));
        }
        let dense_secs = round(&sources, &mut attempted, &mut failed, |v| {
            bfs_levels_dense(par, &a, v).expect("dense bfs")
        });

        let traced_ops = (out.traced_round_secs.len() * SOURCES) as f64;
        let per_op_ms = |name: &str| tracer.dur_secs_where(|s| s.name == name) * 1e3 / traced_ops;
        let alp_fast = stats::fast_decile(&out.round_secs);
        out.layer.extend([
            ("algorithms.push_steps", walk.push_steps as f64),
            ("algorithms.pull_steps", walk.pull_steps as f64),
            ("algorithms.edges_traversed", walk.edges as f64),
            ("algorithms.mxv_ms", per_op_ms(MXV)),
            ("algorithms.prune_ms", per_op_ms(PRUNE)),
            ("algorithms.dense_bfs_ms", dense_secs * 1e3 / SOURCES as f64),
            (
                "backend.speedup_vs_seq",
                stats::fast_decile(&seq_secs) / alp_fast,
            ),
        ]);

        // The program's own spans and plan counters around one extra round.
        let census = probes::census(|| {
            round(&sources, &mut attempted, &mut failed, |v| {
                bfs_on(par, &g, v)
            });
        });
        out.layer.extend(census.metrics(SOURCES));

        let calls = probes::calls(opts.smoke);
        out.layer.extend(probes::standard(
            par,
            &a,
            &probes::stride_mask(n, 8, 0),
            calls,
            census.kernel_spans() as f64 / SOURCES as f64,
            alp_fast / SOURCES as f64,
        ));
        out.layer
            .extend(frontier_probes(par, &g, &by_degree, calls));
        out.tracers.push(tracer);
    }
    out.attempted = attempted;
    out.failed = failed;
    out
}

const BFS: &str = "algorithms.bfs";
const MXV: &str = "algorithms.mxv_sparse";
const PRUNE: &str = "algorithms.prune";

/// What one round of traced BFS walks did, as exact counts.
#[derive(Default)]
struct Walk {
    push_steps: usize,
    pull_steps: usize,
    /// Out-edges of every frontier vertex, summed over all steps.
    edges: usize,
}

/// `bfs_levels_on`'s loop, re-driven from the benchmark over the same
/// `ctx.mxv_sparse` calls so each step and each serial frontier rebuild is
/// a span. The caller checks it returns the same levels.
fn bfs_traced(
    exec: DynCtx,
    g: &GraphMatrix<f64>,
    source: usize,
    tracer: &mut Tracer,
    walk: &mut Walk,
) -> Vec<i64> {
    tracer.begin_op();
    let op = tracer.enter(BFS);
    let n = g.nrows();
    let mut levels = vec![-1i64; n];
    levels[source] = 0;
    let mut frontier: Vec<(u32, f64)> = vec![(source as u32, 1.0)];
    let mut next = Vector::<f64>::zeros(n);
    for depth in 1..=n as i64 {
        walk.edges += frontier
            .iter()
            .map(|&(v, _)| g.csc().row_nnz(v as usize))
            .sum::<usize>();
        let x = SparseVector::from_entries(n, 0.0, &frontier).expect("sorted frontier");
        let mode = tracer.span(MXV, || {
            exec.mxv_sparse(g, &x)
                .ring(LorLand)
                .into(&mut next)
                .expect("square graph")
        });
        match mode {
            FrontierMode::Push => walk.push_steps += 1,
            FrontierMode::Pull => walk.pull_steps += 1,
        }
        tracer.span(PRUNE, || {
            frontier.clear();
            for (i, v) in next.as_slice().iter().enumerate() {
                if *v != 0.0 && levels[i] < 0 {
                    levels[i] = depth;
                    frontier.push((i as u32, 1.0));
                }
            }
        });
        if frontier.is_empty() {
            break;
        }
    }
    tracer.exit(op);
    levels
}

/// `exec.mxv_sparse_push_us` / `exec.mxv_sparse_pull_us`: one frontier step
/// in each direction. 64 hubs are far below the 1/16 push/pull density
/// threshold; every eighth vertex is above it.
fn frontier_probes(
    exec: DynCtx,
    g: &GraphMatrix<f64>,
    by_degree: &[usize],
    calls: usize,
) -> Vec<(&'static str, f64)> {
    let n = g.nrows();
    let mut hubs: Vec<u32> = by_degree[..64.min(n / 32)]
        .iter()
        .map(|&v| v as u32)
        .collect();
    hubs.sort_unstable();
    let frontier = |idx: Vec<u32>| {
        let entries: Vec<(u32, f64)> = idx.into_iter().map(|i| (i, 1.0)).collect();
        SparseVector::from_entries(n, 0.0, &entries).expect("sorted frontier")
    };
    let mut next = Vector::<f64>::zeros(n);
    let mut step_us = |x: &SparseVector<f64>, expected: FrontierMode| {
        probes::fast_us(calls, || {
            let mode = exec
                .mxv_sparse(g, x)
                .ring(LorLand)
                .into(&mut next)
                .expect("square graph");
            assert_eq!(mode, expected, "probe frontier ran in the other direction");
        })
    };
    vec![
        (
            "exec.mxv_sparse_push_us",
            step_us(&frontier(hubs), FrontierMode::Push),
        ),
        (
            "exec.mxv_sparse_pull_us",
            step_us(
                &frontier((0..n as u32).step_by(8).collect()),
                FrontierMode::Pull,
            ),
        ),
    ]
}
