//! `serve-mix`: the solve service under a closed loop of small jobs.
//!
//! An in-process `serve::Server` (2 workers) holds a 4-per-row graph and a
//! tridiagonal SPD matrix of n = 4096. Two clients each submit 512 jobs per
//! round and block on every reply (closed loop, so at most `nproc` threads
//! are runnable); a barrier separates rounds. Per 32 jobs: 12 `mxv` seq,
//! 4 `mxv` par, 8 `dot` seq, 3 `bfs` seq, 2 `sssp` seq, 2 `cg` seq
//! (8 iterations) and 1 `cg` dist:2 (2 iterations), in an order `--seed`
//! shuffles. Jobs cost 50 µs to 1.5 ms, so the queue, the reply channel, the
//! per-worker plan and cluster caches and the registry are most of the
//! latency and the kernels little.

use crate::inputs::splitmix64;
use crate::probes;
use crate::report::{share, use_threads, Opts, Outcome, SETUPS};
use crate::stats;
use crate::trace::Tracer;
use graphblas::algorithms::{bfs_levels, sssp};
use graphblas::{BackendKind, CsrMatrix, Distributed, DynCtx, Vector};
use serve::protocol::{BackendSpec, JobSpec, MeterSnapshot, Payload, Request, Response};
use serve::{ServeError, Server, ServerConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const MIX: usize = 32;
/// Rounds per second on the calibration host (2 vCPUs).
const ROUND_RATE: f64 = 10.0;

/// Span names of a client's calls, by job kind; the latency metrics are the
/// durations of these spans.
const KINDS: [&str; 6] = [
    "serve.call.mxv",
    "serve.call.dot",
    "serve.call.bfs",
    "serve.call.sssp",
    "serve.call.cg_seq",
    "serve.call.cg_dist",
];
const CG_DIST: usize = 5;

/// The edges of a graph with at most four out-edges per vertex and
/// logarithmic diameter (`i → i+1, 2i, 2i+1, i+n/3`), so a traversal job
/// takes a dozen frontier steps, not hundreds. Edge `i → j` is the entry
/// `A[j, i]`; weights are positive and deterministic.
fn graph_triplets(n: usize) -> Vec<(usize, usize, f64)> {
    let mut entries = BTreeMap::new();
    for i in 0..n {
        for j in [(i + 1) % n, (2 * i) % n, (2 * i + 1) % n, (i + n / 3) % n] {
            if j != i {
                entries.insert((j, i), 1.0 + ((i * 31 + j * 17) % 97) as f64 / 13.0);
            }
        }
    }
    entries.into_iter().map(|((r, c), v)| (r, c, v)).collect()
}

/// A diagonally dominant tridiagonal matrix.
fn spd_triplets(n: usize) -> Vec<(usize, usize, f64)> {
    let mut t = Vec::with_capacity(3 * n);
    for i in 0..n {
        t.push((i, i, 4.0 + 0.1 * (i % 16) as f64));
        if i + 1 < n {
            t.push((i, i + 1, -1.0 / 3.0));
            t.push((i + 1, i, -1.0 / 3.0));
        }
    }
    t
}

fn vector(n: usize, k: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 13 + k * 29) % 23) as f64 / 3.0 - 7.0 / 11.0)
        .collect()
}

/// One slot of the 32-job mix: the request, what kind of job it is, and
/// the payload a correct server must answer with.
struct Template {
    request: Request,
    kind: usize,
    expected: Payload,
}

struct Matrices {
    g: CsrMatrix<f64>,
    spd: CsrMatrix<f64>,
}

impl Matrices {
    fn by_name(&self, name: &str) -> &CsrMatrix<f64> {
        match name {
            "g" => &self.g,
            "spd" => &self.spd,
            other => panic!("the mix never names matrix {other:?}"),
        }
    }
}

/// Executes a job's compute directly on `exec`, with no server: the
/// reference (on `Sequential`) every payload is compared with bit for bit,
/// and the "same round without the service" of `serve.direct_ms`.
fn direct(exec: DynCtx, m: &Matrices, job: &JobSpec) -> Payload {
    match job {
        JobSpec::Mxv { matrix, x } => {
            let a = m.by_name(matrix);
            let mut y = Vector::zeros(a.nrows());
            exec.mxv(a, &Vector::from_dense(x.clone()))
                .into(&mut y)
                .expect("direct mxv");
            Payload::Vector(y.as_slice().to_vec())
        }
        JobSpec::Dot { x, y } => Payload::Scalar(
            exec.dot(
                &Vector::from_dense(x.clone()),
                &Vector::from_dense(y.clone()),
            )
            .compute()
            .expect("direct dot"),
        ),
        JobSpec::Bfs { matrix, source } => {
            Payload::Levels(bfs_levels(exec, m.by_name(matrix), *source).expect("direct bfs"))
        }
        JobSpec::Sssp { matrix, source } => {
            Payload::Vector(sssp(exec, m.by_name(matrix), *source).expect("direct sssp"))
        }
        JobSpec::Cg { matrix, iters, b } => cg_direct(exec, m.by_name(matrix), b, *iters),
        other => panic!("the mix never submits {other:?}"),
    }
}

/// Plain CG from `x = 0`, eager builder calls only: the recurrence the
/// service's `cg` job replays through compiled plans, so the two must agree
/// to the bit (eager ≡ plan replay is one of the repo's invariants).
fn cg_direct(exec: DynCtx, a: &CsrMatrix<f64>, b: &[f64], iters: usize) -> Payload {
    let n = a.nrows();
    let mut x = Vector::zeros(n);
    let mut r = Vector::from_dense(b.to_vec());
    let mut p = r.clone();
    let mut ap = Vector::zeros(n);
    let mut rs_old = exec.norm2_squared(&r).expect("norm");
    let norm0 = rs_old.sqrt();
    let mut rs_new = rs_old;
    let mut iterations = 0;
    for _ in 0..iters {
        if rs_old == 0.0 {
            break;
        }
        exec.mxv(a, &p).into(&mut ap).expect("spmv");
        let p_ap = exec.dot(&p, &ap).compute().expect("dot");
        if p_ap == 0.0 {
            break;
        }
        let alpha = rs_old / p_ap;
        exec.axpy(&mut x, alpha, &p).expect("axpy");
        exec.axpy(&mut r, -alpha, &ap).expect("axpy");
        rs_new = exec.norm2_squared(&r).expect("norm");
        iterations += 1;
        let mut p_next = r.clone();
        exec.axpy(&mut p_next, rs_new / rs_old, &p).expect("axpy");
        p = p_next;
        rs_old = rs_new;
    }
    Payload::Solve {
        iterations,
        relative_residual: if norm0 > 0.0 {
            rs_new.sqrt() / norm0
        } else {
            0.0
        },
        x: x.as_slice().to_vec(),
    }
}

/// The 32 templates of the mix with their `Sequential` reference payloads.
fn templates(n: usize, m: &Matrices, corrupt: bool) -> Vec<Template> {
    let seq = DynCtx::runtime(BackendKind::Sequential);
    let mut jobs: Vec<(BackendSpec, usize, JobSpec)> = Vec::with_capacity(MIX);
    let mxv = |k: usize| JobSpec::Mxv {
        matrix: "g".into(),
        x: vector(n, k),
    };
    for k in 0..12 {
        jobs.push((BackendSpec::Seq, 0, mxv(k)));
    }
    for k in 12..16 {
        jobs.push((BackendSpec::Par, 0, mxv(k)));
    }
    for k in 0..8 {
        let job = JobSpec::Dot {
            x: vector(n, 16 + k),
            y: vector(n, 17 + k),
        };
        jobs.push((BackendSpec::Seq, 1, job));
    }
    for k in 0..3 {
        let job = JobSpec::Bfs {
            matrix: "g".into(),
            source: (k * n / 3 + 1) % n,
        };
        jobs.push((BackendSpec::Seq, 2, job));
    }
    for k in 0..2 {
        let job = JobSpec::Sssp {
            matrix: "g".into(),
            source: (k * n / 2 + 5) % n,
        };
        jobs.push((BackendSpec::Seq, 3, job));
    }
    let cg = |k: usize, iters| JobSpec::Cg {
        matrix: "spd".into(),
        iters,
        b: vector(n, 30 + k),
    };
    jobs.push((BackendSpec::Seq, 4, cg(0, 8)));
    jobs.push((BackendSpec::Seq, 4, cg(1, 8)));
    jobs.push((BackendSpec::Dist(2), CG_DIST, cg(2, 2)));
    assert_eq!(jobs.len(), MIX);

    jobs.into_iter()
        .map(|(backend, kind, job)| {
            let mut expected = direct(seq, m, &job);
            if corrupt {
                expected = Payload::Ack;
            }
            Template {
                request: Request {
                    tenant: String::new(),
                    backend,
                    job,
                },
                kind,
                expected,
            }
        })
        .collect()
}

/// `mixes` copies of the 32 templates in a Fisher-Yates order drawn from
/// `seed`: the op sequence one client runs in every round.
fn job_order(mixes: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..mixes * MIX).map(|i| i % MIX).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
    }
    order
}

/// Failure and job counters shared by the clients.
#[derive(Default)]
struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    overloaded: AtomicU64,
}

/// What a dist job added to its tenant's meter: the `bsp.*` counts.
#[derive(Copy, Clone, Default)]
struct DistCost {
    supersteps: usize,
    h_bytes: f64,
    modeled_secs: f64,
}

struct Client {
    id: usize,
    /// Rounds this client has started; names the round's tenant.
    round: usize,
    order: Vec<usize>,
    tracer: Tracer,
    meter: MeterSnapshot,
    dist_cost: DistCost,
}

impl Client {
    /// One round of this client's stream: submit, block on the reply,
    /// compare with the reference, next.
    ///
    /// Every round bills a fresh tenant. The service's meter re-sums a
    /// tenant's whole step history on each job, so with one long-lived
    /// tenant a round costs more the later it runs (measured: 90 ms growing
    /// to 345 ms over 42 rounds); with a tenant per round every round is the
    /// same work, and the growth *within* a round is part of all of them.
    fn round(&mut self, server: &Server, templates: &[Template], tally: &Tally) {
        self.round += 1;
        let tenant = format!("client-{}-round-{}", self.id, self.round);
        self.meter = MeterSnapshot::default();
        for &t in &self.order {
            let template = &templates[t];
            let mut request = template.request.clone();
            request.tenant.clone_from(&tenant);
            self.tracer.begin_op();
            let span = self.tracer.enter(KINDS[template.kind]);
            let reply = server.call(request);
            self.tracer.exit(span);
            tally.attempted.fetch_add(1, Ordering::Relaxed);
            match reply {
                Ok((payload, meter)) => {
                    if payload != template.expected {
                        tally.failed.fetch_add(1, Ordering::Relaxed);
                    }
                    if template.kind == CG_DIST {
                        self.dist_cost = DistCost {
                            supersteps: meter.supersteps - self.meter.supersteps,
                            h_bytes: meter.h_bytes - self.meter.h_bytes,
                            modeled_secs: meter.modeled_secs - self.meter.modeled_secs,
                        };
                    }
                    self.meter = meter;
                }
                Err(e) => {
                    tally.failed.fetch_add(1, Ordering::Relaxed);
                    if matches!(e, ServeError::Overloaded { .. }) {
                        tally.overloaded.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// A running service with its registered matrices and its clients.
struct Session<'a> {
    server: Server,
    clients: Vec<Client>,
    templates: &'a [Template],
    tally: &'a Tally,
}

impl<'a> Session<'a> {
    /// The program side of set-up: start the workers and register both
    /// matrices through `put` jobs.
    fn start(
        n: usize,
        mixes: usize,
        seed: u64,
        templates: &'a [Template],
        tally: &'a Tally,
    ) -> Session<'a> {
        let server = Server::start(ServerConfig {
            workers: WORKERS,
            queue_bound: 64,
        });
        for (name, triplets) in [("g", graph_triplets(n)), ("spd", spd_triplets(n))] {
            server
                .call(Request {
                    tenant: "setup".into(),
                    backend: BackendSpec::Seq,
                    job: JobSpec::Put {
                        name: name.into(),
                        nrows: n,
                        ncols: n,
                        triplets,
                    },
                })
                .expect("registering a matrix");
        }
        let epoch = Instant::now();
        let clients = (0..CLIENTS)
            .map(|c| Client {
                id: c,
                round: 0,
                order: job_order(
                    mixes,
                    seed.wrapping_mul(CLIENTS as u64).wrapping_add(c as u64),
                ),
                tracer: Tracer::new(epoch, c as u32 + 1),
                meter: MeterSnapshot::default(),
                dist_cost: DistCost::default(),
            })
            .collect();
        Session {
            server,
            clients,
            templates,
            tally,
        }
    }

    /// Runs up to `rounds` rounds: both clients start each round together
    /// and the round ends when both streams are done. `traced(i)` says
    /// whether round `i` records spans; `stop(i)` may end the run early.
    /// Returns each round's seconds.
    fn rounds(
        &mut self,
        rounds: usize,
        traced: impl Fn(usize) -> bool + Sync,
        stop: impl Fn(usize) -> bool,
    ) -> Vec<f64> {
        let barrier = Barrier::new(CLIENTS + 1);
        let stopped = AtomicBool::new(false);
        let (server, templates, tally) = (&self.server, self.templates, self.tally);
        let (barrier, stopped, traced) = (&barrier, &stopped, &traced);
        std::thread::scope(|s| {
            for client in &mut self.clients {
                s.spawn(move || {
                    for i in 0..rounds {
                        barrier.wait();
                        if stopped.load(Ordering::SeqCst) {
                            break;
                        }
                        client.tracer.set_on(traced(i));
                        client.round(server, templates, tally);
                        client.tracer.set_on(false);
                        barrier.wait();
                    }
                });
            }
            let mut secs = Vec::with_capacity(rounds);
            for i in 0..rounds {
                // Published before the barrier releases the clients.
                stopped.store(stop(i), Ordering::SeqCst);
                barrier.wait();
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let t0 = Instant::now();
                barrier.wait();
                secs.push(t0.elapsed().as_secs_f64());
            }
            secs
        })
    }
}

pub fn run(opts: &Opts, logical_cpus: usize) -> Outcome {
    // `par` jobs run inside a worker; the shim sizes them from this.
    use_threads(logical_cpus.min(4));
    let (n, mixes) = if opts.smoke { (64, 2) } else { (4096, 16) };
    let jobs_per_round = CLIENTS * mixes * MIX;

    // Benchmark-side set-up: reference payloads, once, untimed.
    let matrices = Matrices {
        g: CsrMatrix::from_triplets(n, n, &graph_triplets(n)).expect("graph"),
        spd: CsrMatrix::from_triplets(n, n, &spd_triplets(n)).expect("spd"),
    };
    let templates = templates(n, &matrices, opts.selftest_fail);
    let tally = Tally::default();

    let rounds = opts.rounds(ROUND_RATE);
    let mut out = Outcome::new(mixes * MIX, jobs_per_round as f64, "job", CLIENTS + WORKERS);

    let budget = opts.budget();
    if !opts.trace {
        for instance in 0..SETUPS {
            // The previous service was shut down when its session dropped.
            let t0 = Instant::now();
            let mut session = Session::start(n, mixes, opts.seed, &templates, &tally);
            session.rounds(1, |_| false, |_| false);
            out.setup_secs.push(t0.elapsed().as_secs_f64());
            session.rounds(1, |_| false, |_| false); // warm-up
            let done = out.round_secs.len();
            out.round_secs.extend(session.rounds(
                share(rounds, instance),
                |_| false,
                |i| budget.exhausted(done + i),
            ));
        }
    } else {
        let mut session = Session::start(n, mixes, opts.seed, &templates, &tally);
        session.rounds(1, |_| false, |_| false); // warm-up
                                                 // Each cycle is an untraced and a traced round, then a direct (no
                                                 // server) execution of the same jobs.
        let direct_ctx = DirectCtx::new();
        let mut direct_secs = Vec::new();
        for done in 0..rounds {
            if budget.exhausted(done) {
                break;
            }
            // Which of the pair is traced alternates, so neither kind always
            // runs on the caches the other left warm.
            let traced_at = done % 2;
            let pair = session.rounds(2, |i| i == traced_at, |_| false);
            out.round_secs.push(pair[1 - traced_at]);
            out.traced_round_secs.push(pair[traced_at]);
            let t0 = Instant::now();
            for client in &session.clients {
                for &t in &client.order {
                    let request = &templates[t].request;
                    black_box(direct(
                        direct_ctx.of(request.backend),
                        &matrices,
                        &request.job,
                    ));
                }
            }
            direct_secs.push(t0.elapsed().as_secs_f64());
        }
        trace_metrics(opts, &mut session, &matrices, &direct_secs, &mut out);
        out.layer.push((
            "serve.overloaded",
            tally.overloaded.load(Ordering::Relaxed) as f64,
        ));
        out.tracers = session.clients.drain(..).map(|c| c.tracer).collect();
    }
    out.attempted = tally.attempted.load(Ordering::Relaxed);
    out.failed = tally.failed.load(Ordering::Relaxed);
    out
}

/// The contexts a direct execution runs the mix's backends on.
struct DirectCtx {
    dist2: Distributed,
}

impl DirectCtx {
    fn new() -> DirectCtx {
        DirectCtx {
            dist2: Distributed::new(2),
        }
    }

    fn of(&self, backend: BackendSpec) -> DynCtx {
        // Like a worker between jobs: keep the cluster's trace from growing.
        self.dist2.reset_costs();
        DynCtx::runtime(match backend {
            BackendSpec::Seq => BackendKind::Sequential,
            BackendSpec::Par => BackendKind::Parallel,
            BackendSpec::Dist(2) => BackendKind::Dist(self.dist2),
            BackendSpec::Dist(p) => panic!("the mix never asks for dist:{p}"),
        })
    }
}

fn p50(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::median(samples)
    }
}

fn trace_metrics(
    opts: &Opts,
    session: &mut Session,
    matrices: &Matrices,
    direct_secs: &[f64],
    out: &mut Outcome,
) {
    // Client-side latency: the durations of the call spans.
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    for client in &session.clients {
        for span in client.tracer.spans() {
            let kind = KINDS
                .iter()
                .position(|k| *k == span.name)
                .expect("call span");
            by_kind[kind].push(span.dur_ns() as f64 / 1e3);
        }
    }
    let pooled: Vec<f64> = by_kind.iter().flatten().copied().collect();
    let pooled = stats::sorted(&pooled);
    let served_fast = stats::fast_decile(&out.round_secs);
    let direct_fast = stats::fast_decile(direct_secs);
    let dist_cost = session.clients[0].dist_cost;
    out.layer.extend([
        (
            "serve.job_p50_ms",
            stats::quantile_sorted(&pooled, 0.50) / 1e3,
        ),
        (
            "serve.job_p99_ms",
            stats::quantile_sorted(&pooled, 0.99) / 1e3,
        ),
        ("serve.mxv_p50_us", p50(&by_kind[0])),
        ("serve.dot_p50_us", p50(&by_kind[1])),
        ("serve.bfs_p50_us", p50(&by_kind[2])),
        ("serve.sssp_p50_us", p50(&by_kind[3])),
        ("serve.cg_seq_p50_us", p50(&by_kind[4])),
        ("serve.cg_dist_p50_us", p50(&by_kind[CG_DIST])),
        ("serve.direct_ms", direct_fast * 1e3),
        // The workers could at best split the direct time evenly.
        (
            "serve.overhead_share",
            1.0 - direct_fast / WORKERS as f64 / served_fast,
        ),
        ("bsp.supersteps_per_op", dist_cost.supersteps as f64),
        ("bsp.h_mb_per_op", dist_cost.h_bytes / 1e6),
        ("bsp.modeled_ms_per_op", dist_cost.modeled_secs * 1e3),
    ]);

    // Server-side queue wait and execution time, from the spans the service
    // already emits, over a short extra round (two mixes per client, so the
    // program's span rings do not wrap).
    let stats_before = session.server.stats();
    let (hits0, misses0) = (
        stats_before.plan_cache_hits.load(Ordering::Relaxed),
        stats_before.plan_cache_misses.load(Ordering::Relaxed),
    );
    let full_orders: Vec<Vec<usize>> = session
        .clients
        .iter_mut()
        .map(|c| {
            let short = c.order[..2 * MIX].to_vec();
            std::mem::replace(&mut c.order, short)
        })
        .collect();
    let census = probes::census(|| {
        session.rounds(1, |_| false, |_| false);
    });
    for (client, order) in session.clients.iter_mut().zip(full_orders) {
        client.order = order;
    }
    let census_jobs = CLIENTS * 2 * MIX;
    out.layer.extend(census.metrics(census_jobs));
    let server_stats = session.server.stats();
    out.layer.extend([
        (
            "serve.queue_wait_p50_us",
            p50(&census.durations_us("queue.wait")),
        ),
        ("serve.exec_p50_us", p50(&census.durations_us("serve.exec"))),
        (
            "serve.plan_cache_hits",
            (server_stats.plan_cache_hits.load(Ordering::Relaxed) - hits0) as f64,
        ),
        (
            "serve.plan_cache_misses",
            (server_stats.plan_cache_misses.load(Ordering::Relaxed) - misses0) as f64,
        ),
        (
            "serve.batched_jobs",
            server_stats.batched_jobs.load(Ordering::Relaxed) as f64,
        ),
        (
            "serve.jobs_err",
            server_stats.jobs_err.load(Ordering::Relaxed) as f64,
        ),
    ]);

    // The wire codec both ways for one 4096-element `mxv`, no socket.
    let calls = probes::calls(opts.smoke);
    let n = matrices.g.nrows();
    let request = Request {
        tenant: "wire".into(),
        backend: BackendSpec::Seq,
        job: JobSpec::Mxv {
            matrix: "g".into(),
            x: vector(n, 0),
        },
    };
    let response = Response::Ok {
        payload: direct(
            DynCtx::runtime(BackendKind::Sequential),
            matrices,
            &request.job,
        ),
        meter: MeterSnapshot::default(),
    };
    let wire_us = probes::fast_us(calls, || {
        let back = Request::parse_line(&request.to_line()).expect("request round trip");
        black_box(back);
        let back = Response::parse_line(&response.to_line()).expect("response round trip");
        black_box(back);
    });
    out.layer.push(("serve.wire_roundtrip_us", wire_us));

    // The layer probes run on the graph matrix on `Sequential`, where 27 of
    // the mix's 32 jobs execute.
    let kernel_spans_per_job = census.kernel_spans() as f64 / census_jobs as f64;
    out.layer.extend(probes::standard(
        DynCtx::runtime(BackendKind::Sequential),
        &matrices.g,
        &probes::stride_mask(n, 8, 0),
        calls,
        kernel_spans_per_job,
        served_fast / out.work_per_round,
    ));
}
