//! Every element-wise and fold op, on every backend, through every front
//! door, at sizes that split a `Parallel` loop.
//!
//! The cross-backend property tests elsewhere draw vectors shorter than
//! `backend::MIN_CHUNK = 512`, so no `Parallel` loop ever splits there.
//! This target runs `ewise` (plain, scaled, masked, structural, inverted,
//! accumulating), `apply`, `transform`, `axpy`, `dot`, `norm2_squared`,
//! `reduce` (Plus / Min / Max under masks) and the fused `axpy` + norm at
//! sizes on both sides of that threshold, on `Sequential`, `Parallel` (pool
//! pinned to two threads, so loops really split) and `Distributed` on 2 and
//! 3 nodes under three layouts — each through an eager call, a pipeline
//! (`ctx.pipeline()` … `finish()`) and a compiled plan replayed twice on
//! rebound buffers. Three recorded
//! chains of adjacent element-wise ops (distinct outputs, a stage reading
//! an earlier stage's output, a three-zip `transform` beside an `ewise`)
//! check that each op of a chain runs as the lone stage it is.
//!
//! On one backend the three doors agree bit for bit. Across backends,
//! vector results (disjoint writes) equal `Sequential`'s bit for bit
//! everywhere, and scalar results (folds) do on `Distributed`. `Parallel`
//! re-associates its folds, so its scalars are compared within a relative
//! 1e-12 and counted. A test binary of its own: it pins the global pool.

use graphblas::algorithms::LorLand;
use graphblas::{
    ctx_on, AdditiveInverse, BackendKind, CsrMatrix, DistConfig, Distributed, DynCtx, Max, Min,
    MinPlus, Minus, Plan, PlannedStage, Plus, ShardLayout, Times, Vector,
};
use std::sync::OnceLock;

/// Sizes below, at and above `backend::MIN_CHUNK = 512` (a 2-thread pool
/// splits a loop from 513 items on).
const SIZES: [usize; 7] = [37, 300, 511, 512, 513, 1025, 2600];

const ALPHA: f64 = -0.375;
const BETA: f64 = 1.0 / 3.0;

/// Every backend under test; the clusters are made once (each
/// `Distributed::new` registers a cluster for the life of the process).
fn backends() -> &'static [BackendKind] {
    static BACKENDS: OnceLock<Vec<BackendKind>> = OnceLock::new();
    BACKENDS.get_or_init(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build_global()
            .expect("the shim's global pool setting cannot fail");
        let mut all = vec![BackendKind::Sequential, BackendKind::Parallel];
        for p in [2, 3] {
            for layout in [
                ShardLayout::Block,
                ShardLayout::BlockCyclic { block: 3 },
                ShardLayout::BlockCyclic { block: 64 },
            ] {
                let cluster = Distributed::with_config(DistConfig::new(p).layout(layout));
                all.push(BackendKind::Dist(cluster));
            }
        }
        all
    })
}

/// The operands of one size: `x` and `y` are positive (so a re-associated
/// sum stays within a relative bound), `w` is the output's prior value
/// (`u` and `v` those of a chain's further outputs), `pattern` a sparse
/// mask read structurally and `valued` a mask with stored `false` entries,
/// read by value.
struct Inputs {
    x: Vector<f64>,
    y: Vector<f64>,
    w: Vector<f64>,
    u: Vector<f64>,
    v: Vector<f64>,
    pattern: Vector<bool>,
    valued: Vector<bool>,
}

impl Inputs {
    fn new(n: usize) -> Inputs {
        let vec = |f: fn(usize) -> f64| Vector::from_dense((0..n).map(f).collect());
        let stored = (0..n as u32).filter(|i| i % 3 != 1).collect();
        let entries: Vec<(u32, bool)> = (0..n as u32)
            .filter(|i| i % 5 != 0)
            .map(|i| (i, i % 2 == 0))
            .collect();
        Inputs {
            x: vec(|i| 1.0 / (3.0 + i as f64) + 0.1),
            y: vec(|i| ((i * 37) % 101) as f64 / 7.0 + 1.0 / (1.0 + i as f64)),
            w: vec(|i| 0.25 * i as f64 - 1.0 + 1.0 / (7.0 + i as f64)),
            u: vec(|i| ((i * 11) % 23) as f64 / 3.0 - 2.0),
            v: vec(|i| 1.0 / (2.0 + (i % 9) as f64)),
            pattern: Vector::sparse_filled(n, stored, true).unwrap(),
            valued: Vector::from_entries(n, &entries).unwrap(),
        }
    }
}

/// One op under test. Write ops update `w`; folds leave it alone and
/// return a scalar; `AxpyNorm` does both. The `Chain*` cases record
/// several adjacent element-wise ops that also write `u` and `v`.
#[derive(Copy, Clone, Debug)]
enum Case {
    EwisePlain,
    EwiseTimes,
    EwiseScaled,
    EwiseMasked,
    EwiseStructural,
    EwiseInverted,
    EwiseAccum,
    Apply,
    ApplyMaskedAccum,
    Transform,
    TransformMasked,
    Axpy,
    Dot,
    Norm2,
    ReducePlus,
    ReducePlusMasked,
    ReduceMinMasked,
    ReduceMaxInverted,
    AxpyNorm,
    /// `ewise().scaled` → `w`, `axpy` on `u`, `apply` → `v`.
    ChainDistinct,
    /// `ewise` → `w`, then an `axpy` on `u` and an `apply` → `v` that
    /// both read `w`.
    ChainReadsPrior,
    /// `ewise` → `w` beside a `transform` of `u` zipping three sources.
    ChainZip3,
}

/// A recorded chain runs one stage per op: adjacent element-wise ops are
/// never merged into one loop.
fn assert_unfused(case: Case, schedule: &[PlannedStage]) {
    if matches!(
        case,
        Case::ChainDistinct | Case::ChainReadsPrior | Case::ChainZip3
    ) {
        assert!(
            schedule
                .iter()
                .all(|s| matches!(s, PlannedStage::Single(_))),
            "{case:?}: {schedule:?}"
        );
    }
}

const CASES: [Case; 22] = [
    Case::EwisePlain,
    Case::EwiseTimes,
    Case::EwiseScaled,
    Case::EwiseMasked,
    Case::EwiseStructural,
    Case::EwiseInverted,
    Case::EwiseAccum,
    Case::Apply,
    Case::ApplyMaskedAccum,
    Case::Transform,
    Case::TransformMasked,
    Case::Axpy,
    Case::Dot,
    Case::Norm2,
    Case::ReducePlus,
    Case::ReducePlusMasked,
    Case::ReduceMinMasked,
    Case::ReduceMaxInverted,
    Case::AxpyNorm,
    Case::ChainDistinct,
    Case::ChainReadsPrior,
    Case::ChainZip3,
];

/// What one run of a case produced: `w`, `u` and `v` afterwards and the
/// fold, if any.
#[derive(Debug, PartialEq)]
struct Output {
    w: Vec<u64>,
    u: Vec<u64>,
    v: Vec<u64>,
    scalar: Option<f64>,
}

fn bits(v: &Vector<f64>) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// The transform body, shared by the eager closure and the recorded zip.
fn blend(t: &mut f64, yi: f64) {
    *t = 0.5 * *t + yi;
}

/// The three-source transform body of `ChainZip3`.
fn blend3(t: &mut f64, a: f64, b: f64, c: f64) {
    *t = 0.5 * *t + a * b - c;
}

fn eager(exec: DynCtx, case: Case, inp: &Inputs) -> Output {
    let (x, y, ys) = (&inp.x, &inp.y, inp.y.as_slice());
    let (pattern, valued) = (&inp.pattern, &inp.valued);
    let (mut w, mut u, mut v) = (inp.w.clone(), inp.u.clone(), inp.v.clone());
    let scalar = match case {
        Case::EwisePlain => exec.ewise(x, y).into(&mut w).map(|_| None),
        Case::EwiseTimes => exec.ewise(x, y).op(Times).into(&mut w).map(|_| None),
        Case::EwiseScaled => exec
            .ewise(x, y)
            .scaled(ALPHA, BETA)
            .into(&mut w)
            .map(|_| None),
        Case::EwiseMasked => exec
            .ewise(x, y)
            .op(Minus)
            .mask(valued)
            .into(&mut w)
            .map(|_| None),
        Case::EwiseStructural => exec
            .ewise(x, y)
            .scaled(ALPHA, BETA)
            .mask(pattern)
            .structural()
            .into(&mut w)
            .map(|_| None),
        Case::EwiseInverted => exec
            .ewise(x, y)
            .op(Times)
            .mask(pattern)
            .structural()
            .invert_mask()
            .into(&mut w)
            .map(|_| None),
        Case::EwiseAccum => exec
            .ewise(x, y)
            .op(Times)
            .accum(Plus)
            .into(&mut w)
            .map(|_| None),
        Case::Apply => exec.apply(x).into(&mut w).map(|_| None),
        Case::ApplyMaskedAccum => exec
            .apply(x)
            .op(AdditiveInverse)
            .mask(valued)
            .invert_mask()
            .accum(Plus)
            .into(&mut w)
            .map(|_| None),
        Case::Transform => exec
            .transform(&mut w)
            .apply(|i, t| blend(t, ys[i]))
            .map(|_| None),
        Case::TransformMasked => exec
            .transform(&mut w)
            .mask(pattern)
            .structural()
            .apply(|i, t| blend(t, ys[i]))
            .map(|_| None),
        Case::Axpy => exec.axpy(&mut w, ALPHA, y).map(|_| None),
        Case::Dot => exec.dot(x, y).compute().map(Some),
        Case::Norm2 => exec.norm2_squared(x).map(Some),
        Case::ReducePlus => exec.reduce(x).compute().map(Some),
        Case::ReducePlusMasked => exec
            .reduce(y)
            .mask(pattern)
            .structural()
            .compute()
            .map(Some),
        Case::ReduceMinMasked => exec.reduce(y).monoid(Min).mask(valued).compute().map(Some),
        Case::ReduceMaxInverted => exec
            .reduce(y)
            .monoid(Max)
            .mask(pattern)
            .structural()
            .invert_mask()
            .compute()
            .map(Some),
        Case::AxpyNorm => exec
            .axpy(&mut w, ALPHA, y)
            .and_then(|_| exec.norm2_squared(&w))
            .map(Some),
        Case::ChainDistinct => exec
            .ewise(x, y)
            .scaled(ALPHA, BETA)
            .into(&mut w)
            .and_then(|_| exec.axpy(&mut u, ALPHA, y))
            .and_then(|_| exec.apply(x).op(AdditiveInverse).into(&mut v))
            .map(|_| None),
        Case::ChainReadsPrior => exec
            .ewise(x, y)
            .op(Times)
            .into(&mut w)
            .and_then(|_| exec.axpy(&mut u, ALPHA, &w))
            .and_then(|_| exec.apply(&w).op(AdditiveInverse).into(&mut v))
            .map(|_| None),
        Case::ChainZip3 => {
            let xs = x.as_slice();
            exec.ewise(x, y)
                .op(Minus)
                .into(&mut w)
                .and_then(|_| {
                    exec.transform(&mut u)
                        .apply(|i, t| blend3(t, xs[i], ys[i], xs[i]))
                })
                .map(|_| None)
        }
    }
    .unwrap();
    Output {
        w: bits(&w),
        u: bits(&u),
        v: bits(&v),
        scalar,
    }
}

/// Records `case` on a pipeline or a plan builder (their recorders are one
/// family), given its operands as borrowed vectors or as slots. Evaluates
/// to the fold's handle, if the case has one.
macro_rules! record {
    (
        $b:ident, $case:expr, $x:expr, $y:expr, $w:expr, $u:expr, $v:expr,
        $pattern:expr, $valued:expr
    ) => {
        match $case {
            Case::EwisePlain => {
                $b.ewise($x, $y).into($w);
                None
            }
            Case::EwiseTimes => {
                $b.ewise($x, $y).op(Times).into($w);
                None
            }
            Case::EwiseScaled => {
                $b.ewise($x, $y).scaled(ALPHA, BETA).into($w);
                None
            }
            Case::EwiseMasked => {
                $b.ewise($x, $y).op(Minus).mask($valued).into($w);
                None
            }
            Case::EwiseStructural => {
                $b.ewise($x, $y)
                    .scaled(ALPHA, BETA)
                    .mask($pattern)
                    .structural()
                    .into($w);
                None
            }
            Case::EwiseInverted => {
                $b.ewise($x, $y)
                    .op(Times)
                    .mask($pattern)
                    .structural()
                    .invert_mask()
                    .into($w);
                None
            }
            Case::EwiseAccum => {
                $b.ewise($x, $y).op(Times).accum(Plus).into($w);
                None
            }
            Case::Apply => {
                $b.apply($x).into($w);
                None
            }
            Case::ApplyMaskedAccum => {
                $b.apply($x)
                    .op(AdditiveInverse)
                    .mask($valued)
                    .invert_mask()
                    .accum(Plus)
                    .into($w);
                None
            }
            Case::Transform => {
                $b.transform($w).zip($y).apply(|_, t, yi| blend(t, yi));
                None
            }
            Case::TransformMasked => {
                $b.transform($w)
                    .mask($pattern)
                    .structural()
                    .zip($y)
                    .apply(|_, t, yi| blend(t, yi));
                None
            }
            Case::Axpy => {
                $b.axpy($w, ALPHA, $y);
                None
            }
            Case::Dot => Some($b.dot($x, $y).result()),
            Case::Norm2 => Some($b.norm2_squared($x)),
            Case::ReducePlus => Some($b.reduce($x).result()),
            Case::ReducePlusMasked => Some($b.reduce($y).mask($pattern).structural().result()),
            Case::ReduceMinMasked => Some($b.reduce($y).monoid(Min).mask($valued).result()),
            Case::ReduceMaxInverted => Some(
                $b.reduce($y)
                    .monoid(Max)
                    .mask($pattern)
                    .structural()
                    .invert_mask()
                    .result(),
            ),
            Case::AxpyNorm => {
                let h = $b.axpy($w, ALPHA, $y);
                Some($b.norm2_squared(h))
            }
            Case::ChainDistinct => {
                $b.ewise($x, $y).scaled(ALPHA, BETA).into($w);
                $b.axpy($u, ALPHA, $y);
                $b.apply($x).op(AdditiveInverse).into($v);
                None
            }
            Case::ChainReadsPrior => {
                let h = $b.ewise($x, $y).op(Times).into($w);
                $b.axpy($u, ALPHA, h);
                $b.apply(h).op(AdditiveInverse).into($v);
                None
            }
            Case::ChainZip3 => {
                $b.ewise($x, $y).op(Minus).into($w);
                $b.transform($u)
                    .zip($x)
                    .zip($y)
                    .zip($x)
                    .apply(|_, t, a, b, c| blend3(t, a, b, c));
                None
            }
        }
    };
}

fn pipeline(exec: DynCtx, case: Case, inp: &Inputs) -> Output {
    let (mut w, mut u, mut v) = (inp.w.clone(), inp.u.clone(), inp.v.clone());
    let mut pl = exec.pipeline();
    let handle = record!(
        pl,
        case,
        &inp.x,
        &inp.y,
        &mut w,
        &mut u,
        &mut v,
        &inp.pattern,
        &inp.valued
    );
    assert_unfused(case, &pl.schedule());
    let results = pl.finish().unwrap();
    Output {
        scalar: handle.map(|h| results[h]),
        w: bits(&w),
        u: bits(&u),
        v: bits(&v),
    }
}

/// Compiles `case` once and replays it twice, each time on a fresh copy of
/// `w`; both replays must agree.
fn plan(exec: DynCtx, case: Case, inp: &Inputs) -> Output {
    let n = inp.w.len();
    let mut pb = exec.plan::<f64>();
    let (xs, ys) = (pb.input(n), pb.input(n));
    let (ws, us, vs) = (pb.output(n), pb.output(n), pb.output(n));
    let (pattern, valued) = (pb.mask(n), pb.mask(n));
    let handle = record!(pb, case, xs, ys, ws, us, vs, pattern, valued);
    let plan = pb.compile();
    assert_unfused(case, &plan.schedule());
    let replay = || {
        let (mut w, mut u, mut v) = (inp.w.clone(), inp.u.clone(), inp.v.clone());
        let mut b = plan.bindings();
        b.bind_input(xs, &inp.x)
            .bind_input(ys, &inp.y)
            .bind_output(ws, &mut w)
            .bind_output(us, &mut u)
            .bind_output(vs, &mut v)
            .bind_mask(pattern, &inp.pattern)
            .bind_mask(valued, &inp.valued);
        let results = plan.run(&mut b).unwrap();
        Output {
            scalar: handle.map(|h| results[h]),
            w: bits(&w),
            u: bits(&u),
            v: bits(&v),
        }
    };
    let first = replay();
    assert_eq!(first, replay(), "{case:?}: a replay diverged");
    first
}

#[test]
fn every_elementwise_and_fold_op_matches_sequential_through_every_door() {
    let (mut par_folds, mut par_folds_inexact) = (0usize, 0usize);
    for n in SIZES {
        let inp = Inputs::new(n);
        for case in CASES {
            let oracle = eager(ctx_on(BackendKind::Sequential), case, &inp);
            for &backend in backends() {
                let exec = ctx_on(backend);
                let got = eager(exec, case, &inp);
                let what = format!("{case:?} on {backend} at n={n}");
                assert_eq!(got, pipeline(exec, case, &inp), "{what}: pipeline vs eager");
                assert_eq!(got, plan(exec, case, &inp), "{what}: plan vs eager");
                assert_eq!(got.w, oracle.w, "{what}: vector vs Sequential");
                assert_eq!(got.u, oracle.u, "{what}: u vs Sequential");
                assert_eq!(got.v, oracle.v, "{what}: v vs Sequential");
                match (got.scalar, oracle.scalar) {
                    (None, None) => {}
                    (Some(s), Some(want)) if matches!(backend, BackendKind::Parallel) => {
                        par_folds += 1;
                        if s.to_bits() != want.to_bits() {
                            par_folds_inexact += 1;
                        }
                        let rel = ((s - want) / want).abs();
                        assert!(rel <= 1e-12, "{what}: {s} vs {want} (rel {rel:e})");
                    }
                    (Some(s), Some(want)) => {
                        assert_eq!(s.to_bits(), want.to_bits(), "{what}: {s} vs {want}");
                    }
                    other => panic!("{what}: fold presence differs: {other:?}"),
                }
            }
        }
    }
    eprintln!(
        "Parallel folds: {par_folds} compared within a relative 1e-12, \
         {par_folds_inexact} of them not bit-identical to Sequential"
    );
    assert!(par_folds > 0);
}

/// `Parallel`'s folds have one fixed order: each chunk of
/// `rayon::partition(n, MIN_CHUNK, threads)` folds left from the identity,
/// then the partials fold left, in chunk order, from the identity. The
/// comparison above only bounds `Parallel`'s scalars; this pins their bits.
#[test]
fn parallel_folds_follow_the_partition_order() {
    backends(); // pins the pool to two threads
    let threads = rayon::current_num_threads();
    for n in SIZES.into_iter().filter(|&n| n > 512) {
        let inp = Inputs::new(n);
        let (x, y) = (inp.x.as_slice(), inp.y.as_slice());
        let (chunks, per) = rayon::partition(n, 512, threads);
        assert!(chunks > 1, "n={n} does not split");
        let ordered = |term: &dyn Fn(usize) -> f64| {
            (0..chunks)
                .map(|c| (c * per..((c + 1) * per).min(n)).fold(0.0, |acc, i| acc + term(i)))
                .fold(0.0, |acc, partial| acc + partial)
        };
        let exec = ctx_on(BackendKind::Parallel);
        let cases = [
            (
                "dot",
                exec.dot(&inp.x, &inp.y).compute(),
                ordered(&|i| x[i] * y[i]),
            ),
            (
                "norm2_squared",
                exec.norm2_squared(&inp.x),
                ordered(&|i| x[i] * x[i]),
            ),
            (
                "reduce(Plus)",
                exec.reduce(&inp.x).compute(),
                ordered(&|i| x[i]),
            ),
        ];
        for (what, got, want) in cases {
            let got = got.unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what} at n={n}: {got} vs {want}"
            );
        }
    }
}

/// Replays `plan` (matrix 0, input 0, output 0 and, if given, mask 0)
/// twice on fresh copies of `prior` and checks both against `want`.
fn replay_twice(
    plan: &Plan<f64, BackendKind>,
    (a, x, mask): (&CsrMatrix<f64>, &Vector<f64>, Option<&Vector<bool>>),
    prior: &Vector<f64>,
    want: &Vector<f64>,
    what: &str,
) {
    for replay in 0..2 {
        let mut got = prior.clone();
        let mut b = plan.bindings();
        b.bind_matrix(plan.matrix_slot(0), a)
            .bind_input(plan.input_slot(0), x)
            .bind_output(plan.output_slot(0), &mut got);
        if let Some(m) = mask {
            b.bind_mask(plan.mask_slot(0), m);
        }
        plan.run(&mut b).unwrap();
        drop(b);
        assert_eq!(bits(&got), bits(want), "{what}: replay {replay}");
    }
}

/// A BFS step (`LorLand` under a structural, inverted visited mask) and
/// an SSSP relax (`MinPlus`, accumulating through `Min`) record like any
/// other algebra: each compiled plan replays twice to the run-now call's
/// bits on every backend, and those equal `Sequential`'s.
#[test]
fn graph_algebra_records_and_replays_to_the_run_now_bits() {
    for n in SIZES {
        let inp = Inputs::new(n);
        let edges: Vec<_> = (0..n)
            .flat_map(|i| {
                let w = 1.0 + (i % 5) as f64;
                [((i + 1) % n, i, w), ((7 * i + 3) % n, i, w / 3.0)]
            })
            .collect();
        let a = CsrMatrix::from_triplets(n, n, &edges).unwrap();
        let frontier = Vector::from_dense((0..n).map(|i| f64::from(i % 7 == 0)).collect());
        let dist = Vector::from_dense(
            (0..n)
                .map(|i| {
                    if i % 4 == 0 {
                        i as f64 / 3.0
                    } else {
                        f64::INFINITY
                    }
                })
                .collect(),
        );
        let visited = &inp.pattern;
        let mut oracle = None;
        for &backend in backends() {
            let exec = ctx_on(backend);
            let mut bfs = inp.w.clone();
            exec.mxv(&a, &frontier)
                .ring(LorLand)
                .mask(visited)
                .structural()
                .invert_mask()
                .into(&mut bfs)
                .unwrap();
            let mut pb = exec.plan::<f64>();
            let (am, xs, ms, ys) = (pb.matrix(n, n), pb.input(n), pb.mask(n), pb.output(n));
            pb.mxv(am, xs)
                .ring(LorLand)
                .mask(ms)
                .structural()
                .invert_mask()
                .into(ys);
            let operands = (&a, &frontier, Some(visited));
            let what = format!("BFS step on {backend} at n={n}");
            replay_twice(&pb.compile(), operands, &inp.w, &bfs, &what);

            let mut relaxed = dist.clone();
            exec.mxv(&a, &dist)
                .ring(MinPlus)
                .accum(Min)
                .into(&mut relaxed)
                .unwrap();
            let mut pb = exec.plan::<f64>();
            let (am, xs, ys) = (pb.matrix(n, n), pb.input(n), pb.output(n));
            pb.mxv(am, xs).ring(MinPlus).accum(Min).into(ys);
            let what = format!("SSSP relax on {backend} at n={n}");
            replay_twice(&pb.compile(), (&a, &dist, None), &dist, &relaxed, &what);

            let got = (bits(&bfs), bits(&relaxed));
            let want = oracle.get_or_insert_with(|| got.clone());
            assert_eq!(&got, want, "{backend} vs Sequential at n={n}");
        }
    }
}
