//! A matrix's storage order is invisible: the same rows stored in index
//! order and in a random order are one matrix to every operation, on every
//! backend, bit for bit.
//!
//! `CsrMatrix::from_row_fn_stored` lets a caller choose where rows lie in
//! the CSR arrays (HPCG stores its operators colour-major); the contract is
//! that nothing but speed may depend on it. This target draws stencil,
//! banded and RMAT-like patterns at sizes on both sides of the `Parallel`
//! backend's 512-element split threshold, builds each twice, and compares
//! structure (`==`, `row`, `transpose`, `extract_submatrix`, `mxm`) and the
//! `to_bits()` of every `mxv` flavour, the fused `spmv_dot` and a
//! compiled-plan replay on `Sequential`, `Parallel` (pool pinned to two
//! threads, so loops really split) and `Distributed` on 2 and 3 nodes under
//! three layouts. A test binary of its own: it pins the global pool.

use graphblas::{
    ctx_on, extract_submatrix, BackendKind, CsrMatrix, DistConfig, Distributed, DynCtx, Plus,
    Sequential, ShardLayout, Vector,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Sizes below, at and above `backend::MIN_CHUNK = 512` (a 2-thread pool
/// splits a loop from 513 items on).
const SIZES: [usize; 8] = [37, 300, 511, 512, 513, 1025, 2048, 2600];

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

/// A tiny deterministic generator for everything a case derives from its
/// seed (the shim's strategies draw the seed; shapes come from here).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound
    }
}

/// The sorted, duplicate-free columns of every row of an `n × n` pattern.
fn pattern(kind: usize, n: usize, rng: &mut Lcg) -> Vec<Vec<u32>> {
    let mut rows: Vec<Vec<u32>> = (0..n)
        .map(|i| match kind {
            // 9-point stencil on a w-wide grid (last grid row may be short).
            0 => {
                let w = (n as f64).sqrt() as usize;
                let (x, y) = ((i % w) as i64, (i / w) as i64);
                let mut cols = Vec::new();
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        let (cx, cy) = (x + dx, y + dy);
                        let c = cx + cy * w as i64;
                        if (0..w as i64).contains(&cx) && cy >= 0 && (c as usize) < n {
                            cols.push(c as u32);
                        }
                    }
                }
                cols
            }
            // Banded: a few diagonals at fixed offsets.
            1 => [0usize, 1, 2, 7, 31]
                .iter()
                .flat_map(|&d| [i.checked_sub(d), Some(i + d).filter(|&c| c < n)])
                .flatten()
                .map(|c| c as u32)
                .collect(),
            // RMAT-like: skewed degrees, columns biased towards low indices.
            _ => {
                let degree = if i % 97 == 0 { 60 } else { rng.below(6) };
                (0..degree)
                    .map(|_| {
                        let mut c = rng.below(n);
                        while rng.below(2) == 0 {
                            c /= 2;
                        }
                        c as u32
                    })
                    .collect()
            }
        })
        .collect();
    for cols in &mut rows {
        cols.sort_unstable();
        cols.dedup();
    }
    rows
}

/// Values irrational enough that any re-association would show.
fn value(r: usize, c: u32) -> f64 {
    ((r * 31 + c as usize * 17) % 97) as f64 / 7.0 - 3.0 + 1.0 / (1.0 + c as f64)
}

/// The pattern as a matrix stored in `order` (empty: index order).
fn build(rows: &[Vec<u32>], order: &[u32]) -> CsrMatrix<f64> {
    let n = rows.len();
    let nnz = rows.iter().map(Vec::len).sum();
    CsrMatrix::from_row_fn_stored(n, n, nnz, order, |r, row| {
        row.extend(rows[r].iter().map(|&c| (c, value(r, c))));
    })
    .unwrap()
}

/// Equal down to the CSR arrays (both sides built in index order).
fn same_arrays(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>) -> bool {
    a.csr_parts() == b.csr_parts()
}

fn bits(v: &Vector<f64>) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Every kernel result of one backend on one matrix: vector outputs
/// (disjoint writes: the same bits on every backend) and scalar outputs
/// (reductions: `Parallel` re-associates them, so they are compared per
/// backend only).
#[derive(Debug, PartialEq)]
struct Outputs {
    vectors: Vec<Vec<u64>>,
    scalars: Vec<u64>,
}

fn run_all(exec: DynCtx, a: &CsrMatrix<f64>, x: &Vector<f64>, mask: &Vector<bool>) -> Outputs {
    let n = a.nrows();
    let init = || Vector::from_dense((0..n).map(|i| 0.25 * i as f64 - 1.0).collect());
    let mut vectors = Vec::new();
    let mut scalars = Vec::new();

    let mut y = init();
    exec.mxv(a, x).into(&mut y).unwrap();
    vectors.push(bits(&y));

    let mut y = init();
    exec.mxv(a, x).mask(mask).structural().into(&mut y).unwrap();
    vectors.push(bits(&y));

    let mut y = init();
    exec.mxv(a, x)
        .mask(mask)
        .structural()
        .invert_mask()
        .into(&mut y)
        .unwrap();
    vectors.push(bits(&y));

    let mut y = init();
    exec.mxv(a, x).transpose().accum(Plus).into(&mut y).unwrap();
    vectors.push(bits(&y));

    // The fused SpMV + dot, recorded on borrowed operands and run once.
    let mut y = init();
    let mut pl = exec.pipeline();
    let yh = pl.mxv(a, x).into(&mut y);
    let d = pl.dot(x, yh).result();
    scalars.push(pl.finish().unwrap()[d].to_bits());
    vectors.push(bits(&y));

    // A compiled plan — a colour-step-shaped masked mxv, then the fused
    // pair — replayed twice on rebound buffers.
    let mut pb = exec.plan::<f64>();
    let am = pb.matrix(n, n);
    let xs = pb.input(n);
    let ts = pb.output(n);
    let ys = pb.output(n);
    let ms = pb.mask(n);
    pb.mxv(am, xs).mask(ms).structural().into(ts);
    let yh = pb.mxv(am, xs).into(ys);
    pb.dot(xs, yh).result();
    let plan = pb.compile();
    for _ in 0..2 {
        let (mut t, mut y) = (init(), init());
        let mut b = plan.bindings();
        b.bind_matrix(plan.matrix_slot(0), a)
            .bind_input(plan.input_slot(0), x)
            .bind_output(plan.output_slot(0), &mut t)
            .bind_output(plan.output_slot(1), &mut y)
            .bind_mask(plan.mask_slot(0), mask);
        let out = plan.run(&mut b).unwrap();
        scalars.push(out[plan.scalar(0)].to_bits());
        vectors.push(bits(&t));
        vectors.push(bits(&y));
    }
    Outputs { vectors, scalars }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_stored_order_changes_no_structure_and_no_result_bit(
        kind in 0usize..3,
        size in 0usize..SIZES.len(),
        seed in 0u64..u64::MAX,
    ) {
        let n = SIZES[size];
        let mut rng = Lcg(seed);
        let rows = pattern(kind, n, &mut rng);
        let mut order: Vec<u32> = (0..n as u32).collect();
        for k in (1..n).rev() {
            order.swap(k, rng.below(k + 1));
        }
        let index = build(&rows, &[]);
        let stored = build(&rows, &order);

        // Structure: one matrix, two layouts.
        prop_assert!(index == stored);
        prop_assert!(stored == index);
        prop_assert_eq!(index.nnz(), stored.nnz());
        for (slot, &r) in order.iter().enumerate() {
            let r = r as usize;
            prop_assert_eq!(index.storage_slot(r), r);
            prop_assert_eq!(stored.storage_slot(r), slot);
            prop_assert_eq!(index.row(r), stored.row(r));
            prop_assert_eq!(index.row_nnz(r), stored.row_nnz(r));
        }
        prop_assert_eq!(stored.storage_bytes(), index.storage_bytes() + 4 * n);
        prop_assert_eq!(stored.columns_conflict_free(), index.columns_conflict_free());
        // Derived matrices are built in index order from `row()`: equal
        // down to their arrays.
        prop_assert!(same_arrays(&index.transpose(), &stored.transpose()));
        let pick = |rng: &mut Lcg| -> Vec<u32> {
            (0..n as u32).filter(|_| rng.below(3) == 0).collect()
        };
        let (sub_rows, sub_cols) = (pick(&mut rng), pick(&mut rng));
        let extract = |a| extract_submatrix::<f64, Sequential>(a, &sub_rows, &sub_cols).unwrap();
        prop_assert!(same_arrays(&extract(&index), &extract(&stored)));
        let seq = ctx_on(BackendKind::Sequential);
        let square = seq.mxm(&index, &index).compute().unwrap();
        prop_assert!(same_arrays(&square, &seq.mxm(&stored, &stored).compute().unwrap()));
        prop_assert!(same_arrays(&square, &seq.mxm(&index, &stored).compute().unwrap()));

        // Results: every kernel, every backend.
        let x = Vector::from_dense((0..n).map(|i| 1.0 / (3.0 + i as f64) - 0.1).collect());
        let selected: Vec<u32> = (0..n as u32).filter(|_| rng.below(3) != 0).collect();
        let mask = Vector::<bool>::sparse_filled(n, selected, true).unwrap();
        let oracle = run_all(seq, &index, &x, &mask);
        for &backend in backends() {
            let exec = ctx_on(backend);
            let on_index = run_all(exec, &index, &x, &mask);
            let on_stored = run_all(exec, &stored, &x, &mask);
            prop_assert!(on_index == on_stored, "{backend}: n={n} kind={kind} seed={seed}");
            prop_assert!(
                on_stored.vectors == oracle.vectors,
                "{backend} vs Sequential: n={n} kind={kind} seed={seed}"
            );
            if !matches!(backend, BackendKind::Parallel) {
                prop_assert_eq!(&on_stored.scalars, &oracle.scalars);
            }
        }
    }
}

#[test]
fn a_storage_order_must_be_a_permutation() {
    let emit = |r: usize, row: &mut Vec<(u32, f64)>| row.push((r as u32, 1.0));
    for bad in [&[0u32, 1][..], &[0, 1, 1], &[0, 1, 3]] {
        assert!(CsrMatrix::<f64>::from_row_fn_stored(3, 3, 3, bad, emit).is_err());
    }
    // The identity is index order, spelled out.
    let id = CsrMatrix::<f64>::from_row_fn_stored(3, 3, 3, &[0, 1, 2], emit).unwrap();
    assert_eq!(
        id.storage_bytes(),
        CsrMatrix::from_row_fn(3, 3, 3, emit)
            .unwrap()
            .storage_bytes()
    );
    // An invalid row is named by its number, not by the slot it sits in.
    let err = CsrMatrix::<f64>::from_row_fn_stored(3, 3, 3, &[2, 0, 1], |r, row| {
        row.push((r as u32, 1.0));
        if r == 0 {
            row.push((0, 1.0));
        }
    })
    .unwrap_err();
    assert!(err.to_string().contains("row 0"), "{err}");
}
