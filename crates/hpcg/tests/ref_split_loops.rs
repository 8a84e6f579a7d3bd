//! Ref's kernels at sizes where their loops split, against plain serial
//! loops, bit for bit.
//!
//! Ref cuts a loop only from `CHUNK = 4096` items on, and its unit tests
//! run at n = 512, so they never reach a parallel branch. This target runs
//! every Ref kernel at 32³ (fine n = 32 768, coarse n = 4 096) with the
//! pool pinned to two threads, so each loop really splits. Element-wise
//! kernels, SpMV, grid transfer and the smoother write disjoint entries and
//! must equal a serial loop exactly; the dot product must equal the sum of
//! its 4 096-element block partials taken in block order, whatever the
//! thread count. A test binary of its own: it pins the global pool.

use hpcg::{Grid3, Kernels, Problem, RefHpcg, RhsVariant};
use std::sync::OnceLock;

/// Ref's block and chunk size (`ref_impl::CHUNK`).
const CHUNK: usize = 4096;

const ALPHA: f64 = -0.375;
const BETA: f64 = 1.0 / 3.0;

/// The 32³ two-level problem, built once, with the pool pinned to two
/// threads.
fn problem() -> &'static Problem {
    static PROBLEM: OnceLock<Problem> = OnceLock::new();
    PROBLEM.get_or_init(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build_global()
            .expect("the shim's global pool setting cannot fail");
        Problem::build_with(Grid3::cube(32), 2, RhsVariant::Reference).expect("32³ coarsens once")
    })
}

fn reference() -> RefHpcg {
    RefHpcg::new(problem().clone())
}

/// Values whose sums change in the low bits when re-associated.
fn harmonic(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 / (i + 1) as f64).collect()
}

fn wavy(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7919) % 1009) as f64 / 997.0 - 0.5)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every level's size splits: 32 768 into CHUNK-sized chunks, 4 096 into
/// SpMV's CHUNK/8-row chunks.
#[test]
fn levels_are_large_enough_to_split() {
    let k = reference();
    assert_eq!((k.n_at(0), k.n_at(1)), (32_768, 4_096));
    assert_eq!(rayon::current_num_threads(), 2);
}

#[test]
fn spmv_equals_the_serial_row_loop() {
    let mut k = reference();
    for level in 0..k.levels() {
        let a = &problem().levels[level].a;
        let x = harmonic(k.n_at(level));
        let mut y = k.alloc(level);
        k.spmv(level, &mut y, &x);
        let serial: Vec<f64> = (0..a.nrows())
            .map(|i| {
                let (cols, vals) = a.row(i);
                let mut acc = 0.0;
                for (&c, &v) in cols.iter().zip(vals) {
                    acc += v * x[c as usize];
                }
                acc
            })
            .collect();
        assert_eq!(bits(&y), bits(&serial), "level {level}");
    }
}

#[test]
fn vector_updates_equal_serial_loops() {
    let mut k = reference();
    for level in 0..k.levels() {
        let n = k.n_at(level);
        let (x, y) = (harmonic(n), wavy(n));

        let mut w = k.alloc(level);
        k.waxpby(level, &mut w, ALPHA, &x, BETA, &y);
        let serial: Vec<f64> = (0..n).map(|i| ALPHA * x[i] + BETA * y[i]).collect();
        assert_eq!(bits(&w), bits(&serial), "waxpby, level {level}");

        let mut w = x.clone();
        k.axpy(level, &mut w, ALPHA, &y);
        let serial: Vec<f64> = (0..n).map(|i| x[i] + ALPHA * y[i]).collect();
        assert_eq!(bits(&w), bits(&serial), "axpy, level {level}");

        let mut w = x.clone();
        k.xpay(level, &mut w, BETA, &y);
        let serial: Vec<f64> = (0..n).map(|i| y[i] + BETA * x[i]).collect();
        assert_eq!(bits(&w), bits(&serial), "xpay, level {level}");

        let mut w = x.clone();
        k.sub_reverse(level, &mut w, &y);
        let serial: Vec<f64> = (0..n).map(|i| y[i] - x[i]).collect();
        assert_eq!(bits(&w), bits(&serial), "sub_reverse, level {level}");
    }
}

#[test]
fn grid_transfer_equals_serial_loops() {
    let mut k = reference();
    let f2c = &problem().levels[0].f2c;
    let (nf, nc) = (k.n_at(0), k.n_at(1));

    let rf = harmonic(nf);
    let mut rc = k.alloc(1);
    k.restrict_to(0, &mut rc, &rf);
    let serial: Vec<f64> = f2c.iter().map(|&fi| rf[fi as usize]).collect();
    assert_eq!(bits(&rc), bits(&serial), "restrict_to");

    let zc = wavy(nc);
    let mut zf = harmonic(nf);
    k.prolong_add(0, &mut zf, &zc);
    let mut serial = harmonic(nf);
    for (i, &fi) in f2c.iter().enumerate() {
        serial[fi as usize] += zc[i];
    }
    assert_eq!(bits(&zf), bits(&serial), "prolong_add");
}

#[test]
fn rbgs_symmetric_equals_the_serial_sweep() {
    let mut k = reference();
    for level in 0..k.levels() {
        let l = &problem().levels[level];
        let diag = l.a_diag.as_slice();
        let r = wavy(l.n());
        let mut x = harmonic(l.n());
        k.smooth(level, &mut x, &r);

        let mut serial = harmonic(l.n());
        let passes = l.color_classes.iter().chain(l.color_classes.iter().rev());
        for class in passes {
            for &i in class {
                let i = i as usize;
                let (cols, vals) = l.a.row(i);
                let mut acc = 0.0f64;
                for (&c, &v) in cols.iter().zip(vals) {
                    acc += v * serial[c as usize];
                }
                serial[i] = (r[i] - acc + serial[i] * diag[i]) / diag[i];
            }
        }
        assert_eq!(bits(&x), bits(&serial), "level {level}");
    }
}

/// The dot product is the block partials summed in block order: a
/// two-thread split of the blocks changes nothing.
#[test]
fn dot_is_the_block_ordered_sum() {
    let mut k = reference();
    for level in 0..k.levels() {
        let n = k.n_at(level);
        let (x, y) = (harmonic(n), wavy(n));
        let partials: Vec<f64> = x
            .chunks(CHUNK)
            .zip(y.chunks(CHUNK))
            .map(|(a, b)| a.iter().zip(b).map(|(p, q)| p * q).sum::<f64>())
            .collect();
        let expect: f64 = partials.iter().sum();
        assert_eq!(
            k.dot(level, &x, &y).to_bits(),
            expect.to_bits(),
            "level {level}"
        );
    }
}
