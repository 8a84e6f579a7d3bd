//! **Ref**: HPCG in the reference style (paper §IV).
//!
//! The paper's `Ref` is the official HPCG code base with the RBGS smoother
//! grafted in: plain arrays, direct CSR access, OpenMP loops. This module
//! is that implementation with `Vec<f64>` vectors, `csr_parts()` access
//! (the non-opaque escape hatch the paper notes GraphBLAS forbids, §III-B)
//! and `rayon::for_chunks` — one fork-join over fixed contiguous chunks,
//! the shape of an OpenMP `parallel for` — as the loop substrate:
//!
//! * restriction copies through the `f2c` index array **in place** — no
//!   matrix, no extra storage (§II-F);
//! * refinement scatters through the same array;
//! * the smoother updates rows of one color in parallel with direct
//!   neighbor reads.
//!
//! Dot products sum fixed 4 096-element blocks, then the block partials in
//! block order, so results are bitwise identical regardless of thread
//! count (HPC determinism discipline; a reduction tree that followed the
//! thread count would not be).

use crate::kernels::Kernels;
use crate::problem::Problem;
use crate::smoother::rbgs_ref;
use crate::timers::{Kernel, KernelTimers};
use crate::util::SyncSlice;

/// Chunk size for deterministic parallel reductions and vector updates.
const CHUNK: usize = 4096;

/// The reference (direct-access) HPCG implementation.
pub struct RefHpcg {
    problem: Problem,
    timers: KernelTimers,
}

impl RefHpcg {
    /// Wraps a generated problem.
    pub fn new(problem: Problem) -> RefHpcg {
        let timers = KernelTimers::new(problem.levels.len());
        RefHpcg { problem, timers }
    }

    /// The underlying problem.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }
}

fn spmv_rows(a: &graphblas::CsrMatrix<f64>, x: &[f64], y: &mut [f64]) {
    let ys = SyncSlice::new(y);
    let n = a.nrows();
    let run = |i: usize| {
        let (cols, vals) = a.row(i);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c as usize];
        }
        // SAFETY: each row index written exactly once.
        unsafe { ys.write(i, acc) };
    };
    if n < CHUNK {
        (0..n).for_each(run);
    } else {
        rayon::for_chunks(n, CHUNK / 8, |rows| rows.for_each(run));
    }
}

fn det_dot(x: &[f64], y: &[f64]) -> f64 {
    // Fixed blocks → fixed association order → bitwise-deterministic
    // result at any thread count.
    let block_dot = |b: usize| {
        let block = b * CHUNK..((b + 1) * CHUNK).min(x.len());
        x[block.clone()]
            .iter()
            .zip(&y[block])
            .map(|(&a, &b)| a * b)
            .sum::<f64>()
    };
    if x.len() < CHUNK {
        return x.iter().zip(y).map(|(&a, &b)| a * b).sum();
    }
    let blocks = x.len().div_ceil(CHUNK);
    let mut partials = vec![0.0; blocks];
    let ps = SyncSlice::new(&mut partials);
    rayon::for_chunks(blocks, 1, |range| {
        for b in range {
            // SAFETY: each block index written exactly once.
            unsafe { ps.write(b, block_dot(b)) };
        }
    });
    partials.iter().sum()
}

fn par_map2(w: &mut [f64], x: &[f64], y: &[f64], f: impl Fn(f64, f64) -> f64 + Send + Sync) {
    if w.len() < CHUNK {
        for i in 0..w.len() {
            w[i] = f(x[i], y[i]);
        }
    } else {
        let n = w.len();
        let ws = SyncSlice::new(w);
        rayon::for_chunks(n, CHUNK, |range| {
            for ((i, &a), &b) in range.clone().zip(&x[range.clone()]).zip(&y[range]) {
                // SAFETY: chunks are disjoint, so each index is written once.
                unsafe { ws.write(i, f(a, b)) };
            }
        });
    }
}

fn par_update(w: &mut [f64], y: &[f64], f: impl Fn(f64, f64) -> f64 + Send + Sync) {
    if w.len() < CHUNK {
        for i in 0..w.len() {
            w[i] = f(w[i], y[i]);
        }
    } else {
        let n = w.len();
        let ws = SyncSlice::new(w);
        rayon::for_chunks(n, CHUNK, |range| {
            for (i, &b) in range.clone().zip(&y[range]) {
                // SAFETY: chunks are disjoint, so index `i` is this chunk's alone.
                unsafe { ws.write(i, f(ws.read(i), b)) };
            }
        });
    }
}

impl Kernels for RefHpcg {
    type V = Vec<f64>;

    fn levels(&self) -> usize {
        self.problem.levels.len()
    }

    fn n_at(&self, level: usize) -> usize {
        self.problem.levels[level].n()
    }

    fn alloc(&self, level: usize) -> Vec<f64> {
        vec![0.0; self.problem.levels[level].n()]
    }

    fn set_zero(&mut self, _level: usize, v: &mut Vec<f64>) {
        v.iter_mut().for_each(|x| *x = 0.0);
    }

    fn copy(&mut self, _level: usize, src: &Vec<f64>, dst: &mut Vec<f64>) {
        dst.copy_from_slice(src);
    }

    fn spmv(&mut self, level: usize, y: &mut Vec<f64>, x: &Vec<f64>) {
        let a = &self.problem.levels[level].a;
        self.timers.time(level, Kernel::SpMV, || spmv_rows(a, x, y));
    }

    fn dot(&mut self, level: usize, x: &Vec<f64>, y: &Vec<f64>) -> f64 {
        self.timers.time(level, Kernel::Dot, || det_dot(x, y))
    }

    fn waxpby(
        &mut self,
        level: usize,
        w: &mut Vec<f64>,
        alpha: f64,
        x: &Vec<f64>,
        beta: f64,
        y: &Vec<f64>,
    ) {
        self.timers.time(level, Kernel::Waxpby, || {
            par_map2(w, x, y, |a, b| alpha * a + beta * b)
        });
    }

    fn axpy(&mut self, level: usize, x: &mut Vec<f64>, alpha: f64, y: &Vec<f64>) {
        self.timers.time(level, Kernel::Waxpby, || {
            par_update(x, y, |a, b| a + alpha * b)
        });
    }

    fn xpay(&mut self, level: usize, p: &mut Vec<f64>, beta: f64, z: &Vec<f64>) {
        self.timers.time(level, Kernel::Waxpby, || {
            par_update(p, z, |a, b| b + beta * a)
        });
    }

    fn sub_reverse(&mut self, level: usize, w: &mut Vec<f64>, r: &Vec<f64>) {
        self.timers
            .time(level, Kernel::Waxpby, || par_update(w, r, |a, b| b - a));
    }

    fn smooth(&mut self, level: usize, x: &mut Vec<f64>, r: &Vec<f64>) {
        let l = &self.problem.levels[level];
        self.timers.time(level, Kernel::Smoother, || {
            rbgs_ref::rbgs_symmetric(&l.a, l.a_diag.as_slice(), &l.color_classes, r, x);
        });
    }

    fn restrict_to(&mut self, level: usize, rc: &mut Vec<f64>, rf: &Vec<f64>) {
        // Straight injection through the index array, exactly §II-F: no
        // matrix product, just gathers.
        let f2c = &self.problem.levels[level].f2c;
        self.timers.time(level, Kernel::RestrictRefine, || {
            if rc.len() < CHUNK {
                for (i, slot) in rc.iter_mut().enumerate() {
                    *slot = rf[f2c[i] as usize];
                }
            } else {
                let n = rc.len();
                let rcs = SyncSlice::new(rc.as_mut_slice());
                rayon::for_chunks(n, CHUNK, |range| {
                    for (i, &fi) in range.clone().zip(&f2c[range]) {
                        // SAFETY: chunks are disjoint, so each index is written once.
                        unsafe { rcs.write(i, rf[fi as usize]) };
                    }
                });
            }
        });
    }

    fn prolong_add(&mut self, level: usize, zf: &mut Vec<f64>, zc: &Vec<f64>) {
        let f2c = &self.problem.levels[level].f2c;
        self.timers.time(level, Kernel::RestrictRefine, || {
            let zs = SyncSlice::new(zf.as_mut_slice());
            let run = |i: usize| {
                let fi = f2c[i] as usize;
                // SAFETY: f2c is strictly increasing → distinct targets.
                unsafe { zs.write(fi, zs.read(fi) + zc[i]) };
            };
            if zc.len() < CHUNK {
                (0..zc.len()).for_each(run);
            } else {
                rayon::for_chunks(zc.len(), CHUNK / 8, |range| range.for_each(run));
            }
        });
    }

    fn timers_mut(&mut self) -> &mut KernelTimers {
        &mut self.timers
    }

    fn timers(&self) -> &KernelTimers {
        &self.timers
    }

    fn name(&self) -> &'static str {
        "Ref (direct access)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Grid3;
    use crate::problem::RhsVariant;

    fn make() -> RefHpcg {
        let p = Problem::build_with(Grid3::cube(8), 2, RhsVariant::Reference).unwrap();
        RefHpcg::new(p)
    }

    #[test]
    fn spmv_matches_manual() {
        let mut k = make();
        let x = vec![1.0; 512];
        let mut y = k.alloc(0);
        k.spmv(0, &mut y, &x);
        // Row sums of the stencil: 26 - (nnz-1).
        for (i, &yi) in y.iter().enumerate().take(512) {
            let expected = 26.0 - (k.problem().levels[0].a.row_nnz(i) as f64 - 1.0);
            assert!((yi - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn restriction_and_prolongation_roundtrip() {
        let mut k = make();
        let rf: Vec<f64> = (0..512).map(|i| i as f64).collect();
        let mut rc = k.alloc(1);
        k.restrict_to(0, &mut rc, &rf);
        let f2c = k.problem().levels[0].f2c.clone();
        for (i, &v) in rc.iter().enumerate() {
            assert_eq!(v, f2c[i] as f64);
        }
        let mut zf = vec![1.0; 512];
        k.prolong_add(0, &mut zf, &rc);
        for (i, &v) in zf.iter().enumerate() {
            if let Ok(c) = f2c.binary_search(&(i as u32)) {
                assert_eq!(v, 1.0 + rc[c]);
            } else {
                assert_eq!(v, 1.0);
            }
        }
    }

    #[test]
    fn deterministic_dot() {
        let x: Vec<f64> = (0..100_000)
            .map(|i| ((i * 31) % 101) as f64 * 0.125)
            .collect();
        let y: Vec<f64> = (0..100_000)
            .map(|i| ((i * 17) % 97) as f64 * 0.25)
            .collect();
        let a = det_dot(&x, &y);
        let b = det_dot(&x, &y);
        assert_eq!(a, b);
    }

    #[test]
    fn vector_kernels() {
        let mut k = make();
        let x = vec![2.0; 512];
        let y = vec![3.0; 512];
        let mut w = k.alloc(0);
        k.waxpby(0, &mut w, 2.0, &x, 1.0, &y);
        assert!(w.iter().all(|&v| v == 7.0));
        k.axpy(0, &mut w, -1.0, &y);
        assert!(w.iter().all(|&v| v == 4.0));
        k.xpay(0, &mut w, 0.5, &x);
        assert!(w.iter().all(|&v| v == 4.0));
        k.sub_reverse(0, &mut w, &x);
        assert!(w.iter().all(|&v| v == -2.0));
        assert_eq!(k.dot(0, &x, &y), 512.0 * 6.0);
    }
}
