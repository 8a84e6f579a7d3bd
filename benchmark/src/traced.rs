//! `Traced<K>`: a [`Kernels`] adapter that wraps every trait call in a span.
//!
//! `cg_solve` and the V-cycle are written once against [`Kernels`], so
//! handing them a `Traced<GrbHpcg<_>>` or `Traced<RefHpcg>` yields the nest
//! solve → MG level → kernel without touching the `hpcg` crate. The trait
//! has no "enter level" call; the adapter recovers level spans from the
//! V-cycle's shape: the first `smooth` at a level opens it, and the second
//! one (or the only one, at the coarsest level) closes it.

use crate::trace::{SpanId, Tracer};
use hpcg::{KernelTimers, Kernels};

/// Span name of one `cg_solve` call (opened by the workload).
pub const SOLVE: &str = "hpcg.cg_solve";

/// Span names of the multigrid levels, finest first.
pub const LEVELS: [&str; 8] = [
    "hpcg.mg.level0",
    "hpcg.mg.level1",
    "hpcg.mg.level2",
    "hpcg.mg.level3",
    "hpcg.mg.level4",
    "hpcg.mg.level5",
    "hpcg.mg.level6",
    "hpcg.mg.level7",
];

/// The per-layer metric a kernel span's self time is reported under. Every
/// trait method lands in exactly one bucket, so the buckets plus the
/// solve's own self time sum to the solve.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Bucket {
    Smoother,
    /// `spmv`, fused `spmv_dot`, and `residual_restrict` (whose SpMV is
    /// nine tenths of its flops).
    Spmv,
    Dot,
    /// Vector updates, including fused `axpy_norm2`, `copy` and `set_zero`.
    Waxpby,
    RestrictRefine,
}

/// Bucket of a kernel span name; `None` for solve and level spans.
pub fn bucket(name: &str) -> Option<Bucket> {
    Some(match name {
        "hpcg.smooth" => Bucket::Smoother,
        "hpcg.spmv" | "hpcg.spmv_dot" | "hpcg.residual_restrict" => Bucket::Spmv,
        "hpcg.dot" => Bucket::Dot,
        "hpcg.waxpby" | "hpcg.axpy" | "hpcg.xpay" | "hpcg.sub_reverse" | "hpcg.axpy_norm2"
        | "hpcg.copy" | "hpcg.set_zero" => Bucket::Waxpby,
        "hpcg.restrict_to" | "hpcg.prolong_add" => Bucket::RestrictRefine,
        _ => return None,
    })
}

pub struct Traced<K: Kernels> {
    pub inner: K,
    pub tracer: Tracer,
    open_level: Vec<Option<SpanId>>,
}

impl<K: Kernels> Traced<K> {
    pub fn new(inner: K, tracer: Tracer) -> Traced<K> {
        assert!(
            inner.levels() <= LEVELS.len(),
            "more MG levels than span names"
        );
        let open_level = vec![None; inner.levels()];
        Traced {
            inner,
            tracer,
            open_level,
        }
    }
}

/// Delegates one trait call inside a span.
macro_rules! spanned {
    ($self:ident, $name:literal, $call:expr) => {{
        let id = $self.tracer.enter($name);
        let r = $call;
        $self.tracer.exit(id);
        r
    }};
}

impl<K: Kernels> Kernels for Traced<K> {
    type V = K::V;

    fn levels(&self) -> usize {
        self.inner.levels()
    }

    fn n_at(&self, level: usize) -> usize {
        self.inner.n_at(level)
    }

    fn alloc(&self, level: usize) -> K::V {
        self.inner.alloc(level)
    }

    fn set_zero(&mut self, level: usize, v: &mut K::V) {
        spanned!(self, "hpcg.set_zero", self.inner.set_zero(level, v))
    }

    fn copy(&mut self, level: usize, src: &K::V, dst: &mut K::V) {
        spanned!(self, "hpcg.copy", self.inner.copy(level, src, dst))
    }

    fn spmv(&mut self, level: usize, y: &mut K::V, x: &K::V) {
        spanned!(self, "hpcg.spmv", self.inner.spmv(level, y, x))
    }

    fn dot(&mut self, level: usize, x: &K::V, y: &K::V) -> f64 {
        spanned!(self, "hpcg.dot", self.inner.dot(level, x, y))
    }

    fn waxpby(&mut self, level: usize, w: &mut K::V, alpha: f64, x: &K::V, beta: f64, y: &K::V) {
        spanned!(
            self,
            "hpcg.waxpby",
            self.inner.waxpby(level, w, alpha, x, beta, y)
        )
    }

    fn axpy(&mut self, level: usize, x: &mut K::V, alpha: f64, y: &K::V) {
        spanned!(self, "hpcg.axpy", self.inner.axpy(level, x, alpha, y))
    }

    fn spmv_dot(&mut self, level: usize, y: &mut K::V, x: &K::V) -> f64 {
        spanned!(self, "hpcg.spmv_dot", self.inner.spmv_dot(level, y, x))
    }

    fn axpy_norm2(&mut self, level: usize, x: &mut K::V, alpha: f64, y: &K::V) -> f64 {
        spanned!(
            self,
            "hpcg.axpy_norm2",
            self.inner.axpy_norm2(level, x, alpha, y)
        )
    }

    fn residual_restrict(&mut self, level: usize, f: &mut K::V, z: &K::V, r: &K::V, rc: &mut K::V) {
        spanned!(
            self,
            "hpcg.residual_restrict",
            self.inner.residual_restrict(level, f, z, r, rc)
        )
    }

    fn xpay(&mut self, level: usize, p: &mut K::V, beta: f64, z: &K::V) {
        spanned!(self, "hpcg.xpay", self.inner.xpay(level, p, beta, z))
    }

    fn sub_reverse(&mut self, level: usize, w: &mut K::V, r: &K::V) {
        spanned!(
            self,
            "hpcg.sub_reverse",
            self.inner.sub_reverse(level, w, r)
        )
    }

    fn smooth(&mut self, level: usize, x: &mut K::V, r: &K::V) {
        let pre = self.open_level[level].is_none();
        if pre {
            self.open_level[level] = Some(self.tracer.enter(LEVELS[level]));
        }
        spanned!(self, "hpcg.smooth", self.inner.smooth(level, x, r));
        if !pre || level + 1 == self.inner.levels() {
            let id = self.open_level[level].take().expect("level span is open");
            self.tracer.exit(id);
        }
    }

    fn restrict_to(&mut self, level: usize, rc: &mut K::V, rf: &K::V) {
        spanned!(
            self,
            "hpcg.restrict_to",
            self.inner.restrict_to(level, rc, rf)
        )
    }

    fn prolong_add(&mut self, level: usize, zf: &mut K::V, zc: &K::V) {
        spanned!(
            self,
            "hpcg.prolong_add",
            self.inner.prolong_add(level, zf, zc)
        )
    }

    fn timers_mut(&mut self) -> &mut KernelTimers {
        self.inner.timers_mut()
    }

    fn timers(&self) -> &KernelTimers {
        self.inner.timers()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcg::{cg_solve, CgWorkspace, Grid3, MgWorkspace, Problem, RefHpcg, RhsVariant};
    use std::time::Instant;

    #[test]
    fn traced_ref_solve_nests_and_its_kernel_spans_sum_to_the_solve() {
        let problem = Problem::build_with(Grid3::cube(16), 3, RhsVariant::Reference).unwrap();
        let b = problem.b.as_slice().to_vec();
        let mut k = Traced::new(RefHpcg::new(problem), Tracer::new(Instant::now(), 0));
        let mut cg_ws = CgWorkspace::new(&k);
        let mut mg_ws = MgWorkspace::new(&k);
        let mut x = k.alloc(0);

        k.tracer.set_on(true);
        k.tracer.begin_op();
        let solve = k.tracer.enter(SOLVE);
        let res = cg_solve(&mut k, &mut cg_ws, &mut mg_ws, &b, &mut x, 5, 0.0, true);
        k.tracer.exit(solve);
        assert_eq!(res.iterations, 5);

        let t = &k.tracer;
        let spans = t.spans();
        assert_eq!(spans[0].name, SOLVE);
        // One level-0 span per V-cycle, each directly under the solve; one
        // level-1 span inside each of those; one level-2 inside level 1.
        for (level, name) in LEVELS.iter().enumerate().take(3) {
            let of_level: Vec<_> = spans.iter().filter(|s| s.name == *name).collect();
            assert_eq!(of_level.len(), 5, "{name}");
            for s in of_level {
                let parent = &spans[s.parent.unwrap() as usize];
                let expected = if level == 0 { SOLVE } else { LEVELS[level - 1] };
                assert_eq!(parent.name, expected);
            }
        }
        // Per V-cycle: two smooths on each of the two upper levels, one at
        // the coarsest.
        assert_eq!(t.count_where(|s| s.name == "hpcg.smooth"), 5 * 5);

        // The parts sum to the whole: kernel self times plus what the solve
        // and level spans spend themselves is the solve's duration exactly,
        // and what is not a kernel is under 5 % of it.
        let solve_secs = t.dur_secs_where(|s| s.name == SOLVE);
        let kernel_secs = t.self_secs_where(|s| bucket(s.name).is_some());
        let other_secs = t.self_secs_where(|s| bucket(s.name).is_none());
        assert!(((kernel_secs + other_secs) / solve_secs - 1.0).abs() < 1e-9);
        assert!(
            other_secs < 0.05 * solve_secs,
            "unaccounted {other_secs} s of a {solve_secs} s solve"
        );
    }
}
