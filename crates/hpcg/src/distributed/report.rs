//! Driving distributed runs and extracting the paper's metrics.

use crate::cg::{cg_solve, CgResult, CgWorkspace};
use crate::kernels::Kernels;
use crate::mg::MgWorkspace;
use crate::timers::Kernel;
use bsp::collectives::allreduce_h_bytes;
use bsp::cost::{CostTracker, StepCost};
use bsp::machine::MachineParams;

/// A distributed implementation: [`Kernels`] plus access to its BSP trace.
pub trait DistKernels: Kernels {
    /// The accumulated BSP cost trace.
    fn bsp_tracker(&self) -> &CostTracker;
    /// Mutable access (reset between runs).
    fn bsp_tracker_mut(&mut self) -> &mut CostTracker;
}

impl DistKernels for super::alp::AlpDistHpcg {
    fn bsp_tracker(&self) -> &CostTracker {
        self.tracker()
    }

    fn bsp_tracker_mut(&mut self) -> &mut CostTracker {
        self.tracker_mut()
    }
}

impl DistKernels for super::ref_dist::RefDistHpcg {
    fn bsp_tracker(&self) -> &CostTracker {
        self.tracker()
    }

    fn bsp_tracker_mut(&mut self) -> &mut CostTracker {
        self.tracker_mut()
    }
}

/// The outcome of a distributed benchmark run.
#[derive(Clone, Debug)]
pub struct DistReport {
    /// Implementation name.
    pub name: &'static str,
    /// Simulated nodes.
    pub nodes: usize,
    /// Fine-level unknowns.
    pub n: usize,
    /// CG iterations executed.
    pub iterations: usize,
    /// Modeled wall-clock (the y-axis of Fig 3).
    pub modeled_secs: f64,
    /// Total h-relation bytes across all supersteps.
    pub comm_bytes: f64,
    /// Number of supersteps with a barrier.
    pub supersteps: usize,
    /// Per-level `(smoother, restrict/refine)` modeled seconds — Figs 6-7.
    pub level_breakdown: Vec<(f64, f64)>,
    /// Final relative residual (validation).
    pub relative_residual: f64,
}

impl DistReport {
    /// Percentage of modeled time in the smoother at `level` (Figs 6-7 bright bars).
    pub fn smoother_percent(&self, level: usize) -> f64 {
        100.0 * self.level_breakdown[level].0 / self.modeled_secs.max(1e-300)
    }

    /// Percentage in restriction/refinement at `level` (dark bars).
    pub fn restrict_percent(&self, level: usize) -> f64 {
        100.0 * self.level_breakdown[level].1 / self.modeled_secs.max(1e-300)
    }
}

/// Runs `iterations` of preconditioned CG on a distributed implementation
/// and collects the modeled-cost report.
pub fn run_distributed<K: DistKernels>(
    k: &mut K,
    b: &K::V,
    iterations: usize,
) -> (DistReport, CgResult) {
    k.bsp_tracker_mut().reset();
    k.timers_mut().reset();
    let mut cg_ws = CgWorkspace::new(k);
    let mut mg_ws = MgWorkspace::new(k);
    let mut x = k.alloc(0);
    let cg = cg_solve(k, &mut cg_ws, &mut mg_ws, b, &mut x, iterations, 0.0, true);

    let total = k.bsp_tracker().total_secs();
    k.timers_mut().set_total_secs(total);
    let levels = (0..k.levels())
        .map(|l| {
            (
                k.timers().secs(l, Kernel::Smoother),
                k.timers().secs(l, Kernel::RestrictRefine),
            )
        })
        .collect();
    let report = DistReport {
        name: k.name(),
        nodes: k.bsp_tracker().nodes(),
        n: k.n_at(0),
        iterations: cg.iterations,
        modeled_secs: total,
        comm_bytes: k.bsp_tracker().total_h_bytes(),
        supersteps: k.bsp_tracker().superstep_count(),
        level_breakdown: levels,
        relative_residual: cg.relative_residual,
    };
    (report, cg)
}

/// Re-prices a 1D ALP trace on `p` nodes for the §VII-B(ii) 2D block
/// layout: a most-square `pr×pc` process grid ([`bsp::factor2d`]) on
/// which each node expands its share along its process column and folds
/// it along its row. Every allgather step's h-relation scales by
/// `(pr+pc−2)/(p−1)` and its `comm_secs` is recomputed; all else is kept.
///
/// The re-pricing is exact. The 1D allgather's `h` is
/// `(p−1)·max_local·8` bytes and expand/fold's is `(pr+pc−2)·max_local·8`
/// (`h` is the larger of a node's sent and received bytes), while compute
/// and sync do not depend on the exchange. A step is an allgather when its
/// `h` exceeds a scalar allreduce's.
pub fn reprice_block2d(steps: &[StepCost], p: usize, machine: MachineParams) -> Vec<StepCost> {
    let (pr, pc) = bsp::factor2d(p);
    let allreduce = allreduce_h_bytes(p, 8);
    steps
        .iter()
        .map(|&step| {
            if step.h_bytes <= allreduce {
                return step;
            }
            let h_bytes = step.h_bytes * (pr + pc - 2) as f64 / (p - 1) as f64;
            StepCost {
                h_bytes,
                comm_secs: machine.comm_time(h_bytes),
                ..step
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{AlpDistHpcg, RefDistHpcg};
    use crate::geometry::Grid3;
    use crate::problem::{Problem, RhsVariant};
    use graphblas::Vector;

    fn problem() -> Problem {
        Problem::build_with(Grid3::cube(16), 3, RhsVariant::Reference).unwrap()
    }

    #[test]
    fn both_variants_converge_identically_to_shared_memory() {
        use crate::grb_impl::GrbHpcg;
        use graphblas::Sequential;
        let prob = problem();
        let b_vec = prob.b.as_slice().to_vec();
        let b_grb = prob.b.clone();

        let mut alp = AlpDistHpcg::new(prob.clone(), 4, MachineParams::arm_cluster());
        let (_, cg_alp) = run_distributed(&mut alp, &b_grb, 8);

        let mut rd = RefDistHpcg::new(prob.clone(), 8, MachineParams::arm_cluster());
        let (_, cg_ref) = run_distributed(&mut rd, &b_vec, 8);

        let mut shared = GrbHpcg::<Sequential>::new(prob);
        let mut cg_ws = crate::cg::CgWorkspace::new(&shared);
        let mut mg_ws = crate::mg::MgWorkspace::new(&shared);
        let mut x = shared.alloc(0);
        let cg_sm = crate::cg::cg_solve(
            &mut shared,
            &mut cg_ws,
            &mut mg_ws,
            &b_grb,
            &mut x,
            8,
            0.0,
            true,
        );

        for ((a, r), s) in cg_alp
            .residual_history
            .iter()
            .zip(&cg_ref.residual_history)
            .zip(&cg_sm.residual_history)
        {
            assert!(((a - s) / s).abs() < 1e-9, "ALP-dist vs shared: {a} vs {s}");
            assert!(((r - s) / s).abs() < 1e-9, "Ref-dist vs shared: {r} vs {s}");
        }
    }

    #[test]
    fn alp_communicates_far_more_than_ref() {
        let prob = problem();
        let b_vec = prob.b.as_slice().to_vec();
        let b_grb = prob.b.clone();
        let mut alp = AlpDistHpcg::new(prob.clone(), 8, MachineParams::arm_cluster());
        let (ra, _) = run_distributed(&mut alp, &b_grb, 3);
        let mut rd = RefDistHpcg::new(prob, 8, MachineParams::arm_cluster());
        let (rr, _) = run_distributed(&mut rd, &b_vec, 3);
        assert!(
            ra.comm_bytes > 5.0 * rr.comm_bytes,
            "Table I separation: ALP {} vs Ref {} bytes",
            ra.comm_bytes,
            rr.comm_bytes
        );
    }

    #[test]
    fn reports_have_consistent_breakdowns() {
        let prob = problem();
        let b = prob.b.clone();
        let mut alp = AlpDistHpcg::new(prob, 4, MachineParams::arm_cluster());
        let (r, cg) = run_distributed(&mut alp, &b, 3);
        assert_eq!(r.iterations, 3);
        assert_eq!(cg.iterations, 3);
        assert!(r.modeled_secs > 0.0);
        assert!(r.supersteps > 0);
        let smoother_total: f64 = (0..3).map(|l| r.smoother_percent(l)).sum();
        assert!(
            smoother_total > 30.0,
            "smoother dominates: {smoother_total}%"
        );
        assert!(smoother_total <= 100.0);
    }

    #[test]
    fn rerun_resets_state() {
        let prob = problem();
        let b = prob.b.clone();
        let mut alp = AlpDistHpcg::new(prob, 4, MachineParams::arm_cluster());
        let (r1, _) = run_distributed(&mut alp, &b, 2);
        let (r2, _) = run_distributed(&mut alp, &b, 2);
        assert!((r1.modeled_secs - r2.modeled_secs).abs() < 1e-12);
        assert_eq!(r1.supersteps, r2.supersteps);
    }

    /// Every field, to the bit (`Debug` prints each `f64` round-trip).
    fn bits(steps: &[StepCost]) -> Vec<String> {
        steps.iter().map(|s| format!("{s:?}")).collect()
    }

    #[test]
    fn reprice_block2d_is_the_identity_without_allgathers() {
        let machine = MachineParams::arm_cluster();
        let prob = Problem::build_with(Grid3::cube(8), 2, RhsVariant::Reference).unwrap();
        let b = prob.b.clone();

        let mut one_node = AlpDistHpcg::new(prob.clone(), 1, machine);
        run_distributed(&mut one_node, &b, 1);
        let steps = one_node.tracker().steps();
        assert_eq!(bits(&reprice_block2d(steps, 1, machine)), bits(steps));

        let mut dots = AlpDistHpcg::new(prob, 16, machine);
        dots.dot(0, &b, &b);
        dots.dot(1, &Vector::filled(64, 1.0), &Vector::filled(64, 2.0));
        let steps = dots.tracker().steps();
        assert!(steps.iter().all(|s| s.h_bytes == allreduce_h_bytes(16, 8)));
        assert_eq!(bits(&reprice_block2d(steps, 16, machine)), bits(steps));
    }

    #[test]
    fn reprice_block2d_scales_only_the_allgathers() {
        let machine = MachineParams::arm_cluster();
        let prob = problem();
        let b = prob.b.clone();
        let mut alp = AlpDistHpcg::new(prob, 4, machine);
        run_distributed(&mut alp, &b, 2);
        let steps = alp.tracker().steps();
        let repriced = reprice_block2d(steps, 4, machine);
        let (mut allgathers, mut allreduces) = (0, 0);
        for (s, r) in steps.iter().zip(&repriced) {
            if s.h_bytes > allreduce_h_bytes(4, 8) {
                // A 2×2 grid: each node exchanges with 2 peers, not 3.
                allgathers += 1;
                assert_eq!(r.h_bytes, s.h_bytes * 2.0 / 3.0);
                assert_eq!(r.comm_secs, machine.comm_time(r.h_bytes));
                let rest = StepCost {
                    h_bytes: s.h_bytes,
                    comm_secs: s.comm_secs,
                    ..*r
                };
                assert_eq!(bits(&[rest]), bits(&[*s]));
            } else {
                allreduces += usize::from(s.h_bytes > 0.0);
                assert_eq!(bits(&[*r]), bits(&[*s]));
            }
        }
        assert!(allgathers > 0 && allreduces > 0);
    }

    /// 1D: each node sends its share to `p − 1 = 15` peers; on the 4×4
    /// grid to `pr + pc − 2 = 6`. The ratio is exact.
    #[test]
    fn reprice_block2d_spmv_at_16_nodes_moves_6_shares_for_15() {
        let machine = MachineParams::arm_cluster();
        let prob = Problem::build_with(Grid3::cube(16), 1, RhsVariant::Reference).unwrap();
        let mut k = AlpDistHpcg::new(prob, 16, machine);
        let x = Vector::filled(4096, 1.0);
        let mut y = k.alloc(0);
        k.spmv(0, &mut y, &x);
        let h1 = k.tracker().steps()[0].h_bytes;
        let h2 = reprice_block2d(k.tracker().steps(), 16, machine)[0].h_bytes;
        assert!(h2 > 0.0);
        assert_eq!(h1 / h2, 15.0 / 6.0);
    }

    /// p = 8 lays out as a 2×4 grid: expand/fold sends each share to
    /// `2 + 4 − 2 = 4` peers where the 1D allgather sends it to 7.
    #[test]
    fn reprice_block2d_exchange_is_cheaper_than_1d() {
        use bsp::collectives::allgather_h_bytes;
        let machine = MachineParams::arm_cluster();
        let prob = Problem::build_with(Grid3::cube(16), 1, RhsVariant::Reference).unwrap();
        let mut k = AlpDistHpcg::new(prob, 8, machine);
        let x = Vector::filled(4096, 1.0);
        let mut y = k.alloc(0);
        k.spmv(0, &mut y, &x);
        let one_d = k.tracker().steps()[0];
        let two_d = reprice_block2d(k.tracker().steps(), 8, machine)[0];
        assert_eq!(one_d.h_bytes, allgather_h_bytes(8, 512, 8));
        assert_eq!(two_d.h_bytes, (4 * 512 * 8) as f64);
        assert!(two_d.comm_secs < one_d.comm_secs);
    }
}
