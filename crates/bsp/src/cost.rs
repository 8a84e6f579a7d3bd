//! Superstep cost accounting.
//!
//! A distributed algorithm runs as a sequence of supersteps. Within a step,
//! each simulated node reports its local work (`flops`, `bytes` touched) and
//! its sends; closing the step computes the BSP time
//!
//! ```text
//! t_step = max_i w_i + g · max_i h_i + l
//! ```
//!
//! with `h_i = max(bytes sent by i, bytes received by i)` — the standard
//! h-relation. Steps carry a [`KernelClass`] so harnesses can report the
//! per-kernel breakdown of Figs 4-7, and an `overlap` flag modeling the
//! reference HPCG's `MPI_Irecv/Isend` compute/communication overlap
//! (paper §IV: Ref overlaps, blocking GraphBLAS semantics cannot).

use crate::machine::MachineParams;
use serde::{Deserialize, Serialize};

/// Which HPCG kernel a superstep belongs to, for breakdown reporting.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelClass {
    /// Sparse matrix–vector product in the CG loop.
    SpMV,
    /// Dot products / reductions.
    Dot,
    /// Vector updates (waxpby / axpy).
    Waxpby,
    /// The smoother (SGS or RBGS).
    Smoother,
    /// Restriction or prolongation between multigrid levels.
    RestrictRefine,
    /// Everything else (setup, exchange scaffolding).
    Other,
}

/// The cost of one closed superstep.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepCost {
    /// Kernel attribution.
    pub class: KernelClass,
    /// Multigrid level (0 = finest) if applicable.
    pub mg_level: Option<usize>,
    /// `max_i w_i` in seconds.
    pub compute_secs: f64,
    /// `g · max_i h_i` in seconds.
    pub comm_secs: f64,
    /// Barrier latency `l` in seconds.
    pub sync_secs: f64,
    /// `max_i h_i` in bytes (diagnostic; drives Table I).
    pub h_bytes: f64,
    /// Whether compute and communication were overlapped.
    pub overlap: bool,
    /// Measured wall-clock seconds attributed to this step (0 until a
    /// timed execution calls [`CostTracker::attribute_measured`]). This is
    /// the cross-check column next to the modeled
    /// [`total_secs`](StepCost::total_secs).
    pub measured_secs: f64,
    /// Measured seconds of exchange time hidden behind local compute by
    /// split-phase execution (0 until a sharded run calls
    /// [`CostTracker::attribute_overlap`]). Always ≤ `measured_secs`; the
    /// §VII "overlap win" the reports surface.
    pub overlap_hidden_secs: f64,
}

impl StepCost {
    /// Wall-clock contribution of this step.
    pub fn total_secs(&self) -> f64 {
        if self.overlap {
            self.compute_secs.max(self.comm_secs) + self.sync_secs
        } else {
            self.compute_secs + self.comm_secs + self.sync_secs
        }
    }
}

/// Records per-node work and traffic for the open superstep, and the cost
/// history of closed ones.
#[derive(Clone, Debug)]
pub struct CostTracker {
    params: MachineParams,
    p: usize,
    // Open-step state.
    flops: Vec<f64>,
    local_bytes: Vec<f64>,
    sent: Vec<f64>,
    received: Vec<f64>,
    // Closed steps.
    steps: Vec<StepCost>,
}

impl CostTracker {
    /// A tracker for `p` nodes with machine parameters `params`.
    pub fn new(p: usize, params: MachineParams) -> CostTracker {
        assert!(p > 0, "a cluster needs at least one node");
        CostTracker {
            params,
            p,
            flops: vec![0.0; p],
            local_bytes: vec![0.0; p],
            sent: vec![0.0; p],
            received: vec![0.0; p],
            steps: Vec::new(),
        }
    }

    /// Number of simulated nodes.
    pub fn nodes(&self) -> usize {
        self.p
    }

    /// The machine parameters in use.
    pub fn params(&self) -> MachineParams {
        self.params
    }

    /// Records local work on `node`: `flops` operations over `bytes` of traffic.
    pub fn record_compute(&mut self, node: usize, flops: f64, bytes: f64) {
        self.flops[node] += flops;
        self.local_bytes[node] += bytes;
    }

    /// Records a point-to-point message of `bytes` from `from` to `to`.
    /// Self-sends are free (local copies are part of local work).
    pub fn record_send(&mut self, from: usize, to: usize, bytes: f64) {
        if from == to {
            return;
        }
        self.sent[from] += bytes;
        self.received[to] += bytes;
    }

    /// Records a broadcast-style send of `bytes` from `from` to every other node.
    pub fn record_send_all(&mut self, from: usize, bytes_per_peer: f64) {
        for to in 0..self.p {
            self.record_send(from, to, bytes_per_peer);
        }
    }

    /// Closes the current superstep, attributing it to `class` /
    /// `mg_level`, and returns its cost. `overlap` applies the
    /// `max(compute, comm)` model (Ref's nonblocking exchange).
    pub fn end_superstep(
        &mut self,
        class: KernelClass,
        mg_level: Option<usize>,
        overlap: bool,
    ) -> StepCost {
        self.end_step(class, mg_level, overlap, true)
    }

    /// Closes a *local* step: same accounting but no barrier latency.
    /// Models purely local kernels (waxpby, the reference's in-place grid
    /// transfers) that synchronize with nobody.
    pub fn end_local_step(&mut self, class: KernelClass, mg_level: Option<usize>) -> StepCost {
        self.end_step(class, mg_level, false, false)
    }

    fn end_step(
        &mut self,
        class: KernelClass,
        mg_level: Option<usize>,
        overlap: bool,
        barrier: bool,
    ) -> StepCost {
        let mut w = 0.0f64;
        let mut h = 0.0f64;
        for i in 0..self.p {
            w = w.max(self.params.compute_time(self.flops[i], self.local_bytes[i]));
            h = h.max(self.sent[i].max(self.received[i]));
        }
        let cost = StepCost {
            class,
            mg_level,
            compute_secs: w,
            comm_secs: self.params.comm_time(h),
            sync_secs: if barrier { self.params.l_secs } else { 0.0 },
            h_bytes: h,
            overlap,
            measured_secs: 0.0,
            overlap_hidden_secs: 0.0,
        };
        self.steps.push(cost);
        self.flops.iter_mut().for_each(|v| *v = 0.0);
        self.local_bytes.iter_mut().for_each(|v| *v = 0.0);
        self.sent.iter_mut().for_each(|v| *v = 0.0);
        self.received.iter_mut().for_each(|v| *v = 0.0);
        cost
    }

    /// All closed steps, in order.
    pub fn steps(&self) -> &[StepCost] {
        &self.steps
    }

    /// Distributes `secs` of measured wall-clock over the steps closed
    /// since index `from` (a value previously read off `steps().len()`),
    /// proportionally to their modeled `total_secs`. One timed kernel may
    /// close more than one superstep (a fused SpMV+dot closes the sweep
    /// and the reduction), so attribution splits the measurement along the
    /// model's own ratio; if the model says zero everywhere the split is
    /// even. No-op when no steps closed.
    pub fn attribute_measured(&mut self, from: usize, secs: f64) {
        let from = from.min(self.steps.len());
        let closed = &mut self.steps[from..];
        if closed.is_empty() {
            return;
        }
        let modeled: f64 = closed.iter().map(StepCost::total_secs).sum();
        if modeled > 0.0 {
            for s in closed {
                s.measured_secs = secs * s.total_secs() / modeled;
            }
        } else {
            let even = secs / closed.len() as f64;
            for s in closed {
                s.measured_secs = even;
            }
        }
    }

    /// Distributes `secs` of measured *hidden* exchange time — the part of
    /// an input exchange that split-phase execution overlapped with local
    /// compute — over the steps closed since index `from`, proportionally
    /// to their communication volume (only exchange-bearing steps can hide
    /// exchange time). No-op when nothing was communicated or no steps
    /// closed.
    pub fn attribute_overlap(&mut self, from: usize, secs: f64) {
        if secs <= 0.0 {
            return;
        }
        let from = from.min(self.steps.len());
        let closed = &mut self.steps[from..];
        let h: f64 = closed.iter().map(|s| s.h_bytes).sum();
        if h <= 0.0 {
            return;
        }
        for s in closed {
            s.overlap_hidden_secs += secs * s.h_bytes / h;
        }
    }

    /// Total measured seconds attributed to closed steps.
    pub fn total_measured_secs(&self) -> f64 {
        self.steps.iter().map(|s| s.measured_secs).sum()
    }

    /// Total measured exchange seconds hidden behind compute.
    pub fn total_overlap_hidden_secs(&self) -> f64 {
        self.steps.iter().map(|s| s.overlap_hidden_secs).sum()
    }

    /// Total modeled wall-clock of all closed steps.
    pub fn total_secs(&self) -> f64 {
        self.steps.iter().map(StepCost::total_secs).sum()
    }

    /// Total communicated bytes (sum over steps of the max-per-node
    /// h-relation — the quantity Table I bounds).
    pub fn total_h_bytes(&self) -> f64 {
        self.steps.iter().map(|s| s.h_bytes).sum()
    }

    /// Number of closed supersteps (the paper's Θ(1)-per-mxv sync count).
    pub fn superstep_count(&self) -> usize {
        self.steps.len()
    }

    /// Seconds spent in steps of `class`, optionally filtered by MG level.
    pub fn secs_in(&self, class: KernelClass, mg_level: Option<usize>) -> f64 {
        self.steps
            .iter()
            .filter(|s| s.class == class && (mg_level.is_none() || s.mg_level == mg_level))
            .map(StepCost::total_secs)
            .sum()
    }

    /// Clears the step history (open-step state must already be closed).
    pub fn reset(&mut self) {
        self.steps.clear();
    }

    /// Drains and returns the closed steps, leaving the history empty —
    /// how a harness moves recorded cost into its own attribution buckets.
    pub fn take_steps(&mut self) -> Vec<StepCost> {
        std::mem::take(&mut self.steps)
    }

    /// Appends an externally recorded closed step (e.g. one drained from a
    /// shared tracker via [`take_steps`](CostTracker::take_steps)).
    pub fn import_step(&mut self, step: StepCost) {
        self.steps.push(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(p: usize) -> CostTracker {
        CostTracker::new(p, MachineParams::arm_cluster())
    }

    #[test]
    fn compute_takes_max_over_nodes() {
        let mut t = tracker(3);
        t.record_compute(0, 1e9, 0.0);
        t.record_compute(1, 4e9, 0.0);
        t.record_compute(2, 2e9, 0.0);
        let c = t.end_superstep(KernelClass::SpMV, None, false);
        let p = MachineParams::arm_cluster();
        assert!((c.compute_secs - 4e9 / p.flops_per_sec).abs() < 1e-15);
        assert_eq!(c.h_bytes, 0.0);
    }

    #[test]
    fn h_relation_is_max_of_in_and_out() {
        let mut t = tracker(3);
        // Node 0 sends 100 to 1 and 2; node 1 receives 100; node 2 receives 100.
        t.record_send(0, 1, 100.0);
        t.record_send(0, 2, 100.0);
        let c = t.end_superstep(KernelClass::Other, None, false);
        assert_eq!(c.h_bytes, 200.0, "sender's fan-out dominates");
    }

    #[test]
    fn self_sends_free() {
        let mut t = tracker(2);
        t.record_send(1, 1, 1e9);
        let c = t.end_superstep(KernelClass::Other, None, false);
        assert_eq!(c.h_bytes, 0.0);
    }

    #[test]
    fn measured_attribution_splits_along_the_model() {
        let mut t = tracker(2);
        t.record_compute(0, 1e9, 0.0);
        t.end_local_step(KernelClass::SpMV, None);
        let mark = t.steps().len();
        // Two steps close after the mark, modeled 3:1.
        t.record_compute(0, 3e9, 0.0);
        t.end_local_step(KernelClass::SpMV, None);
        t.record_compute(0, 1e9, 0.0);
        t.end_local_step(KernelClass::Dot, None);
        t.attribute_measured(mark, 8.0);
        let steps = t.steps();
        assert_eq!(steps[0].measured_secs, 0.0, "pre-mark steps untouched");
        assert!((steps[1].measured_secs - 6.0).abs() < 1e-12);
        assert!((steps[2].measured_secs - 2.0).abs() < 1e-12);
        assert!((t.total_measured_secs() - 8.0).abs() < 1e-12);
        // A mark past the end is a no-op, not a panic.
        t.attribute_measured(99, 1.0);
    }

    #[test]
    fn overlap_attribution_lands_on_exchange_steps_only() {
        let mut t = tracker(2);
        let mark = t.steps().len();
        t.record_send(0, 1, 300.0);
        t.end_superstep(KernelClass::SpMV, None, false);
        t.end_local_step(KernelClass::Waxpby, None);
        t.record_send(0, 1, 100.0);
        t.end_superstep(KernelClass::Dot, None, false);
        t.attribute_overlap(mark, 4.0);
        let steps = t.steps();
        assert!((steps[0].overlap_hidden_secs - 3.0).abs() < 1e-12);
        assert_eq!(steps[1].overlap_hidden_secs, 0.0, "no exchange to hide");
        assert!((steps[2].overlap_hidden_secs - 1.0).abs() < 1e-12);
        assert!((t.total_overlap_hidden_secs() - 4.0).abs() < 1e-12);
        // Zero or comm-free windows are no-ops, not panics.
        t.attribute_overlap(mark, 0.0);
        t.attribute_overlap(99, 1.0);
        assert!((t.total_overlap_hidden_secs() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn measured_attribution_splits_evenly_when_model_is_zero() {
        let mut t = tracker(2);
        let mark = t.steps().len();
        t.end_local_step(KernelClass::Waxpby, None);
        t.end_local_step(KernelClass::Waxpby, None);
        t.attribute_measured(mark, 4.0);
        assert_eq!(t.steps()[0].measured_secs, 2.0);
        assert_eq!(t.steps()[1].measured_secs, 2.0);
    }

    #[test]
    fn overlap_takes_max() {
        let p = MachineParams::arm_cluster();
        let mut t = tracker(2);
        t.record_compute(0, 0.0, p.mem_bw_bytes_per_sec); // exactly 1 s compute
        t.record_send(0, 1, 0.5 / p.g_secs_per_byte); // 0.5 s comm
        let c = t.end_superstep(KernelClass::Smoother, Some(0), true);
        assert!(
            (c.total_secs() - (1.0 + p.l_secs)).abs() < 1e-9,
            "overlap hides comm"
        );

        let mut t2 = tracker(2);
        t2.record_compute(0, 0.0, p.mem_bw_bytes_per_sec);
        t2.record_send(0, 1, 0.5 / p.g_secs_per_byte);
        let c2 = t2.end_superstep(KernelClass::Smoother, Some(0), false);
        assert!(
            (c2.total_secs() - (1.5 + p.l_secs)).abs() < 1e-9,
            "blocking adds comm"
        );
    }

    #[test]
    fn steps_accumulate_and_filter() {
        let mut t = tracker(2);
        t.record_compute(0, 1e9, 0.0);
        t.end_superstep(KernelClass::SpMV, Some(0), false);
        t.record_compute(0, 1e9, 0.0);
        t.end_superstep(KernelClass::Smoother, Some(1), false);
        t.record_compute(0, 1e9, 0.0);
        t.end_superstep(KernelClass::Smoother, Some(0), false);
        assert_eq!(t.superstep_count(), 3);
        assert!(t.secs_in(KernelClass::Smoother, None) > t.secs_in(KernelClass::SpMV, None));
        assert!(t.secs_in(KernelClass::Smoother, Some(1)) > 0.0);
        assert_eq!(t.secs_in(KernelClass::Dot, None), 0.0);
        let total = t.total_secs();
        assert!(total > 0.0);
        t.reset();
        assert_eq!(t.superstep_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = CostTracker::new(0, MachineParams::arm_cluster());
    }
}

#[cfg(test)]
mod local_step_tests {
    use super::*;

    #[test]
    fn local_step_has_no_barrier() {
        let mut t = CostTracker::new(2, MachineParams::arm_cluster());
        t.record_compute(0, 1e6, 0.0);
        let c = t.end_local_step(KernelClass::Waxpby, None);
        assert_eq!(c.sync_secs, 0.0);
        assert!(c.compute_secs > 0.0);

        let mut t2 = CostTracker::new(2, MachineParams::arm_cluster());
        t2.record_compute(0, 1e6, 0.0);
        let c2 = t2.end_superstep(KernelClass::Waxpby, None, false);
        assert!(c2.sync_secs > 0.0);
    }
}
