//! Superstep-by-superstep cost recording for the distributed backend.
//!
//! Every [`Exec`](crate::context::Exec) entry point of
//! [`Distributed`](super::Distributed) executes its numerics sharded
//! across the nodes' workers (`shard.rs`) and then calls into
//! `ClusterState` here, which replays the operation against the cost
//! model: per-node flops and touched bytes
//! (from the shard layout and, for masked operations, the *exact* mask
//! selection), per-node sent/received bytes for the collective the 1D
//! layout forces (a full allgather of the input vector before every
//! `mxv`, a scalar allreduce after every reduction), and one closed BSP
//! superstep per exchange — the quantities Table I bounds.

use super::layout::ShardLayout;
use super::shard::{for_owned_selected, ShardShape};
use crate::container::matrix::{CsrMatrix, GraphMatrix};
use crate::container::vector::{SparseVector, Vector};
use crate::context::ElemOp;
use crate::descriptor::Descriptor;
use crate::exec::sparse::FrontierMode;
use bsp::cost::{CostTracker, KernelClass, StepCost};
use bsp::dist::Distribution;
use bsp::machine::MachineParams;
use std::sync::Arc;

/// Bytes of one `f64` element (the backend's value domain for costing).
pub(crate) const ELEM_BYTES: f64 = 8.0;

/// Roofline byte estimate of an spmv over `nnz` nonzeroes and `rows`
/// rows: value (8) + column index (4) + input gather (8) per nonzero,
/// output + row pointer (16) per row. Public so every distributed cost
/// model in the workspace (this backend, HPCG's Ref-design simulator)
/// prices a sweep identically.
pub fn spmv_bytes(nnz: usize, rows: usize) -> f64 {
    (nnz * (8 + 4 + 8) + rows * 16) as f64
}

/// Byte estimate of a streaming vector op touching `k` vectors of `n`
/// selected elements (shared across the workspace's cost models, like
/// [`spmv_bytes`]).
pub fn stream_bytes(k: usize, n: usize) -> f64 {
    (k * n * 8) as f64
}

/// Kernel attribution the caller can force on recorded steps (plus an
/// optional multigrid level), used by HPCG's distributed harness to tag
/// smoother / grid-transfer supersteps.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Scope {
    pub class: Option<KernelClass>,
    pub level: Option<usize>,
}

/// Mutable state of one simulated cluster: the BSP cost trace plus the
/// layout and attribution scope the recorders consult.
#[derive(Debug)]
pub(crate) struct ClusterState {
    pub tracker: CostTracker,
    pub layout: ShardLayout,
    pub scope: Scope,
    /// The shape the sharded kernels execute under; they take a handle
    /// under the state lock and compute outside it.
    pub shape: Arc<ShardShape>,
}

impl ClusterState {
    pub fn new(nodes: usize, machine: MachineParams, layout: ShardLayout) -> ClusterState {
        ClusterState {
            tracker: CostTracker::new(nodes, machine),
            layout,
            scope: Scope::default(),
            shape: Arc::new(ShardShape::new(nodes, layout)),
        }
    }

    fn nodes(&self) -> usize {
        self.tracker.nodes()
    }

    fn class(&self, default: KernelClass) -> KernelClass {
        self.scope.class.unwrap_or(default)
    }

    /// Records the pre-`mxv` exchange of an `n`-element input vector:
    /// every node sends its local share to all peers (the `Θ(n(p−1)/p)`
    /// allgather).
    fn record_input_exchange(&mut self, n: usize) {
        let p = self.nodes();
        let dist = self.layout.dist_for(n, p);
        for from in 0..p {
            let bytes = dist.local_len(from) as f64 * ELEM_BYTES;
            self.tracker.record_send_all(from, bytes);
        }
    }

    /// Records the direct-exchange scalar allreduce every node pays after
    /// a distributed reduction: `p − 1` words out and in (`Θ(p)` ≪ the
    /// vector exchanges — the Θ(1)-synchronization row of Table I).
    fn record_allreduce(&mut self) {
        for from in 0..self.nodes() {
            self.tracker.record_send_all(from, ELEM_BYTES);
        }
    }

    /// Per-node `(selected rows, selected nnz)` of an `mxv` under `mask` /
    /// `desc`, attributing each selected output row to its shard owner.
    /// For the transposed product the effective rows are `A`'s columns.
    fn mxv_partition<T: crate::ops::scalar::Scalar>(
        &self,
        a: &CsrMatrix<T>,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
    ) -> (Vec<usize>, Vec<usize>) {
        let p = self.nodes();
        let transposed = desc.is_transposed();
        if mask.is_none() && !transposed {
            // A (pattern, layout) fact, counted when the shard plan was
            // built: an unmasked sweep bills in O(nodes).
            let plan = a.shard_plan(p, self.layout);
            return plan.owned_rows_nnz.iter().copied().unzip();
        }
        let out_len = if transposed { a.ncols() } else { a.nrows() };
        let dist = self.layout.dist_for(out_len, p);
        let mut rows = vec![0usize; p];
        let mut nnzs = vec![0usize; p];
        if transposed {
            // Effective row `i` of Aᵀ holds A's column-`i` entries.
            let mut col_nnz = vec![0usize; a.ncols()];
            let (_, cols, _) = a.csr_parts();
            for &c in cols {
                col_nnz[c as usize] += 1;
            }
            for_selected(out_len, mask, desc, |i| {
                let node = dist.owner(i);
                rows[node] += 1;
                nnzs[node] += col_nnz[i];
            });
        } else {
            // Node by node over the blocks each owns: no owner lookup per
            // selected row.
            for node in 0..p {
                for_owned_selected(&dist, node, mask, desc, |i| {
                    rows[node] += 1;
                    nnzs[node] += a.row_nnz(i);
                });
            }
        }
        (rows, nnzs)
    }

    /// Records one `mxv` superstep: the forced input exchange, then each
    /// node's selected-row sweep. With `fused_dot` the dot-product
    /// epilogue rides the same sweep (2 extra flops per row, no extra
    /// vector stream) and a scalar allreduce closes a second, `Θ(p)`-byte
    /// superstep — one sweep plus one allreduce instead of two full
    /// supersteps.
    pub fn record_mxv<T: crate::ops::scalar::Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        x_len: usize,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        fused_dot: bool,
    ) -> StepCost {
        self.record_input_exchange(x_len);
        let (rows, nnzs) = self.mxv_partition(a, mask, desc);
        for node in 0..self.nodes() {
            let (r, z) = (rows[node], nnzs[node]);
            let epilogue_flops = if fused_dot { 2.0 * r as f64 } else { 0.0 };
            self.tracker
                .record_compute(node, 2.0 * z as f64 + epilogue_flops, spmv_bytes(z, r));
        }
        let class = self.class(KernelClass::SpMV);
        let level = self.scope.level;
        let step = self.tracker.end_superstep(class, level, false);
        if fused_dot {
            self.record_allreduce();
            self.tracker
                .end_superstep(self.class(KernelClass::Dot), level, false);
        }
        step
    }

    /// Records one **sparse-frontier** `mxv` superstep.
    ///
    /// The input exchange bills only the frontier's stored entries —
    /// value + `u32` index, 12 bytes each, `Θ(nvals·(p−1)/p)` total under
    /// the 1D layout — instead of the dense `Θ(n·(p−1)/p)` allgather; a
    /// promoted frontier travels like the dense vector it is. Compute is
    /// attributed per shard owner of the touched output rows: push mode
    /// sweeps only the columns the frontier names, pull mode bills the
    /// full dense row sweep the kernel actually ran.
    pub fn record_mxv_sparse<T: crate::ops::scalar::Scalar>(
        &mut self,
        m: &GraphMatrix<T>,
        x: &SparseVector<T>,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        mode: FrontierMode,
    ) -> StepCost {
        let p = self.nodes();
        match x.indices() {
            Some(stored) => {
                let dist = self.layout.dist_for(x.len(), p);
                let mut counts = vec![0usize; p];
                for &i in stored {
                    counts[dist.owner(i as usize)] += 1;
                }
                for (from, &c) in counts.iter().enumerate() {
                    self.tracker
                        .record_send_all(from, c as f64 * (ELEM_BYTES + 4.0));
                }
            }
            None => self.record_input_exchange(x.len()),
        }
        match mode {
            FrontierMode::Pull => {
                let (rows, nnzs) = self.mxv_partition(m.csr(), mask, desc);
                for node in 0..p {
                    let (r, z) = (rows[node], nnzs[node]);
                    self.tracker
                        .record_compute(node, 2.0 * z as f64, spmv_bytes(z, r));
                }
            }
            FrontierMode::Push => {
                let col_major = if desc.is_transposed() {
                    m.csr()
                } else {
                    m.csc()
                };
                let out_len = if desc.is_transposed() {
                    m.ncols()
                } else {
                    m.nrows()
                };
                let dist = self.layout.dist_for(out_len, p);
                let mut rows = vec![0usize; p];
                let mut nnzs = vec![0usize; p];
                let mut touched = vec![false; out_len];
                if let Some(stored) = x.indices() {
                    for &j in stored {
                        let (idx, _) = col_major.row(j as usize);
                        for &i in idx {
                            let node = dist.owner(i as usize);
                            nnzs[node] += 1;
                            if !touched[i as usize] {
                                touched[i as usize] = true;
                                rows[node] += 1;
                            }
                        }
                    }
                }
                for node in 0..p {
                    let (r, z) = (rows[node], nnzs[node]);
                    self.tracker
                        .record_compute(node, 2.0 * z as f64, spmv_bytes(z, r));
                }
            }
        }
        self.tracker
            .end_superstep(self.class(KernelClass::SpMV), self.scope.level, false)
    }

    /// Bills every node the flops and bytes of streaming its share of the
    /// mask-selected subset of `n` elements, touching `k` vectors at
    /// `flops_per_elem` flops each.
    fn record_selected_stream(
        &mut self,
        n: usize,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        k: usize,
        flops_per_elem: f64,
    ) {
        let p = self.nodes();
        let dist = self.layout.dist_for(n, p);
        let mut counts = vec![0usize; p];
        match mask {
            None => {
                for (node, c) in counts.iter_mut().enumerate() {
                    *c = dist.local_len(node);
                }
            }
            Some(_) => for_selected(n, mask, desc, |i| counts[dist.owner(i)] += 1),
        }
        for (node, &c) in counts.iter().enumerate() {
            self.tracker
                .record_compute(node, flops_per_elem * c as f64, stream_bytes(k, c));
        }
    }

    /// Records a purely local streaming step over the mask-selected subset
    /// of `n` elements, touching `k` vectors at `flops_per_elem` flops.
    pub fn record_stream(
        &mut self,
        n: usize,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        k: usize,
        flops_per_elem: f64,
    ) -> StepCost {
        self.record_selected_stream(n, mask, desc, k, flops_per_elem);
        self.tracker
            .end_local_step(self.class(KernelClass::Waxpby), self.scope.level)
    }

    /// Records a distributed reduction: a local streaming fold over the
    /// selection, then the scalar allreduce, one blocking superstep.
    pub fn record_reduction(
        &mut self,
        n: usize,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
        k: usize,
        flops_per_elem: f64,
    ) -> StepCost {
        self.record_selected_stream(n, mask, desc, k, flops_per_elem);
        self.record_allreduce();
        self.tracker
            .end_superstep(self.class(KernelClass::Dot), self.scope.level, false)
    }

    /// Records a local update stream followed by the allreduce of its
    /// fused norm — the cost shape of the fused `axpy`+norm: one stream
    /// instead of an update pass plus a separate two-vector reduction pass.
    pub fn record_stream_with_norm(&mut self, n: usize, k: usize, flops_per_elem: f64) {
        self.record_stream(n, None, Descriptor::DEFAULT, k, flops_per_elem);
        self.record_allreduce();
        self.tracker
            .end_superstep(self.class(KernelClass::Dot), self.scope.level, false);
    }

    /// Records one element-stream op over `n` elements: the one table from
    /// an `ElemOp` to the vectors its stream touches, its flops per
    /// selected element and whether an allreduce closes it.
    pub fn record_elementwise(
        &mut self,
        op: ElemOp,
        n: usize,
        mask: Option<&Vector<bool>>,
        desc: Descriptor,
    ) {
        let _closed = match op {
            ElemOp::Ewise { scaled } => {
                self.record_stream(n, mask, desc, 3, if scaled { 3.0 } else { 1.0 })
            }
            // A lambda typically reads a captured vector besides the
            // in-place output: billed like axpy (the xpay shape).
            ElemOp::Axpy | ElemOp::Transform => self.record_stream(n, mask, desc, 3, 2.0),
            ElemOp::Apply => self.record_stream(n, mask, desc, 2, 1.0),
            ElemOp::Dot => self.record_reduction(n, mask, desc, 2, 2.0),
            ElemOp::Reduce => self.record_reduction(n, mask, desc, 1, 1.0),
            ElemOp::AxpyNorm => return self.record_stream_with_norm(n, 3, 4.0),
        };
    }

    /// Records `mxm` as a setup-time step: each node multiplies its owned
    /// `A` rows after receiving every peer's share of `B` (the opaque-
    /// container layout again forces the full operand across the wire).
    pub fn record_mxm<T: crate::ops::scalar::Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
    ) -> StepCost {
        let p = self.nodes();
        // B travels like a vector allgather, weighted by its storage.
        let b_bytes_per_node = (b.nnz() * (8 + 4)) as f64 / p as f64;
        for from in 0..p {
            self.tracker.record_send_all(from, b_bytes_per_node);
        }
        let dist = self.layout.dist_for(a.nrows(), p);
        let mut flops = vec![0.0f64; p];
        for r in 0..a.nrows() {
            let node = dist.owner(r);
            let (cols, _) = a.row(r);
            for &c in cols {
                flops[node] += 2.0 * b.row_nnz(c as usize) as f64;
            }
        }
        for (node, &fl) in flops.iter().enumerate() {
            // The flop stream reads ~12 bytes per multiply-add (CSR value
            // + index of each operand row entry).
            self.tracker.record_compute(node, fl, fl * 6.0);
        }
        self.tracker
            .end_superstep(self.class(KernelClass::Other), self.scope.level, false)
    }
}

/// Drives `f(i)` over every index selected by `mask` under `desc` — the
/// same selection rules as `exec::for_each_selected`, in a plain `FnMut`
/// form the per-node counters need (cross-checked against the kernel-side
/// implementation in the tests below).
pub(crate) fn for_selected<F: FnMut(usize)>(
    n: usize,
    mask: Option<&Vector<bool>>,
    desc: Descriptor,
    mut f: F,
) {
    let Some(m) = mask else {
        for i in 0..n {
            f(i);
        }
        return;
    };
    if m.len() != n {
        // The kernel rejects the op before any cost is recorded; selecting
        // nothing keeps the recorder total consistent with "no work ran".
        return;
    }
    let inverted = desc.is_mask_inverted();
    match (m.pattern(), desc.is_structural()) {
        (Some(idx), true) if !inverted => {
            for &i in idx {
                f(i as usize);
            }
        }
        (None, true) if !inverted => {
            for i in 0..n {
                f(i);
            }
        }
        (Some(idx), true) => {
            let mut cursor = 0;
            for i in 0..n {
                if cursor < idx.len() && idx[cursor] as usize == i {
                    cursor += 1;
                } else {
                    f(i);
                }
            }
        }
        (None, true) => { /* complement of a dense structural mask is empty */ }
        (_, false) => {
            let vals = m.as_slice();
            for (i, &v) in vals.iter().enumerate() {
                if v != inverted {
                    f(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::for_each_selected;
    use crate::Sequential;
    use std::sync::Mutex;

    fn kernel_selection(n: usize, mask: Option<&Vector<bool>>, desc: Descriptor) -> Vec<usize> {
        let hits = Mutex::new(Vec::new());
        for_each_selected::<Sequential, _>(n, mask, desc, |i| hits.lock().unwrap().push(i))
            .unwrap();
        let mut v = hits.into_inner().unwrap();
        v.sort_unstable();
        v
    }

    fn recorder_selection(n: usize, mask: Option<&Vector<bool>>, desc: Descriptor) -> Vec<usize> {
        let mut v = Vec::new();
        for_selected(n, mask, desc, |i| v.push(i));
        v.sort_unstable();
        v
    }

    #[test]
    fn recorder_selection_matches_kernel_selection() {
        let sparse = Vector::<bool>::sparse_filled(9, vec![1, 4, 7], true).unwrap();
        let valued = Vector::<bool>::from_entries(9, &[(0, false), (3, true), (8, true)]).unwrap();
        let dense = Vector::<bool>::filled(9, true);
        let descs = [
            Descriptor::DEFAULT,
            Descriptor::STRUCTURAL,
            Descriptor::INVERT_MASK,
            Descriptor::STRUCTURAL.with(Descriptor::INVERT_MASK),
        ];
        for mask in [None, Some(&sparse), Some(&valued), Some(&dense)] {
            for desc in descs {
                assert_eq!(
                    recorder_selection(9, mask, desc),
                    kernel_selection(9, mask, desc),
                    "mask={:?} desc={desc:?}",
                    mask.map(|m| m.nnz())
                );
            }
        }
    }

    /// The per-node walk bills what an owner lookup per selected row would
    /// — whatever order the matrix stores its rows in.
    #[test]
    fn mxv_partition_is_the_selection_split_by_owner() {
        use crate::backend::dist::plan::tests::{irregular, stored_reversed};
        for a in [irregular(23, 31), stored_reversed(&irregular(23, 31))] {
            partition_splits_by_owner(&a);
        }
    }

    fn partition_splits_by_owner(a: &CsrMatrix<f64>) {
        let n = a.nrows();
        let sparse = Vector::<bool>::sparse_filled(n, vec![0, 3, 4, 11, 12, 22], true).unwrap();
        let valued = Vector::<bool>::from_entries(n, &[(0, false), (5, true), (13, true)]).unwrap();
        let descs = [
            Descriptor::DEFAULT,
            Descriptor::STRUCTURAL,
            Descriptor::STRUCTURAL.with(Descriptor::INVERT_MASK),
        ];
        for layout in [ShardLayout::Block, ShardLayout::BlockCyclic { block: 3 }] {
            for p in [1usize, 2, 3, 7] {
                let st = ClusterState::new(p, MachineParams::arm_cluster(), layout);
                let dist = layout.dist_for(n, p);
                for mask in [None, Some(&sparse), Some(&valued)] {
                    for desc in descs {
                        let (mut rows, mut nnzs) = (vec![0; p], vec![0; p]);
                        for_selected(n, mask, desc, |i| {
                            rows[dist.owner(i)] += 1;
                            nnzs[dist.owner(i)] += a.row_nnz(i);
                        });
                        assert_eq!(
                            st.mxv_partition(a, mask, desc),
                            (rows, nnzs),
                            "{layout:?} p={p} desc={desc:?} mask={:?}",
                            mask.map(|m| m.nnz())
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mismatched_mask_selects_nothing() {
        let m = Vector::<bool>::filled(3, true);
        let mut hits = 0;
        for_selected(5, Some(&m), Descriptor::DEFAULT, |_| hits += 1);
        assert_eq!(hits, 0);
    }

    #[test]
    fn allgather_matches_closed_form_on_even_split() {
        use bsp::collectives::allgather_h_bytes;
        let (n, p) = (512usize, 4usize);
        let mut st = ClusterState::new(p, MachineParams::arm_cluster(), ShardLayout::Block);
        st.record_input_exchange(n);
        let step = st.tracker.end_superstep(KernelClass::SpMV, None, false);
        assert_eq!(step.h_bytes, allgather_h_bytes(p, n / p, 8));
    }

    #[test]
    fn single_node_is_communication_free() {
        let mut st = ClusterState::new(1, MachineParams::arm_cluster(), ShardLayout::Block);
        st.record_input_exchange(100);
        st.record_allreduce();
        let step = st.tracker.end_superstep(KernelClass::Dot, None, false);
        assert_eq!(step.h_bytes, 0.0);
    }

    #[test]
    fn scope_overrides_class_and_level() {
        let mut st = ClusterState::new(2, MachineParams::arm_cluster(), ShardLayout::Block);
        st.scope = Scope {
            class: Some(KernelClass::Smoother),
            level: Some(3),
        };
        let step = st.record_stream(64, None, Descriptor::DEFAULT, 3, 2.0);
        assert_eq!(step.class, KernelClass::Smoother);
        assert_eq!(step.mg_level, Some(3));
    }
}
