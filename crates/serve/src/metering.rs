//! Per-tenant cost accounting.
//!
//! Every job a tenant runs is billed in the same currency the
//! distributed backend already speaks: BSP [`StepCost`] supersteps.
//! Jobs that actually ran on a `dist:<p>` cluster contribute the steps
//! that cluster recorded (taken with `Distributed::take_steps` right
//! after the job, while the worker still owns the cluster exclusively).
//! Jobs that ran on `seq`/`par` are charged through a dedicated 1-node
//! *gauge* cluster: the worker sets the tenant's kernel class as the
//! attribution scope (`Distributed::set_scope`), records the job's
//! touched-data volume as a local stream, and takes the tagged steps —
//! so one `CostSummary` mechanism prices every backend. Each tenant keeps
//! one running [`CostSummary`] that charges are folded into
//! ([`CostSummary::absorb`]) — never the steps themselves, so a tenant's
//! state and the cost of a snapshot stay constant however long it lives.

use crate::protocol::MeterSnapshot;
use bsp::{KernelClass, StepCost};
use graphblas::{CostSummary, Distributed};
use std::collections::HashMap;
use std::sync::Mutex;

struct TenantState {
    /// Every step charged so far, folded in charge order.
    cost: CostSummary,
    jobs: u64,
    plan_hits: u64,
    plan_misses: u64,
    frontier_push: u64,
    frontier_pull: u64,
}

impl Default for TenantState {
    fn default() -> TenantState {
        TenantState {
            cost: CostSummary::from_steps(1, "tenant", &[]),
            jobs: 0,
            plan_hits: 0,
            plan_misses: 0,
            frontier_push: 0,
            frontier_pull: 0,
        }
    }
}

struct Inner {
    tenants: HashMap<String, TenantState>,
    gauge: Distributed,
}

/// Thread-safe per-tenant meter shared by all workers.
pub struct Metering {
    inner: Mutex<Inner>,
}

impl Metering {
    /// Creates a meter with its private 1-node gauge cluster.
    pub fn new() -> Metering {
        Metering {
            inner: Mutex::new(Inner {
                tenants: HashMap::new(),
                gauge: Distributed::new(1),
            }),
        }
    }

    /// Bills `tenant` for a local (`seq`/`par`) job: `n` elements
    /// streamed across `k` logical vectors, attributed to `class`. The
    /// gauge cluster converts the volume into modeled seconds under the
    /// same machine model distributed jobs are priced with.
    pub fn charge_local(&self, tenant: &str, class: KernelClass, n: usize, k: usize) {
        let mut inner = self.inner.lock().expect("meter lock poisoned");
        let gauge = inner.gauge;
        gauge.set_scope(Some(class), None);
        gauge.record_local_stream(n, k);
        gauge.clear_scope();
        let steps = gauge.take_steps();
        inner
            .tenants
            .entry(tenant.to_string())
            .or_default()
            .cost
            .absorb(&steps);
    }

    /// Bills `tenant` with steps recorded by the cluster a distributed
    /// job actually ran on.
    pub fn charge_steps(&self, tenant: &str, steps: Vec<StepCost>) {
        if steps.is_empty() {
            return;
        }
        self.inner
            .lock()
            .expect("meter lock poisoned")
            .tenants
            .entry(tenant.to_string())
            .or_default()
            .cost
            .absorb(&steps);
    }

    /// Records one compiled-plan cache lookup made on `tenant`'s behalf —
    /// a hit means the job replayed an already-fused plan, a miss that it
    /// paid the one-time record+fuse cost. Surfaced in every
    /// [`MeterSnapshot`] so tenants can see their amortization.
    pub fn note_plan(&self, tenant: &str, hit: bool) {
        let mut inner = self.inner.lock().expect("meter lock poisoned");
        let state = inner.tenants.entry(tenant.to_string()).or_default();
        if hit {
            state.plan_hits += 1;
        } else {
            state.plan_misses += 1;
        }
    }

    /// Records the push/pull decisions a traversal job made on `tenant`'s
    /// behalf: each sparse-frontier `mxv` step ran in one of the two
    /// direction-optimized orientations. Surfaced in every
    /// [`MeterSnapshot`] so tenants can see the frontier machinery work.
    pub fn note_frontier(&self, tenant: &str, stats: graphblas::algorithms::FrontierStats) {
        if stats.steps() == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("meter lock poisoned");
        let state = inner.tenants.entry(tenant.to_string()).or_default();
        state.frontier_push += stats.push_steps as u64;
        state.frontier_pull += stats.pull_steps as u64;
    }

    /// Marks one job finished for `tenant` and returns the cumulative
    /// snapshot the response carries.
    pub fn complete_job(&self, tenant: &str) -> MeterSnapshot {
        let mut inner = self.inner.lock().expect("meter lock poisoned");
        let state = inner.tenants.entry(tenant.to_string()).or_default();
        state.jobs += 1;
        MeterSnapshot {
            modeled_secs: state.cost.total_secs,
            h_bytes: state.cost.total_h_bytes,
            supersteps: state.cost.supersteps,
            jobs: state.jobs,
            plan_hits: state.plan_hits,
            plan_misses: state.plan_misses,
            frontier_push: state.frontier_push,
            frontier_pull: state.frontier_pull,
        }
    }

    /// The tenant's full per-class cost breakdown (`None` if the tenant
    /// has never completed a job).
    pub fn summary(&self, tenant: &str) -> Option<CostSummary> {
        let inner = self.inner.lock().expect("meter lock poisoned");
        inner.tenants.get(tenant).map(|s| s.cost.clone())
    }

    /// All tenants that have been billed, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("meter lock poisoned");
        let mut names: Vec<String> = inner.tenants.keys().cloned().collect();
        names.sort();
        names
    }
}

impl Default for Metering {
    fn default() -> Metering {
        Metering::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_charges_accumulate_under_the_scoped_class() {
        let m = Metering::new();
        m.charge_local("acme", KernelClass::SpMV, 1024, 1);
        m.charge_local("acme", KernelClass::Dot, 1024, 2);
        let s = m.summary("acme").unwrap();
        assert_eq!(s.supersteps, 2);
        assert!(s.total_secs > 0.0);
        let classes: Vec<KernelClass> = s.per_class.iter().map(|c| c.class).collect();
        assert_eq!(classes, vec![KernelClass::SpMV, KernelClass::Dot]);
    }

    #[test]
    fn tenants_are_disjoint() {
        let m = Metering::new();
        m.charge_local("a", KernelClass::SpMV, 100, 1);
        m.charge_local("b", KernelClass::Dot, 200, 2);
        let sa = m.summary("a").unwrap();
        let sb = m.summary("b").unwrap();
        assert_eq!(sa.supersteps, 1);
        assert_eq!(sb.supersteps, 1);
        assert_eq!(sa.per_class[0].class, KernelClass::SpMV);
        assert_eq!(sb.per_class[0].class, KernelClass::Dot);
        assert!(m.summary("c").is_none());
    }

    #[test]
    fn plan_lookups_are_metered_per_tenant() {
        let m = Metering::new();
        m.note_plan("t", false);
        m.note_plan("t", true);
        m.note_plan("t", true);
        m.note_plan("other", false);
        let s = m.complete_job("t");
        assert_eq!((s.plan_hits, s.plan_misses), (2, 1));
        let o = m.complete_job("other");
        assert_eq!((o.plan_hits, o.plan_misses), (0, 1));
    }

    #[test]
    fn frontier_decisions_are_metered_per_tenant() {
        use graphblas::algorithms::FrontierStats;
        let m = Metering::new();
        m.note_frontier(
            "t",
            FrontierStats {
                push_steps: 3,
                pull_steps: 2,
            },
        );
        m.note_frontier(
            "t",
            FrontierStats {
                push_steps: 1,
                pull_steps: 0,
            },
        );
        // Zero-step traversals do not create tenant state.
        m.note_frontier("idle", FrontierStats::default());
        let s = m.complete_job("t");
        assert_eq!((s.frontier_push, s.frontier_pull), (4, 2));
        assert!(!m.tenants().contains(&"idle".to_string()));
    }

    #[test]
    fn snapshots_count_jobs_cumulatively() {
        let m = Metering::new();
        m.charge_local("t", KernelClass::SpMV, 10, 1);
        let s1 = m.complete_job("t");
        m.charge_local("t", KernelClass::SpMV, 10, 1);
        let s2 = m.complete_job("t");
        assert_eq!(s1.jobs, 1);
        assert_eq!(s2.jobs, 2);
        assert!(s2.modeled_secs >= s1.modeled_secs);
        assert_eq!(s2.supersteps, 2);
        // A tenant that only ran `stats` is charged nothing: +0.0, not the
        // -0.0 an empty float sum starts from.
        let idle = m.complete_job("stats-only");
        assert_eq!(idle.modeled_secs.to_bits(), 0);
        assert_eq!(idle.h_bytes.to_bits(), 0);
    }

    #[test]
    fn long_lived_tenant_keeps_a_running_summary_not_its_steps() {
        let m = Metering::new();
        // The same charges on a gauge of our own, steps kept.
        let side = Distributed::new(1);
        let mut steps = Vec::new();
        let mut last = None;
        for i in 0..10_000usize {
            let (class, n, k) = if i % 3 == 0 {
                (KernelClass::Dot, 64 + i % 7, 2)
            } else {
                (KernelClass::SpMV, 1024 + i % 5, 1)
            };
            m.charge_local("t", class, n, k);
            last = Some(m.complete_job("t"));
            side.set_scope(Some(class), None);
            side.record_local_stream(n, k);
            side.clear_scope();
            steps.extend(side.take_steps());
        }
        let want = CostSummary::from_steps(1, "tenant", &steps);
        let snap = last.expect("jobs completed");
        assert_eq!(snap.modeled_secs.to_bits(), want.total_secs.to_bits());
        assert_eq!(snap.h_bytes.to_bits(), want.total_h_bytes.to_bits());
        assert_eq!((snap.supersteps, snap.jobs), (want.supersteps, 10_000));
        let got = m.summary("t").expect("tenant was billed");
        assert_eq!(got.per_class.len(), want.per_class.len());
        for (g, w) in got.per_class.iter().zip(&want.per_class) {
            assert_eq!((g.class, g.steps), (w.class, w.steps));
            assert_eq!(g.secs.to_bits(), w.secs.to_bits());
            assert_eq!(g.h_bytes.to_bits(), w.h_bytes.to_bits());
        }
        // The per-class rows are the tenant's only growable storage.
        let inner = m.inner.lock().expect("meter lock poisoned");
        assert_eq!(inner.tenants["t"].cost.per_class.len(), 2);
    }
}
