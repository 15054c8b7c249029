//! The virtual-time cooperative engine ("vt"): the paper's
//! heterogeneous testbed, at thousand-worker scale.
//!
//! The paper's measurements need a timing model — machine speeds,
//! background load, message latency — under a deterministic virtual
//! clock. [`VirtualEngine`] runs the master/TSW/CLW protocol as futures
//! on [`pts_vcluster::virtual_runtime::VirtualTaskCluster`], a
//! discrete-event scheduler whose `compute` and `recv` suspend under
//! that clock and machine model. Identical inputs replay bit-identically
//! — end time, utilization, per-process accounting, forced reports and
//! the search trajectory (the `determinism` and `vt_scenarios`
//! integration suites pin golden values) — while an `n_tsw = 1024`
//! heterogeneous run fits in one OS thread's worth of resources. This is
//! what lets the paper's utilization/speedup and half-report-vs-wait-all
//! claims be measured far beyond the twelve workstations of the original
//! testbed, deterministically, in CI.

use crate::config::PtsConfig;
use crate::control::RunControl;
use crate::domain::{PtsDomain, SearchOutcome, SnapshotOf};
use crate::engine::{run_worker, EngineOutput, ExecutionEngine};
use crate::fault::{Contention, FaultSpec};
use crate::master::run_master;
use crate::messages::PtsMsg;
use crate::report::{ClockDomain, RunReport};
use crate::transport::VirtualTransport;
use pts_vcluster::topology::{paper_cluster, round_robin_assignment};
use pts_vcluster::{ClusterSpec, VirtualTaskCluster};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Virtual-time cooperative engine: the deterministic heterogeneous
/// cluster timing model at cooperative-futures scale.
///
/// ```
/// use pts_core::{Pts, VirtualEngine};
/// use pts_core::qap_domain::QapDomain;
///
/// let run = Pts::builder()
///     .tsw_workers(3)
///     .clw_workers(2)
///     .global_iters(2)
///     .local_iters(3)
///     .seed(5)
///     .build()
///     .expect("valid configuration");
/// let domain = QapDomain::random(16, 2);
/// let a = run.execute(&domain, &VirtualEngine::paper());
/// let b = run.execute(&domain, &VirtualEngine::paper());
/// // Deterministic virtual timeline — bit for bit.
/// assert_eq!(a.report.end_time, b.report.end_time);
/// assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
/// assert_eq!(a.report.engine, "vt");
/// ```
#[derive(Clone, Debug)]
pub struct VirtualEngine {
    cluster: ClusterSpec,
    contention: Contention,
    faults: FaultSpec,
}

impl VirtualEngine {
    /// Simulate an arbitrary cluster description.
    pub fn new(cluster: ClusterSpec) -> VirtualEngine {
        VirtualEngine {
            cluster,
            contention: Contention::default(),
            faults: FaultSpec::default(),
        }
    }

    /// The paper's twelve-machine cluster (7 fast / 3 medium / 2 slow).
    pub fn paper() -> VirtualEngine {
        VirtualEngine::new(paper_cluster())
    }

    /// The cluster this engine simulates.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Model per-machine contention: processes sharing a machine
    /// time-slice it, so oversubscribed runs cost more virtual time.
    /// The default ([`Contention::Exclusive`]) is the classic model the
    /// pinned goldens were captured under.
    pub fn with_contention(mut self, contention: Contention) -> VirtualEngine {
        self.contention = contention;
        self
    }

    /// Inject a worker-level fault scenario into the run. An empty spec
    /// (the default) leaves the timeline bit-identical to the fault-free
    /// engine.
    pub fn with_faults(mut self, faults: FaultSpec) -> VirtualEngine {
        self.faults = faults;
        self
    }
}

impl<D: PtsDomain> ExecutionEngine<D> for VirtualEngine {
    fn name(&self) -> &'static str {
        "vt"
    }

    fn execute(&self, cfg: &PtsConfig, domain: &D, initial: SnapshotOf<D>) -> EngineOutput<D> {
        let wall = Instant::now();
        let assignment = round_robin_assignment(&self.cluster, cfg.total_procs());
        let mut cluster: VirtualTaskCluster<PtsMsg<D::Problem>> =
            VirtualTaskCluster::new(self.cluster.clone());
        cluster.set_contention(self.contention);
        if !self.faults.is_empty() {
            // Task ids equal protocol ranks (spawn order below), so the
            // worker-level spec lowers directly onto runtime task ids.
            cluster.set_fault_plan(self.faults.resolve::<D::Problem>(cfg, &assignment));
        }
        let outcome_slot: Rc<RefCell<Option<SearchOutcome<SnapshotOf<D>>>>> =
            Rc::new(RefCell::new(None));

        // Task 0: master, then every worker rank. Spawn order must equal
        // rank order (VirtualTransport identifies rank with task id, and
        // fault specs lower onto task ids).
        {
            let cfg = cfg.clone();
            let domain = domain.clone();
            let slot = Rc::clone(&outcome_slot);
            cluster.spawn(assignment[0], move |ctx| async move {
                let mut t = VirtualTransport { ctx };
                let outcome =
                    run_master(&mut t, &cfg, &domain, initial, &RunControl::unlimited()).await;
                *slot.borrow_mut() = Some(outcome);
            });
        }
        for (rank, &machine) in assignment.iter().enumerate().skip(1) {
            let cfg = cfg.clone();
            let domain = domain.clone();
            cluster.spawn(machine, move |ctx| async move {
                let mut t = VirtualTransport { ctx };
                run_worker(&mut t, &cfg, &domain, rank).await;
            });
        }
        debug_assert_eq!(cluster.num_spawned(), cfg.total_procs());

        let cluster_report = cluster.run();
        let outcome = outcome_slot
            .borrow_mut()
            .take()
            .expect("master deposits its outcome");
        EngineOutput {
            outcome,
            report: RunReport {
                engine: "vt",
                clock: ClockDomain::Virtual,
                end_time: cluster_report.end_time,
                wall_seconds: wall.elapsed().as_secs_f64(),
                per_proc: cluster_report.per_proc,
                dead_ranks: vec![],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Pts;
    use crate::qap_domain::QapDomain;

    fn small_run() -> crate::builder::PtsRun {
        Pts::builder()
            .tsw_workers(3)
            .clw_workers(2)
            .global_iters(2)
            .local_iters(4)
            .candidates(4)
            .depth(2)
            .seed(42)
            .build()
            .unwrap()
    }

    #[test]
    fn vt_engine_runs_qap_pipeline_in_virtual_time() {
        let domain = QapDomain::random(20, 5);
        let out = small_run().execute(&domain, &VirtualEngine::paper());
        assert!(out.outcome.best_cost <= out.outcome.initial_cost);
        assert_eq!(out.report.engine, "vt");
        assert_eq!(out.report.clock, ClockDomain::Virtual);
        assert_eq!(out.report.num_procs(), small_run().config().total_procs());
        assert!(out.report.end_time > 0.0, "virtual time must advance");
        // Virtual utilization is meaningful: busy and wait both accrue.
        let u = out.report.utilization();
        assert!(u > 0.0 && u <= 1.0, "vt utilization {u} not in (0, 1]");
        for (rank, p) in out.report.per_proc.iter().enumerate().skip(1) {
            assert!(p.messages_sent > 0, "rank {rank} sent nothing");
            assert!(p.busy_time > 0.0, "rank {rank} never computed");
        }
    }

    #[test]
    fn vt_engine_is_deterministic() {
        let domain = QapDomain::random(18, 9);
        let a = small_run().execute(&domain, &VirtualEngine::paper());
        let b = small_run().execute(&domain, &VirtualEngine::paper());
        assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
        assert_eq!(a.report.end_time, b.report.end_time);
        assert_eq!(a.report.per_proc, b.report.per_proc);
    }
}
