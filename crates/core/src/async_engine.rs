//! The cooperative async engine: thousands of logical workers on one
//! OS thread, on a homogeneous virtual cluster.
//!
//! [`ThreadEngine`](crate::engine::ThreadEngine) spends one OS thread
//! per logical process, which caps `n_tsw` at what the host will give us
//! in threads and stacks (a few thousand at best, with megabytes of stack
//! each). [`AsyncEngine`] runs the *same* master/TSW/CLW protocol as
//! cooperatively scheduled futures, so `n_tsw` in the thousands fits in
//! one thread's worth of OS resources.
//!
//! It is a preset of [`VirtualEngine`], not an executor of its own: the
//! run goes through the discrete-event runtime on
//! [`topology::homogeneous(1)`](pts_vcluster::topology::homogeneous) —
//! every rank gets a dedicated unit-speed CPU (the default
//! [`Contention::Exclusive`](crate::fault::Contention) model), and every
//! message crosses a loopback link. That is the paper's homogeneous
//! control condition. The report is marked `"async"` and, like any vt
//! run, carries [`ClockDomain::Virtual`](crate::report::ClockDomain)
//! times; `wall_seconds` is host time. Identical inputs replay
//! bit-identically, and the `engines_agree` and `proc_engine` suites pin
//! its search results against the other engines.

use crate::config::PtsConfig;
use crate::domain::{PtsDomain, SnapshotOf};
use crate::engine::{EngineOutput, ExecutionEngine};
use crate::virtual_engine::VirtualEngine;
use pts_vcluster::topology::homogeneous;

/// Cooperative-futures engine: the whole PTS process tree multiplexed on
/// the calling thread, one unit-speed virtual CPU per rank.
///
/// Construction is free of configuration — every run-shape decision lives
/// in the validated [`PtsConfig`] (see [`crate::builder::Pts::builder`]).
///
/// ```
/// use pts_core::{AsyncEngine, Pts};
/// use pts_core::qap_domain::QapDomain;
///
/// let run = Pts::builder()
///     .tsw_workers(64) // one OS thread would be 193 with ThreadEngine
///     .clw_workers(2)
///     .global_iters(2)
///     .local_iters(2)
///     .seed(11)
///     .build()
///     .expect("valid configuration");
/// let out = run.execute(&QapDomain::random(24, 3), &AsyncEngine::new());
/// assert!(out.outcome.best_cost <= out.outcome.initial_cost);
/// assert_eq!(out.report.engine, "async");
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct AsyncEngine;

impl AsyncEngine {
    /// A new cooperative engine (stateless — all state is per-run).
    pub fn new() -> AsyncEngine {
        AsyncEngine
    }
}

impl<D: PtsDomain> ExecutionEngine<D> for AsyncEngine {
    fn name(&self) -> &'static str {
        "async"
    }

    fn execute(&self, cfg: &PtsConfig, domain: &D, initial: SnapshotOf<D>) -> EngineOutput<D> {
        let mut out = VirtualEngine::new(homogeneous(1)).execute(cfg, domain, initial);
        out.report.engine = "async";
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Pts;
    use crate::qap_domain::QapDomain;
    use crate::report::ClockDomain;

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
    fn async_engine_runs_qap_pipeline() {
        let domain = QapDomain::random(20, 5);
        let out = small_run().execute(&domain, &AsyncEngine::new());
        assert!(out.outcome.best_cost <= out.outcome.initial_cost);
        assert_eq!(out.report.engine, "async");
        assert_eq!(out.report.clock, ClockDomain::Virtual);
        assert_eq!(out.report.num_procs(), small_run().config().total_procs());
        assert!(out.report.total_messages() > 0);
        // Every worker computed and communicated.
        for (rank, p) in out.report.per_proc.iter().enumerate().skip(1) {
            assert!(p.messages_sent > 0, "rank {rank} sent nothing");
            assert!(p.work_done > 0.0, "rank {rank} never computed");
        }
    }

    #[test]
    fn async_engine_is_deterministic() {
        let domain = QapDomain::random(18, 9);
        let a = small_run().execute(&domain, &AsyncEngine::new());
        let b = small_run().execute(&domain, &AsyncEngine::new());
        assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
        assert_eq!(
            a.outcome.best_per_global_iter, b.outcome.best_per_global_iter,
            "cooperative schedule must replay identically"
        );
        assert_eq!(a.report.total_messages(), b.report.total_messages());
    }

    #[test]
    fn clw_half_report_has_an_effect_on_the_cooperative_schedule() {
        // Every `compute` suspends the CLW until its charged work is done,
        // so a TSW that reaches quorum runs mid-investigation and its
        // `CutShort` is in the straggler's mailbox at the next poll, even
        // on the single-threaded executor. If CLWs ran whole
        // investigations without suspending, CutShort would always arrive
        // stale and HalfReport would be indistinguishable from WaitAll at
        // this tier.
        use crate::config::SyncPolicy;
        let domain = QapDomain::random(32, 21);
        let outcome_with = |clw_sync: SyncPolicy| {
            Pts::builder()
                .tsw_workers(2)
                .clw_workers(4)
                .global_iters(2)
                .local_iters(6)
                .candidates(4)
                .depth(4)
                .tsw_sync(SyncPolicy::WaitAll)
                .clw_sync(clw_sync)
                .report_fraction(0.5)
                .seed(77)
                .build()
                .unwrap()
                .execute(&domain, &AsyncEngine::new())
        };
        let half = outcome_with(SyncPolicy::HalfReport);
        let all = outcome_with(SyncPolicy::WaitAll);
        assert_ne!(
            half.outcome.best_per_global_iter, all.outcome.best_per_global_iter,
            "cut-short proposals must alter the search trajectory"
        );
    }
}
