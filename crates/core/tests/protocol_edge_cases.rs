//! Protocol edge cases on the simulated cluster: extreme report
//! fractions, degenerate worker counts, work-model scaling, and message
//! accounting — all through the builder / engine-trait API.

use pts_core::{Pts, PtsConfig, SearchStrategy, SyncPolicy, VirtualEngine, WorkModel};
use pts_netlist::{by_name, highway};
use pts_vcluster::topology::homogeneous;
use std::sync::Arc;

fn base() -> PtsConfig {
    PtsConfig {
        n_tsw: 3,
        n_clw: 2,
        global_iters: 2,
        local_iters: 4,
        search: SearchStrategy {
            candidates: 4,
            depth: 2,
            ..Default::default()
        },
        ..PtsConfig::default()
    }
}

#[test]
fn tiny_report_fraction_forces_after_first_report() {
    // quorum clamps to 1: after the very first report, everyone else is
    // forced. The protocol must still deliver exactly one report per TSW
    // per round.
    let run = Pts::from_config(base())
        .report_fraction(0.01)
        .sync(SyncPolicy::HalfReport)
        .build()
        .unwrap();
    let out = run.run_placement(Arc::new(highway()), &VirtualEngine::paper());
    assert!(out.outcome.best_cost < out.outcome.initial_cost);
    // 2 of 3 TSWs forced per global iteration (the first reporter is not).
    assert_eq!(
        out.outcome.forced_reports,
        2 * run.config().global_iters as u64
    );
}

#[test]
fn report_fraction_one_equals_wait_all() {
    // quorum == all children: HalfReport degenerates to WaitAll — nobody
    // is ever forced, and the outcome matches the WaitAll policy exactly
    // (same virtual schedule).
    let netlist = Arc::new(by_name("highway").unwrap());
    let run_frac = Pts::from_config(base())
        .report_fraction(1.0)
        .sync(SyncPolicy::HalfReport)
        .build()
        .unwrap();
    let run_all = Pts::from_config(base())
        .sync(SyncPolicy::WaitAll)
        .build()
        .unwrap();

    let a = run_frac.run_placement(netlist.clone(), &VirtualEngine::paper());
    let b = run_all.run_placement(netlist, &VirtualEngine::paper());
    assert_eq!(a.outcome.forced_reports, 0);
    assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
    assert_eq!(a.outcome.end_time, b.outcome.end_time);
}

#[test]
fn many_clws_few_cells() {
    // More CLWs than cells per range would be pathological; highway has
    // 56 cells and 8 CLWs still gives non-empty ranges (56/8 = 7).
    let run = Pts::from_config(base())
        .tsw_workers(1)
        .clw_workers(8)
        .build()
        .unwrap();
    let out = run.run_placement(Arc::new(highway()), &VirtualEngine::paper());
    assert!(out.outcome.best_cost < out.outcome.initial_cost);
}

#[test]
fn work_model_scales_virtual_time_not_quality() {
    // Doubling all work costs must double-ish the virtual runtime but
    // leave the search trajectory identical (same seeds, same decisions).
    let netlist = Arc::new(by_name("highway").unwrap());
    let engine = VirtualEngine::new(homogeneous(12));
    let cheap = Pts::from_config(base())
        .build()
        .unwrap()
        .run_placement(netlist.clone(), &engine);
    let costly = Pts::from_config(base())
        .work_model(WorkModel {
            per_trial: 2.0,
            per_commit: 4.0,
            per_tabu_check: 0.4,
            per_diversify_step: 3.0,
            per_report: 1.0,
        })
        .build()
        .unwrap()
        .run_placement(netlist, &engine);
    assert_eq!(
        cheap.outcome.best_cost, costly.outcome.best_cost,
        "work accounting must not change search decisions"
    );
    assert!(
        costly.outcome.end_time > cheap.outcome.end_time * 1.8,
        "doubled work must roughly double virtual time ({} vs {})",
        costly.outcome.end_time,
        cheap.outcome.end_time
    );
}

#[test]
fn message_accounting_is_complete() {
    let cfg = base();
    let run = Pts::from_config(cfg.clone()).build().unwrap();
    let out = run.run_placement(Arc::new(highway()), &VirtualEngine::paper());
    // Lower bound: every global iteration moves at least
    // (Investigate + Proposal) per CLW per local iteration plus reports
    // and broadcasts. Just sanity-check the magnitude.
    let min_msgs = (cfg.global_iters * cfg.local_iters) as u64 * (cfg.n_tsw * cfg.n_clw) as u64 * 2;
    assert!(
        out.report.total_messages() >= min_msgs,
        "{} messages < expected minimum {min_msgs}",
        out.report.total_messages()
    );
    assert!(out.report.total_bytes() > 0);
    // All processes did some work except possibly the master.
    for (rank, p) in out.report.per_proc.iter().enumerate().skip(1) {
        assert!(p.work_done > 0.0, "rank {rank} never computed");
    }
}

#[test]
fn utilization_is_sane() {
    let run = Pts::from_config(base()).build().unwrap();
    let out = run.run_placement(Arc::new(highway()), &VirtualEngine::paper());
    let u = out.report.utilization();
    assert!((0.0..=1.0).contains(&u));
    assert!(u > 0.05, "workers should spend some time computing: {u}");
}
