//! The virtual cluster makes the entire parallel search deterministic:
//! identical seeds must produce bit-identical outcomes, including virtual
//! timing — the property the paper's testbed could never offer.

use parallel_tabu_search::prelude::*;
use std::sync::Arc;

fn run(seed: u64, sync: SyncPolicy, netlist: Arc<Netlist>) -> PlacementRunOutput {
    Pts::builder()
        .tsw_workers(3)
        .clw_workers(2)
        .global_iters(3)
        .local_iters(5)
        .seed(seed)
        .sync(sync)
        .build()
        .unwrap()
        .run_placement(netlist, &VirtualEngine::paper())
}

#[test]
fn identical_seeds_replay_identically() {
    let netlist = Arc::new(by_name("c532").unwrap());
    for sync in [SyncPolicy::HalfReport, SyncPolicy::WaitAll] {
        let a = run(7, sync, netlist.clone());
        let b = run(7, sync, netlist.clone());
        assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
        assert_eq!(a.outcome.best_placement, b.outcome.best_placement);
        assert_eq!(a.outcome.end_time, b.outcome.end_time);
        assert_eq!(a.outcome.forced_reports, b.outcome.forced_reports);
        let ta: Vec<_> = a.outcome.trace.points().to_vec();
        let tb: Vec<_> = b.outcome.trace.points().to_vec();
        assert_eq!(ta.len(), tb.len());
        for (x, y) in ta.iter().zip(tb.iter()) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.best_cost, y.best_cost);
        }
        // Unified cluster metrics replay too.
        assert_eq!(a.report.total_messages(), b.report.total_messages());
        assert_eq!(a.report.total_bytes(), b.report.total_bytes());
        assert_eq!(a.report.end_time, b.report.end_time);
    }
}

#[test]
fn different_seeds_explore_differently() {
    let netlist = Arc::new(by_name("c532").unwrap());
    let a = run(1, SyncPolicy::HalfReport, netlist.clone());
    let b = run(2, SyncPolicy::HalfReport, netlist);
    assert_ne!(
        a.outcome.best_placement, b.outcome.best_placement,
        "different seeds should find different solutions"
    );
}

#[test]
fn vt_results_match_pinned_golden_values() {
    // Golden values of the default delta protocol, first captured on the
    // thread-per-process token scheduler the virtual cluster replaced
    // (the two were bit-identical on every golden) and reproduced by the
    // discrete-event vt engine since. Pinning them keeps the virtual
    // timeline bit-compatible with that lineage across refactors (RNG
    // salting, scheme freezing, scheduling, sharding, spawn order). If a
    // change is *supposed* to alter the search trajectory, wire sizes or
    // the timeline, update these constants deliberately in the same
    // commit.
    let netlist = Arc::new(by_name("highway").unwrap());
    let out = run(7, SyncPolicy::HalfReport, netlist);
    assert_eq!(out.outcome.initial_cost, 0.4545454545454546);
    assert_eq!(out.outcome.best_cost, 0.3443553378135912);
    assert_eq!(out.outcome.end_time, 356.3028146666666);
    assert_eq!(out.outcome.forced_reports, 3);
    assert_eq!(
        out.outcome.best_per_global_iter,
        vec![0.373612307065027, 0.3443553378135912, 0.3443553378135912]
    );
    assert_eq!(out.outcome.trace.points().len(), 11);
    assert_eq!(out.report.total_messages(), 357);
    assert_eq!(out.report.total_bytes(), 24708);
    assert_eq!(out.report.utilization(), 0.4536472596680329);
}

#[test]
fn sim_results_match_pinned_golden_values_delta_mode() {
    // Asking for `SnapshotMode::Delta` explicitly must reproduce the
    // default run above exactly: the delta protocol is the default, and
    // naming it changes nothing in the search, the wire sizes or the
    // virtual timeline.
    let netlist = Arc::new(by_name("highway").unwrap());
    let out = Pts::builder()
        .tsw_workers(3)
        .clw_workers(2)
        .global_iters(3)
        .local_iters(5)
        .seed(7)
        .sync(SyncPolicy::HalfReport)
        .snapshot_mode(SnapshotMode::Delta)
        .build()
        .unwrap()
        .run_placement(netlist, &VirtualEngine::paper());
    assert_eq!(out.outcome.initial_cost, 0.4545454545454546);
    assert_eq!(out.outcome.best_cost, 0.3443553378135912);
    assert_eq!(out.outcome.end_time, 356.3028146666666);
    assert_eq!(out.outcome.forced_reports, 3);
    assert_eq!(
        out.outcome.best_per_global_iter,
        vec![0.373612307065027, 0.3443553378135912, 0.3443553378135912]
    );
    assert_eq!(out.outcome.trace.points().len(), 11);
    assert_eq!(out.report.total_messages(), 357);
    assert_eq!(out.report.total_bytes(), 24708);
    assert_eq!(out.report.utilization(), 0.4536472596680329);
}

#[test]
fn vt_results_match_pinned_golden_values_full_mode() {
    // `SnapshotMode::Full` is the pre-delta wire format: same search as
    // the delta protocol above, more wire bytes, a slightly later
    // virtual finish. Every message size — and hence the whole virtual
    // timeline — must still match the pre-delta constants exactly: the
    // delta layer must be invisible when switched off.
    let netlist = Arc::new(by_name("highway").unwrap());
    let out = Pts::builder()
        .tsw_workers(3)
        .clw_workers(2)
        .global_iters(3)
        .local_iters(5)
        .seed(7)
        .sync(SyncPolicy::HalfReport)
        .snapshot_mode(SnapshotMode::Full)
        .build()
        .unwrap()
        .run_placement(netlist, &VirtualEngine::paper());
    assert_eq!(out.outcome.initial_cost, 0.4545454545454546);
    assert_eq!(out.outcome.best_cost, 0.3443553378135912);
    assert_eq!(out.outcome.end_time, 356.30363866666653);
    assert_eq!(out.outcome.forced_reports, 3);
    assert_eq!(
        out.outcome.best_per_global_iter,
        vec![0.373612307065027, 0.3443553378135912, 0.3443553378135912]
    );
    assert_eq!(out.outcome.trace.points().len(), 11);
    assert_eq!(out.report.total_messages(), 357);
    assert_eq!(out.report.total_bytes(), 28476);
    assert_eq!(out.report.utilization(), 0.4536462671315644);
}

#[test]
fn sharded_master_replays_identically() {
    // The sub-master tree must not cost determinism: identical seeds,
    // identical timeline — including the forces leaf sub-masters issue
    // under their local HalfReport quorum.
    let netlist = Arc::new(by_name("c532").unwrap());
    let run = |nl| {
        Pts::builder()
            .tsw_workers(5)
            .clw_workers(2)
            .global_iters(3)
            .local_iters(5)
            .seed(7)
            .sync(SyncPolicy::HalfReport)
            .shard_fanout(2)
            .build()
            .unwrap()
            .run_placement(nl, &VirtualEngine::paper())
    };
    let a = run(netlist.clone());
    let b = run(netlist);
    assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
    assert_eq!(a.outcome.best_placement, b.outcome.best_placement);
    assert_eq!(a.outcome.end_time, b.outcome.end_time);
    assert_eq!(a.outcome.forced_reports, b.outcome.forced_reports);
    assert_eq!(a.report.total_messages(), b.report.total_messages());
    assert_eq!(a.report.total_bytes(), b.report.total_bytes());
}

#[test]
fn qap_pipeline_is_deterministic_too() {
    let domain = QapDomain::random(24, 11);
    let run = Pts::builder()
        .tsw_workers(3)
        .clw_workers(2)
        .global_iters(3)
        .local_iters(5)
        .seed(7)
        .build()
        .unwrap();
    let a = run.execute(&domain, &VirtualEngine::paper());
    let b = run.execute(&domain, &VirtualEngine::paper());
    assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
    assert_eq!(a.outcome.best, b.outcome.best);
    assert_eq!(a.outcome.end_time, b.outcome.end_time);
    assert_eq!(a.report.total_messages(), b.report.total_messages());
}

#[test]
fn tabu_delta_changes_bytes_but_never_the_trajectory() {
    // The broadcast tabu-delta knob is a pure wire optimization: the
    // resolved tabu list is exactly the sender's, so the search must be
    // move-for-move identical with it on or off — same best cost, same
    // placement, same per-round history, same message count. Only wire
    // bytes (and hence the virtual timeline) may shrink, never grow.
    let netlist = Arc::new(by_name("highway").unwrap());
    let run = |tabu_delta: bool, nl| {
        Pts::builder()
            .tsw_workers(3)
            .clw_workers(2)
            .global_iters(3)
            .local_iters(5)
            .seed(7)
            .sync(SyncPolicy::HalfReport)
            .tabu_delta(tabu_delta)
            .build()
            .unwrap()
            .run_placement(nl, &VirtualEngine::paper())
    };
    let off = run(false, netlist.clone());
    let on = run(true, netlist);
    assert_eq!(on.outcome.best_cost, off.outcome.best_cost);
    assert_eq!(on.outcome.best_placement, off.outcome.best_placement);
    assert_eq!(
        on.outcome.best_per_global_iter,
        off.outcome.best_per_global_iter
    );
    assert_eq!(on.outcome.forced_reports, off.outcome.forced_reports);
    assert_eq!(on.report.total_messages(), off.report.total_messages());
    assert!(
        on.report.total_bytes() <= off.report.total_bytes(),
        "tabu delta must never cost bytes: {} > {}",
        on.report.total_bytes(),
        off.report.total_bytes()
    );
}

#[test]
fn two_strategy_portfolio_replays_identically() {
    // A heterogeneous portfolio adds strategy stamps to the wire, a
    // quality-rate reduction at leaf sub-masters, and the root's
    // epsilon-greedy reallocator — all of which must be functions of the
    // run seed alone: identical seeds replay the whole timeline
    // bit-identically, reallocation decisions included.
    let netlist = Arc::new(by_name("c532").unwrap());
    let strategies = [
        SearchStrategy {
            tenure: 5,
            candidates: 6,
            depth: 3,
            ..Default::default()
        },
        SearchStrategy {
            tenure: 13,
            candidates: 4,
            depth: 2,
            ..Default::default()
        },
    ];
    let run = |nl| {
        Pts::builder()
            .tsw_workers(4)
            .clw_workers(2)
            .global_iters(3)
            .local_iters(5)
            .seed(7)
            .sync(SyncPolicy::HalfReport)
            .shard_fanout(2)
            .portfolio(strategies)
            .build()
            .unwrap()
            .run_placement(nl, &VirtualEngine::paper())
    };
    let a = run(netlist.clone());
    let b = run(netlist);
    assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
    assert_eq!(a.outcome.best_placement, b.outcome.best_placement);
    assert_eq!(a.outcome.end_time, b.outcome.end_time);
    assert_eq!(a.outcome.forced_reports, b.outcome.forced_reports);
    assert_eq!(a.report.total_messages(), b.report.total_messages());
    assert_eq!(a.report.total_bytes(), b.report.total_bytes());
    assert_eq!(a.report.per_proc, b.report.per_proc);
}

#[test]
fn sequential_baseline_is_deterministic() {
    let netlist = Arc::new(by_name("highway").unwrap());
    let cfg = PtsConfig {
        n_tsw: 3,
        n_clw: 2,
        global_iters: 3,
        local_iters: 5,
        seed: 9,
        ..PtsConfig::default()
    };
    let a = run_sequential_baseline(&cfg, netlist.clone());
    let b = run_sequential_baseline(&cfg, netlist);
    assert_eq!(a.best_cost, b.best_cost);
    assert_eq!(a.stats, b.stats);
}
