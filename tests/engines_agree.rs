//! The native thread engine, the two cooperative engines (async, vt) and
//! the process engine run the same protocol code behind one
//! `ExecutionEngine` trait; all must produce valid, improving searches
//! with the same unified report shape — and the deterministic engines
//! (async and vt, the simulated cluster) must agree on the search itself.

use parallel_tabu_search::prelude::*;
use std::sync::Arc;

fn run() -> PtsRun {
    Pts::builder()
        .tsw_workers(2)
        .clw_workers(2)
        .global_iters(2)
        .local_iters(5)
        .candidates(6)
        .depth(2)
        .build()
        .unwrap()
}

#[test]
fn all_engines_improve_and_stay_consistent() {
    let netlist = Arc::new(by_name("c532").unwrap());
    let engines: [&dyn ExecutionEngine<PlacementDomain>; 3] =
        [&ThreadEngine, &AsyncEngine::new(), &VirtualEngine::paper()];
    let mut initial_costs = Vec::new();
    for engine in engines {
        let out = run().run_placement(netlist.clone(), engine);
        let o = &out.outcome;
        assert!(
            o.best_cost < o.initial_cost,
            "{}: must improve ({} -> {})",
            engine.name(),
            o.initial_cost,
            o.best_cost
        );
        o.best_placement.check_consistency().unwrap();
        assert!(o.best_cost >= 0.0);
        assert_eq!(out.report.engine, engine.name());
        assert_eq!(out.report.num_procs(), run().config().total_procs());
        assert!(out.report.total_messages() > 0, "{}", engine.name());
        initial_costs.push(o.initial_cost);
    }
    // Same frozen cost scheme ⇒ identical initial cost across engines.
    for cost in &initial_costs[1..] {
        assert!((initial_costs[0] - cost).abs() < 1e-12);
    }
}

#[test]
fn vt_engine_matches_async_and_threads_best_cost_under_wait_all() {
    // Under WaitAll nothing in the search trajectory depends on timing
    // (no ForceReport/CutShort is ever sent), so the virtual-clock vt
    // engine, the homogeneous async engine, and the genuinely parallel thread
    // engine must all walk the exact same search, round for round.
    let domain = QapDomain::random(24, 3);
    let run = Pts::builder()
        .tsw_workers(3)
        .clw_workers(2)
        .global_iters(3)
        .local_iters(4)
        .candidates(5)
        .depth(2)
        .sync(SyncPolicy::WaitAll)
        .seed(0xFEED)
        .build()
        .unwrap();
    let vt = run.execute(&domain, &VirtualEngine::paper());
    let task = run.execute(&domain, &AsyncEngine::new());
    let thr = run.execute(&domain, &ThreadEngine);
    assert_eq!(vt.outcome.initial_cost, task.outcome.initial_cost);
    assert_eq!(
        vt.outcome.best_per_global_iter, task.outcome.best_per_global_iter,
        "vt diverged from the async engine mid-search"
    );
    assert_eq!(vt.outcome.best_cost, task.outcome.best_cost);
    assert_eq!(vt.outcome.best_cost, thr.outcome.best_cost);
    assert_eq!(
        vt.outcome.best_per_global_iter, thr.outcome.best_per_global_iter,
        "vt diverged from the thread engine mid-search"
    );
    assert_eq!(vt.outcome.forced_reports, 0);
}

#[test]
fn async_engine_matches_sim_best_cost_under_wait_all() {
    // Under WaitAll nothing in the search trajectory depends on timing
    // (no ForceReport/CutShort is ever sent), so the two deterministic
    // engines — heterogeneous and homogeneous virtual time — must walk the exact
    // same search and land on the same best cost, round for round.
    let domain = QapDomain::random(24, 3);
    let run = Pts::builder()
        .tsw_workers(3)
        .clw_workers(2)
        .global_iters(3)
        .local_iters(4)
        .candidates(5)
        .depth(2)
        .sync(SyncPolicy::WaitAll)
        .seed(0xFEED)
        .build()
        .unwrap();
    let vt = run.execute(&domain, &VirtualEngine::paper());
    let task = run.execute(&domain, &AsyncEngine::new());
    assert_eq!(vt.outcome.initial_cost, task.outcome.initial_cost);
    assert_eq!(
        vt.outcome.best_per_global_iter, task.outcome.best_per_global_iter,
        "engines diverged mid-search"
    );
    assert_eq!(vt.outcome.best_cost, task.outcome.best_cost);
    assert_eq!(vt.outcome.forced_reports, 0);
    assert_eq!(task.outcome.forced_reports, 0);
}

#[test]
fn sharded_master_with_covering_fanout_is_bit_identical_to_flat() {
    // shard_fanout >= n_tsw keeps the flat topology: same ranks, same
    // messages, same virtual timeline — the sharded code path must be
    // byte-for-byte today's master.
    let domain = QapDomain::random(24, 3);
    let build = |fanout: usize, sync: SyncPolicy| {
        Pts::builder()
            .tsw_workers(3)
            .clw_workers(2)
            .global_iters(3)
            .local_iters(4)
            .candidates(5)
            .depth(2)
            .sync(sync)
            .shard_fanout(fanout)
            .seed(0xFEED)
            .build()
            .unwrap()
    };
    for sync in [SyncPolicy::WaitAll, SyncPolicy::HalfReport] {
        let flat = build(0, sync).execute(&domain, &VirtualEngine::paper());
        let covering = build(3, sync).execute(&domain, &VirtualEngine::paper());
        assert_eq!(covering.report.num_procs(), flat.report.num_procs());
        assert_eq!(
            flat.outcome.best_per_global_iter,
            covering.outcome.best_per_global_iter
        );
        assert_eq!(flat.outcome.best_cost, covering.outcome.best_cost);
        assert_eq!(flat.outcome.best, covering.outcome.best);
        assert_eq!(flat.outcome.end_time, covering.outcome.end_time);
        assert_eq!(flat.outcome.forced_reports, covering.outcome.forced_reports);
        assert_eq!(
            flat.report.total_messages(),
            covering.report.total_messages()
        );
        assert_eq!(flat.report.total_bytes(), covering.report.total_bytes());
    }
}

#[test]
fn sharded_tree_matches_flat_search_under_wait_all() {
    // 6 TSWs at fan-out 2 build a two-level tree (3 leaf sub-masters, 2
    // inner ones). Under WaitAll nothing depends on timing, and the
    // hierarchical reduction (group best of group bests) must select the
    // exact same global best every round as the flat all-to-one
    // collection — sharding only redistributes WHERE the min is taken.
    let domain = QapDomain::random(24, 5);
    let build = |fanout: usize| {
        Pts::builder()
            .tsw_workers(6)
            .clw_workers(1)
            .global_iters(3)
            .local_iters(4)
            .candidates(5)
            .depth(2)
            .sync(SyncPolicy::WaitAll)
            .shard_fanout(fanout)
            .seed(0xFEED)
            .build()
            .unwrap()
    };
    let flat = build(0).execute(&domain, &VirtualEngine::paper());
    let sharded = build(2).execute(&domain, &VirtualEngine::paper());
    // 5 extra logical processes: the sub-master tree.
    assert_eq!(
        sharded.report.num_procs(),
        flat.report.num_procs() + 5,
        "6 TSWs at fan-out 2 need 3 + 2 sub-masters"
    );
    assert_eq!(
        flat.outcome.best_per_global_iter, sharded.outcome.best_per_global_iter,
        "tree reduction diverged from flat collection"
    );
    assert_eq!(flat.outcome.best_cost, sharded.outcome.best_cost);
    assert_eq!(flat.outcome.best, sharded.outcome.best);
    assert_eq!(sharded.outcome.forced_reports, 0);
    // The merged trace reduces to the same best-cost curve (timestamps
    // differ: tree routing shifts virtual arrival times).
    assert_eq!(
        flat.outcome.trace.best_cost(),
        sharded.outcome.trace.best_cost()
    );
}

#[test]
fn sharded_async_matches_sharded_sim_and_replays_identically() {
    // The sharded protocol must stay deterministic on both deterministic
    // substrates, and they must agree with each other under WaitAll.
    let domain = QapDomain::random(24, 7);
    let run = Pts::builder()
        .tsw_workers(4)
        .clw_workers(2)
        .global_iters(3)
        .local_iters(3)
        .candidates(4)
        .depth(2)
        .sync(SyncPolicy::WaitAll)
        .shard_fanout(2)
        .seed(0xBEEF)
        .build()
        .unwrap();
    let vt = run.execute(&domain, &VirtualEngine::paper());
    let task_a = run.execute(&domain, &AsyncEngine::new());
    let task_b = run.execute(&domain, &AsyncEngine::new());
    assert_eq!(
        vt.outcome.best_per_global_iter,
        task_a.outcome.best_per_global_iter
    );
    assert_eq!(vt.outcome.best_cost, task_a.outcome.best_cost);
    assert_eq!(
        task_a.outcome.best_per_global_iter,
        task_b.outcome.best_per_global_iter
    );
    assert_eq!(
        task_a.report.total_messages(),
        task_b.report.total_messages()
    );
}

#[test]
fn sharded_async_thousand_workers_root_traffic_is_o_fanout() {
    // The point of the tree: at n_tsw = 1024 with fan-out 32, the root
    // exchanges messages with 32 sub-masters instead of 1024 TSWs (plus
    // 1024 CLWs at Init) — O(fan-out) per round at every process.
    let domain = QapDomain::random(64, 11);
    let build = |fanout: usize| {
        Pts::builder()
            .tsw_workers(1024)
            .clw_workers(1)
            .global_iters(2)
            .local_iters(2)
            .candidates(4)
            .depth(2)
            .sync(SyncPolicy::WaitAll)
            .shard_fanout(fanout)
            .differentiate_streams(true)
            .build()
            .unwrap()
    };
    let sharded = build(32).execute(&domain, &AsyncEngine::new());
    // 1 master + 1024 TSWs + 1024 CLWs + 32 sub-masters.
    assert_eq!(sharded.report.num_procs(), 2081);
    assert!(sharded.outcome.best_cost < sharded.outcome.initial_cost);
    let root = &sharded.report.per_proc[0];
    // 2 rounds x 32 GroupReports in; 32 Inits + 32 GroupBroadcasts + 32
    // Stops out.
    assert_eq!(root.messages_received, 64);
    assert_eq!(root.messages_sent, 96);

    // Same search, flat: the root exchanges O(n_tsw) messages (2048
    // worker Inits out, 2048 reports in) — and the best-cost trajectory
    // is identical, so sharding traded nothing but topology.
    let flat = build(0).execute(&domain, &AsyncEngine::new());
    assert_eq!(
        flat.outcome.best_per_global_iter,
        sharded.outcome.best_per_global_iter
    );
    let flat_root = &flat.report.per_proc[0];
    assert_eq!(flat_root.messages_received, 2048);
    assert!(flat_root.messages_sent >= 2048 + 1024);
}

#[test]
fn async_engine_handles_a_thousand_workers() {
    // The async engine's reason to exist: worker counts far past what
    // one-OS-thread-per-process engines can carry. 1000 TSWs + master +
    // 1000 CLWs = 2001 logical processes on the test runner's one thread.
    let domain = QapDomain::random(64, 11);
    let run = Pts::builder()
        .tsw_workers(1000)
        .clw_workers(1)
        .global_iters(2)
        .local_iters(2)
        .candidates(4)
        .depth(2)
        .differentiate_streams(true)
        .build()
        .unwrap();
    let out = run.execute(&domain, &AsyncEngine::new());
    assert_eq!(out.report.num_procs(), 2001);
    assert!(out.outcome.best_cost < out.outcome.initial_cost);
    // Every TSW reported in both rounds.
    assert!(out.report.per_proc[0].messages_received >= 2000);
}

#[test]
fn delta_mode_is_bit_identical_to_full_mode_on_all_engines() {
    // The delta-snapshot protocol is a wire format, not a search change:
    // snapshots reconstructed from base + delta are bit-identical to the
    // full copies, so under WaitAll (where nothing depends on timing)
    // every engine must walk the exact same trajectory in both modes —
    // flat and through the sharded collection tree.
    let domain = QapDomain::random(24, 3);
    let build = |mode: SnapshotMode, fanout: usize| {
        Pts::builder()
            .tsw_workers(6)
            .clw_workers(2)
            .global_iters(4)
            .local_iters(4)
            .candidates(5)
            .depth(2)
            .sync(SyncPolicy::WaitAll)
            .shard_fanout(fanout)
            .snapshot_mode(mode)
            .seed(0xFEED)
            .build()
            .unwrap()
    };
    let engines: [&dyn ExecutionEngine<QapDomain>; 3] =
        [&ThreadEngine, &AsyncEngine::new(), &VirtualEngine::paper()];
    for engine in engines {
        for fanout in [0usize, 2] {
            let delta = build(SnapshotMode::Delta, fanout).execute(&domain, engine);
            let full = build(SnapshotMode::Full, fanout).execute(&domain, engine);
            assert_eq!(
                delta.outcome.best_per_global_iter,
                full.outcome.best_per_global_iter,
                "{} fanout={fanout}: delta mode changed the trajectory",
                engine.name()
            );
            assert_eq!(delta.outcome.best_cost, full.outcome.best_cost);
            assert_eq!(delta.outcome.best, full.outcome.best);
            assert_eq!(delta.outcome.initial_cost, full.outcome.initial_cost);
            // Same protocol, same message count — only sizes shrink.
            assert_eq!(
                delta.report.total_messages(),
                full.report.total_messages(),
                "{} fanout={fanout}",
                engine.name()
            );
            assert!(
                delta.report.total_bytes() < full.report.total_bytes(),
                "{} fanout={fanout}: delta mode must cut wire bytes ({} vs {})",
                engine.name(),
                delta.report.total_bytes(),
                full.report.total_bytes()
            );
        }
    }
}

#[test]
fn delta_mode_matches_full_mode_under_half_report_on_the_async_engine() {
    // The cooperative engine schedules by message *order*, never message
    // *size*, so even with forces in play (HalfReport) the delta format
    // cannot perturb the search — the strongest end-to-end statement
    // that delta encoding round-trips exactly mid-protocol.
    let domain = QapDomain::random(32, 21);
    let run = |mode: SnapshotMode, fanout: usize| {
        Pts::builder()
            .tsw_workers(8)
            .clw_workers(2)
            .global_iters(4)
            .local_iters(5)
            .candidates(4)
            .depth(3)
            .sync(SyncPolicy::HalfReport)
            .shard_fanout(fanout)
            .snapshot_mode(mode)
            .seed(0xACE)
            .build()
            .unwrap()
            .execute(&domain, &AsyncEngine::new())
    };
    for fanout in [0usize, 3] {
        let delta = run(SnapshotMode::Delta, fanout);
        let full = run(SnapshotMode::Full, fanout);
        assert_eq!(
            delta.outcome.best_per_global_iter,
            full.outcome.best_per_global_iter
        );
        assert_eq!(delta.outcome.best, full.outcome.best);
        assert_eq!(delta.outcome.forced_reports, full.outcome.forced_reports);
        assert!(delta.report.total_bytes() < full.report.total_bytes());
    }
}

#[test]
fn uniform_portfolio_is_identical_to_empty_portfolio_on_all_engines() {
    // A one-entry portfolio equal to the uniform `search` strategy turns
    // the whole portfolio machinery on — strategy stamps on the wire, the
    // leaves' quality-rate reduction, the root's epsilon-greedy
    // reallocator — while giving it exactly one thing to choose. The
    // search must be trajectory-identical to the empty-portfolio run on
    // all four engines, flat and through the sharded collection tree
    // (WaitAll, so the thread engine is deterministic too).
    let domain = QapDomain::random(24, 3);
    let build = |portfolio: bool, fanout: usize| {
        let mut b = Pts::builder()
            .tsw_workers(4)
            .clw_workers(2)
            .global_iters(3)
            .local_iters(4)
            .candidates(5)
            .depth(2)
            .sync(SyncPolicy::WaitAll)
            .shard_fanout(fanout)
            .seed(0xFEED);
        if portfolio {
            // The same knobs the builder calls above set on `search`.
            b = b.portfolio([SearchStrategy {
                candidates: 5,
                depth: 2,
                ..Default::default()
            }]);
        }
        b.build().unwrap()
    };
    let proc_engine = ProcEngine::new(env!("CARGO_BIN_EXE_pts"));
    let engines: [&dyn ExecutionEngine<QapDomain>; 4] = [
        &ThreadEngine,
        &AsyncEngine::new(),
        &VirtualEngine::paper(),
        &proc_engine,
    ];
    for engine in engines {
        for fanout in [0usize, 2] {
            let empty = build(false, fanout).execute(&domain, engine);
            let uniform = build(true, fanout).execute(&domain, engine);
            assert_eq!(
                empty.outcome.best_per_global_iter,
                uniform.outcome.best_per_global_iter,
                "{} fanout={fanout}: uniform portfolio changed the trajectory",
                engine.name()
            );
            assert_eq!(empty.outcome.best_cost, uniform.outcome.best_cost);
            assert_eq!(empty.outcome.best, uniform.outcome.best);
            assert_eq!(empty.outcome.initial_cost, uniform.outcome.initial_cost);
            // On the virtual-clock engine the whole timeline must match:
            // strategy ids ride formerly-zero header bytes, so no frame
            // changes size and no compute charge moves.
            if engine.name() == "vt" {
                assert_eq!(empty.outcome.end_time, uniform.outcome.end_time);
                assert_eq!(
                    empty.report.total_messages(),
                    uniform.report.total_messages()
                );
                assert_eq!(empty.report.total_bytes(), uniform.report.total_bytes());
            }
        }
    }
}

#[test]
fn reports_carry_engine_specific_clocks() {
    let netlist = Arc::new(by_name("highway").unwrap());
    let vt = run().run_placement(netlist.clone(), &VirtualEngine::paper());
    let thr = run().run_placement(netlist, &ThreadEngine);
    assert_eq!(vt.report.clock, ClockDomain::Virtual);
    assert_eq!(thr.report.clock, ClockDomain::Wall);
    // Thread engine: search time IS wall time.
    assert!((thr.report.end_time - thr.report.wall_seconds).abs() < 1e-9);
    // Virtual-time engine: virtual utilization is meaningful.
    assert!(vt.report.utilization() > 0.0);
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[test]
fn thread_engine_utilization_is_meaningful() {
    // Per-thread CPU accounting (getrusage(RUSAGE_THREAD)) fills
    // busy_time on the thread engine: utilization must land in (0, 1]
    // instead of the 0 the wall-clock engines used to report.
    let netlist = Arc::new(by_name("c532").unwrap());
    let out = Pts::builder()
        .tsw_workers(3)
        .clw_workers(2)
        .global_iters(2)
        .local_iters(8)
        .build()
        .unwrap()
        .run_placement(netlist, &ThreadEngine);
    let u = out.report.utilization();
    assert!(u > 0.0 && u <= 1.0, "thread utilization {u} not in (0, 1]");
    // Every worker thread burned measurable CPU.
    let busy: f64 = out.report.per_proc.iter().map(|p| p.busy_time).sum();
    assert!(busy > 0.0);
}

#[test]
fn thread_engine_handles_many_workers() {
    // Oversubscribe the host on purpose: 4 TSWs x 3 CLWs + master = 17
    // threads; the protocol must still terminate cleanly.
    let netlist = Arc::new(by_name("highway").unwrap());
    let run = Pts::builder()
        .tsw_workers(4)
        .clw_workers(3)
        .global_iters(2)
        .local_iters(4)
        .build()
        .unwrap();
    let out = run.run_placement(netlist, &ThreadEngine);
    assert!(out.outcome.best_cost < out.outcome.initial_cost);
    // Every rank deposited its per-thread counters.
    assert_eq!(out.report.num_procs(), run.config().total_procs());
    for (rank, p) in out.report.per_proc.iter().enumerate().skip(1) {
        assert!(p.messages_sent > 0, "rank {rank} should have sent messages");
    }
}

#[test]
fn single_worker_degenerate_case() {
    // 1 TSW, 1 CLW: the parallel protocol reduces to sequential search
    // with messaging; quorum of one child means half-report never fires
    // between a parent and its only child.
    let netlist = Arc::new(by_name("highway").unwrap());
    let run = Pts::builder()
        .tsw_workers(1)
        .clw_workers(1)
        .global_iters(3)
        .local_iters(6)
        .build()
        .unwrap();
    let out = run.run_placement(netlist, &VirtualEngine::paper());
    assert!(out.outcome.best_cost < out.outcome.initial_cost);
    assert_eq!(
        out.outcome.forced_reports, 0,
        "nobody to force with one TSW"
    );
}
