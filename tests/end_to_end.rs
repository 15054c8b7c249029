//! End-to-end: parallel tabu search improves placement quality on every
//! paper benchmark circuit, on the simulated heterogeneous cluster.

use parallel_tabu_search::prelude::*;
use std::sync::Arc;

fn small_run() -> PtsRun {
    Pts::builder()
        .tsw_workers(2)
        .clw_workers(2)
        .global_iters(3)
        .local_iters(6)
        .candidates(6)
        .depth(2)
        .build()
        .unwrap()
}

#[test]
fn improves_all_benchmark_circuits() {
    for name in benchmark_names() {
        let netlist = Arc::new(by_name(name).unwrap());
        let run = small_run();
        let out = run.run_placement(netlist, &VirtualEngine::paper());
        let o = &out.outcome;
        assert!(
            o.best_cost < o.initial_cost,
            "{name}: PTS must improve the initial cost ({} -> {})",
            o.initial_cost,
            o.best_cost
        );
        o.best_placement.check_consistency().unwrap();
        assert!(o.end_time > 0.0, "{name}: virtual time must advance");
        assert!(
            !o.trace.is_empty(),
            "{name}: the merged trace must record improvements"
        );
        assert_eq!(
            o.best_per_global_iter.len(),
            run.config().global_iters as usize
        );
        // The per-iteration best is monotone non-increasing.
        for w in o.best_per_global_iter.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "{name}: global best must not regress");
        }
    }
}

#[test]
fn fuzzy_cost_stays_in_unit_interval() {
    let netlist = Arc::new(by_name("c532").unwrap());
    let out = small_run().run_placement(netlist, &VirtualEngine::paper());
    let o = &out.outcome;
    assert!((0.0..=1.0).contains(&o.best_cost));
    assert!((0.0..=1.0).contains(&o.initial_cost));
}

#[test]
fn weighted_sum_scheme_works_end_to_end() {
    let run = Pts::from_config(small_run().config().clone())
        .cost(CostKind::WeightedSum)
        .build()
        .unwrap();
    let netlist = Arc::new(by_name("highway").unwrap());
    let out = run.run_placement(netlist, &VirtualEngine::paper());
    let o = &out.outcome;
    // Weighted-sum cost is 1.0 at the initial solution by construction.
    assert!((o.initial_cost - 1.0).abs() < 1e-9);
    assert!(o.best_cost < 1.0);
}

#[test]
fn more_iterations_do_not_hurt() {
    let netlist = Arc::new(by_name("c532").unwrap());
    let short = small_run().run_placement(netlist.clone(), &VirtualEngine::paper());
    let long_run = Pts::from_config(small_run().config().clone())
        .global_iters(6)
        .build()
        .unwrap();
    let long = long_run.run_placement(netlist, &VirtualEngine::paper());
    assert!(
        long.outcome.best_cost <= short.outcome.best_cost + 1e-12,
        "longer searches keep the best-so-far, never lose it"
    );
}

#[test]
fn qap_improves_end_to_end_on_both_engines() {
    let domain = QapDomain::random(30, 3);
    let run = small_run();
    let engines: [&dyn ExecutionEngine<QapDomain>; 2] = [&VirtualEngine::paper(), &ThreadEngine];
    for engine in engines {
        let out = run.execute(&domain, engine);
        assert!(
            out.outcome.best_cost < out.outcome.initial_cost,
            "{}: QAP pipeline must improve ({} -> {})",
            engine.name(),
            out.outcome.initial_cost,
            out.outcome.best_cost
        );
        // The best assignment is still a permutation.
        let mut sorted = out.outcome.best.as_slice().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
    }
}
