//! Sanity checks on the paper's parallelization effects (Figs 5-8 in
//! miniature). These use fixed seeds on the deterministic vt engine, so
//! they are stable; the assertions encode the *direction* of each effect
//! with generous tolerance rather than exact magnitudes.

use parallel_tabu_search::core::{common_quality_target, speedup_sweep};
use parallel_tabu_search::prelude::*;
use std::sync::Arc;

fn base() -> RunBuilder {
    Pts::builder().global_iters(4).local_iters(10)
}

#[test]
fn more_clws_reach_quality_no_slower() {
    let netlist = Arc::new(by_name("c532").unwrap());
    let mut traces = Vec::new();
    for n_clw in [1usize, 4] {
        let run = base().tsw_workers(4).clw_workers(n_clw).build().unwrap();
        let out = run.run_placement(netlist.clone(), &VirtualEngine::paper());
        traces.push((n_clw, out.outcome.trace));
    }
    let x = common_quality_target(&traces, 0.002);
    let pts = speedup_sweep(&traces, x);
    let s4 = pts[1].speedup.expect("4-CLW run reaches the shared target");
    assert!(
        s4 > 0.8,
        "4 CLWs must not be drastically slower to the shared quality (speedup {s4:.2})"
    );
}

#[test]
fn multiple_tsws_beat_one_tsw_quality() {
    let netlist = Arc::new(by_name("c532").unwrap());
    let run = |n_tsw: usize| {
        base()
            .tsw_workers(n_tsw)
            .clw_workers(1)
            .build()
            .unwrap()
            .run_placement(netlist.clone(), &VirtualEngine::paper())
            .outcome
            .best_cost
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four <= one + 1e-9,
        "4 independent searches keep the best of more exploration \
         (1 TSW: {one:.4}, 4 TSW: {four:.4})"
    );
}

#[test]
fn diversification_does_not_hurt_final_quality() {
    let netlist = Arc::new(by_name("c532").unwrap());
    let run = |diversify: bool| {
        base()
            .tsw_workers(4)
            .clw_workers(1)
            .diversify(diversify)
            .build()
            .unwrap()
            .run_placement(netlist.clone(), &VirtualEngine::paper())
            .outcome
            .best_cost
    };
    let with = run(true);
    let without = run(false);
    // Fig. 9 shows diversification clearly winning; at miniature scale we
    // assert it at least does not lose badly.
    assert!(
        with <= without * 1.10 + 1e-9,
        "diversified {with:.4} vs plain {without:.4}"
    );
}

#[test]
fn compound_depth_matters() {
    // depth > 1 lets the search escape plateaus: with everything else
    // fixed, depth 3 should not be significantly worse than depth 1.
    let netlist = Arc::new(by_name("highway").unwrap());
    let run = |depth: usize| {
        base()
            .tsw_workers(2)
            .clw_workers(2)
            .depth(depth)
            .build()
            .unwrap()
            .run_placement(netlist.clone(), &VirtualEngine::paper())
            .outcome
            .best_cost
    };
    let d1 = run(1);
    let d3 = run(3);
    assert!(d3 <= d1 * 1.15 + 1e-9, "depth-3 {d3:.4} vs depth-1 {d1:.4}");
}
