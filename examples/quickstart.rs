//! Quickstart: run parallel tabu search on the paper's smallest circuit
//! and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use parallel_tabu_search::prelude::*;
use std::sync::Arc;

fn main() {
    // The paper's smallest ISCAS-89-style benchmark: 56 cells.
    let netlist = Arc::new(parallel_tabu_search::netlist::highway());
    println!(
        "circuit: {} ({} cells, {} nets)",
        netlist.name,
        netlist.num_cells(),
        netlist.num_nets()
    );

    // 4 tabu search workers, 2 candidate-list workers each — the paper's
    // two-level parallelization — validated at build time.
    let run = Pts::builder()
        .tsw_workers(4)
        .clw_workers(2)
        .global_iters(6)
        .local_iters(15)
        .build()
        .expect("valid configuration");

    // Engines hide the substrate: swap in `&ThreadEngine` for native
    // threads without touching anything else.
    let out = run.run_placement(netlist, &VirtualEngine::paper());
    let o = &out.outcome;

    println!("initial cost : {:.4}", o.initial_cost);
    println!("best cost    : {:.4}", o.best_cost);
    println!(
        "objectives   : wire={:.1}  delay={:.2}  area={:.0}",
        o.objectives.wire, o.objectives.delay, o.objectives.area
    );
    println!(
        "virtual time : {:.2} s on the 12-machine cluster",
        o.end_time
    );
    println!(
        "wall time    : {:.2} s on this host",
        out.report.wall_seconds
    );
    println!(
        "cluster      : {} messages, {:.0}% utilization",
        out.report.total_messages(),
        out.report.utilization() * 100.0
    );
    println!("improvements : {} trace points", o.trace.points().len());
    for p in o.trace.points().iter().take(8) {
        println!("  t={:8.2}  best={:.4}", p.time, p.best_cost);
    }
}
