//! Property-based tests spanning crates: random circuits through the full
//! evaluator stack, the netlist text format, and placement invariants
//! through entire parallel runs.

use parallel_tabu_search::netlist::{format, generate, CellId, CircuitSpec, TimingGraph};
use parallel_tabu_search::place::eval::{EvalConfig, Evaluator};
use parallel_tabu_search::place::init::random_placement;
use parallel_tabu_search::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_spec() -> impl Strategy<Value = CircuitSpec> {
    (
        2usize..8,   // inputs
        1usize..6,   // outputs
        0usize..8,   // flipflops
        10usize..80, // logic
        2usize..7,   // depth
        0u64..5000,  // seed
    )
        .prop_map(
            |(n_inputs, n_outputs, n_flipflops, n_logic, depth, seed)| CircuitSpec {
                name: format!("prop{seed}"),
                n_inputs,
                n_outputs,
                n_flipflops,
                n_logic,
                depth,
                fanout_tail: 0.15,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_circuits_have_valid_timing_graphs(spec in arb_spec()) {
        let nl = generate(&spec);
        prop_assert_eq!(nl.num_cells(), spec.n_cells());
        let tg = TimingGraph::build(&nl).expect("generator output is acyclic");
        prop_assert!(!tg.endpoints().is_empty());
        prop_assert_eq!(tg.topo_logic().len(), spec.n_logic);
    }

    #[test]
    fn netlist_text_roundtrip(spec in arb_spec()) {
        let nl = generate(&spec);
        let text = format::to_text(&nl);
        let back = format::from_text(&text).expect("own output parses");
        prop_assert_eq!(back.num_cells(), nl.num_cells());
        prop_assert_eq!(back.num_nets(), nl.num_nets());
        for ((_, a), (_, b)) in nl.nets().zip(back.nets()) {
            prop_assert_eq!(a.driver, b.driver);
            prop_assert_eq!(&a.sinks, &b.sinks);
        }
    }

    #[test]
    fn evaluator_trial_predicts_commit_on_random_circuits(
        spec in arb_spec(),
        swaps in proptest::collection::vec((0usize..1000, 0usize..1000), 1..30),
    ) {
        let nl = Arc::new(generate(&spec));
        let tg = Arc::new(TimingGraph::build(&nl).unwrap());
        let p = random_placement(&nl, spec.seed);
        let mut ev = Evaluator::new(nl.clone(), tg, p, EvalConfig::default());
        let n = nl.num_cells();
        for (ra, rb) in swaps {
            let a = CellId((ra % n) as u32);
            let b = CellId((rb % n) as u32);
            if a == b {
                continue;
            }
            let trial = ev.trial_swap(a, b);
            ev.commit_swap(a, b);
            let o = ev.objectives();
            prop_assert!((trial.wire - o.wire).abs() < 1e-6);
            prop_assert!((trial.delay - o.delay).abs() < 1e-6);
            prop_assert!((trial.area - o.area).abs() < 1e-9);
            prop_assert!((trial.cost - ev.cost()).abs() < 1e-9);
        }
        ev.placement().check_consistency().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pts_preserves_placement_invariants(seed in 0u64..1000) {
        let netlist = Arc::new(by_name("highway").unwrap());
        let run = Pts::builder()
            .tsw_workers(2)
            .clw_workers(2)
            .global_iters(2)
            .local_iters(4)
            .seed(seed)
            .build()
            .unwrap();
        let out = run.run_placement(netlist.clone(), &VirtualEngine::paper());
        let o = &out.outcome;
        out.outcome.best_placement.check_consistency().unwrap();
        prop_assert!(o.best_cost <= o.initial_cost);
        // Every cell is still placed exactly once.
        prop_assert_eq!(o.best_placement.num_cells(), netlist.num_cells());
    }
}
