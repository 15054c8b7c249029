//! # parallel-tabu-search
//!
//! A from-scratch Rust reproduction of **Al-Yamani, Sait, Barada &
//! Youssef, "Parallel Tabu Search in a Heterogeneous Environment"
//! (IPDPS 2003)**: two-level parallel tabu search for VLSI standard-cell
//! placement, evaluated on a simulated heterogeneous twelve-machine
//! cluster.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`util`] | `pts-util` | deterministic RNG, statistics, tables/CSV |
//! | [`netlist`] | `pts-netlist` | circuit hypergraph, timing DAG, ISCAS-like generators |
//! | [`place`] | `pts-place` | placement model, incremental HPWL/STA/area, fuzzy cost |
//! | [`tabu`] | `pts-tabu` | generic tabu search engine (tenure, aspiration, compound moves, diversification) |
//! | [`vcluster`] | `pts-vcluster` | deterministic virtual-time heterogeneous cluster (PVM substitute) |
//! | [`core`] | `pts-core` | the paper's parallel TS: master / TSW / CLW, half-report sync, engines |
//!
//! ## Quickstart
//!
//! Configure a run with the validated builder, pick an execution engine
//! (the virtual-time heterogeneous cluster, native threads, cooperative
//! async tasks, or worker processes — all behind the same
//! [`core::ExecutionEngine`] trait), and run any wired-in problem domain:
//!
//! ```
//! use parallel_tabu_search::prelude::*;
//! use std::sync::Arc;
//!
//! // The paper's smallest benchmark: 56 cells.
//! let netlist = Arc::new(parallel_tabu_search::netlist::highway());
//! let run = Pts::builder()
//!     .tsw_workers(2)
//!     .clw_workers(2)
//!     .global_iters(2)
//!     .local_iters(5)
//!     .build()
//!     .expect("valid configuration");
//!
//! // Same entry point, any substrate:
//! let engine: &dyn ExecutionEngine<PlacementDomain> = &VirtualEngine::paper();
//! let out = run.run_placement(netlist, engine);
//! assert!(out.outcome.best_cost < out.outcome.initial_cost);
//! // Unified metrics — no engine-specific output types:
//! assert!(out.report.total_messages() > 0);
//!
//! // The pipeline is problem-generic: the same run drives QAP.
//! let qap = run.execute(&QapDomain::random(16, 7), &VirtualEngine::paper());
//! assert!(qap.outcome.best_cost <= qap.outcome.initial_cost);
//! ```

pub use pts_core as core;
pub use pts_netlist as netlist;
pub use pts_place as place;
pub use pts_tabu as tabu;
pub use pts_util as util;
pub use pts_vcluster as vcluster;

/// The names most applications need.
pub mod prelude {
    pub use pts_core::{
        run_sequential_baseline, AsyncEngine, ClockDomain, ConfigError, Contention, CostKind,
        DeltaSnapshot, ExecutionEngine, FaultMix, FaultSpec, MasterOutcome, PlacementDomain,
        PlacementRunOutput, ProcEngine, Pts, PtsConfig, PtsDomain, PtsRun, QapDomain, RunBuilder,
        RunReport, SearchStrategy, SnapshotMode, SyncPolicy, ThreadEngine, VirtualEngine,
        WorkerFault,
    };
    pub use pts_netlist::{benchmark_names, by_name, Netlist, TimingGraph};
    pub use pts_place::{Evaluator, Layout, Placement};
    pub use pts_tabu::{DiversifiableProblem, SearchProblem, TabuSearch, TabuSearchConfig};
    pub use pts_util::Rng;
    pub use pts_vcluster::topology::{homogeneous, paper_cluster};
    pub use pts_vcluster::ClusterSpec;
}
