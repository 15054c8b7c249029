//! End-to-end benchmark of the parallel tabu search: three workloads, each
//! a closed loop of `ExecutionEngine::execute` over seeded inputs, plus
//! traced runs that attribute wall time to the problem-layer calls (see
//! `README.md` for the workloads and the layer table).

pub mod probe;
pub mod traced;

use probe::Mix;
use pts_core::placement_problem::PlacementDomain;
use pts_core::{
    take_snapshot_meter, take_trials, ClockDomain, CostKind, ExecutionEngine, Pts, PtsConfig,
    PtsDomain, PtsRun, QapDomain, SnapshotMeter, SnapshotMode, SnapshotOf, SyncPolicy,
};
use pts_tabu::SearchProblem;
use std::sync::Arc;
use std::time::Instant;
use traced::{take_spans, Spans, Traced, TS};

/// QAP instance size of both QAP workloads.
pub const QAP_N: usize = 256;

/// Probe weights for set-up, on every workload. Set-up allocates and
/// first-touches fresh instance data, so it follows the latency-bound
/// probe parts: with the QAP mix, normalized QAP set-up still moved by
/// ±12 % with the host, with this mix by ±7 %.
pub const SETUP_PROBE_MIX: Mix = Mix([0.4, 0.0, 0.6]);

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Broadcast/adoption-bound QAP: 256 TSWs, short local phases.
    QapAdopt,
    /// Kernel-bound QAP: 2 TSWs × 2 CLWs, long local phases.
    QapSearch,
    /// The paper's workload: c1355 placement on the virtual cluster.
    PlaceVt,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [Workload::QapAdopt, Workload::QapSearch, Workload::PlaceVt];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QapAdopt => "qap-adopt",
            Workload::QapSearch => "qap-search",
            Workload::PlaceVt => "place-vt",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The validated run configuration of this workload for `seed`.
    pub fn run(self, seed: u64) -> PtsRun {
        let b = Pts::builder().seed(seed);
        let b = match self {
            Workload::QapAdopt => b
                .tsw_workers(256)
                .clw_workers(1)
                .shard_fanout_auto()
                .global_iters(10)
                .local_iters(3)
                .candidates(5)
                .depth(2)
                .differentiate_streams(true)
                .snapshot_mode(SnapshotMode::Delta),
            Workload::QapSearch => b
                .tsw_workers(2)
                .clw_workers(2)
                .global_iters(3)
                .local_iters(1500)
                .candidates(16)
                .depth(3),
            Workload::PlaceVt => b
                .tsw_workers(4)
                .clw_workers(2)
                .global_iters(3)
                .local_iters(100)
                .cost(CostKind::Fuzzy)
                .sync(SyncPolicy::HalfReport),
        };
        b.build().expect("benchmark configurations are valid")
    }

    /// Probe weights that track how this workload's runs follow the
    /// host's speed: QAP streams matrix rows through a compact position
    /// table, placement chases the evaluator's index structures.
    pub fn probe_mix(self) -> Mix {
        match self {
            Workload::QapAdopt | Workload::QapSearch => Mix([0.5, 0.5, 0.0]),
            Workload::PlaceVt => SETUP_PROBE_MIX,
        }
    }
}

/// A frozen domain, its initial solution and the run configuration: what
/// set-up produces and `execute` consumes.
pub struct Case<D: PtsDomain> {
    pub cfg: PtsConfig,
    pub domain: D,
    pub initial: SnapshotOf<D>,
}

/// Set-up of a QAP workload: instance generation, initial solution, freeze.
pub fn qap_case(run: &PtsRun, n: usize) -> Case<QapDomain> {
    let cfg = run.config().clone();
    let domain = QapDomain::random(n, cfg.seed);
    let initial = domain.initial(cfg.seed);
    let domain = domain.freeze(&initial);
    Case {
        cfg,
        domain,
        initial,
    }
}

/// Set-up of a placement workload on `circuit`: netlist generation, timing
/// graph, initial placement, freeze (the cost scheme).
pub fn place_case(run: &PtsRun, circuit: &str) -> Case<PlacementDomain> {
    let cfg = run.config().clone();
    let netlist = pts_netlist::by_name(circuit).expect("known benchmark circuit");
    let domain = PlacementDomain::new(Arc::new(netlist), &cfg);
    let initial = domain.initial(cfg.seed);
    let domain = domain.freeze(&initial);
    Case {
        cfg,
        domain,
        initial,
    }
}

/// The counts a traced and an untraced run of one case must agree on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Facts {
    pub best_cost_bits: u64,
    pub trials: u64,
    pub messages: u64,
    pub bytes: u64,
    pub meter: SnapshotMeter,
}

/// What one `execute` produced and cost.
#[derive(Clone, Debug)]
pub struct RunOut {
    /// Wall seconds of `ExecutionEngine::execute`.
    pub wall_s: f64,
    pub facts: Facts,
    pub initial_cost: f64,
    pub best_cost: f64,
    /// Cost of the best solution, recomputed by a fresh `instantiate`.
    pub exact_best_cost: f64,
    /// Messages sent by the root master (rank 0).
    pub root_messages: u64,
    /// Virtual makespan; 0 when the engine runs on the wall clock.
    pub makespan_s: f64,
    pub utilization: f64,
    pub forced_reports: u64,
    /// Span counters of a traced run; `None` for an untraced run.
    pub spans: Option<Spans>,
}

impl RunOut {
    /// Why this run's output is wrong, if it is.
    pub fn defect(&self) -> Option<String> {
        if self.best_cost > self.initial_cost {
            return Some(format!(
                "best {} above initial {}",
                self.best_cost, self.initial_cost
            ));
        }
        if (self.best_cost - self.exact_best_cost).abs() > 1e-9 * self.best_cost.abs() {
            return Some(format!(
                "best cost {} but its solution costs {}",
                self.best_cost, self.exact_best_cost
            ));
        }
        if self.facts.trials == 0 {
            return Some("no trials executed".into());
        }
        None
    }
}

fn execute<D: PtsDomain>(
    cfg: &PtsConfig,
    domain: &D,
    initial: SnapshotOf<D>,
    engine: &dyn ExecutionEngine<D>,
    exact_cost: impl FnOnce(&SnapshotOf<D>) -> f64,
) -> RunOut {
    let _ = take_trials();
    let _ = take_snapshot_meter();
    let start = Instant::now();
    let out = engine.execute(cfg, domain, initial);
    let wall_s = start.elapsed().as_secs_f64();
    let trials = take_trials();
    let meter = take_snapshot_meter();
    let report = &out.report;
    RunOut {
        wall_s,
        facts: Facts {
            best_cost_bits: out.outcome.best_cost.to_bits(),
            trials,
            messages: report.total_messages(),
            bytes: report.total_bytes(),
            meter,
        },
        initial_cost: out.outcome.initial_cost,
        best_cost: out.outcome.best_cost,
        exact_best_cost: exact_cost(&out.outcome.best),
        root_messages: report.per_proc.first().map_or(0, |p| p.messages_sent),
        makespan_s: match report.clock {
            ClockDomain::Virtual => report.end_time,
            ClockDomain::Wall => 0.0,
        },
        utilization: report.utilization(),
        forced_reports: out.outcome.forced_reports,
        spans: None,
    }
}

/// One untraced run of `case`.
pub fn run_plain<D: PtsDomain>(case: &Case<D>, engine: &dyn ExecutionEngine<D>) -> RunOut {
    execute(
        &case.cfg,
        &case.domain,
        case.initial.clone(),
        engine,
        |best| case.domain.instantiate(best).cost(),
    )
}

/// One traced run of `case`: the same run through [`Traced`], with the
/// spans it recorded.
pub fn run_traced<D: PtsDomain>(case: &Case<D>, engine: &dyn ExecutionEngine<Traced<D>>) -> RunOut {
    let domain = Traced(case.domain.clone());
    let _ = take_spans();
    let mut out = execute(
        &case.cfg,
        &domain,
        TS(case.initial.clone()),
        engine,
        |best| case.domain.instantiate(&best.0).cost(),
    );
    out.spans = Some(take_spans());
    out
}
