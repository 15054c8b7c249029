//! `pts` — command-line front end for the parallel tabu search
//! reproduction.
//!
//! ```text
//! pts circuits                      list the paper's benchmark circuits
//! pts run [options]                 one PTS run (vt/threads/async/proc
//!                                   engine, placement or QAP problem)
//! pts sweep --what clw|tsw [...]    quality/speedup sweep (Figs 5-8 style)
//! pts generate --cells N [...]      emit a synthetic netlist (text format)
//! pts show --file netlist.txt      parse a netlist file and print stats
//! ```
//!
//! Run `pts help` for all options.

use parallel_tabu_search::core::{
    common_quality_target, speedup_sweep, AsyncEngine, Contention, CostKind, ExecutionEngine,
    FaultMix, FaultSpec, ProcDomain, ProcEngine, Pts, PtsConfig, PtsRun, QapDomain, SearchStrategy,
    SnapshotMode, SyncPolicy, ThreadEngine, VirtualEngine, WireProblem,
};
use parallel_tabu_search::netlist::{
    benchmark_names, by_name, format, generate, CircuitSpec, Netlist, NetlistStats, TimingGraph,
};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    // Multi-process engine re-entry: when spawned as
    // `pts __pts-worker --sock <addr> --rank <n>` this runs the worker
    // role and exits instead of parsing the CLI.
    parallel_tabu_search::core::proc::maybe_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        print_help();
        return ExitCode::SUCCESS;
    };
    let opts = match Opts::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "circuits" => cmd_circuits(),
        "run" => cmd_run(&opts),
        "sweep" => cmd_sweep(&opts),
        "generate" => cmd_generate(&opts),
        "show" => cmd_show(&opts),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'pts help')")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "pts — parallel tabu search in a heterogeneous environment (IPDPS'03 reproduction)

USAGE:
  pts circuits
  pts run      [--problem placement|qap] [--circuit NAME | --qap-size N]
               [--tsw N] [--clw N] [--global N] [--local N]
               [--engine vt|threads|async|proc] [--sync half|all] [--no-diversify]
               [--differentiate] [--cost fuzzy|weighted] [--seed N]
               [--candidates N] [--depth N] [--report-fraction F]
               [--portfolio S1,S2,...]  (heterogeneous strategy portfolio,
                                         one entry per TSW group; each entry
                                         is a named preset — default,
                                         intensify, diversify, greedy — or
                                         an explicit tenure:candidates:depth
                                         triple; omit for a uniform run)
               [--shard-fanout N|auto]  (0 = flat master, >= 2 = sub-master
                                         tree, auto = f ~ sqrt(n_tsw))
               [--snapshot-mode delta|full]  (delta = diff against the last
                                              broadcast, default)
               [--faults crashes|slowdowns|message-chaos|mixed]
               [--fault-seed N] [--fault-horizon T]  (seeded fault injection;
                                                      vt engine only)
               [--contention]   (time-sliced machine sharing; vt engine only)
               [--liveness T]   (timeout excusing silent workers; vt + proc)
               [--heartbeat-ms N]  (proc engine: worker liveness beacons on
                                    idle streams; 0 = disabled)
               [--reap-grace-ms N] (proc engine: grace before stragglers
                                    are killed on teardown; default 2000)
  pts sweep    --what clw|tsw [--max N] [--circuit NAME] [common options]
  pts generate --cells N [--seed N] [--out FILE]
  pts show     --file FILE

DEFAULTS: --problem placement --circuit c532 --qap-size 30 --tsw 4 --clw 1
          --global 10 --local 20 --engine vt --sync half --cost fuzzy
          --seed 0xC0FFEE"
    );
}

/// Minimal `--key value` / `--flag` parser.
struct Opts {
    pairs: Vec<(String, Option<String>)>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("expected an option, got '{a}'"));
            };
            let value = args.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
            if value.is_some() {
                i += 2;
            } else {
                i += 1;
            }
            pairs.push((key.to_string(), value));
        }
        Ok(Opts { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} needs a number, got '{v}'")),
        }
    }
}

fn load_circuit(opts: &Opts) -> Result<Arc<Netlist>, String> {
    let name = opts.get("circuit").unwrap_or("c532");
    if let Some(nl) = by_name(name) {
        return Ok(Arc::new(nl));
    }
    // Fall back to a file path.
    let text = std::fs::read_to_string(name)
        .map_err(|e| format!("'{name}' is neither a benchmark nor a readable file: {e}"))?;
    format::from_text(&text)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// One `--portfolio` entry: a named preset from the README's strategy
/// table, or an explicit `tenure:candidates:depth` triple (remaining
/// knobs at their defaults).
fn parse_strategy(spec: &str) -> Result<SearchStrategy, String> {
    match spec {
        "default" => return Ok(SearchStrategy::default()),
        // Exploiter: long compound moves over a wide sample, short
        // memory — digs into the current basin.
        "intensify" => {
            return Ok(SearchStrategy {
                tenure: 5,
                candidates: 12,
                depth: 4,
                diversify_width: 2,
                ..Default::default()
            })
        }
        // Explorer: long memory, shallow moves, aggressive
        // diversification — keeps leaving basins.
        "diversify" => {
            return Ok(SearchStrategy {
                tenure: 15,
                candidates: 6,
                depth: 2,
                diversify_width: 8,
                ..Default::default()
            })
        }
        // Hill-climber: minimal memory, best-of-many single steps.
        "greedy" => {
            return Ok(SearchStrategy {
                tenure: 3,
                candidates: 16,
                depth: 1,
                ..Default::default()
            })
        }
        _ => {}
    }
    let parts: Vec<&str> = spec.split(':').collect();
    let [tenure, candidates, depth] = parts.as_slice() else {
        return Err(format!(
            "--portfolio entry '{spec}' is neither a preset (default, intensify, \
             diversify, greedy) nor a tenure:candidates:depth triple"
        ));
    };
    let num = |what: &str, v: &str| -> Result<usize, String> {
        v.parse()
            .map_err(|_| format!("--portfolio entry '{spec}': {what} needs a number, got '{v}'"))
    };
    Ok(SearchStrategy {
        tenure: num("tenure", tenure)? as u64,
        candidates: num("candidates", candidates)?,
        depth: num("depth", depth)?,
        ..Default::default()
    })
}

/// Build a validated run from the CLI options; invalid combinations fail
/// here with the typed `ConfigError` message, not mid-run.
fn build_run(opts: &Opts) -> Result<PtsRun, String> {
    let mut builder = Pts::builder()
        .tsw_workers(opts.parse_num("tsw", 4usize)?)
        .clw_workers(opts.parse_num("clw", 1usize)?)
        .global_iters(opts.parse_num("global", 10u32)?)
        .local_iters(opts.parse_num("local", 20u32)?)
        .candidates(opts.parse_num("candidates", 8usize)?)
        .depth(opts.parse_num("depth", 3usize)?)
        .report_fraction(opts.parse_num("report-fraction", 0.5f64)?)
        .liveness_timeout(opts.parse_num("liveness", 0.0f64)?)
        .heartbeat_ms(opts.parse_num("heartbeat-ms", 0u64)?)
        .reap_grace_ms(opts.parse_num("reap-grace-ms", 2000u64)?)
        .seed(opts.parse_num("seed", 0xC0FFEEu64)?);
    builder = match opts.get("shard-fanout") {
        Some("auto") => builder.shard_fanout_auto(),
        _ => builder.shard_fanout(opts.parse_num("shard-fanout", 0usize)?),
    };
    if let Some(spec) = opts.get("portfolio") {
        let strategies: Vec<SearchStrategy> = spec
            .split(',')
            .map(parse_strategy)
            .collect::<Result<_, _>>()?;
        builder = builder.portfolio(strategies);
    }
    builder = match opts.get("snapshot-mode").unwrap_or("delta") {
        "delta" => builder.snapshot_mode(SnapshotMode::Delta),
        "full" => builder.snapshot_mode(SnapshotMode::Full),
        other => {
            return Err(format!(
                "--snapshot-mode must be 'delta' or 'full', got '{other}'"
            ))
        }
    };
    if opts.flag("no-diversify") {
        builder = builder.diversify(false);
    }
    if opts.flag("differentiate") {
        builder = builder.differentiate_streams(true);
    }
    builder = match opts.get("sync").unwrap_or("half") {
        "half" => builder.sync(SyncPolicy::HalfReport),
        "all" => builder.sync(SyncPolicy::WaitAll),
        other => return Err(format!("--sync must be 'half' or 'all', got '{other}'")),
    };
    builder = match opts.get("cost").unwrap_or("fuzzy") {
        "fuzzy" => builder.cost(CostKind::Fuzzy),
        "weighted" => builder.cost(CostKind::WeightedSum),
        other => {
            return Err(format!(
                "--cost must be 'fuzzy' or 'weighted', got '{other}'"
            ))
        }
    };
    builder.build().map_err(|e| e.to_string())
}

/// Engine selection: substrates are trait objects behind one interface,
/// so every problem domain gets all four for free. The bound is
/// `ProcDomain` (not just `PtsDomain`) so `--engine proc` can ship the
/// instance to worker processes; both CLI domains implement it.
fn pick_engine<D>(opts: &Opts, cfg: &PtsConfig) -> Result<Box<dyn ExecutionEngine<D>>, String>
where
    D: ProcDomain,
    <D as parallel_tabu_search::core::PtsDomain>::Problem: WireProblem,
{
    let name = opts.get("engine").unwrap_or("vt");
    if name != "vt" && (opts.flag("faults") || opts.flag("contention")) {
        return Err(format!(
            "--faults/--contention need the deterministic virtual clock: \
             use --engine vt (got --engine {name})"
        ));
    }
    match name {
        "threads" => Ok(Box::new(ThreadEngine)),
        "async" => Ok(Box::new(AsyncEngine::new())),
        "vt" => {
            let mut engine = VirtualEngine::paper();
            if opts.flag("faults") && opts.get("faults").is_none() {
                return Err("--faults needs a mix: crashes|slowdowns|message-chaos|mixed".into());
            }
            if opts.flag("contention") {
                engine = engine.with_contention(Contention::TimeSliced);
            }
            if let Some(mix) = opts.get("faults") {
                let mix = FaultMix::parse(mix).ok_or_else(|| {
                    format!(
                        "--faults must be 'crashes', 'slowdowns', 'message-chaos', \
                         or 'mixed', got '{mix}'"
                    )
                })?;
                let fault_seed = opts.parse_num("fault-seed", cfg.seed)?;
                let horizon: f64 = opts.parse_num("fault-horizon", 300.0f64)?;
                if !(horizon.is_finite() && horizon > 0.0) {
                    return Err(format!("--fault-horizon must be positive, got {horizon}"));
                }
                // The paper cluster has 12 machines.
                engine = engine.with_faults(FaultSpec::seeded(fault_seed, mix, cfg, 12, horizon));
                if cfg.liveness_timeout == 0.0 {
                    eprintln!(
                        "note: injecting faults without --liveness; a silent worker \
                         can stall a WaitAll round until its Down notice arrives"
                    );
                }
            }
            Ok(Box::new(engine))
        }
        "proc" => Ok(Box::new(
            ProcEngine::from_current_exe().map_err(|e| format!("--engine proc: {e}"))?,
        )),
        other => Err(format!(
            "--engine must be 'vt', 'threads', 'async', or 'proc', got '{other}'"
        )),
    }
}

fn engine_label(name: &str) -> &'static str {
    match name {
        "async" => "cooperative tasks on a homogeneous virtual cluster",
        "vt" => "the 12-machine virtual cluster",
        "proc" => "worker processes over sockets",
        _ => "native threads",
    }
}

fn cmd_circuits() -> Result<(), String> {
    for name in benchmark_names() {
        let nl = by_name(name).expect("benchmark exists");
        let tg = TimingGraph::build(&nl).map_err(|e| e.to_string())?;
        println!("{}", NetlistStats::compute(&nl, &tg));
    }
    Ok(())
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    match opts.get("problem").unwrap_or("placement") {
        "placement" => cmd_run_placement(opts),
        "qap" => cmd_run_qap(opts),
        other => Err(format!(
            "--problem must be 'placement' or 'qap', got '{other}'"
        )),
    }
}

fn cmd_run_placement(opts: &Opts) -> Result<(), String> {
    let netlist = load_circuit(opts)?;
    let run = build_run(opts)?;
    let cfg = run.config();
    let engine = pick_engine(opts, cfg)?;
    println!(
        "running {} on {}: {} TSW x {} CLW, {} global x {} local iterations",
        netlist.name,
        engine_label(engine.name()),
        cfg.n_tsw,
        cfg.n_clw,
        cfg.global_iters,
        cfg.local_iters
    );
    let out = run.run_placement(netlist, engine.as_ref());
    let o = &out.outcome;
    println!("initial cost : {:.4}", o.initial_cost);
    println!("best cost    : {:.4}", o.best_cost);
    println!(
        "objectives   : wire={:.1} delay={:.2} area={:.0}",
        o.objectives.wire, o.objectives.delay, o.objectives.area
    );
    print_report(o.end_time, o.forced_reports, &out.report);
    Ok(())
}

fn cmd_run_qap(opts: &Opts) -> Result<(), String> {
    let n: usize = opts.parse_num("qap-size", 30usize)?;
    if n < 2 {
        return Err("--qap-size must be at least 2".into());
    }
    let run = build_run(opts)?;
    let cfg = run.config();
    let engine = pick_engine(opts, cfg)?;
    let domain = QapDomain::random(n, cfg.seed ^ 0xAAAA);
    println!(
        "running qap-{n} on {}: {} TSW x {} CLW, {} global x {} local iterations",
        engine_label(engine.name()),
        cfg.n_tsw,
        cfg.n_clw,
        cfg.global_iters,
        cfg.local_iters
    );
    let out = run.execute(&domain, engine.as_ref());
    let o = &out.outcome;
    println!("initial cost : {:.1}", o.initial_cost);
    println!("best cost    : {:.1}", o.best_cost);
    print_report(o.end_time, o.forced_reports, &out.report);
    Ok(())
}

fn print_report(
    end_time: f64,
    forced_reports: u64,
    report: &parallel_tabu_search::core::RunReport,
) {
    let clock = match report.clock {
        parallel_tabu_search::core::ClockDomain::Virtual => "virtual",
        parallel_tabu_search::core::ClockDomain::Wall => "wall",
    };
    println!("search time  : {end_time:.2} s ({clock})");
    println!("wall time    : {:.2} s", report.wall_seconds);
    println!("forced reports: {forced_reports}");
    // Utilization: virtual busy/wait on the vt and async engines,
    // per-thread CPU time (getrusage, Linux) on the thread engine; the
    // proc engine reports none.
    let utilization = if report.utilization() > 0.0 {
        format!("{:.0}% utilization", report.utilization() * 100.0)
    } else {
        "utilization n/a".to_string()
    };
    println!(
        "engine       : {} — {} messages, {utilization}",
        report.engine,
        report.total_messages(),
    );
}

fn cmd_sweep(opts: &Opts) -> Result<(), String> {
    let what = opts.get("what").ok_or("sweep needs --what clw|tsw")?;
    let max: usize = opts.parse_num(
        "max",
        match what {
            "clw" => 4usize,
            _ => 8usize,
        },
    )?;
    let netlist = load_circuit(opts)?;
    let base = build_run(opts)?;
    println!("sweeping {what} 1..={max} on {}", netlist.name);

    let engine = VirtualEngine::paper();
    let mut traces = Vec::new();
    for n in 1..=max {
        let mut builder = Pts::from_config(base.config().clone());
        builder = match what {
            "clw" => builder.tsw_workers(4).clw_workers(n),
            "tsw" => builder.tsw_workers(n).clw_workers(1),
            other => return Err(format!("--what must be 'clw' or 'tsw', got '{other}'")),
        };
        let run = builder.build().map_err(|e| e.to_string())?;
        let out = run.run_placement(netlist.clone(), &engine);
        println!(
            "  n={n}: best={:.4}  t_end={:.2}",
            out.outcome.best_cost, out.outcome.end_time
        );
        traces.push((n, out.outcome.trace));
    }
    let x = common_quality_target(&traces, 0.002);
    println!("\nspeedup to reach x={x:.4}:");
    for p in speedup_sweep(&traces, x) {
        println!(
            "  n={}: t(n,x)={}  speedup={}",
            p.n,
            p.time_to_quality
                .map(|t| format!("{t:.2}"))
                .unwrap_or("-".into()),
            p.speedup.map(|s| format!("{s:.2}")).unwrap_or("-".into()),
        );
    }
    Ok(())
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let cells: usize = opts.parse_num("cells", 200usize)?;
    let seed: u64 = opts.parse_num("seed", 1u64)?;
    if cells < 10 {
        return Err("--cells must be at least 10".into());
    }
    let n_inputs = (cells / 12).max(2);
    let n_outputs = (cells / 15).max(1);
    let n_ff = cells / 10;
    let n_logic = cells - n_inputs - n_outputs - n_ff;
    let spec = CircuitSpec {
        name: format!("gen{cells}"),
        n_inputs,
        n_outputs,
        n_flipflops: n_ff,
        n_logic,
        depth: ((cells as f64).log2() as usize).max(3),
        fanout_tail: 0.18,
        seed,
    };
    let nl = generate(&spec);
    let text = format::to_text(&nl);
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| e.to_string())?;
            println!(
                "wrote {} cells / {} nets to {path}",
                nl.num_cells(),
                nl.num_nets()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_show(opts: &Opts) -> Result<(), String> {
    let path = opts.get("file").ok_or("show needs --file")?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let nl = format::from_text(&text).map_err(|e| e.to_string())?;
    let tg = TimingGraph::build(&nl).map_err(|e| e.to_string())?;
    println!("{}", NetlistStats::compute(&nl, &tg));
    Ok(())
}
