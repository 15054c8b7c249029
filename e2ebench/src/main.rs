//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload qap-adopt --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced runs; `--trace 1`
//! alternates untraced and traced runs and reports the per-layer
//! breakdown. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; progress goes to
//! standard error.

use pts_core::{AsyncEngine, ExecutionEngine, PtsDomain, VirtualEngine};
use pts_e2ebench::probe::Probe;
use pts_e2ebench::traced::{empty_span_cost, Op, Traced};
use pts_e2ebench::{
    place_case, qap_case, run_plain, run_traced, Case, RunOut, Workload, QAP_N, SETUP_PROBE_MIX,
};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: pts-e2ebench --workload <qap-adopt|qap-search|place-vt> --seed <n> --seconds <n> --trace <0|1>";

/// Inputs per benchmark run, each from its own seed derived from
/// `--seed`. Runs cycle through them, and `best_cost_ratio` is their
/// median: one input's ratio varies by about 12 % (IQR/median) from seed
/// to seed on `place-vt`, the median of sixteen by about a quarter of
/// that.
const INPUTS: usize = 16;
/// Set-up rounds over all inputs, each set-up between two probes; the
/// median is `setup_s`. A fixed count keeps the allocation pattern, and
/// so `peak_rss_mb`, independent of host speed.
const SETUP_ROUNDS: usize = 5;
/// Empty spans timed to calibrate the cost of one span.
const CALIBRATION_SPANS: u32 = 1_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let result = match args.workload {
        Workload::QapAdopt | Workload::QapSearch => {
            bench(&args, |s| qap_case(&w.run(s), QAP_N), &AsyncEngine::new())
        }
        Workload::PlaceVt => bench(
            &args,
            |s| place_case(&w.run(s), "c1355"),
            &VirtualEngine::paper(),
        ),
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The result line: operations checked and the metrics measured.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count one checked operation, failed when `defect` is set.
    fn check(&mut self, what: &str, defect: Option<String>) {
        self.attempted += 1;
        if let Some(d) = defect {
            self.failed += 1;
            eprintln!("FAILED {what}: {d}");
        }
    }

    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they would be a benchmark bug.
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                -1.0
            };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`, the counter
/// `getrusage` reports as `ru_maxrss`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run with the host-speed factor of the probes around it.
struct Timed {
    out: RunOut,
    /// `1 / host_factor`: multiplies a wall time into seconds at the
    /// reference host speed.
    scale: f64,
}

impl Timed {
    fn run_s(&self) -> f64 {
        self.out.wall_s * self.scale
    }
}

fn bench<D, E>(args: &Args, setup: impl Fn(u64) -> Case<D>, engine: &E) -> Report
where
    D: PtsDomain,
    E: ExecutionEngine<D> + ExecutionEngine<Traced<D>>,
{
    let name = args.workload.name();
    let mut report = Report::default();
    let mix = args.workload.probe_mix();
    let mut probe = Probe::new();
    let mut factors = Vec::new();
    let seeds: Vec<u64> = (0..INPUTS)
        .map(|k| args.seed.wrapping_mul(INPUTS as u64).wrapping_add(k as u64))
        .collect();

    let mut setup_s = Vec::new();
    let mut cases = Vec::new();
    let mut before = probe.time();
    for rep in 0..SETUP_ROUNDS {
        for &seed in &seeds {
            let t = Instant::now();
            let case = std::hint::black_box(setup(seed));
            let secs = t.elapsed().as_secs_f64();
            let after = probe.time();
            setup_s.push(secs / SETUP_PROBE_MIX.host_factor(before, after));
            before = after;
            if rep == 0 {
                cases.push(case);
            }
        }
    }

    // Warm-up run, untimed: fills caches and the allocator.
    let warm_up = run_plain(&cases[0], engine);
    report.check(&format!("{name} warm-up run"), warm_up.defect());
    eprintln!(
        "{name} seed {}: setup {:.5}s, {} inputs, first input {} trials, cost {} -> {}",
        args.seed,
        median(&setup_s),
        INPUTS,
        warm_up.facts.trials,
        warm_up.initial_cost,
        warm_up.best_cost
    );
    // The first run of each input (for input 0, the warm-up) records the
    // counts every later run of that input must repeat.
    let mut reference: Vec<Option<RunOut>> = vec![None; INPUTS];
    reference[0] = Some(warm_up);

    let span_cost = if args.trace {
        empty_span_cost(CALIBRATION_SPANS)
    } else {
        0.0
    };

    // Closed loop over the inputs in turn: probe, run, probe, run, ...
    // Each run is scaled by the host factor of the two probes around it.
    // With tracing, each untraced run is followed by the traced run of the
    // same input, so both sides see the same host.
    let mut plain: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let clock = Instant::now();
    before = probe.time();
    for input in (0..INPUTS).cycle() {
        let step = Instant::now();
        for is_traced in [false, true] {
            if is_traced && !args.trace {
                continue;
            }
            let case = &cases[input];
            let out = if is_traced {
                run_traced(case, engine)
            } else {
                run_plain(case, engine)
            };
            let after = probe.time();
            let factor = mix.host_factor(before, after);
            factors.push(factor);
            before = after;
            let expected = reference[input].get_or_insert_with(|| out.clone()).facts;
            let differs = (out.facts != expected)
                .then(|| format!("{:?} differs from first run {expected:?}", out.facts));
            let what = if is_traced { "traced run" } else { "run" };
            report.check(&format!("{name} {what}"), out.defect().or(differs));
            let timed = Timed {
                out,
                scale: 1.0 / factor,
            };
            if is_traced { &mut traced } else { &mut plain }.push(timed);
        }
        // Every input runs at least once; after that, start another step
        // only if it fits in the measuring time.
        let elapsed = clock.elapsed().as_secs_f64();
        if plain.len() >= INPUTS && elapsed + step.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }

    let run_s: Vec<f64> = plain.iter().map(Timed::run_s).collect();
    let wall_s: Vec<f64> = plain.iter().map(|t| t.out.wall_s).collect();
    eprintln!(
        "{name}: {} runs, run_s median {:.4} (wall median {:.4}, host factor median {:.3})",
        plain.len(),
        median(&run_s),
        median(&wall_s),
        median(&factors)
    );
    if args.trace {
        let candidates = cases[0].cfg.search.candidates as u64;
        layer_metrics(&mut report, candidates, &plain, &traced, span_cost);
        report.put("host.factor", median(&factors), "ratio");
        report.put("host.wall_run_s", median(&wall_s), "s");
    } else {
        let rates: Vec<f64> = plain
            .iter()
            .map(|t| t.out.facts.trials as f64 / t.run_s())
            .collect();
        let ratios: Vec<f64> = reference
            .iter()
            .flatten()
            .map(|r| r.best_cost / r.initial_cost)
            .collect();
        report.put("setup_s", median(&setup_s), "s");
        report.put("run_s", median(&run_s), "s");
        report.put("trials_per_s", median(&rates), "1/s");
        report.put("best_cost_ratio", median(&ratios), "ratio");
        report.put("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    report
}

const KERNEL: &[Op] = &[
    Op::SampleMove,
    Op::SampleMoves,
    Op::TrialCost,
    Op::TrialCosts,
];
const COMPOUND: &[Op] = &[Op::Apply, Op::Undo];
const ADOPT: &[Op] = &[Op::Restore, Op::ApplyDelta, Op::Instantiate, Op::CostOf];
const SNAPSHOT: &[Op] = &[Op::Snapshot, Op::Diff];
const TABU: &[Op] = &[Op::Attributes, Op::TargetAttributes];
const DIVERSIFY: &[Op] = &[Op::Diversify];
const LAYERS: [(&str, &[Op]); 6] = [
    ("kernel", KERNEL),
    ("compound", COMPOUND),
    ("adopt", ADOPT),
    ("snapshot", SNAPSHOT),
    ("tabu", TABU),
    ("diversify", DIVERSIFY),
];

/// Per-layer metrics of the traced runs. Times and shares are medians
/// over all traced runs, times scaled like `run_s`; shares are same-run
/// ratios. Counts are medians over the first traced run of every input,
/// so they do not depend on how many runs fit in the measuring time.
fn layer_metrics(
    report: &mut Report,
    candidates: u64,
    plain: &[Timed],
    traced: &[Timed],
    span_cost: f64,
) {
    let spans_of = |t: &Timed| t.out.spans.expect("traced runs carry spans");
    for t in traced {
        // Span consistency with the untraced meters: one `trial_costs`
        // batch per executed step of `candidates` trials.
        let s = spans_of(t);
        let kernel_calls = s.calls(Op::TrialCosts) + s.calls(Op::TrialCost);
        report.check(
            "kernel calls x candidates = executed trials",
            (kernel_calls * candidates != t.out.facts.trials).then(|| {
                format!(
                    "{kernel_calls} x {candidates} != {} trials",
                    t.out.facts.trials
                )
            }),
        );
    }
    let firsts = &traced[..INPUTS.min(traced.len())];
    let count =
        |f: &dyn Fn(&Timed) -> u64| median(&firsts.iter().map(|t| f(t) as f64).collect::<Vec<_>>());
    let calls = |ops: &'static [Op]| count(&|t: &Timed| spans_of(t).calls_of(ops));

    let med = |f: &dyn Fn(&Timed) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let self_s = |ops: &'static [Op]| med(&|t: &Timed| spans_of(t).secs_of(ops) * t.scale);
    let share = |ops: &'static [Op]| med(&|t: &Timed| spans_of(t).secs_of(ops) / t.out.wall_s);
    let residual_share = |t: &Timed| {
        let s = spans_of(t);
        1.0 - LAYERS.iter().map(|(_, ops)| s.secs_of(ops)).sum::<f64>() / t.out.wall_s
    };
    let traced_run_s = med(&Timed::run_s);
    let plain_run_s = median(&plain.iter().map(Timed::run_s).collect::<Vec<_>>());

    report.put(
        "kernel.calls",
        calls(&[Op::TrialCost, Op::TrialCosts]),
        "count",
    );
    report.put(
        "kernel.trials",
        count(&|t: &Timed| t.out.facts.trials),
        "count",
    );
    report.put("kernel.self_s", self_s(KERNEL), "s");
    report.put("kernel.share", share(KERNEL), "ratio");
    report.put(
        "kernel.ns_per_trial",
        med(&|t: &Timed| spans_of(t).secs_of(KERNEL) * t.scale * 1e9 / t.out.facts.trials as f64),
        "ns",
    );
    report.put("compound.apply_calls", calls(&[Op::Apply]), "count");
    report.put("compound.undo_calls", calls(&[Op::Undo]), "count");
    report.put("compound.self_s", self_s(COMPOUND), "s");
    report.put("compound.share", share(COMPOUND), "ratio");
    report.put("adopt.restores", calls(&[Op::Restore]), "count");
    report.put("adopt.apply_deltas", calls(&[Op::ApplyDelta]), "count");
    report.put("adopt.instantiates", calls(&[Op::Instantiate]), "count");
    report.put("adopt.self_s", self_s(ADOPT), "s");
    report.put("adopt.share", share(ADOPT), "ratio");
    report.put(
        "adopt.us_per_restore",
        med(&|t: &Timed| {
            let s = spans_of(t);
            s.secs(Op::Restore) * t.scale * 1e6 / s.calls(Op::Restore).max(1) as f64
        }),
        "us",
    );
    report.put("snapshot.calls", calls(&[Op::Snapshot]), "count");
    report.put("snapshot.diffs", calls(&[Op::Diff]), "count");
    report.put("snapshot.self_s", self_s(SNAPSHOT), "s");
    report.put("snapshot.share", share(SNAPSHOT), "ratio");
    report.put(
        "snapshot.allocs",
        count(&|t: &Timed| t.out.facts.meter.allocs),
        "count",
    );
    report.put(
        "snapshot.round_payload_bytes",
        count(&|t: &Timed| t.out.facts.meter.round_payload_bytes),
        "B",
    );
    report.put(
        "snapshot.tabu_payload_bytes",
        count(&|t: &Timed| t.out.facts.meter.tabu_payload_bytes),
        "B",
    );
    report.put("tabu.attr_calls", calls(TABU), "count");
    report.put("tabu.self_s", self_s(TABU), "s");
    report.put("tabu.share", share(TABU), "ratio");
    report.put("diversify.calls", calls(DIVERSIFY), "count");
    report.put("diversify.self_s", self_s(DIVERSIFY), "s");
    report.put("diversify.share", share(DIVERSIFY), "ratio");
    report.put(
        "protocol.self_s",
        med(&|t: &Timed| residual_share(t) * t.run_s()),
        "s",
    );
    report.put("protocol.share", med(&residual_share), "ratio");
    report.put(
        "protocol.messages",
        count(&|t: &Timed| t.out.facts.messages),
        "count",
    );
    report.put("protocol.bytes", count(&|t: &Timed| t.out.facts.bytes), "B");
    report.put(
        "protocol.root_messages",
        count(&|t: &Timed| t.out.root_messages),
        "count",
    );
    let firsts_median =
        |f: &dyn Fn(&RunOut) -> f64| median(&firsts.iter().map(|t| f(&t.out)).collect::<Vec<_>>());
    report.put("vt.makespan_s", firsts_median(&|r| r.makespan_s), "s");
    report.put("vt.utilization", firsts_median(&|r| r.utilization), "ratio");
    report.put(
        "vt.forced_reports",
        count(&|t: &Timed| t.out.forced_reports),
        "count",
    );
    let spans = count(&|t: &Timed| spans_of(t).total_spans());
    report.put("trace.spans", spans, "count");
    report.put("trace.runs", traced.len() as f64, "count");
    report.put("trace.run_s", traced_run_s, "s");
    report.put("trace.overhead_s", traced_run_s - plain_run_s, "s");
    report.put(
        "trace.span_overhead_s",
        spans * span_cost * med(&|t: &Timed| t.scale),
        "s",
    );

    eprintln!("traced run_s {traced_run_s:.4} (untraced {plain_run_s:.4})");
    for (layer, ops) in LAYERS {
        eprintln!("  {layer:<10} {:6.2}%", 100.0 * share(ops));
    }
    eprintln!("  {:<10} {:6.2}%", "protocol", 100.0 * med(&residual_share));
}
