//! A traced run must be the untraced run: same best cost, executed
//! trials, messages, bytes and snapshot meter, on both domains and both
//! single-threaded engines. The span counts also pin that the wrapper
//! forwards the defaulted methods instead of running the trait defaults.

use pts_core::{AsyncEngine, ExecutionEngine, Pts, PtsDomain, PtsRun, VirtualEngine};
use pts_e2ebench::traced::{Op, Traced};
use pts_e2ebench::{place_case, qap_case, run_plain, run_traced, Case};
use std::sync::{Mutex, PoisonError};

/// The meters and span counters are process-global: one run at a time.
/// The lock guards no data, so a failed test does not poison the rest.
static SERIAL: Mutex<()> = Mutex::new(());

fn small_run() -> PtsRun {
    Pts::builder()
        .tsw_workers(3)
        .clw_workers(2)
        .global_iters(3)
        .local_iters(12)
        .candidates(4)
        .depth(2)
        .seed(5)
        .build()
        .expect("valid configuration")
}

fn assert_traced_equals_plain<D, E>(case: &Case<D>, engine: &E)
where
    D: PtsDomain,
    E: ExecutionEngine<D> + ExecutionEngine<Traced<D>>,
{
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let plain = run_plain(case, engine);
    let traced = run_traced(case, engine);
    assert_eq!(plain.defect(), None);
    assert_eq!(traced.defect(), None);
    assert_eq!(traced.facts, plain.facts, "traced run diverged");
    assert_eq!(traced.root_messages, plain.root_messages);
    assert_eq!(traced.forced_reports, plain.forced_reports);
    assert_eq!(traced.makespan_s.to_bits(), plain.makespan_s.to_bits());

    let spans = traced.spans.expect("traced run carries spans");
    // The pipeline calls only the batched kernel and its own diversify;
    // scalar calls would mean a default method ran on the wrapper.
    assert_eq!(spans.calls(Op::TrialCost), 0, "trial_costs fell back");
    assert_eq!(spans.calls(Op::SampleMove), 0, "a default fell back");
    for op in [
        Op::SampleMoves,
        Op::TrialCosts,
        Op::Apply,
        Op::Undo,
        Op::Attributes,
        Op::TargetAttributes,
        Op::Snapshot,
        Op::Restore,
        Op::Instantiate,
        Op::Diversify,
    ] {
        assert!(spans.calls(op) > 0, "{op:?} never traced");
    }
    let candidates = case.cfg.search.candidates as u64;
    assert_eq!(spans.calls(Op::TrialCosts) * candidates, plain.facts.trials);
}

#[test]
fn qap_async_traced_equals_plain() {
    assert_traced_equals_plain(&qap_case(&small_run(), 24), &AsyncEngine::new());
}

#[test]
fn qap_vt_traced_equals_plain() {
    assert_traced_equals_plain(&qap_case(&small_run(), 24), &VirtualEngine::paper());
}

#[test]
fn placement_async_traced_equals_plain() {
    assert_traced_equals_plain(&place_case(&small_run(), "highway"), &AsyncEngine::new());
}

#[test]
fn placement_vt_traced_equals_plain() {
    assert_traced_equals_plain(
        &place_case(&small_run(), "highway"),
        &VirtualEngine::paper(),
    );
}

#[test]
fn delta_spans_are_traced() {
    // Delta snapshots (the default mode) go through `diff` and
    // `apply_delta` on the wrapped snapshot type.
    let case = qap_case(&small_run(), 24);
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let spans = run_traced(&case, &AsyncEngine::new())
        .spans
        .expect("traced run carries spans");
    assert!(spans.calls(Op::Diff) > 0);
    assert!(spans.calls(Op::ApplyDelta) > 0);
}
