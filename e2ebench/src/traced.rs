//! A delegating domain wrapper that times every call into the problem
//! layer from outside the library.
//!
//! [`Traced<D>`] wraps any [`PtsDomain`]; the problems it mints are
//! [`TP<P>`], which forward *every* [`SearchProblem`] and
//! [`DiversifiableProblem`] method to the wrapped problem — the defaulted
//! ones (`sample_moves`, `trial_costs`, `target_attributes`, `diversify`)
//! included, so a problem's own overrides are what runs. Snapshots are
//! wrapped in [`TS<S>`], which forwards [`WireSized`] and
//! [`DeltaSnapshot`] so `diff` and `apply_delta` are timed too.
//!
//! Because every method forwards to the wrapped one and the wrapper
//! consumes no randomness, a traced run follows the same trajectory as an
//! untraced one: same best cost, executed trials, messages, bytes and
//! snapshot allocations (the integration tests pin this).
//!
//! Spans never nest: a forwarded method calls the *wrapped* problem, whose
//! internal calls are not traced. So a layer's self time is the sum of its
//! spans, and the protocol residual is traced wall time minus all spans.
//! `cost()` and `domain_size()` are O(1) getters; they are forwarded but
//! not timed, so their (tiny) cost lands in the residual.

use pts_core::{DeltaSnapshot, PtsDomain, SnapshotOf, WireSized};
use pts_tabu::{DiversifiableProblem, FrequencyMemory, SearchProblem};
use pts_util::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One traced entry point into the problem layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    SampleMove,
    SampleMoves,
    TrialCost,
    TrialCosts,
    Apply,
    Undo,
    Attributes,
    TargetAttributes,
    Snapshot,
    Diff,
    Restore,
    ApplyDelta,
    Instantiate,
    CostOf,
    Diversify,
    /// A span around nothing: calibrates the cost of one span.
    Empty,
}

const N_OPS: usize = Op::Empty as usize + 1;

// Statistics only: no other data is published through these counters.
static CALLS: [AtomicU64; N_OPS] = [const { AtomicU64::new(0) }; N_OPS];
static NANOS: [AtomicU64; N_OPS] = [const { AtomicU64::new(0) }; N_OPS];

/// Time `f` as one span of `op`.
#[inline]
fn span<R>(op: Op, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    CALLS[op as usize].fetch_add(1, Ordering::Relaxed);
    NANOS[op as usize].fetch_add(ns, Ordering::Relaxed);
    out
}

/// Call counts and summed span time of every [`Op`] since the last take.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Spans {
    calls: [u64; N_OPS],
    nanos: [u64; N_OPS],
}

impl Spans {
    /// Calls of `op`.
    pub fn calls(&self, op: Op) -> u64 {
        self.calls[op as usize]
    }

    /// Summed span seconds of `op`.
    pub fn secs(&self, op: Op) -> f64 {
        self.nanos[op as usize] as f64 * 1e-9
    }

    /// Total calls over `ops`.
    pub fn calls_of(&self, ops: &[Op]) -> u64 {
        ops.iter().map(|&op| self.calls(op)).sum()
    }

    /// Total span seconds over `ops`.
    pub fn secs_of(&self, ops: &[Op]) -> f64 {
        ops.iter().map(|&op| self.secs(op)).sum()
    }

    /// Every span recorded, calibration spans excluded.
    pub fn total_spans(&self) -> u64 {
        self.calls.iter().sum::<u64>() - self.calls(Op::Empty)
    }
}

/// Read and reset the span counters. Traced runs must not overlap.
pub fn take_spans() -> Spans {
    let mut s = Spans::default();
    for i in 0..N_OPS {
        s.calls[i] = CALLS[i].swap(0, Ordering::Relaxed);
        s.nanos[i] = NANOS[i].swap(0, Ordering::Relaxed);
    }
    s
}

/// Seconds one span adds around its call, measured over `n` empty spans
/// in this process (counters are left drained).
pub fn empty_span_cost(n: u32) -> f64 {
    let _ = take_spans();
    let start = Instant::now();
    for i in 0..n {
        std::hint::black_box(span(Op::Empty, || std::hint::black_box(i)));
    }
    let secs = start.elapsed().as_secs_f64();
    let _ = take_spans();
    secs / f64::from(n.max(1))
}

/// A snapshot of the wrapped problem, with timed delta encoding.
#[derive(Clone, Debug, PartialEq)]
pub struct TS<S>(pub S);

impl<S: WireSized> WireSized for TS<S> {
    fn wire_bytes(&self) -> u64 {
        self.0.wire_bytes()
    }
}

impl<S: DeltaSnapshot> DeltaSnapshot for TS<S> {
    type Delta = S::Delta;

    fn diff(base: &TS<S>, new: &TS<S>) -> S::Delta {
        span(Op::Diff, || S::diff(&base.0, &new.0))
    }

    fn apply_delta(base: &TS<S>, delta: &S::Delta) -> TS<S> {
        TS(span(Op::ApplyDelta, || S::apply_delta(&base.0, delta)))
    }
}

/// A problem instance whose every call is forwarded and timed.
pub struct TP<P>(pub P);

impl<P: SearchProblem> SearchProblem for TP<P> {
    type Move = P::Move;
    type Attribute = P::Attribute;
    type Snapshot = TS<P::Snapshot>;

    fn cost(&self) -> f64 {
        self.0.cost()
    }

    fn domain_size(&self) -> usize {
        self.0.domain_size()
    }

    fn sample_move(&mut self, rng: &mut Rng, range: Option<(usize, usize)>) -> P::Move {
        span(Op::SampleMove, || self.0.sample_move(rng, range))
    }

    fn trial_cost(&mut self, mv: &P::Move) -> f64 {
        span(Op::TrialCost, || self.0.trial_cost(mv))
    }

    fn apply(&mut self, mv: &P::Move) {
        span(Op::Apply, || self.0.apply(mv))
    }

    fn undo(&mut self, mv: &P::Move) {
        span(Op::Undo, || self.0.undo(mv))
    }

    fn attributes(&self, mv: &P::Move) -> pts_tabu::AttrPair<P::Attribute> {
        span(Op::Attributes, || self.0.attributes(mv))
    }

    fn target_attributes(&self, mv: &P::Move) -> pts_tabu::AttrPair<P::Attribute> {
        span(Op::TargetAttributes, || self.0.target_attributes(mv))
    }

    fn snapshot(&self) -> TS<P::Snapshot> {
        TS(span(Op::Snapshot, || self.0.snapshot()))
    }

    fn restore(&mut self, snapshot: &TS<P::Snapshot>) {
        span(Op::Restore, || self.0.restore(&snapshot.0))
    }

    fn sample_moves(
        &mut self,
        rng: &mut Rng,
        range: Option<(usize, usize)>,
        count: usize,
        out: &mut Vec<P::Move>,
    ) {
        span(Op::SampleMoves, || {
            self.0.sample_moves(rng, range, count, out)
        })
    }

    fn trial_costs(&mut self, moves: &[P::Move], out: &mut Vec<f64>) {
        span(Op::TrialCosts, || self.0.trial_costs(moves, out))
    }
}

impl<P: DiversifiableProblem> DiversifiableProblem for TP<P> {
    fn diversify(
        &mut self,
        rng: &mut Rng,
        range: (usize, usize),
        depth: usize,
        width: usize,
        memory: Option<&FrequencyMemory<P::Attribute>>,
    ) -> Vec<P::Move> {
        span(Op::Diversify, || {
            self.0.diversify(rng, range, depth, width, memory)
        })
    }
}

/// A domain whose problems and snapshots are traced.
#[derive(Clone)]
pub struct Traced<D>(pub D);

impl<D: PtsDomain> PtsDomain for Traced<D> {
    type Problem = TP<D::Problem>;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn domain_size(&self) -> usize {
        self.0.domain_size()
    }

    fn initial(&self, seed: u64) -> TS<SnapshotOf<D>> {
        TS(self.0.initial(seed))
    }

    fn freeze(&self, initial: &TS<SnapshotOf<D>>) -> Traced<D> {
        Traced(self.0.freeze(&initial.0))
    }

    fn instantiate(&self, snapshot: &TS<SnapshotOf<D>>) -> TP<D::Problem> {
        TP(span(Op::Instantiate, || self.0.instantiate(&snapshot.0)))
    }

    fn cost_of(&self, snapshot: &TS<SnapshotOf<D>>) -> f64 {
        span(Op::CostOf, || self.0.cost_of(&snapshot.0))
    }
}
