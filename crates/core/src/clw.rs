//! The Candidate-List Worker (CLW), generic over the problem domain.
//!
//! A CLW owns an item *range*. On `Investigate` it builds one compound
//! move: up to `depth` elementary moves, each the best of `m` sampled moves
//! whose anchor item lies in the range (the second item comes from the
//! whole item space, which bounds the probability of two CLWs colliding on
//! the same move by `1/(n-1)²` — the paper's argument for probabilistic
//! domain decomposition). The chain stops early as soon as it improves on
//! the starting cost; otherwise the best (least-bad) prefix is proposed.
//! The CLW then rolls back and waits for the TSW's verdict (`ApplyMoves`).
//!
//! Between compound steps the CLW polls its mailbox for `CutShort` — the
//! TSW's heterogeneity mechanism — and if cut, proposes what it has so far.

use crate::config::PtsConfig;
use crate::domain::{DeltaSnapshot, PtsDomain};
use crate::messages::{PtsMsg, SnapshotPayload};
use crate::meter;
use crate::transport::Transport;
use pts_tabu::candidate::{CandidateList, CandidateScratch};
use pts_tabu::problem::SearchProblem;
use pts_util::Rng;

type MoveOf<D> = <<D as PtsDomain>::Problem as SearchProblem>::Move;

/// Derive a worker-unique RNG stream from the run seed and rank.
pub fn worker_rng(seed: u64, rank: usize) -> Rng {
    Rng::new(seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xCB0C)
}

/// Run the CLW protocol loop until `Stop`.
///
/// `async` over any [`Transport`]: on blocking substrates drive it with
/// [`crate::transport::drive_sync`]; on the cooperative substrate each
/// `recv` is a scheduling point.
pub async fn run_clw<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    tsw_rank: usize,
    clw_index: usize,
    domain: &D,
) {
    let n_items = domain.domain_size();
    let range = cfg.clw_range(clw_index, n_items);
    // MPSS (paper default): CLW j of *every* TSW shares one stream — the
    // searches are differentiated only by the TSW diversification step.
    // With differentiated streams (extension), each worker explores its
    // own trajectory.
    let stream_salt = if cfg.differentiate_streams {
        t.rank()
    } else {
        1_000 + clw_index
    };
    let mut rng = worker_rng(cfg.seed, stream_salt);

    // Wait for the master's Init. TSW messages (AdoptState, Investigate)
    // come from a *different sender* and may overtake Init; they are
    // buffered and replayed once the problem instance exists.
    let mut backlog: Vec<PtsMsg<D::Problem>> = Vec::new();
    let mut problem = loop {
        match t.recv().await {
            PtsMsg::Init { snapshot } => break domain.instantiate(&snapshot),
            PtsMsg::Stop => return,
            other => backlog.push(other),
        }
    };

    // How many AdoptState syncs this CLW has processed — the base
    // sequence an AdoptState delta must match (the TSW/CLW link is FIFO
    // with exactly one sync per round).
    let mut adopt_seq: u32 = 0;

    // One set of batch buffers serves every investigation this CLW runs.
    let mut scratch: CandidateScratch<MoveOf<D>> = CandidateScratch::new();

    for msg in std::mem::take(&mut backlog) {
        if handle::<D, T>(
            t,
            cfg,
            tsw_rank,
            clw_index,
            range,
            &mut rng,
            &mut problem,
            &mut adopt_seq,
            &mut scratch,
            msg,
        )
        .await
        {
            return;
        }
    }
    loop {
        let msg = t.recv().await;
        if handle::<D, T>(
            t,
            cfg,
            tsw_rank,
            clw_index,
            range,
            &mut rng,
            &mut problem,
            &mut adopt_seq,
            &mut scratch,
            msg,
        )
        .await
        {
            return;
        }
    }
}

/// Dispatch one protocol message; returns `true` on `Stop`.
#[allow(clippy::too_many_arguments)]
async fn handle<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    tsw_rank: usize,
    clw_index: usize,
    range: (usize, usize),
    rng: &mut Rng,
    problem: &mut D::Problem,
    adopt_seq: &mut u32,
    scratch: &mut CandidateScratch<MoveOf<D>>,
    msg: PtsMsg<D::Problem>,
) -> bool {
    match msg {
        PtsMsg::Investigate { seq, strategy } => {
            let mut tsw_down = false;
            let (moves, cost) = investigate::<D, T>(
                t,
                cfg,
                strategy,
                problem,
                rng,
                range,
                seq,
                tsw_rank,
                &mut tsw_down,
                scratch,
            )
            .await;
            // The TSW died mid-investigation (its Down notice reached the
            // cut-short poll): there is nobody to propose to — wind down.
            if tsw_down {
                return true;
            }
            t.send(
                tsw_rank,
                PtsMsg::Proposal {
                    clw: clw_index,
                    seq,
                    moves,
                    cost,
                },
            );
        }
        PtsMsg::ApplyMoves { moves } => {
            for mv in &moves {
                problem.apply(mv);
            }
            t.compute(cfg.work.per_commit * moves.len() as f64).await;
        }
        PtsMsg::AdoptState { seq, snapshot } => {
            let adopted = match snapshot {
                SnapshotPayload::Full(s) => {
                    problem.restore(&s);
                    true
                }
                SnapshotPayload::Delta { base_seq, delta } => {
                    // The delta's base is this CLW's *own current state*
                    // (the TSW's state at its last report, which the
                    // mirrored ApplyMoves kept identical here). A
                    // sequence mismatch means the lockstep broke —
                    // protocol violation; drop rather than desync worse.
                    if base_seq == *adopt_seq && seq == *adopt_seq {
                        let current = problem.snapshot();
                        let new = <<D::Problem as pts_tabu::SearchProblem>::Snapshot as
                            DeltaSnapshot>::apply_delta(&current, &delta);
                        meter::record_snapshot_alloc();
                        problem.restore(&new);
                        true
                    } else {
                        crate::transport::protocol_warn(
                            t.rank(),
                            &format!(
                                "CLW dropping AdoptState delta for sync {base_seq} (expected {adopt_seq})"
                            ),
                        );
                        false
                    }
                }
            };
            // Track the *sender's* counter, not a blind local increment:
            // after an anomaly this re-aligns the sequence, so the next
            // Full sync (fallback rounds ship Full payloads) genuinely
            // restores lockstep instead of every later delta being
            // dropped against a permanently off-by-one counter.
            *adopt_seq = seq + 1;
            if adopted {
                t.compute(cfg.work.per_commit).await;
            }
        }
        PtsMsg::Stop => return true,
        // Death notice: our TSW is gone — nobody will ever Investigate or
        // Stop us, so wind down now. Anyone else's death is not our
        // concern (the TSW re-plans around its own losses).
        PtsMsg::Down { rank } => return rank == tsw_rank,
        // Stale control traffic (CutShort for a finished investigation, a
        // duplicate Init delivered late).
        PtsMsg::CutShort { .. } | PtsMsg::Init { .. } => {}
        other => {
            crate::transport::protocol_warn(
                t.rank(),
                &format!("CLW dropping unexpected {}", other.tag()),
            );
        }
    }
    false
}

/// Build one compound-move proposal. Leaves the problem back at its
/// starting state; returns the proposed move prefix and the cost it
/// reaches. Sets `tsw_down` (and stops early) if the owning TSW's death
/// notice arrives at the cut-short poll.
#[allow(clippy::too_many_arguments)]
async fn investigate<D: PtsDomain, T: Transport<D::Problem>>(
    t: &mut T,
    cfg: &PtsConfig,
    strategy: u8,
    problem: &mut D::Problem,
    rng: &mut Rng,
    range: (usize, usize),
    seq: u64,
    tsw_rank: usize,
    tsw_down: &mut bool,
    scratch: &mut CandidateScratch<MoveOf<D>>,
) -> (Vec<MoveOf<D>>, f64) {
    // The search knobs come from the *investigation's* strategy stamp, not
    // a config global: under a portfolio the owning TSW may be reassigned
    // between rounds, and the stamp keeps CLWs in lockstep with it.
    let strat = cfg.strategy(strategy);
    let sampler = CandidateList::new(strat.candidates);
    let start_cost = problem.cost();
    let mut applied: Vec<MoveOf<D>> = Vec::with_capacity(strat.depth);
    let mut cost_after: Vec<f64> = Vec::with_capacity(strat.depth);

    for step in 0..strat.depth {
        // m trial evaluations + one commit of the winner. The whole batch
        // is still charged as ONE compute call — the virtual-time ledger
        // (and thus every pinned vt golden) is oblivious to whether
        // the trials ran through the scalar loop or the batched kernel.
        t.compute(cfg.work.per_trial * strat.candidates as f64)
            .await;
        // Exact trial metering: count the batch only when it actually
        // executes (cut-short / forced-early / dead paths never get here).
        meter::record_trials(strat.candidates as u64);
        let cand = sampler.sample_best_with(problem, rng, Some(range), scratch);
        problem.apply(&cand.mv);
        t.compute(cfg.work.per_commit).await;
        applied.push(cand.mv);
        cost_after.push(problem.cost());

        // Early accept: improved over the starting cost — report at once.
        if *cost_after.last().expect("just pushed") < start_cost {
            break;
        }
        // Nothing left to cut after the final step; skip the poll.
        if step + 1 == strat.depth {
            break;
        }
        // Heterogeneity: the TSW may cut the investigation short. On the
        // cooperative substrate the `compute` calls above suspend, so the
        // TSW (and sibling CLWs) run mid-investigation and a `CutShort`
        // can already be in the mailbox when we poll.
        let mut cut = false;
        while let Some(msg) = t.try_recv() {
            match msg {
                PtsMsg::CutShort { seq: s } if s == seq => cut = true,
                PtsMsg::CutShort { .. } => {} // stale
                PtsMsg::Down { rank } if rank == tsw_rank => {
                    *tsw_down = true;
                    cut = true;
                }
                PtsMsg::Down { .. } => {}
                other => {
                    crate::transport::protocol_warn(
                        t.rank(),
                        &format!("CLW dropping unexpected {} mid-investigation", other.tag()),
                    );
                }
            }
        }
        if cut {
            break;
        }
    }

    // Best prefix (least-bad if nothing improves; always >= 1 move).
    let mut best_len = 1;
    let mut best_cost = cost_after[0];
    for (i, &c) in cost_after.iter().enumerate().skip(1) {
        if c < best_cost {
            best_cost = c;
            best_len = i + 1;
        }
    }

    // Roll all moves back; the TSW decides what is actually applied.
    for mv in applied.iter().rev() {
        problem.undo(mv);
    }
    applied.truncate(best_len);
    (applied, best_cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_rng_streams_differ_by_rank() {
        let mut a = worker_rng(1, 1);
        let mut b = worker_rng(1, 2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn worker_rng_deterministic() {
        let mut a = worker_rng(7, 3);
        let mut b = worker_rng(7, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
