//! Configuration of a parallel tabu search run.

use crate::builder::ConfigError;
use pts_place::eval::{EvalConfig, SchemeChoice};
use pts_place::fuzzy::GoalConfig;
use pts_tabu::aspiration::Aspiration;

/// Parent/child synchronization policy — the paper's heterogeneity knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// "Homogeneous run": a parent waits for *all* children to report.
    WaitAll,
    /// "Heterogeneous run": once a fraction of children (the paper: half)
    /// have reported, the parent forces the rest to report their current
    /// best immediately.
    HalfReport,
}

/// How solution snapshots travel on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Delta-encode snapshots against the last base both link ends
    /// provably share (the previous global broadcast, or the initial
    /// solution), falling back to a full snapshot whenever the delta
    /// would be at least as large. Default. Bit-identical in search
    /// trajectory to [`SnapshotMode::Full`]; only wire sizes (and hence
    /// the virtual timeline of the vt engine) differ.
    Delta,
    /// Always ship full snapshots — the paper's protocol, and the wire
    /// format every release before the delta layer used.
    Full,
}

/// Cost-scheme selector (mirrors `pts_place::eval::SchemeChoice`, exposed
/// as a plain enum for the CLI).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CostKind {
    /// The paper's fuzzy goal-based cost.
    Fuzzy,
    /// Normalized weighted-sum baseline.
    WeightedSum,
}

/// Virtual-CPU work charged per algorithmic operation (vt engine only).
///
/// Units are abstract "work units"; a speed-1.0 machine executes one unit
/// per virtual second. Values approximate the relative real cost of each
/// operation so the virtual timeline matches the algorithm's compute
/// profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkModel {
    /// One candidate swap evaluation (incremental HPWL + STA cone).
    pub per_trial: f64,
    /// Committing one swap (cache refresh).
    pub per_commit: f64,
    /// One tabu test + bookkeeping at the TSW.
    pub per_tabu_check: f64,
    /// One diversification step.
    pub per_diversify_step: f64,
    /// Master-side handling of one report.
    pub per_report: f64,
}

impl Default for WorkModel {
    fn default() -> Self {
        WorkModel {
            per_trial: 1.0,
            per_commit: 2.0,
            per_tabu_check: 0.2,
            per_diversify_step: 1.5,
            per_report: 0.5,
        }
    }
}

/// One tabu-search parameterization: the per-worker knobs that define
/// *how* a TSW searches (as opposed to the topology/protocol knobs that
/// stay on [`PtsConfig`]). A run carries one uniform strategy
/// ([`PtsConfig::search`]) plus an optional heterogeneous
/// [`PtsConfig::portfolio`] assigned per TSW group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchStrategy {
    /// Candidate pairs sampled per elementary move (`m`).
    pub candidates: usize,
    /// Compound move depth (`d`).
    pub depth: usize,
    /// Tabu tenure in local iterations.
    pub tenure: u64,
    /// Number of diversification moves; `0` = auto (scaled to circuit
    /// size, see [`SearchStrategy::effective_diversify_depth`]).
    pub diversify_depth: usize,
    /// Moves sampled per diversification step.
    pub diversify_width: usize,
    /// When a tabu move is accepted anyway.
    pub aspiration: Aspiration,
}

impl Default for SearchStrategy {
    fn default() -> Self {
        SearchStrategy {
            candidates: 8,
            depth: 3,
            tenure: 7,
            diversify_depth: 0, // auto: scale with circuit size
            diversify_width: 4,
            aspiration: Aspiration::BestCost,
        }
    }
}

impl SearchStrategy {
    /// Diversification moves per global iteration. An explicit
    /// `diversify_depth` is used as-is; `0` scales with the square root of
    /// the circuit size (clamped to `[3, 16]`). Sub-linear scaling matters:
    /// the paper itself warns that "too much diversification without
    /// enough local investigation might mislead the search", and linear
    /// depth on a 2000-cell circuit is exactly that failure mode.
    pub fn effective_diversify_depth(&self, n_cells: usize) -> usize {
        if self.diversify_depth > 0 {
            self.diversify_depth
        } else {
            (((n_cells as f64).sqrt() / 3.0).round() as usize).clamp(3, 16)
        }
    }

    /// Structural validity of this strategy's knobs (shared between the
    /// uniform strategy and every portfolio entry).
    pub fn validate(&self, diversify: bool) -> Result<(), ConfigError> {
        if self.candidates == 0 || self.depth == 0 {
            return Err(ConfigError::ZeroMoveBudget);
        }
        if diversify && self.diversify_width == 0 {
            return Err(ConfigError::ZeroDiversifyWidth);
        }
        Ok(())
    }
}

/// Full configuration of a PTS run.
#[derive(Clone, Debug, PartialEq)]
pub struct PtsConfig {
    /// Number of tabu search workers (high-level parallelization).
    pub n_tsw: usize,
    /// Candidate-list workers per TSW (low-level parallelization).
    pub n_clw: usize,
    /// Global iterations (master broadcast rounds).
    pub global_iters: u32,
    /// Local iterations per TSW per global iteration.
    pub local_iters: u32,
    /// The uniform search strategy: every TSW runs these knobs when
    /// [`PtsConfig::portfolio`] is empty, and any group the portfolio
    /// does not cover falls back to it.
    pub search: SearchStrategy,
    /// Heterogeneous strategy portfolio. Empty (default) = uniform: every
    /// worker runs [`PtsConfig::search`], bit-identical to the
    /// pre-portfolio protocol. Non-empty: TSW group `g` (see
    /// [`PtsConfig::group_of_tsw`]) starts on strategy `g % len`, and the
    /// root's adaptive reallocator may reassign groups between rounds
    /// (see `crate::master`). At most 255 entries — strategy ids ride a
    /// single wire byte.
    pub portfolio: Vec<SearchStrategy>,
    /// Perform the Kelly-style diversification step at the start of each
    /// global iteration.
    pub diversify: bool,
    /// Master ↔ TSW synchronization.
    pub tsw_sync: SyncPolicy,
    /// TSW ↔ CLW synchronization.
    pub clw_sync: SyncPolicy,
    /// Fraction of children that must report before the rest are forced
    /// (the paper uses 0.5).
    pub report_fraction: f64,
    /// Net-delay coefficient (`alpha` of the timing model).
    pub alpha: f64,
    /// Cost scheme.
    pub cost: CostKind,
    /// OWA `beta` for the fuzzy scheme.
    pub beta: f64,
    /// Goal target fraction (fuzzy scheme).
    pub goal_target_frac: f64,
    /// Goal zero-membership fraction (fuzzy scheme).
    pub goal_zero_frac: f64,
    /// Weighted-sum weights (wire, delay, area) when `cost = WeightedSum`.
    pub weights: [f64; 3],
    /// Master seed; all worker streams fork from it.
    pub seed: u64,
    /// Master sharding fan-out: the maximum number of children any
    /// collection node (the root master or a sub-master) owns.
    ///
    /// `0` (default) or any value `>= n_tsw` keeps the paper's flat
    /// topology: one master collecting every TSW directly. A value in
    /// `2..n_tsw` inserts a tree of sub-masters — leaf sub-masters each
    /// collect a contiguous group of at most `shard_fanout` TSWs, apply
    /// the [`SyncPolicy::HalfReport`] quorum/force policy *locally*,
    /// reduce to one group best, and forward a single
    /// [`crate::messages::PtsMsg::GroupReport`] upward; further levels
    /// are added until at most `shard_fanout` nodes report to the root.
    /// Collection cost is then O(`shard_fanout`) per process instead of
    /// O(`n_tsw`) at the root. `1` is rejected at validation (the tree
    /// would never contract).
    pub shard_fanout: usize,
    /// Snapshot wire encoding: delta against the last shared broadcast
    /// base (default) or always-full (the paper's format). See
    /// [`SnapshotMode`].
    pub snapshot_mode: SnapshotMode,
    /// Search differentiation. `false` (default) is the paper's MPSS
    /// design — "multiple points, single strategy": all TSWs run the
    /// *same* search (shared RNG streams per role) and differ only through
    /// the diversification step over their private cell ranges. `true` is
    /// an extension: every worker gets an independent RNG stream, i.e. the
    /// strategies themselves differ (closer to SPDS). See the
    /// `ablation_streams` harness for the comparison.
    pub differentiate_streams: bool,
    /// Round-liveness timeout in virtual seconds, `0.0` = disabled
    /// (default). When positive and the substrate supports receive
    /// deadlines (the vt engine), a collection node waiting on child
    /// reports — and a TSW waiting on its round broadcast — gives up
    /// after this long of silence, warns, and completes the round with
    /// what it has. This is what keeps [`SyncPolicy::WaitAll`] from
    /// hanging forever on a crashed worker under a
    /// [`pts_vcluster::FaultPlan`]; fault-free runs never hit it.
    pub liveness_timeout: f64,
    /// Delta-encode the tabu list riding `Broadcast`/`GroupBroadcast`
    /// against the previous round's list (uniform-aging diff with
    /// fallback-to-full, mirroring [`SnapshotMode::Delta`] for
    /// snapshots). Off by default: with the knob off every broadcast
    /// carries the full list and wire sizes are bit-identical to the
    /// pre-delta protocol, which the pinned virtual-time goldens rely
    /// on. Turning it on changes message *sizes* (and thus virtual
    /// timelines) but never the search trajectory — the resolved list
    /// is always exactly the sender's.
    pub tabu_delta: bool,
    /// Worker heartbeat interval in milliseconds for the proc engine,
    /// `0` = disabled (default). When positive, every worker process
    /// writes a socket-layer liveness beacon at this cadence so the
    /// router's supervisor can tell a *hung* child (stale heartbeat,
    /// announced down and excused) from a merely quiet one. Heartbeats
    /// are consumed at the router: they never reach the protocol and
    /// never change a search trajectory. Ignored by the in-process
    /// engines.
    pub heartbeat_ms: u64,
    /// Grace window in milliseconds the proc engine grants children to
    /// exit on their own before killing stragglers outright (both on the
    /// normal wind-down path and when aborting a failed spawn/barrier).
    /// Default 2000; widen on slow CI hosts. Stragglers past the window
    /// are still killed and reaped unconditionally.
    pub reap_grace_ms: u64,
    /// Virtual work accounting (vt engine).
    pub work: WorkModel,
}

impl Default for PtsConfig {
    fn default() -> Self {
        PtsConfig {
            n_tsw: 4,
            n_clw: 1,
            global_iters: 10,
            local_iters: 20,
            search: SearchStrategy::default(),
            portfolio: Vec::new(),
            diversify: true,
            tsw_sync: SyncPolicy::HalfReport,
            clw_sync: SyncPolicy::HalfReport,
            report_fraction: 0.5,
            alpha: 0.15,
            cost: CostKind::Fuzzy,
            beta: 0.6,
            goal_target_frac: 0.75,
            goal_zero_frac: 1.30,
            weights: [0.5, 0.3, 0.2],
            seed: 0xC0FFEE,
            shard_fanout: 0,
            snapshot_mode: SnapshotMode::Delta,
            differentiate_streams: false,
            liveness_timeout: 0.0,
            tabu_delta: false,
            heartbeat_ms: 0,
            reap_grace_ms: 2000,
            work: WorkModel::default(),
        }
    }
}

/// The protocol role of one rank: the inverse of the rank layout
/// ([`PtsConfig::tsw_rank`], [`PtsConfig::clw_rank`],
/// [`PtsConfig::shard_rank`]), as computed by [`PtsConfig::role_of`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The root master (rank 0).
    Master,
    /// TSW `i`.
    Tsw(usize),
    /// CLW `j` of TSW `tsw`.
    Clw {
        /// Index of the TSW this CLW serves.
        tsw: usize,
        /// Index of the CLW within its TSW's group.
        j: usize,
    },
    /// Sub-master `s` of the sharded collection tree.
    SubMaster(usize),
}

/// The children of one collection node in the (possibly sharded) master
/// tree: either a contiguous group of TSWs (leaf collectors, including the
/// flat root) or a contiguous run of sub-masters (inner collectors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardChildren {
    /// TSW indices `lo..hi` report to this node.
    Tsws {
        /// First TSW index of the group.
        lo: usize,
        /// One past the last TSW index of the group.
        hi: usize,
    },
    /// Sub-masters `lo..hi` (shard ids) report to this node.
    Shards {
        /// First shard id of the group.
        lo: usize,
        /// One past the last shard id of the group.
        hi: usize,
    },
}

impl ShardChildren {
    /// Number of children of this node.
    pub fn len(&self) -> usize {
        match *self {
            ShardChildren::Tsws { lo, hi } | ShardChildren::Shards { lo, hi } => hi - lo,
        }
    }

    /// `true` when the node has no children (never occurs in a valid
    /// topology; present for completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One sub-master's place in the collection tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// This sub-master's shard id (also determines its rank).
    pub id: usize,
    /// Rank of the node this sub-master forwards its group best to (the
    /// root master or another sub-master).
    pub parent_rank: usize,
    /// Who reports to this sub-master.
    pub children: ShardChildren,
}

impl PtsConfig {
    /// Total number of processes: master + TSWs + TSWs×CLWs + sub-masters.
    pub fn total_procs(&self) -> usize {
        1 + self.n_tsw + self.n_tsw * self.n_clw + self.n_shards()
    }

    /// Rank of the master process.
    pub fn master_rank(&self) -> usize {
        0
    }

    /// Rank of TSW `i`.
    pub fn tsw_rank(&self, i: usize) -> usize {
        assert!(i < self.n_tsw);
        1 + i
    }

    /// Rank of CLW `j` of TSW `i`.
    pub fn clw_rank(&self, i: usize, j: usize) -> usize {
        assert!(i < self.n_tsw && j < self.n_clw);
        1 + self.n_tsw + i * self.n_clw + j
    }

    /// All CLW ranks of TSW `i`.
    pub fn clw_ranks(&self, i: usize) -> Vec<usize> {
        (0..self.n_clw).map(|j| self.clw_rank(i, j)).collect()
    }

    /// `true` when the run uses a flat master (no sub-masters): the
    /// default `shard_fanout = 0`, or a fan-out already covering every
    /// TSW. The flat topology is rank-for-rank and message-for-message
    /// identical to the pre-sharding protocol.
    pub fn is_flat(&self) -> bool {
        self.shard_fanout == 0 || self.shard_fanout >= self.n_tsw
    }

    /// Sub-master count per tree level, bottom (TSW-facing) level first.
    /// Empty for a flat topology. Level 0 has `ceil(n_tsw / shard_fanout)`
    /// nodes; levels are added until at most `shard_fanout` nodes remain
    /// to report to the root.
    pub fn shard_levels(&self) -> Vec<usize> {
        if self.is_flat() {
            return Vec::new();
        }
        let f = self.shard_fanout;
        let mut levels = Vec::new();
        let mut count = self.n_tsw.div_ceil(f);
        loop {
            levels.push(count);
            if count <= f {
                break;
            }
            count = count.div_ceil(f);
        }
        levels
    }

    /// Total number of sub-master processes.
    pub fn n_shards(&self) -> usize {
        self.shard_levels().iter().sum()
    }

    /// Rank of sub-master `shard`. Sub-masters occupy the ranks after all
    /// CLWs (so the flat rank layout — master, TSWs, CLWs — is unchanged),
    /// ordered level by level from the TSW-facing level upward.
    pub fn shard_rank(&self, shard: usize) -> usize {
        assert!(shard < self.n_shards(), "shard {shard} out of range");
        1 + self.n_tsw + self.n_tsw * self.n_clw + shard
    }

    /// The role rank `rank` plays: master, then TSWs, then CLWs grouped
    /// by TSW, then sub-masters.
    pub fn role_of(&self, rank: usize) -> Role {
        assert!(rank < self.total_procs(), "rank {rank} out of range");
        let Some(r) = rank.checked_sub(1) else {
            return Role::Master;
        };
        if r < self.n_tsw {
            return Role::Tsw(r);
        }
        let r = r - self.n_tsw;
        if r < self.n_tsw * self.n_clw {
            return Role::Clw {
                tsw: r / self.n_clw,
                j: r % self.n_clw,
            };
        }
        Role::SubMaster(r - self.n_tsw * self.n_clw)
    }

    /// Rank of the node TSW `i` reports to: the root master when flat,
    /// otherwise the leaf sub-master owning its group.
    pub fn parent_of_tsw(&self, i: usize) -> usize {
        assert!(i < self.n_tsw);
        if self.is_flat() {
            self.master_rank()
        } else {
            self.shard_rank(i / self.shard_fanout)
        }
    }

    /// The root master's direct children: all TSWs when flat, otherwise
    /// the top level of the sub-master tree.
    pub fn root_children(&self) -> ShardChildren {
        let levels = self.shard_levels();
        if levels.is_empty() {
            ShardChildren::Tsws {
                lo: 0,
                hi: self.n_tsw,
            }
        } else {
            let top = self.n_shards() - levels[levels.len() - 1];
            ShardChildren::Shards {
                lo: top,
                hi: self.n_shards(),
            }
        }
    }

    /// Tree position of sub-master `shard`: its parent's rank and its
    /// children (a TSW group for level-0 shards, lower sub-masters above).
    pub fn shard_spec(&self, shard: usize) -> ShardSpec {
        let levels = self.shard_levels();
        assert!(
            shard < self.n_shards(),
            "shard {shard} out of range for {levels:?}"
        );
        let f = self.shard_fanout;
        // Locate the shard's level and its index within that level.
        let mut level = 0;
        let mut level_lo = 0;
        while shard >= level_lo + levels[level] {
            level_lo += levels[level];
            level += 1;
        }
        let j = shard - level_lo;
        let children = if level == 0 {
            ShardChildren::Tsws {
                lo: j * f,
                hi: ((j + 1) * f).min(self.n_tsw),
            }
        } else {
            let below_lo = level_lo - levels[level - 1];
            ShardChildren::Shards {
                lo: below_lo + j * f,
                hi: below_lo + ((j + 1) * f).min(levels[level - 1]),
            }
        };
        let parent_rank = if level + 1 == levels.len() {
            self.master_rank()
        } else {
            self.shard_rank(level_lo + levels[level] + j / f)
        };
        ShardSpec {
            id: shard,
            parent_rank,
            children,
        }
    }

    /// The automatic sharding fan-out for `n_tsw` workers:
    /// `f ≈ sqrt(n_tsw)`, which balances the collection tree — the root
    /// and each leaf sub-master then own about the same number of
    /// children, minimizing the per-round message load of the busiest
    /// process. Returns `0` (flat) when the tree would not contract
    /// (`n_tsw <= 3`, where `sqrt` rounds below the minimum fan-out of
    /// 2). Used by `RunBuilder::shard_fanout_auto` and the CLI's
    /// `--shard-fanout auto`.
    pub fn auto_shard_fanout(n_tsw: usize) -> usize {
        let f = (n_tsw as f64).sqrt().round() as usize;
        if f < 2 || f >= n_tsw {
            0
        } else {
            f
        }
    }

    /// Cell range assigned to TSW `i` for diversification. Disjoint across
    /// TSWs and covering all cells while `n_tsw <= n_cells`; with more
    /// workers than cells (thousand-worker runs on small instances) ranges
    /// wrap — worker `i` shares the range of worker `i mod n_cells` — so
    /// every worker keeps a non-empty subset.
    pub fn tsw_range(&self, i: usize, n_cells: usize) -> (usize, usize) {
        wrapped_range(n_cells, self.n_tsw, i)
    }

    /// Cell range anchoring CLW `j`'s neighborhood moves. Same wrapping
    /// rule as [`PtsConfig::tsw_range`]: disjoint across a TSW's CLWs
    /// while `n_clw <= n_cells`, shared cyclically beyond that.
    pub fn clw_range(&self, j: usize, n_cells: usize) -> (usize, usize) {
        wrapped_range(n_cells, self.n_clw, j)
    }

    /// Children needed before the parent may force the rest (at least one,
    /// at most all).
    pub fn report_quorum(&self, n_children: usize) -> usize {
        ((n_children as f64 * self.report_fraction).ceil() as usize).clamp(1, n_children)
    }

    /// Diversification moves per global iteration under the *uniform*
    /// strategy; strategy-aware callers use
    /// [`SearchStrategy::effective_diversify_depth`] on the strategy they
    /// currently run.
    pub fn effective_diversify_depth(&self, n_cells: usize) -> usize {
        self.search.effective_diversify_depth(n_cells)
    }

    /// The strategy behind wire id `id`: the portfolio entry when one is
    /// configured, the uniform strategy otherwise. Out-of-range ids (a
    /// corrupt or cross-version frame) clamp into the portfolio rather
    /// than panicking — strategy ids are routing hints, not trusted
    /// indices.
    pub fn strategy(&self, id: u8) -> &SearchStrategy {
        if self.portfolio.is_empty() {
            &self.search
        } else {
            &self.portfolio[id as usize % self.portfolio.len()]
        }
    }

    /// Number of strategy *groups*: the root's direct children — every
    /// TSW is its own group when flat, each top-level subtree is one
    /// group when sharded. This is the granularity at which portfolio
    /// strategies are assigned and reallocated.
    pub fn n_groups(&self) -> usize {
        self.root_children().len()
    }

    /// Strategy group TSW `i` belongs to: the index of the root's direct
    /// child whose subtree contains it.
    pub fn group_of_tsw(&self, i: usize) -> usize {
        assert!(i < self.n_tsw);
        if self.is_flat() {
            return i;
        }
        let levels = self.shard_levels();
        let mut idx = i / self.shard_fanout;
        for _ in 1..levels.len() {
            idx /= self.shard_fanout;
        }
        idx
    }

    /// Strategy group sub-master `shard` serves: the index of the root's
    /// direct child whose subtree contains it (its own index within the
    /// top level for a top-level shard).
    pub fn group_of_shard(&self, shard: usize) -> usize {
        let levels = self.shard_levels();
        assert!(shard < self.n_shards(), "shard {shard} out of range");
        let mut level = 0;
        let mut level_lo = 0;
        while shard >= level_lo + levels[level] {
            level_lo += levels[level];
            level += 1;
        }
        let mut j = shard - level_lo;
        for _ in level + 1..levels.len() {
            j /= self.shard_fanout;
        }
        j
    }

    /// Initial strategy id of group `g`: round-robin over the portfolio
    /// (`0` — the uniform strategy — when no portfolio is configured).
    /// Every process derives the same round-0 assignment locally from
    /// the config; later rounds may be reassigned by the root's
    /// reallocator via the strategy byte on `Broadcast`/`GroupBroadcast`.
    pub fn initial_strategy_of_group(&self, g: usize) -> u8 {
        if self.portfolio.is_empty() {
            0
        } else {
            (g % self.portfolio.len()) as u8
        }
    }

    /// Initial strategy id of TSW `i` (its group's round-0 assignment).
    pub fn initial_strategy_of_tsw(&self, i: usize) -> u8 {
        self.initial_strategy_of_group(self.group_of_tsw(i))
    }

    /// Translate to the placement evaluator configuration.
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            alpha: self.alpha,
            scheme: match self.cost {
                CostKind::Fuzzy => SchemeChoice::Fuzzy { beta: self.beta },
                CostKind::WeightedSum => SchemeChoice::WeightedSum {
                    weights: self.weights,
                },
            },
            goal: GoalConfig {
                target_frac: self.goal_target_frac,
                zero_frac: self.goal_zero_frac,
            },
        }
    }

    /// Validate structural parameters; [`crate::builder::RunBuilder::build`]
    /// calls this so a [`crate::builder::PtsRun`] is valid by construction.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_tsw == 0 {
            return Err(ConfigError::NoTabuSearchWorkers);
        }
        if self.n_clw == 0 {
            return Err(ConfigError::NoCandidateListWorkers);
        }
        if self.global_iters == 0 || self.local_iters == 0 {
            return Err(ConfigError::ZeroIterations);
        }
        self.search.validate(self.diversify)?;
        if self.portfolio.len() > 255 {
            return Err(ConfigError::PortfolioTooLarge(self.portfolio.len()));
        }
        for s in &self.portfolio {
            s.validate(self.diversify)?;
        }
        if !(self.report_fraction > 0.0 && self.report_fraction <= 1.0) {
            return Err(ConfigError::ReportFractionOutOfRange(self.report_fraction));
        }
        if !(0.0..=1.0).contains(&self.beta) {
            return Err(ConfigError::BetaOutOfRange(self.beta));
        }
        if self.shard_fanout == 1 && self.n_tsw > 1 {
            return Err(ConfigError::ShardFanoutTooSmall);
        }
        if !(self.liveness_timeout >= 0.0 && self.liveness_timeout.is_finite()) {
            return Err(ConfigError::LivenessTimeoutInvalid(self.liveness_timeout));
        }
        Ok(())
    }
}

/// `i`-th of `k` near-equal chunks of `0..n` (first chunks take the
/// remainder). Never empty while `i < k <= n`.
pub fn split_range(n: usize, k: usize, i: usize) -> (usize, usize) {
    assert!(k >= 1 && i < k);
    let base = n / k;
    let rem = n % k;
    let lo = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    (lo, lo + len)
}

/// [`split_range`] that stays non-empty when workers outnumber items:
/// with `k > n` the effective worker count is clamped to `n` and worker
/// `i` takes chunk `i mod n`. Identical to [`split_range`] for `k <= n`,
/// which keeps pre-existing (golden-pinned) schedules intact.
pub fn wrapped_range(n: usize, k: usize, i: usize) -> (usize, usize) {
    assert!(k >= 1 && i < k, "worker index {i} out of range for {k}");
    assert!(n >= 1, "cannot partition an empty item space");
    let k_eff = k.min(n);
    split_range(n, k_eff, i % k_eff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_disjoint_and_dense() {
        let cfg = PtsConfig {
            n_tsw: 3,
            n_clw: 2,
            ..PtsConfig::default()
        };
        let mut seen = vec![cfg.master_rank()];
        for i in 0..3 {
            seen.push(cfg.tsw_rank(i));
            for j in 0..2 {
                seen.push(cfg.clw_rank(i, j));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..cfg.total_procs()).collect::<Vec<_>>());
    }

    #[test]
    fn role_of_inverts_the_rank_layout() {
        for (n_tsw, n_clw, shard_fanout) in [(3, 2, 0), (1, 0, 0), (5, 2, 2), (7, 1, 2)] {
            let cfg = PtsConfig {
                n_tsw,
                n_clw,
                shard_fanout,
                ..PtsConfig::default()
            };
            assert_eq!(cfg.role_of(cfg.master_rank()), Role::Master);
            for i in 0..n_tsw {
                assert_eq!(cfg.role_of(cfg.tsw_rank(i)), Role::Tsw(i));
                for j in 0..n_clw {
                    assert_eq!(cfg.role_of(cfg.clw_rank(i, j)), Role::Clw { tsw: i, j });
                }
            }
            for s in 0..cfg.n_shards() {
                assert_eq!(cfg.role_of(cfg.shard_rank(s)), Role::SubMaster(s));
            }
        }
    }

    #[test]
    fn split_range_partitions() {
        for n in [10, 56, 395, 2243] {
            for k in 1..=8 {
                let mut covered = 0;
                let mut prev_end = 0;
                for i in 0..k {
                    let (lo, hi) = split_range(n, k, i);
                    assert_eq!(lo, prev_end, "ranges must be contiguous");
                    assert!(hi > lo, "ranges must be non-empty for n >= k");
                    covered += hi - lo;
                    prev_end = hi;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn wrapped_range_handles_more_workers_than_items() {
        // 8 workers over 3 items: ranges cycle over the 3 real chunks.
        for i in 0..8 {
            let (lo, hi) = wrapped_range(3, 8, i);
            assert_eq!((lo, hi), (i % 3, i % 3 + 1));
        }
        // k <= n: identical to split_range (golden schedules preserved).
        for n in [10, 56, 395] {
            for k in 1..=8 {
                for i in 0..k {
                    assert_eq!(wrapped_range(n, k, i), split_range(n, k, i));
                }
            }
        }
    }

    #[test]
    fn oversubscribed_config_ranges_are_non_empty() {
        let cfg = PtsConfig {
            n_tsw: 1000,
            n_clw: 4,
            ..PtsConfig::default()
        };
        for i in 0..1000 {
            let (lo, hi) = cfg.tsw_range(i, 56);
            assert!(lo < hi && hi <= 56);
        }
    }

    #[test]
    fn flat_topology_has_no_shards() {
        for fanout in [0usize, 8, 9, 100] {
            let cfg = PtsConfig {
                n_tsw: 8,
                shard_fanout: fanout,
                ..PtsConfig::default()
            };
            assert!(cfg.is_flat());
            assert_eq!(cfg.n_shards(), 0);
            assert_eq!(cfg.shard_levels(), Vec::<usize>::new());
            assert_eq!(cfg.root_children(), ShardChildren::Tsws { lo: 0, hi: 8 });
            assert_eq!(cfg.parent_of_tsw(3), 0);
            assert_eq!(cfg.total_procs(), 1 + 8 + 8 * cfg.n_clw);
        }
    }

    #[test]
    fn single_level_shard_tree() {
        // 8 TSWs, fan-out 4: two leaf sub-masters report to the root.
        let cfg = PtsConfig {
            n_tsw: 8,
            n_clw: 1,
            shard_fanout: 4,
            ..PtsConfig::default()
        };
        assert_eq!(cfg.shard_levels(), vec![2]);
        assert_eq!(cfg.n_shards(), 2);
        assert_eq!(cfg.total_procs(), 1 + 8 + 8 + 2);
        assert_eq!(cfg.shard_rank(0), 17);
        assert_eq!(cfg.shard_rank(1), 18);
        assert_eq!(cfg.root_children(), ShardChildren::Shards { lo: 0, hi: 2 });
        for i in 0..4 {
            assert_eq!(cfg.parent_of_tsw(i), 17);
            assert_eq!(cfg.parent_of_tsw(i + 4), 18);
        }
        for s in 0..2 {
            let spec = cfg.shard_spec(s);
            assert_eq!(spec.parent_rank, 0);
            assert_eq!(
                spec.children,
                ShardChildren::Tsws {
                    lo: s * 4,
                    hi: s * 4 + 4
                }
            );
        }
    }

    #[test]
    fn multi_level_shard_tree() {
        // 6 TSWs, fan-out 2: 3 leaf shards, then 2 inner shards, root
        // collects the 2 inner ones. Every node has <= fanout children.
        let cfg = PtsConfig {
            n_tsw: 6,
            n_clw: 1,
            shard_fanout: 2,
            ..PtsConfig::default()
        };
        assert_eq!(cfg.shard_levels(), vec![3, 2]);
        assert_eq!(cfg.n_shards(), 5);
        assert_eq!(cfg.root_children(), ShardChildren::Shards { lo: 3, hi: 5 });
        // Leaf shards own TSW pairs and report to the inner level.
        assert_eq!(
            cfg.shard_spec(0),
            ShardSpec {
                id: 0,
                parent_rank: cfg.shard_rank(3),
                children: ShardChildren::Tsws { lo: 0, hi: 2 }
            }
        );
        assert_eq!(
            cfg.shard_spec(2),
            ShardSpec {
                id: 2,
                parent_rank: cfg.shard_rank(4),
                children: ShardChildren::Tsws { lo: 4, hi: 6 }
            }
        );
        // Inner shards collect leaf shards and report to the root; the
        // last group takes the remainder (one child).
        assert_eq!(
            cfg.shard_spec(3),
            ShardSpec {
                id: 3,
                parent_rank: 0,
                children: ShardChildren::Shards { lo: 0, hi: 2 }
            }
        );
        assert_eq!(
            cfg.shard_spec(4),
            ShardSpec {
                id: 4,
                parent_rank: 0,
                children: ShardChildren::Shards { lo: 2, hi: 3 }
            }
        );
    }

    #[test]
    fn shard_tree_covers_every_tsw_and_shard_exactly_once() {
        for (n_tsw, fanout) in [(1024usize, 32usize), (1000, 7), (64, 3), (5, 2)] {
            let cfg = PtsConfig {
                n_tsw,
                shard_fanout: fanout,
                ..PtsConfig::default()
            };
            let mut tsw_parent = vec![None; n_tsw];
            let mut shard_parent = vec![None; cfg.n_shards()];
            let mut note = |children: ShardChildren, parent: usize| match children {
                ShardChildren::Tsws { lo, hi } => {
                    for slot in &mut tsw_parent[lo..hi] {
                        assert!(slot.replace(parent).is_none());
                    }
                }
                ShardChildren::Shards { lo, hi } => {
                    for slot in &mut shard_parent[lo..hi] {
                        assert!(slot.replace(parent).is_none());
                    }
                }
            };
            note(cfg.root_children(), cfg.master_rank());
            for s in 0..cfg.n_shards() {
                let spec = cfg.shard_spec(s);
                assert!(!spec.children.is_empty() && spec.children.len() <= fanout);
                note(spec.children, cfg.shard_rank(s));
            }
            // Every TSW has exactly one parent, consistent with
            // parent_of_tsw; every shard is collected exactly once.
            for (i, p) in tsw_parent.iter().enumerate() {
                assert_eq!(p.unwrap(), cfg.parent_of_tsw(i));
            }
            for (s, p) in shard_parent.iter().enumerate() {
                let expect = cfg.shard_spec(s).parent_rank;
                assert_eq!(p.unwrap(), expect);
            }
            // Root degree is bounded by the fan-out, the whole point.
            assert!(cfg.root_children().len() <= fanout);
        }
    }

    #[test]
    fn sharded_ranks_are_disjoint_and_dense() {
        let cfg = PtsConfig {
            n_tsw: 5,
            n_clw: 2,
            shard_fanout: 2,
            ..PtsConfig::default()
        };
        let mut seen = vec![cfg.master_rank()];
        for i in 0..5 {
            seen.push(cfg.tsw_rank(i));
            for j in 0..2 {
                seen.push(cfg.clw_rank(i, j));
            }
        }
        for s in 0..cfg.n_shards() {
            seen.push(cfg.shard_rank(s));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..cfg.total_procs()).collect::<Vec<_>>());
    }

    #[test]
    fn auto_fanout_picks_sqrt_and_pins_tree_shapes() {
        // f ≈ sqrt(n_tsw): the adaptive choice and the exact tree it
        // builds, pinned at the sizes the scaling benchmarks use.
        for (n_tsw, expect_f, expect_levels) in [
            (16usize, 4usize, vec![4usize]),
            (64, 8, vec![8]),
            (1024, 32, vec![32]),
        ] {
            let f = PtsConfig::auto_shard_fanout(n_tsw);
            assert_eq!(f, expect_f, "auto fan-out at n_tsw={n_tsw}");
            let cfg = PtsConfig {
                n_tsw,
                shard_fanout: f,
                ..PtsConfig::default()
            };
            cfg.validate().unwrap();
            assert_eq!(cfg.shard_levels(), expect_levels);
            assert_eq!(cfg.root_children().len(), expect_f);
            // One perfectly balanced level: every leaf owns exactly f
            // TSWs, the root exactly f sub-masters.
            for s in 0..cfg.n_shards() {
                assert_eq!(cfg.shard_spec(s).children.len(), expect_f);
            }
        }
        // Non-square and tiny sizes: rounds to the nearest integer, and
        // degenerates to flat where a tree cannot contract.
        assert_eq!(PtsConfig::auto_shard_fanout(1000), 32);
        assert_eq!(PtsConfig::auto_shard_fanout(5), 2);
        assert_eq!(PtsConfig::auto_shard_fanout(4), 2);
        assert_eq!(PtsConfig::auto_shard_fanout(3), 2);
        for tiny in [1usize, 2] {
            assert_eq!(PtsConfig::auto_shard_fanout(tiny), 0, "n_tsw={tiny}");
        }
    }

    #[test]
    fn fanout_of_one_is_rejected() {
        let cfg = PtsConfig {
            n_tsw: 4,
            shard_fanout: 1,
            ..PtsConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ShardFanoutTooSmall));
        // One TSW with fan-out 1 is flat, hence valid.
        let cfg = PtsConfig {
            n_tsw: 1,
            shard_fanout: 1,
            ..PtsConfig::default()
        };
        assert!(cfg.validate().is_ok());
        assert!(cfg.is_flat());
    }

    #[test]
    fn wrapped_range_remainder_goes_to_leading_workers() {
        // 10 items over 4 workers: the 2-item remainder widens the first
        // two chunks; the last worker (i = k-1) gets the narrow tail.
        assert_eq!(wrapped_range(10, 4, 0), (0, 3));
        assert_eq!(wrapped_range(10, 4, 1), (3, 6));
        assert_eq!(wrapped_range(10, 4, 2), (6, 8));
        assert_eq!(wrapped_range(10, 4, 3), (8, 10));
    }

    #[test]
    fn wrapped_range_oversubscribed_last_worker_wraps() {
        // k > n with remainder: worker k-1 lands on chunk (k-1) mod n and
        // still receives a non-empty range.
        let (lo, hi) = wrapped_range(3, 1000, 999);
        assert_eq!((lo, hi), wrapped_range(3, 1000, 999 % 3));
        assert!(lo < hi && hi <= 3);
        // Exactly one extra worker: wraps to chunk 0.
        assert_eq!(wrapped_range(4, 5, 4), wrapped_range(4, 5, 0));
    }

    #[test]
    #[should_panic(expected = "empty item space")]
    fn wrapped_range_rejects_zero_items() {
        wrapped_range(0, 4, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn wrapped_range_rejects_out_of_range_worker() {
        wrapped_range(10, 4, 4);
    }

    #[test]
    fn quorum_half_rounds_up_for_odd_groups() {
        // Sub-masters apply the quorum to their own (often small, often
        // odd) groups: ceil semantics must hold at every size.
        let cfg = PtsConfig::default();
        assert_eq!(cfg.report_quorum(3), 2);
        assert_eq!(cfg.report_quorum(7), 4);
        assert_eq!(cfg.report_quorum(9), 5);
        // A leaf group of one can never be forced (quorum == group).
        assert_eq!(cfg.report_quorum(1), 1);
    }

    #[test]
    fn quorum_half_rounds_up() {
        let cfg = PtsConfig::default();
        assert_eq!(cfg.report_quorum(4), 2);
        assert_eq!(cfg.report_quorum(5), 3);
        assert_eq!(cfg.report_quorum(1), 1);
    }

    #[test]
    fn quorum_clamps() {
        let cfg = PtsConfig {
            report_fraction: 0.01,
            ..PtsConfig::default()
        };
        assert_eq!(cfg.report_quorum(4), 1);
        let cfg = PtsConfig {
            report_fraction: 1.0,
            ..PtsConfig::default()
        };
        assert_eq!(cfg.report_quorum(4), 4);
    }

    #[test]
    fn default_validates() {
        PtsConfig::default().validate().unwrap();
    }

    #[test]
    fn diversify_depth_auto_scales_and_clamps() {
        let cfg = PtsConfig::default();
        assert_eq!(cfg.effective_diversify_depth(56), 3);
        assert_eq!(cfg.effective_diversify_depth(395), 7);
        assert_eq!(cfg.effective_diversify_depth(1451), 13);
        assert_eq!(cfg.effective_diversify_depth(2243), 16);
        let explicit = PtsConfig {
            search: SearchStrategy {
                diversify_depth: 11,
                ..SearchStrategy::default()
            },
            ..PtsConfig::default()
        };
        assert_eq!(explicit.effective_diversify_depth(2243), 11);
    }

    #[test]
    fn strategy_resolution_and_initial_assignment() {
        // Empty portfolio: every id resolves to the uniform strategy and
        // every group starts on id 0.
        let uniform = PtsConfig::default();
        assert_eq!(uniform.strategy(0), &uniform.search);
        assert_eq!(uniform.strategy(7), &uniform.search);
        assert_eq!(uniform.initial_strategy_of_group(3), 0);
        // Two-strategy portfolio over 4 flat TSWs: round-robin start,
        // out-of-range ids clamp instead of panicking.
        let a = SearchStrategy {
            tenure: 3,
            ..SearchStrategy::default()
        };
        let b = SearchStrategy {
            tenure: 19,
            ..SearchStrategy::default()
        };
        let cfg = PtsConfig {
            portfolio: vec![a, b],
            ..PtsConfig::default()
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.n_groups(), 4);
        for i in 0..4 {
            assert_eq!(cfg.group_of_tsw(i), i);
            assert_eq!(cfg.initial_strategy_of_tsw(i), (i % 2) as u8);
        }
        assert_eq!(cfg.strategy(0), &a);
        assert_eq!(cfg.strategy(1), &b);
        assert_eq!(cfg.strategy(2), &a, "ids wrap into the portfolio");
    }

    #[test]
    fn groups_follow_the_shard_tree() {
        // 8 TSWs, fan-out 4: two top-level shards = two groups.
        let cfg = PtsConfig {
            n_tsw: 8,
            shard_fanout: 4,
            ..PtsConfig::default()
        };
        assert_eq!(cfg.n_groups(), 2);
        for i in 0..8 {
            assert_eq!(cfg.group_of_tsw(i), i / 4);
        }
        assert_eq!(cfg.group_of_shard(0), 0);
        assert_eq!(cfg.group_of_shard(1), 1);
        // Two-level tree (6 TSWs, fan-out 2): groups are the *top* level
        // children; leaves map through their ancestors.
        let cfg = PtsConfig {
            n_tsw: 6,
            shard_fanout: 2,
            ..PtsConfig::default()
        };
        assert_eq!(cfg.shard_levels(), vec![3, 2]);
        assert_eq!(cfg.n_groups(), 2);
        assert_eq!(
            (0..6).map(|i| cfg.group_of_tsw(i)).collect::<Vec<_>>(),
            vec![0, 0, 0, 0, 1, 1]
        );
        // Leaf shards 0,1 sit under top shard 3 (group 0); leaf 2 under
        // top shard 4 (group 1); the top shards are their own groups.
        assert_eq!(cfg.group_of_shard(0), 0);
        assert_eq!(cfg.group_of_shard(1), 0);
        assert_eq!(cfg.group_of_shard(2), 1);
        assert_eq!(cfg.group_of_shard(3), 0);
        assert_eq!(cfg.group_of_shard(4), 1);
        // Group of a TSW always matches the group of its leaf shard.
        for i in 0..6 {
            assert_eq!(
                cfg.group_of_tsw(i),
                cfg.group_of_shard(i / cfg.shard_fanout)
            );
        }
    }

    #[test]
    fn portfolio_entries_are_validated() {
        let bad = PtsConfig {
            portfolio: vec![SearchStrategy {
                candidates: 0,
                ..SearchStrategy::default()
            }],
            ..PtsConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroMoveBudget));
        let bad = PtsConfig {
            portfolio: vec![SearchStrategy {
                diversify_width: 0,
                ..SearchStrategy::default()
            }],
            ..PtsConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroDiversifyWidth));
        let huge = PtsConfig {
            portfolio: vec![SearchStrategy::default(); 256],
            ..PtsConfig::default()
        };
        assert_eq!(huge.validate(), Err(ConfigError::PortfolioTooLarge(256)));
    }

    #[test]
    fn validation_catches_zeroes() {
        let cfg = PtsConfig {
            n_tsw: 0,
            ..PtsConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::NoTabuSearchWorkers));
        let cfg = PtsConfig {
            local_iters: 0,
            ..PtsConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroIterations));
        let cfg = PtsConfig {
            report_fraction: 0.0,
            ..PtsConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ReportFractionOutOfRange(0.0))
        );
    }
}
