//! The `proc` engine: the pipeline as real OS processes.
//!
//! The paper ran its search on PVM — a master process and worker
//! processes on separate machines, exchanging typed messages. Every
//! other engine keeps all ranks in one address space (native threads or
//! cooperative tasks). [`ProcEngine`] crosses the process boundary: it spawns one child process per worker rank, wires
//! every rank to a [`crate::socket::SocketRouter`] hub over Unix-domain
//! (or TCP) sockets, and drives the unchanged `run_master` protocol from
//! the parent — rank 0 speaks the same [`crate::wire`] codec over the
//! same router as everyone else.
//!
//! A child re-enters through its own binary: the engine launches
//! `<worker_exe> __pts-worker --sock <addr> --rank <n>`, and any binary
//! hosting the engine calls [`maybe_worker`] first thing in `main` to
//! dispatch that invocation. The worker handshakes with the router,
//! receives one *setup frame* — config, domain specification, decode
//! context, initial solution — reconstructs the domain from the spec
//! ([`ProcDomain`]), re-freezes it against the shipped initial (freezing
//! is deterministic), and runs the rank through the same
//! [`crate::engine::run_worker`] every other engine uses. Nothing in `master.rs`/`tsw.rs`/`clw.rs` knows
//! whether its peers share its address space.
//!
//! # Supervision
//!
//! Real processes die. The engine runs a monitor thread alongside the
//! master that polls every child with `try_wait`: a nonzero exit marks
//! that rank down at the router (its protocol neighbours receive
//! [`crate::PtsMsg::Down`] and excuse it through the same
//! quorum-over-the-living machinery the vt engine exercises), and the
//! run completes degraded-but-truthful — [`RunReport::dead_ranks`]
//! lists every rank that was lost. With `heartbeat_ms > 0` workers
//! also beacon on idle streams, so a *hung* child (alive but silent)
//! is excused once its stream has been quiet for three beacon
//! intervals. Clean exits are never excused: a worker only exits zero
//! after the protocol's own `Stop` wind-down.

use crate::config::PtsConfig;
use crate::control::RunControl;
use crate::domain::{PtsDomain, SearchOutcome, SnapshotOf};
use crate::engine::{run_worker, EngineOutput, ExecutionEngine};
use crate::master::run_master;
use crate::report::{ClockDomain, RunReport};
use crate::socket::{SocketRouter, SocketTransport};
use crate::transport::drive_sync;
use crate::wire::{self, WireError, WireProblem, WireReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a worker keeps retrying its first connect, and how long the
/// router waits for the full rank barrier.
const CONNECT_OVERALL: Duration = Duration::from_secs(10);
const BARRIER_TIMEOUT: Duration = Duration::from_secs(20);
/// Grace period for children to exit after the protocol's `Stop` before
/// they are killed. Failure paths (spawn or barrier errors) use the
/// shorter, configurable `PtsConfig::reap_grace_ms` instead — there is
/// no protocol left to wind down.
const REAP_TIMEOUT: Duration = Duration::from_secs(10);
/// How often the supervisor polls children for exits and stale streams.
const MONITOR_TICK: Duration = Duration::from_millis(25);

/// A domain that can be reconstructed inside another OS process from a
/// byte specification — the proc engine's serialization boundary for
/// *problem data* (the wire codec covers protocol messages; this covers
/// the run-constant instance a worker must rebuild once at startup).
pub trait ProcDomain: PtsDomain
where
    Self::Problem: WireProblem,
{
    /// Tag identifying this domain in the setup frame, so the generic
    /// worker entry can dispatch to the right decoder. Registry:
    /// 1 = QAP, 2 = placement.
    const KIND: u8;

    /// Encode everything a worker needs to rebuild this domain (minus
    /// the run config, which travels separately in the setup frame).
    fn encode_spec(&self, out: &mut Vec<u8>);

    /// Rebuild the domain from [`ProcDomain::encode_spec`] bytes.
    fn decode_spec(r: &mut WireReader<'_>, cfg: &PtsConfig) -> Result<Self, WireError>;
}

impl ProcDomain for crate::qap_domain::QapDomain {
    const KIND: u8 = 1;

    /// `n`, then the flow and distance matrices row-major.
    fn encode_spec(&self, out: &mut Vec<u8>) {
        let q = self.instance();
        wire::put_u64(out, q.n() as u64);
        for &v in q.flow_matrix() {
            wire::put_f64(out, v);
        }
        for &v in q.dist_matrix() {
            wire::put_f64(out, v);
        }
    }

    fn decode_spec(r: &mut WireReader<'_>, _cfg: &PtsConfig) -> Result<Self, WireError> {
        let n = r.u64()? as usize;
        if !(2..=1 << 16).contains(&n) {
            return Err(WireError::Malformed("implausible QAP size"));
        }
        // Two n×n f64 matrices follow: refuse a short frame before
        // reserving room for them.
        if (r.remaining() as u64) < 16 * (n as u64) * (n as u64) {
            return Err(WireError::Truncated);
        }
        let mut flow = Vec::with_capacity(n * n);
        for _ in 0..n * n {
            flow.push(r.f64()?);
        }
        let mut dist = Vec::with_capacity(n * n);
        for _ in 0..n * n {
            dist.push(r.f64()?);
        }
        Ok(crate::qap_domain::QapDomain::new(
            pts_tabu::qap::Qap::from_matrices(flow, dist),
        ))
    }
}

impl ProcDomain for crate::placement_problem::PlacementDomain {
    const KIND: u8 = 2;

    /// The netlist in its text format (`pts_netlist::format`); timing
    /// graph, evaluator, and cost scheme are all rebuilt deterministically
    /// from it plus the config and the shipped initial placement.
    fn encode_spec(&self, out: &mut Vec<u8>) {
        let text = pts_netlist::format::to_text(self.netlist());
        wire::put_u32(out, text.len() as u32);
        out.extend_from_slice(text.as_bytes());
    }

    fn decode_spec(r: &mut WireReader<'_>, cfg: &PtsConfig) -> Result<Self, WireError> {
        let len = r.u32()? as usize;
        let bytes = r.bytes(len)?;
        let text =
            std::str::from_utf8(bytes).map_err(|_| WireError::Malformed("netlist not UTF-8"))?;
        let netlist = pts_netlist::format::from_text(text)
            .map_err(|_| WireError::Malformed("unparseable netlist"))?;
        Ok(crate::placement_problem::PlacementDomain::new(
            std::sync::Arc::new(netlist),
            cfg,
        ))
    }
}

/// Compose the setup frame every rank receives after the barrier:
/// version, config, domain kind + spec, decode context, initial solution.
pub fn encode_setup<D: ProcDomain>(cfg: &PtsConfig, domain: &D, initial: &SnapshotOf<D>) -> Vec<u8>
where
    D::Problem: WireProblem,
{
    let mut out = Vec::new();
    out.push(wire::WIRE_VERSION);
    wire::put_config(cfg, &mut out);
    out.push(D::KIND);
    domain.encode_spec(&mut out);
    let ctx = <D::Problem as WireProblem>::ctx_of(initial);
    <D::Problem as WireProblem>::put_ctx(&ctx, &mut out);
    let mut snap = Vec::new();
    <D::Problem as WireProblem>::put_snapshot(initial, &mut snap);
    wire::put_u32(&mut out, snap.len() as u32);
    out.extend_from_slice(&snap);
    out
}

fn worker_for_domain<D: ProcDomain>(
    stream: crate::socket::Stream,
    rank: usize,
    cfg: &PtsConfig,
    r: &mut WireReader<'_>,
) -> Result<(), String>
where
    D::Problem: WireProblem,
{
    let domain = D::decode_spec(r, cfg).map_err(|e| format!("domain spec: {e}"))?;
    let ctx = <D::Problem as WireProblem>::get_ctx(r).map_err(|e| format!("ctx: {e}"))?;
    let snap_len = r.u32().map_err(|e| format!("initial length: {e}"))? as usize;
    let initial = <D::Problem as WireProblem>::get_snapshot(r, snap_len, &ctx)
        .map_err(|e| format!("initial solution: {e}"))?;
    // Freezing is deterministic in (domain, initial): the worker arrives
    // at the same cost scheme the parent froze before spawning.
    let domain = domain.freeze(&initial);
    let mut t = SocketTransport::<D::Problem>::new(stream, rank, ctx)
        .map_err(|e| format!("transport: {e}"))?;
    if cfg.heartbeat_ms > 0 {
        t.start_heartbeat(Duration::from_millis(cfg.heartbeat_ms));
    }
    drive_sync(run_worker(&mut t, cfg, &domain, rank));
    Ok(())
}

/// Test/chaos instrumentation: crash this worker when
/// `PTS_CHAOS_CRASH_RANKS` (comma-separated rank list) names it. The
/// crash is a hard `abort` — no wind-down, no `Stop` — so the parent
/// sees exactly what a SIGKILL or OOM kill looks like. Two knobs shape
/// it:
///
/// - `PTS_CHAOS_CRASH_ONCE=<path>`: only the process that wins creating
///   `<path>` crashes, so a retry test loses exactly one attempt.
/// - `PTS_CHAOS_CRASH_AFTER_MS=<n>`: arm a timer and crash mid-run
///   instead of immediately after the handshake.
///
/// Deliberately inert unless the environment opts in; production runs
/// never set these.
fn chaos_maybe_crash(rank: u32) {
    let Ok(ranks) = std::env::var("PTS_CHAOS_CRASH_RANKS") else {
        return;
    };
    if !ranks.split(',').any(|r| r.trim().parse() == Ok(rank)) {
        return;
    }
    if let Ok(token) = std::env::var("PTS_CHAOS_CRASH_ONCE") {
        let won = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&token)
            .is_ok();
        if !won {
            return;
        }
    }
    let delay_ms: u64 = std::env::var("PTS_CHAOS_CRASH_AFTER_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if delay_ms == 0 {
        std::process::abort();
    }
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(delay_ms));
        std::process::abort();
    });
}

/// Worker-process entry: connect to `addr`, handshake as `rank`, decode
/// the setup frame, and run this rank's role to completion.
pub fn worker_main(addr: &str, rank: u32) -> Result<(), String> {
    // The handshake is domain-independent; generics begin after the kind
    // byte. QAP's problem type anchors the generic handshake call.
    let hs = SocketTransport::<pts_tabu::qap::Qap>::handshake(addr, rank, CONNECT_OVERALL)
        .map_err(|e| format!("rank {rank} handshake: {e}"))?;
    // After the handshake so the barrier completes and the crash lands
    // on a live, routed rank — the case supervision must survive.
    chaos_maybe_crash(rank);
    let mut r = WireReader::new(&hs.setup);
    let version = r.u8().map_err(|e| format!("setup: {e}"))?;
    if !(wire::MIN_WIRE_VERSION..=wire::WIRE_VERSION).contains(&version) {
        return Err(format!("setup version {version}"));
    }
    // The config block's layout depends on the frame's declared version
    // (older masters omit the portfolio tail); thread it through.
    let cfg =
        wire::get_config_versioned(&mut r, version).map_err(|e| format!("setup config: {e}"))?;
    let kind = r.u8().map_err(|e| format!("setup kind: {e}"))?;
    match kind {
        <crate::qap_domain::QapDomain as ProcDomain>::KIND => {
            worker_for_domain::<crate::qap_domain::QapDomain>(
                hs.stream,
                rank as usize,
                &cfg,
                &mut r,
            )
        }
        <crate::placement_problem::PlacementDomain as ProcDomain>::KIND => {
            worker_for_domain::<crate::placement_problem::PlacementDomain>(
                hs.stream,
                rank as usize,
                &cfg,
                &mut r,
            )
        }
        other => Err(format!("unknown domain kind {other}")),
    }
}

/// Re-entry hook for binaries hosting the proc engine: call first thing
/// in `main`. When the process was launched as
/// `<exe> __pts-worker --sock <addr> --rank <n>`, runs the worker role
/// and exits the process; otherwise returns so `main` proceeds normally.
pub fn maybe_worker() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) != Some("__pts-worker") {
        return;
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(addr), Some(rank)) = (flag("--sock"), flag("--rank")) else {
        eprintln!("__pts-worker requires --sock <addr> --rank <n>");
        std::process::exit(2);
    };
    let rank: u32 = match rank.parse() {
        Ok(r) => r,
        Err(_) => {
            eprintln!("__pts-worker: bad rank {rank:?}");
            std::process::exit(2);
        }
    };
    match worker_main(&addr, rank) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("pts worker rank {rank}: {e}");
            std::process::exit(1);
        }
    }
}

/// A proc-engine failure: the run could not be carried (a worker never
/// connected, the binary could not spawn, …). Distinct from a search
/// failing — the search itself has no failure mode.
#[derive(Debug)]
pub enum ProcError {
    /// Socket or process-spawn failure, with context.
    Io(std::io::Error),
    /// The master's outcome never materialized (should be unreachable).
    NoOutcome,
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Io(e) => write!(f, "proc engine: {e}"),
            ProcError::NoOutcome => write!(f, "proc engine: master produced no outcome"),
        }
    }
}

impl std::error::Error for ProcError {}

impl From<std::io::Error> for ProcError {
    fn from(e: std::io::Error) -> ProcError {
        ProcError::Io(e)
    }
}

/// Which socket family the engine wires ranks with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketKind {
    /// Unix-domain sockets under the temp directory (default).
    Unix,
    /// TCP on an ephemeral loopback port.
    Tcp,
}

/// Multi-process engine: each worker rank is a child OS process, wired to
/// the master over a socket star.
#[derive(Clone)]
pub struct ProcEngine {
    worker_exe: PathBuf,
    kind: SocketKind,
    control: RunControl,
}

impl ProcEngine {
    /// Spawn workers by re-entering `worker_exe` (a binary that calls
    /// [`maybe_worker`] first thing in `main`).
    pub fn new(worker_exe: impl Into<PathBuf>) -> ProcEngine {
        ProcEngine {
            worker_exe: worker_exe.into(),
            kind: SocketKind::Unix,
            control: RunControl::unlimited(),
        }
    }

    /// Spawn workers by re-entering the current executable.
    pub fn from_current_exe() -> std::io::Result<ProcEngine> {
        Ok(ProcEngine::new(std::env::current_exe()?))
    }

    /// Select the socket family (default Unix-domain).
    pub fn with_socket(mut self, kind: SocketKind) -> ProcEngine {
        self.kind = kind;
        self
    }

    /// Attach an external run control (cancellation, deadline, progress).
    pub fn with_control(mut self, control: RunControl) -> ProcEngine {
        self.control = control;
        self
    }

    /// Like [`ExecutionEngine::execute`] but with spawn/connect failures
    /// surfaced as errors instead of panics. Children are reaped on every
    /// path — no orphan processes.
    pub fn try_execute<D: ProcDomain>(
        &self,
        cfg: &PtsConfig,
        domain: &D,
        initial: SnapshotOf<D>,
    ) -> Result<EngineOutput<D>, ProcError>
    where
        D::Problem: WireProblem,
    {
        let wall = Instant::now();
        let mut router = match self.kind {
            SocketKind::Unix => SocketRouter::bind_unix_auto()?,
            SocketKind::Tcp => SocketRouter::bind_tcp_loopback()?,
        };
        // Arm supervision before any stream exists: a rank's EOF (or an
        // explicit `mark_down` from the monitor below) notifies exactly
        // its protocol neighbours, mirroring `fault::death_notifies`.
        router.set_down_routes(
            (0..cfg.total_procs())
                .map(|r| crate::fault::down_recipients(cfg, r))
                .collect(),
        );
        let addr = router.addr().to_string();
        let total = cfg.total_procs();
        let setup = encode_setup(cfg, domain, &initial);
        let failure_grace = Duration::from_millis(cfg.reap_grace_ms);

        // Children first (they retry-connect while the barrier runs).
        // Rank-tagged so the monitor can name the rank a corpse held.
        let mut children: Vec<(usize, Child)> = Vec::with_capacity(total - 1);
        for rank in 1..total {
            let spawned = Command::new(&self.worker_exe)
                .arg("__pts-worker")
                .args(["--sock", &addr])
                .args(["--rank", &rank.to_string()])
                .stdin(Stdio::null())
                .spawn();
            match spawned {
                Ok(child) => children.push((rank, child)),
                Err(e) => {
                    reap(&mut children, failure_grace);
                    return Err(ProcError::Io(std::io::Error::new(
                        e.kind(),
                        format!("spawning worker rank {rank}: {e}"),
                    )));
                }
            }
        }

        // Barrier on one thread, rank-0 handshake on this one (the
        // barrier counts the master's connection too).
        let barrier = std::thread::spawn(move || {
            let result = router.run_barrier(total, &setup, BARRIER_TIMEOUT);
            (router, result)
        });
        let handshake = SocketTransport::<D::Problem>::handshake(&addr, 0, CONNECT_OVERALL);
        let (mut router, barrier_result) = barrier.join().expect("barrier thread");
        let hs = match (handshake, barrier_result) {
            (Ok(hs), Ok(())) => hs,
            (hs, barrier_result) => {
                // Either failure wedges the run; tear everything down.
                router.finish();
                reap(&mut children, failure_grace);
                if let Err(e) = barrier_result {
                    return Err(ProcError::Io(e));
                }
                return Err(ProcError::Io(hs.err().expect("one side failed")));
            }
        };

        // Supervisor: poll children while the master runs. An abnormal
        // exit marks the rank down (neighbours excuse it and the run
        // degrades instead of hanging); so does a stream gone silent
        // past three heartbeat intervals when beacons are enabled. Clean
        // exits are the protocol's own wind-down — never excused.
        let children = Arc::new(Mutex::new(children));
        let dead = Arc::new(Mutex::new(Vec::<usize>::new()));
        let monitor_stop = Arc::new(AtomicBool::new(false));
        let monitor = {
            let children = Arc::clone(&children);
            let dead = Arc::clone(&dead);
            let stop = Arc::clone(&monitor_stop);
            let sup = router.supervisor();
            let stale_after = (cfg.heartbeat_ms > 0).then(|| (3 * cfg.heartbeat_ms).max(1_000));
            std::thread::Builder::new()
                .name("pts-proc-monitor".into())
                .spawn(move || {
                    let mut settled = vec![false; total];
                    while !stop.load(Ordering::Acquire) {
                        {
                            let mut kids = children.lock().expect("children lock");
                            for (rank, child) in kids.iter_mut() {
                                if settled[*rank] {
                                    continue;
                                }
                                match child.try_wait() {
                                    Ok(Some(status)) if !status.success() => {
                                        settled[*rank] = true;
                                        dead.lock().expect("dead lock").push(*rank);
                                        sup.mark_down(*rank);
                                    }
                                    Ok(Some(_)) => settled[*rank] = true,
                                    Ok(None) => {
                                        if let Some(limit) = stale_after {
                                            if sup.idle_ms(*rank).is_some_and(|ms| ms > limit) {
                                                settled[*rank] = true;
                                                dead.lock().expect("dead lock").push(*rank);
                                                sup.mark_down(*rank);
                                            }
                                        }
                                    }
                                    Err(_) => {}
                                }
                            }
                        }
                        std::thread::sleep(MONITOR_TICK);
                    }
                    // Final sweep: a crash in the last tick (the master can
                    // finish a degraded round well inside MONITOR_TICK of
                    // the kill) must still reach `dead`. Only exit statuses
                    // count here — staleness is meaningless at teardown,
                    // when every stream goes quiet.
                    let mut kids = children.lock().expect("children lock");
                    for (rank, child) in kids.iter_mut() {
                        if settled[*rank] {
                            continue;
                        }
                        if let Ok(Some(status)) = child.try_wait() {
                            settled[*rank] = true;
                            if !status.success() {
                                dead.lock().expect("dead lock").push(*rank);
                            }
                        }
                    }
                })
                .expect("spawn monitor thread")
        };

        // Rank 0 derives the decode context locally — its copy of the
        // setup frame is redundant (it composed it).
        let ctx = <D::Problem as WireProblem>::ctx_of(&initial);
        let mut t = SocketTransport::<D::Problem>::new(hs.stream, 0, ctx)?;
        let outcome: SearchOutcome<SnapshotOf<D>> =
            drive_sync(run_master(&mut t, cfg, domain, initial, &self.control));

        let master_stats = {
            let mut stats = t.take_stats();
            stats.finished_at = outcome.end_time;
            stats
        };
        drop(t);
        monitor_stop.store(true, Ordering::Release);
        let _ = monitor.join();
        let mut children = Arc::try_unwrap(children)
            .expect("monitor joined; no other owner")
            .into_inner()
            .expect("children lock");
        reap(&mut children, REAP_TIMEOUT);
        router.finish();
        let mut dead_ranks = dead.lock().expect("dead lock").clone();
        dead_ranks.sort_unstable();
        dead_ranks.dedup();

        // Rank 0's counters are its own (accurate local accounting);
        // worker ranks' traffic comes from the hub, which saw every
        // frame. busy/work stay 0 for ranks that lived in other
        // processes — the proc report measures traffic, not worker CPU.
        let mut per_proc = router.traffic().to_proc_stats();
        if per_proc.is_empty() {
            per_proc = vec![Default::default(); total];
        }
        per_proc[0] = master_stats;

        Ok(EngineOutput {
            outcome,
            report: RunReport {
                engine: "proc",
                clock: ClockDomain::Wall,
                end_time: per_proc[0].finished_at,
                wall_seconds: wall.elapsed().as_secs_f64(),
                per_proc,
                dead_ranks,
            },
        })
    }
}

/// Wait up to `timeout` for children to exit on their own (the protocol's
/// `Stop` normally gets them there), then kill and reap stragglers. The
/// grace window is a parameter — wind-down uses [`REAP_TIMEOUT`], error
/// paths the configurable `PtsConfig::reap_grace_ms` — but stragglers
/// are killed unconditionally either way: no path leaves an orphan.
fn reap(children: &mut Vec<(usize, Child)>, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        children.retain_mut(|(_, c)| !matches!(c.try_wait(), Ok(Some(_))));
        if children.is_empty() {
            return;
        }
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    for (_, c) in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
    children.clear();
}

impl<D: ProcDomain> ExecutionEngine<D> for ProcEngine
where
    D::Problem: WireProblem,
{
    fn name(&self) -> &'static str {
        "proc"
    }

    fn execute(&self, cfg: &PtsConfig, domain: &D, initial: SnapshotOf<D>) -> EngineOutput<D> {
        match self.try_execute(cfg, domain, initial) {
            Ok(output) => output,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qap_domain::QapDomain;

    #[test]
    fn qap_spec_roundtrips() {
        let domain = QapDomain::random(8, 3);
        let mut spec = Vec::new();
        domain.encode_spec(&mut spec);
        let cfg = PtsConfig::default();
        let rebuilt = QapDomain::decode_spec(&mut WireReader::new(&spec), &cfg).unwrap();
        assert_eq!(rebuilt.instance().n(), 8);
        assert_eq!(
            rebuilt.instance().flow_matrix(),
            domain.instance().flow_matrix()
        );
        assert_eq!(
            rebuilt.instance().dist_matrix(),
            domain.instance().dist_matrix()
        );
    }

    #[test]
    fn qap_spec_header_without_matrices_is_rejected() {
        // The largest accepted size announces 64 GiB of matrices; a frame
        // that ends after the header must fail before allocating them.
        let mut spec = Vec::new();
        wire::put_u64(&mut spec, 1 << 16);
        let got = QapDomain::decode_spec(&mut WireReader::new(&spec), &PtsConfig::default());
        assert_eq!(got.err(), Some(WireError::Truncated));
    }

    #[test]
    fn placement_spec_roundtrips() {
        use crate::placement_problem::PlacementDomain;
        let netlist = pts_netlist::benchmarks::by_name("chain16").or_else(|| {
            pts_netlist::benchmarks::benchmark_names()
                .first()
                .and_then(|n| pts_netlist::benchmarks::by_name(n))
        });
        let netlist = netlist.expect("a benchmark exists");
        let cfg = PtsConfig::default();
        let domain = PlacementDomain::new(std::sync::Arc::new(netlist), &cfg);
        let mut spec = Vec::new();
        domain.encode_spec(&mut spec);
        let rebuilt = PlacementDomain::decode_spec(&mut WireReader::new(&spec), &cfg).unwrap();
        assert_eq!(rebuilt.netlist().num_cells(), domain.netlist().num_cells());
    }

    #[test]
    fn setup_frame_decodes_in_order() {
        let domain = QapDomain::random(6, 9);
        let cfg = PtsConfig::default();
        let initial = domain.initial(cfg.seed);
        let setup = encode_setup(&cfg, &domain, &initial);
        let mut r = WireReader::new(&setup);
        assert_eq!(r.u8().unwrap(), wire::WIRE_VERSION);
        let got_cfg = wire::get_config(&mut r).unwrap();
        assert_eq!(got_cfg, cfg);
        assert_eq!(r.u8().unwrap(), <QapDomain as ProcDomain>::KIND);
        let got_domain = QapDomain::decode_spec(&mut r, &got_cfg).unwrap();
        <pts_tabu::qap::Qap as WireProblem>::get_ctx(&mut r).unwrap();
        let n = r.u32().unwrap() as usize;
        let got_initial =
            <pts_tabu::qap::Qap as WireProblem>::get_snapshot(&mut r, n, &()).unwrap();
        assert_eq!(got_initial, initial);
        assert_eq!(r.remaining(), 0);
        assert_eq!(got_domain.instance().n(), 6);
    }

    #[test]
    fn reap_kills_stragglers() {
        let mut children = vec![(
            1usize,
            Command::new("sleep")
                .arg("30")
                .stdin(Stdio::null())
                .spawn()
                .unwrap(),
        )];
        let id = children[0].1.id();
        reap(&mut children, Duration::from_millis(100));
        assert!(children.is_empty());
        // The process must actually be gone.
        let alive = std::path::Path::new(&format!("/proc/{id}")).exists();
        assert!(
            !alive || {
                // PID may be recycled in theory; accept zombie-free state.
                std::fs::read_to_string(format!("/proc/{id}/stat"))
                    .map(|s| s.contains(") Z "))
                    .unwrap_or(true)
            }
        );
    }
}
