//! Virtual-time cooperative runtime: the paper's heterogeneous-cluster
//! timing model at thousand-process scale.
//!
//! The timing model is what the paper's measurements need — per-machine
//! speed, background load, message latency. [`VirtualTaskCluster`]
//! carries it on cooperative futures: every logical process is a
//! *future*, and the executor is a discrete-event scheduler over an
//! [`EventQueue`] of `(virtual_time, task)` wake-ups. `compute` charges
//! work against the task's machine — integrating speed and
//! [`crate::machine::LoadModel`] — and suspends the future until the
//! charged end time; `recv` parks the future until a message's
//! [`Envelope::deliver_at`] is reached. Every scheduling decision is a
//! deterministic function of virtual times and task ids (`(wake, task
//! id)` order, mailbox delivery by `(arrival, send seq)`, per-route
//! FIFO), so identical programs replay bit-identically — in timeline and
//! accounting — while thousands of tasks fit in one OS thread.
//!
//! Only `compute` and `recv` suspend; `send` is synchronous and costs
//! the sender no virtual time (message cost is all link latency and
//! bandwidth). Because `compute` suspends, a task in a long compute
//! stretch sees, at its next `try_recv`, what peers sent meanwhile.
//!
//! This is the project's one cooperative executor: the paper's
//! heterogeneous cluster runs on it, and so does its homogeneous control
//! ([`crate::topology::homogeneous`]), which is how the core crate's
//! `async` engine hosts thousands of ranks on one thread.
//!
//! # Contention and faults
//!
//! Two opt-in layers extend the model without disturbing it when off:
//!
//! * [`Contention::TimeSliced`] makes co-located computes share their
//!   machine (processor sharing — `k` runnable procs each at `1/k` of
//!   the rate). A machine hosting a single proc is bit-identical to the
//!   default [`Contention::Exclusive`] model.
//! * A [`FaultPlan`] replays machine slowdowns/pauses/crashes, route
//!   drops/delays/jitter, and task kills (with out-of-band death
//!   notices) at fixed virtual times. With a plan installed, the
//!   deadlock panic becomes *orphan cleanup*: tasks that can never run
//!   again are finished with [`TaskFate::Orphaned`] so the run always
//!   terminates and reports.
//!
//! Either layer switches the runtime to *tracked computes*: in-flight
//! work is carried as a remaining-work balance that is settled and
//! rescheduled whenever the machine's allocation changes. With exactly
//! one proc per machine and no fault ever touching it, every settle
//! multiplies by `1.0` and reproduces the untracked arithmetic bit for
//! bit — which is what keeps the pinned goldens valid.

use crate::fault::{
    jitter_unit, Contention, FaultKind, FaultPlan, MachineEvent, RouteAction, RouteFault,
    TimedFault,
};
use crate::mailbox::{Envelope, Mailbox};
use crate::metrics::{ProcStats, RunReport, TaskFate};
use crate::topology::ClusterSpec;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::future::Future;
use std::hash::{BuildHasherDefault, Hasher};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Multiplicative hasher for the runtime's integer-keyed tables (event
/// tickets, `(src, dst)` routes). They are touched on every event, where
/// the default SipHash is measurable. Both tables are only looked up,
/// never iterated, so the hasher cannot influence the schedule.
#[derive(Clone, Copy, Debug, Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        // Golden-ratio multiply: spreads sequential keys across both the
        // low (bucket) and high (tag) bits of the hash.
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// One pending wake-up in the [`EventQueue`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Virtual time at which the task becomes runnable.
    pub time: f64,
    /// Schedule ticket: monotonically increasing insertion sequence.
    pub seq: u64,
    /// Task to wake.
    pub task: usize,
}

// Orderings compare (time, task, seq) — reversed, because BinaryHeap is a
// max-heap and the queue pops the earliest event first.
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then(other.task.cmp(&self.task))
            .then(other.seq.cmp(&self.seq))
    }
}

/// Discrete-event wake-up queue: schedule `(time, task)` entries, pop
/// them in deterministic earliest-first order, cancel lazily.
///
/// Pop order is `(time, task id, schedule seq)`. Breaking time ties by
/// *task id* — not insertion order — makes the schedule a function of
/// virtual times and task ids alone, independent of how wake-ups were
/// enqueued; the monotonically increasing `seq` totalizes the order when
/// one task holds several entries at the same instant (the executor
/// never does, but the queue does not rely on that).
///
/// Cancellation is lazy: a cancelled ticket stays in the heap and is
/// skipped on pop, so both `schedule` and `cancel` are `O(log n)` /
/// `O(1)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    /// Tickets scheduled and neither popped nor cancelled yet.
    live: IntSet<u64>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedule `task` to wake at `time`; returns the ticket with which
    /// the entry can be cancelled. `time` must be finite (a wake-up at
    /// infinity would silently deadlock the drain).
    pub fn schedule(&mut self, time: f64, task: usize) -> u64 {
        assert!(time.is_finite(), "wake-up time must be finite, got {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, task });
        self.live.insert(seq);
        seq
    }

    /// Cancel a scheduled entry. Returns `true` if the ticket was still
    /// live (not yet popped or cancelled).
    pub fn cancel(&mut self, ticket: u64) -> bool {
        self.live.remove(&ticket)
    }

    /// Pop the earliest live event in `(time, task, seq)` order.
    pub fn pop(&mut self) -> Option<Event> {
        while let Some(ev) = self.heap.pop() {
            if self.live.remove(&ev.seq) {
                return Some(ev);
            }
        }
        None
    }

    /// Time of the earliest live event without popping it (prunes
    /// cancelled entries from the top of the heap).
    pub fn peek_time(&mut self) -> Option<f64> {
        while let Some(ev) = self.heap.peek() {
            if self.live.contains(&ev.seq) {
                return Some(ev.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of live (scheduled, not yet popped or cancelled) entries.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

/// Lifecycle of one task.
#[derive(Clone, Copy, Debug, PartialEq)]
enum TaskStatus {
    /// Has exactly one wake-up in the event queue (initial start, a
    /// `compute` end, or an already-scheduled mailbox delivery).
    Scheduled,
    /// Currently being polled by the executor.
    Running,
    /// Parked in `recv` with an empty mailbox; a send will schedule it.
    BlockedRecv,
    /// Finished; sends to it are dropped (undeliverable).
    Done,
}

/// Per-task state.
struct Slot<M> {
    status: TaskStatus,
    machine: usize,
    mailbox: Mailbox<M>,
    stats: ProcStats,
    /// Virtual time the current `recv` started blocking (wait accounting).
    blocked_since: Option<f64>,
}

/// One in-flight tracked compute.
struct Job {
    /// Work units still to be executed.
    remaining: f64,
    /// Queue ticket of the currently scheduled end event (`None` while
    /// the machine is paused/crashed — the job is parked).
    ticket: Option<u64>,
}

/// Per-machine contention/fault bookkeeping (tracked mode only).
struct MachineRt {
    /// In-flight computes by task id; a `BTreeMap` so settles and
    /// reschedules iterate in deterministic task-id order.
    jobs: BTreeMap<usize, Job>,
    /// Last time the jobs' remaining-work balances were brought current.
    last_settle: f64,
    /// Fault speed multiplier from Slow events (1.0 = healthy).
    base_mul: f64,
    /// Multiplier in effect since `last_settle` (0.0 while paused or
    /// crashed).
    cur_mul: f64,
    paused_until: f64,
    crashed: bool,
}

/// Installed fault/contention state of a tracked run.
struct FaultRt<M> {
    contention: Contention,
    machines: Vec<MachineRt>,
    /// Time-sorted fault events; `cursor` advances as they apply.
    timeline: Vec<TimedFault<M>>,
    cursor: usize,
    routes: Vec<RouteFault>,
    seed: u64,
    /// Whether the plan scheduled any actual faults: orphan cleanup
    /// replaces the deadlock panic only then (pure contention keeps the
    /// panic — a deadlock there is still a bug in the workload).
    has_faults: bool,
}

impl<M> FaultRt<M> {
    /// Fraction of the machine each of `k` concurrent jobs receives.
    fn share(&self, k: usize) -> f64 {
        match self.contention {
            Contention::Exclusive => 1.0,
            Contention::TimeSliced => 1.0 / k as f64,
        }
    }
}

/// Shared state of one virtual-time cooperative run.
struct VHub<M> {
    cluster: ClusterSpec,
    now: Cell<f64>,
    send_seq: Cell<u64>,
    queue: RefCell<EventQueue>,
    slots: RefCell<Vec<Slot<M>>>,
    /// Last delivery time per (src, dst) pair: enforces FIFO channels
    /// (a small message never overtakes a large one on the same route).
    pair_last: RefCell<IntMap<(usize, usize), f64>>,
    /// Tracked-compute + fault state; `None` on the historical fast path
    /// (no contention model, no fault plan).
    faults: RefCell<Option<FaultRt<M>>>,
}

impl<M> VHub<M> {
    /// Charge `work` units on the task's machine: advance its busy/work
    /// accounting and schedule its wake-up at the integrated end time.
    fn begin_compute(&self, id: usize, work: f64) {
        assert!(work >= 0.0, "work must be non-negative");
        if self.faults.borrow().is_some() {
            return self.begin_compute_tracked(id, work);
        }
        let now = self.now.get();
        let end = {
            let mut slots = self.slots.borrow_mut();
            let machine = slots[id].machine;
            let end = self.cluster.machines[machine].compute_end(now, work);
            let s = &mut slots[id];
            s.stats.busy_time += end - now;
            s.stats.work_done += work;
            s.status = TaskStatus::Scheduled;
            end
        };
        self.queue.borrow_mut().schedule(end, id);
    }

    /// Tracked-mode `compute` start: settle the machine, register the
    /// job, and re-partition the machine across its (now `k`) jobs.
    /// Busy time is charged at settle points rather than eagerly, so a
    /// later fault or contention change re-prices the in-flight work.
    fn begin_compute_tracked(&self, id: usize, work: f64) {
        let now = self.now.get();
        let machine = {
            let mut slots = self.slots.borrow_mut();
            let s = &mut slots[id];
            s.stats.work_done += work;
            s.status = TaskStatus::Scheduled;
            s.machine
        };
        self.settle_machine(machine, now);
        {
            let mut faults = self.faults.borrow_mut();
            let f = faults.as_mut().expect("tracked mode");
            f.machines[machine].jobs.insert(
                id,
                Job {
                    remaining: work,
                    ticket: None,
                },
            );
        }
        self.reschedule_machine(machine, now);
    }

    /// Tracked-mode `compute` end: the task's end event fired — settle,
    /// drop the job, and re-partition the machine across the survivors.
    /// A no-op on the untracked fast path.
    fn finish_compute(&self, id: usize) {
        if self.faults.borrow().is_none() {
            return;
        }
        let now = self.now.get();
        let machine = self.slots.borrow()[id].machine;
        self.settle_machine(machine, now);
        {
            let mut faults = self.faults.borrow_mut();
            let f = faults.as_mut().expect("tracked mode");
            // The end event that woke us *was* this job's ticket (already
            // popped from the queue) — nothing to cancel.
            f.machines[machine].jobs.remove(&id);
        }
        self.reschedule_machine(machine, now);
    }

    /// Bring `machine`'s job balances current to `now`: subtract the
    /// work each job executed since the last settle (at the share and
    /// fault multiplier in effect over that span) and charge the span to
    /// their busy time.
    fn settle_machine(&self, machine: usize, now: f64) {
        let ids: Vec<usize>;
        let from;
        {
            let mut faults = self.faults.borrow_mut();
            let Some(f) = faults.as_mut() else { return };
            let share = f.share(f.machines[machine].jobs.len().max(1));
            let rt = &mut f.machines[machine];
            from = rt.last_settle;
            rt.last_settle = now;
            if now <= from || rt.jobs.is_empty() {
                return;
            }
            let scale = rt.cur_mul * share;
            let done = if scale > 0.0 {
                self.cluster.machines[machine].work_between(from, now) * scale
            } else {
                0.0
            };
            ids = rt.jobs.keys().copied().collect();
            for id in &ids {
                let job = rt.jobs.get_mut(id).expect("settling a live job");
                job.remaining = (job.remaining - done).max(0.0);
            }
        }
        let mut slots = self.slots.borrow_mut();
        for id in ids {
            slots[id].stats.busy_time += now - from;
        }
    }

    /// Re-derive every job's end event on `machine` from its remaining
    /// work and the machine's current allocation. Jobs on a stalled
    /// machine park (no event) until a Slow/Thaw event re-prices them.
    fn reschedule_machine(&self, machine: usize, now: f64) {
        let mut faults = self.faults.borrow_mut();
        let Some(f) = faults.as_mut() else { return };
        let share = f.share(f.machines[machine].jobs.len().max(1));
        let rt = &mut f.machines[machine];
        let scale = rt.cur_mul * share;
        let spec = &self.cluster.machines[machine];
        let mut queue = self.queue.borrow_mut();
        for (&id, job) in rt.jobs.iter_mut() {
            if let Some(ticket) = job.ticket.take() {
                queue.cancel(ticket);
            }
            if job.remaining <= 0.0 {
                job.ticket = Some(queue.schedule(now, id));
            } else if scale > 0.0 {
                let end = spec.compute_end_scaled(now, job.remaining, scale);
                job.ticket = Some(queue.schedule(end, id));
            }
        }
    }

    /// Kill a task outright (fault-plan worker death): mark it done with
    /// [`TaskFate::Killed`], abandon any in-flight compute, and give the
    /// freed machine share back to the survivors. Returns `false` if the
    /// task had already finished.
    fn kill_task(&self, id: usize) -> bool {
        let now = self.now.get();
        let machine;
        {
            let mut slots = self.slots.borrow_mut();
            let s = &mut slots[id];
            if s.status == TaskStatus::Done {
                return false;
            }
            machine = s.machine;
            s.status = TaskStatus::Done;
            s.stats.finished_at = now;
            s.stats.fate = TaskFate::Killed;
            if let Some(t0) = s.blocked_since.take() {
                s.stats.wait_time += now - t0;
            }
        }
        self.settle_machine(machine, now);
        let had_job = {
            let mut faults = self.faults.borrow_mut();
            let f = faults.as_mut().expect("kills only run under a fault plan");
            match f.machines[machine].jobs.remove(&id) {
                Some(job) => {
                    if let Some(ticket) = job.ticket {
                        self.queue.borrow_mut().cancel(ticket);
                    }
                    true
                }
                None => false,
            }
        };
        if had_job {
            self.reschedule_machine(machine, now);
        }
        true
    }

    /// Deliver a runtime-originated message (a death notice) to `dst` at
    /// the current instant: no sender stats, no route faults, no FIFO
    /// clamp — the runtime, not a task, is the sender.
    fn deliver_system(&self, dst: usize, msg: M) {
        let now = self.now.get();
        let seq = self.send_seq.get() + 1;
        self.send_seq.set(seq);
        let mut slots = self.slots.borrow_mut();
        let dp = &mut slots[dst];
        if dp.status == TaskStatus::Done {
            return;
        }
        dp.mailbox.push(Envelope {
            deliver_at: now,
            seq,
            msg,
        });
        if dp.status == TaskStatus::BlockedRecv {
            dp.status = TaskStatus::Scheduled;
            drop(slots);
            self.queue.borrow_mut().schedule(now, dst);
        }
    }

    /// Earliest unapplied fault-plan time, if any remain.
    fn next_fault_time(&self) -> Option<f64> {
        let faults = self.faults.borrow();
        let f = faults.as_ref()?;
        f.timeline.get(f.cursor).map(|tf| tf.at)
    }

    /// Apply the fault event at the cursor; returns the tasks it killed
    /// (their futures are the caller's to drop).
    fn apply_next_fault(&self) -> Vec<usize> {
        let kind = {
            let mut faults = self.faults.borrow_mut();
            let f = faults.as_mut().expect("caller checked next_fault_time");
            let idx = f.cursor;
            f.cursor += 1;
            // Tombstone the consumed entry (the cursor never revisits
            // it); Kill owns its notify list, so it must be moved out.
            std::mem::replace(&mut f.timeline[idx].kind, FaultKind::Thaw { machine: 0 })
        };
        let now = self.now.get();
        match kind {
            FaultKind::Machine { machine, event } => {
                self.settle_machine(machine, now);
                {
                    let mut faults = self.faults.borrow_mut();
                    let rt = &mut faults.as_mut().expect("tracked mode").machines[machine];
                    match event {
                        MachineEvent::Slow { factor } => rt.base_mul = factor,
                        MachineEvent::Pause { until } => {
                            rt.paused_until = rt.paused_until.max(until)
                        }
                        MachineEvent::Crash => rt.crashed = true,
                    }
                    rt.cur_mul = if rt.crashed || now < rt.paused_until {
                        0.0
                    } else {
                        rt.base_mul
                    };
                }
                self.reschedule_machine(machine, now);
                Vec::new()
            }
            FaultKind::Thaw { machine } => {
                self.settle_machine(machine, now);
                {
                    let mut faults = self.faults.borrow_mut();
                    let rt = &mut faults.as_mut().expect("tracked mode").machines[machine];
                    rt.cur_mul = if rt.crashed || now < rt.paused_until {
                        0.0
                    } else {
                        rt.base_mul
                    };
                }
                self.reschedule_machine(machine, now);
                Vec::new()
            }
            FaultKind::Kill { task, notify } => {
                if self.kill_task(task) {
                    for (dst, msg) in notify {
                        self.deliver_system(dst, msg);
                    }
                    vec![task]
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// One `recv` poll: pop an arrived message, or park the task until
    /// the earliest pending delivery (or until a send schedules it).
    fn poll_recv(&self, id: usize) -> Poll<M> {
        let now = self.now.get();
        let mut slots = self.slots.borrow_mut();
        let s = &mut slots[id];
        if let Some(env) = s.mailbox.pop_ready(now) {
            s.stats.messages_received += 1;
            if let Some(t0) = s.blocked_since.take() {
                s.stats.wait_time += now - t0;
            }
            return Poll::Ready(env.msg);
        }
        if s.blocked_since.is_none() {
            s.blocked_since = Some(now);
        }
        match s.mailbox.earliest() {
            Some(t) => {
                // A message is in flight: wake when it arrives. A later
                // send with an earlier delivery does NOT move this
                // wake-up forward — the pinned virtual timelines depend
                // on that rule.
                s.status = TaskStatus::Scheduled;
                drop(slots);
                self.queue.borrow_mut().schedule(t, id);
            }
            None => s.status = TaskStatus::BlockedRecv,
        }
        Poll::Pending
    }

    fn try_recv(&self, id: usize) -> Option<M> {
        let now = self.now.get();
        let mut slots = self.slots.borrow_mut();
        let env = slots[id].mailbox.pop_ready(now)?;
        slots[id].stats.messages_received += 1;
        Some(env.msg)
    }

    fn send(&self, src: usize, dst: usize, msg: M, bytes: u64) {
        let now = self.now.get();
        let mut slots = self.slots.borrow_mut();
        assert!(dst < slots.len(), "send to unknown task {dst}");
        let src_machine = slots[src].machine;
        let dst_machine = slots[dst].machine;
        let mut deliver_at = now
            + self
                .cluster
                .link
                .transfer_time(src_machine, dst_machine, bytes);
        let seq = self.send_seq.get() + 1;
        self.send_seq.set(seq);
        {
            let sp = &mut slots[src];
            sp.stats.messages_sent += 1;
            sp.stats.bytes_sent += bytes;
        }
        // Route faults apply before the FIFO clamp: a Delay stalls the
        // whole route (later messages queue behind), Jitter bypasses the
        // clamp entirely (reordering), a Drop vanishes the message.
        let mut fifo = true;
        if let Some(f) = self.faults.borrow().as_ref() {
            match f
                .routes
                .iter()
                .find(|r| r.matches(src, dst, now))
                .map(|r| r.action)
            {
                Some(RouteAction::Drop) => {
                    slots[src].stats.messages_dropped += 1;
                    return;
                }
                Some(RouteAction::Delay(extra)) => deliver_at += extra,
                Some(RouteAction::Jitter(spread)) => {
                    deliver_at += jitter_unit(f.seed, seq) * spread;
                    fifo = false;
                }
                None => {}
            }
        }
        if fifo {
            let mut pair = self.pair_last.borrow_mut();
            let last = pair.entry((src, dst)).or_insert(0.0);
            deliver_at = deliver_at.max(*last);
            *last = deliver_at;
        }
        let dp = &mut slots[dst];
        if dp.status == TaskStatus::Done {
            return; // undeliverable: receiver already finished
        }
        dp.mailbox.push(Envelope {
            deliver_at,
            seq,
            msg,
        });
        if dp.status == TaskStatus::BlockedRecv {
            dp.status = TaskStatus::Scheduled;
            drop(slots);
            self.queue.borrow_mut().schedule(deliver_at, dst);
        }
    }

    /// One `recv_deadline` poll: like [`VHub::poll_recv`], but gives up
    /// (`Ready(None)`) once the virtual clock reaches `deadline`.
    fn poll_recv_deadline(&self, id: usize, deadline: f64) -> Poll<Option<M>> {
        let now = self.now.get();
        let mut slots = self.slots.borrow_mut();
        let s = &mut slots[id];
        if let Some(env) = s.mailbox.pop_ready(now) {
            s.stats.messages_received += 1;
            if let Some(t0) = s.blocked_since.take() {
                s.stats.wait_time += now - t0;
            }
            return Poll::Ready(Some(env.msg));
        }
        if now + 1e-12 >= deadline {
            if let Some(t0) = s.blocked_since.take() {
                s.stats.wait_time += now - t0;
            }
            return Poll::Ready(None);
        }
        if s.blocked_since.is_none() {
            s.blocked_since = Some(now);
        }
        // Exactly one wake-up is pending while parked here: the earlier
        // of the next in-flight delivery and the deadline. Status stays
        // Scheduled, so sends do not stack extra wake-ups; like
        // `poll_recv`, a later send with an earlier delivery waits for
        // this wake-up.
        let wake = s.mailbox.earliest().map_or(deadline, |t| t.min(deadline));
        s.status = TaskStatus::Scheduled;
        drop(slots);
        self.queue.borrow_mut().schedule(wake, id);
        Poll::Pending
    }
}

/// Handle through which a task interacts with the virtual-time runtime,
/// with `compute` and `recv` as the suspension points. All virtual time
/// flows through these calls: plain Rust code between them executes at
/// *zero* virtual cost, so CPU-intensive work must be charged explicitly
/// with [`VirtualTaskCtx::compute`].
///
/// Cheap to clone (shares the hub).
pub struct VirtualTaskCtx<M> {
    id: usize,
    hub: Rc<VHub<M>>,
}

impl<M> VirtualTaskCtx<M> {
    /// This task's id (spawn order).
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of tasks in the run.
    pub fn num_tasks(&self) -> usize {
        self.hub.slots.borrow().len()
    }

    /// Index of the machine this task runs on.
    pub fn machine(&self) -> usize {
        self.hub.slots.borrow()[self.id].machine
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.hub.now.get()
    }

    /// Charge `work` units on this task's machine and suspend until the
    /// charged end time (speed and background load integrate exactly as
    /// in [`crate::machine::Machine::compute_end`]). Even zero work
    /// yields through the scheduler.
    pub fn compute(&self, work: f64) -> impl Future<Output = ()> + '_ {
        let mut begun = false;
        std::future::poll_fn(move |_cx| {
            if begun {
                // The executor woke us at the charged end time. Under a
                // contention model or fault plan this retires the
                // tracked job and re-partitions the machine; on the fast
                // path it is a no-op.
                self.hub.finish_compute(self.id);
                Poll::Ready(())
            } else {
                begun = true;
                self.hub.begin_compute(self.id, work);
                Poll::Pending
            }
        })
    }

    /// Deliver a message to task `dst` after the link's transfer time,
    /// scheduling `dst` if it is parked in `recv`. Sends to finished
    /// tasks are dropped. `bytes` feeds traffic accounting *and* the
    /// transfer time.
    pub fn send_sized(&self, dst: usize, msg: M, bytes: u64) {
        self.hub.send(self.id, dst, msg, bytes);
    }

    /// [`VirtualTaskCtx::send_sized`] with the default 1 KiB size.
    pub fn send(&self, dst: usize, msg: M) {
        self.send_sized(dst, msg, 1024);
    }

    /// Take a message that has already *arrived* (its delivery time has
    /// been reached); never suspends.
    pub fn try_recv(&self) -> Option<M> {
        self.hub.try_recv(self.id)
    }

    /// Wait for the next message, advancing virtual time to its arrival.
    pub fn recv(&self) -> impl Future<Output = M> + '_ {
        std::future::poll_fn(move |_cx| self.hub.poll_recv(self.id))
    }

    /// Wait for the next message, but give up (returning `None`) once
    /// the virtual clock reaches `deadline` — the liveness hatch that
    /// keeps barrier-style protocols from hanging on a crashed peer.
    /// `deadline` must be finite.
    pub fn recv_deadline(&self, deadline: f64) -> impl Future<Output = Option<M>> + '_ {
        assert!(deadline.is_finite(), "recv deadline must be finite");
        std::future::poll_fn(move |_cx| self.hub.poll_recv_deadline(self.id, deadline))
    }
}

type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;
type Spawner<M> = Box<dyn FnOnce(VirtualTaskCtx<M>) -> TaskFuture>;

/// Builder + discrete-event executor: declare the cluster, spawn logical
/// processes as futures on machines, then run the whole cohort to
/// completion on the calling thread under the virtual clock.
pub struct VirtualTaskCluster<M> {
    cluster: ClusterSpec,
    spawners: Vec<(usize, Spawner<M>)>,
    contention: Contention,
    fault_plan: Option<FaultPlan<M>>,
}

impl<M> VirtualTaskCluster<M> {
    /// A cluster with no tasks yet; add them with
    /// [`VirtualTaskCluster::spawn`].
    pub fn new(cluster: ClusterSpec) -> VirtualTaskCluster<M> {
        VirtualTaskCluster {
            cluster,
            spawners: Vec::new(),
            contention: Contention::Exclusive,
            fault_plan: None,
        }
    }

    /// Select the machine-sharing model (default
    /// [`Contention::Exclusive`]: co-located computes do not interfere,
    /// the historical behaviour).
    pub fn set_contention(&mut self, contention: Contention) {
        self.contention = contention;
    }

    /// Install a [`FaultPlan`] to replay during
    /// [`VirtualTaskCluster::run`]. Also switches the deadlock panic to
    /// orphan cleanup (a fault can legitimately strand tasks) when the
    /// plan is non-empty.
    pub fn set_fault_plan(&mut self, plan: FaultPlan<M>) {
        self.fault_plan = Some(plan);
    }

    /// Register a task on the given machine; returns its id (spawn
    /// order). `f` receives the task's [`VirtualTaskCtx`] and returns the
    /// future to drive. Futures need not be `Send` — the whole cohort
    /// runs on one thread.
    pub fn spawn<F, Fut>(&mut self, machine: usize, f: F) -> usize
    where
        F: FnOnce(VirtualTaskCtx<M>) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        assert!(
            machine < self.cluster.num_machines(),
            "machine index {machine} out of range"
        );
        let id = self.spawners.len();
        self.spawners
            .push((machine, Box::new(move |ctx| Box::pin(f(ctx)))));
        id
    }

    /// Number of tasks registered so far.
    pub fn num_spawned(&self) -> usize {
        self.spawners.len()
    }

    /// Drive every task to completion under the virtual clock and report
    /// per-task metrics (virtual-time accounting).
    ///
    /// Panics if the cohort deadlocks (all live tasks parked in `recv`
    /// with no scheduled wake-ups) or any task panics — unless a
    /// non-empty [`FaultPlan`] is installed, in which case stranded
    /// tasks are finished as [`TaskFate::Orphaned`] instead (a fault can
    /// legitimately leave a survivor waiting on a dead peer forever).
    pub fn run(mut self) -> RunReport {
        assert!(!self.spawners.is_empty(), "no tasks spawned");
        let n = self.spawners.len();
        let num_machines = self.cluster.num_machines();
        let tracked = self.contention != Contention::Exclusive
            || self.fault_plan.as_ref().is_some_and(|p| !p.is_empty());
        let fault_rt = tracked.then(|| {
            let mut plan = self.fault_plan.take().unwrap_or_else(|| FaultPlan::new(0));
            plan.finalize();
            for tf in &plan.timeline {
                match &tf.kind {
                    FaultKind::Machine { machine, .. } | FaultKind::Thaw { machine } => {
                        assert!(
                            *machine < num_machines,
                            "fault on unknown machine {machine}"
                        )
                    }
                    FaultKind::Kill { task, notify } => {
                        assert!(*task < n, "fault kills unknown task {task}");
                        for (dst, _) in notify {
                            assert!(*dst < n, "death notice to unknown task {dst}");
                        }
                    }
                }
            }
            let has_faults = !plan.is_empty();
            FaultRt {
                contention: self.contention,
                machines: (0..num_machines)
                    .map(|_| MachineRt {
                        jobs: BTreeMap::new(),
                        last_settle: 0.0,
                        base_mul: 1.0,
                        cur_mul: 1.0,
                        paused_until: f64::NEG_INFINITY,
                        crashed: false,
                    })
                    .collect(),
                timeline: plan.timeline,
                cursor: 0,
                routes: plan.routes,
                seed: plan.seed,
                has_faults,
            }
        });
        let has_faults = fault_rt.as_ref().is_some_and(|f| f.has_faults);
        let mut queue = EventQueue::new();
        let slots: Vec<Slot<M>> = self
            .spawners
            .iter()
            .enumerate()
            .map(|(id, &(machine, _))| {
                // Every task starts runnable at t = 0.
                queue.schedule(0.0, id);
                Slot {
                    status: TaskStatus::Scheduled,
                    machine,
                    mailbox: Mailbox::new(),
                    stats: ProcStats {
                        machine,
                        ..ProcStats::default()
                    },
                    blocked_since: None,
                }
            })
            .collect();
        let hub: Rc<VHub<M>> = Rc::new(VHub {
            cluster: self.cluster,
            now: Cell::new(0.0),
            send_seq: Cell::new(0),
            queue: RefCell::new(queue),
            slots: RefCell::new(slots),
            pair_last: RefCell::new(IntMap::default()),
            faults: RefCell::new(fault_rt),
        });
        let mut tasks: Vec<Option<TaskFuture>> = self
            .spawners
            .into_iter()
            .enumerate()
            .map(|(id, (_machine, f))| {
                Some(f(VirtualTaskCtx {
                    id,
                    hub: Rc::clone(&hub),
                }))
            })
            .collect();

        // Wakers carry no information — readiness lives in the event
        // queue, driven by compute end times and message deliveries.
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        let mut live = n;
        loop {
            // Fault events interleave with the queue in time order; a
            // fault due at or before the next wake-up applies first.
            if live > 0 {
                if let Some(fault_at) = hub.next_fault_time() {
                    let next_wake = hub.queue.borrow_mut().peek_time();
                    if next_wake.is_none_or(|t| fault_at <= t) {
                        hub.now.set(hub.now.get().max(fault_at));
                        for id in hub.apply_next_fault() {
                            if tasks[id].is_some() {
                                tasks[id] = None;
                                live -= 1;
                            }
                        }
                        continue;
                    }
                }
            }
            let ev = hub.queue.borrow_mut().pop();
            let Some(ev) = ev else { break };
            let id = ev.task;
            // The clock only moves forward, to the chosen wake-up.
            hub.now.set(hub.now.get().max(ev.time));
            {
                let mut slots = hub.slots.borrow_mut();
                if slots[id].status == TaskStatus::Done {
                    // A wake-up outliving its (killed) task — only kills
                    // leave these behind.
                    debug_assert!(has_faults, "stale wake-up for finished task {id}");
                    continue;
                }
                slots[id].status = TaskStatus::Running;
            }
            let task = tasks[id].as_mut().expect("live tasks have futures");
            if task.as_mut().poll(&mut cx).is_ready() {
                tasks[id] = None; // release the task's state eagerly
                let mut slots = hub.slots.borrow_mut();
                slots[id].status = TaskStatus::Done;
                slots[id].stats.finished_at = hub.now.get();
                live -= 1;
            }
            // On Pending the suspension point already parked the task:
            // Scheduled (a queue entry exists) or BlockedRecv.
        }
        if live > 0 {
            if has_faults {
                // Orphan cleanup: nothing can ever wake these tasks
                // again (their peers died or their machine stalled
                // forever) — finish them so the run reports. Futures are
                // dropped before slots are borrowed, in case a drop
                // handler touches the hub.
                let orphans: Vec<usize> = tasks
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(id, task)| task.take().map(|_| id))
                    .collect();
                let now = hub.now.get();
                let mut slots = hub.slots.borrow_mut();
                for id in orphans {
                    let s = &mut slots[id];
                    s.status = TaskStatus::Done;
                    s.stats.finished_at = now;
                    s.stats.fate = TaskFate::Orphaned;
                    if let Some(t0) = s.blocked_since.take() {
                        s.stats.wait_time += now - t0;
                    }
                }
            } else {
                let stuck: Vec<usize> = tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.is_some())
                    .map(|(i, _)| i)
                    .collect();
                panic!(
                    "virtual task cluster deadlock at t={}: tasks {stuck:?} parked in recv \
                     with no pending messages",
                    hub.now.get()
                );
            }
        }

        let slots = hub.slots.borrow();
        RunReport {
            end_time: slots
                .iter()
                .map(|s| s.stats.finished_at)
                .fold(0.0, f64::max),
            per_proc: slots.iter().map(|s| s.stats.clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{LoadModel, Machine};
    use crate::message::LinkModel;
    use crate::topology::homogeneous;
    use std::sync::{Arc, Mutex};

    fn two_machines(speed_b: f64) -> ClusterSpec {
        ClusterSpec::new(
            vec![Machine::new("a", 1.0), Machine::new("b", speed_b)],
            LinkModel {
                latency: 0.5,
                local_latency: 0.01,
                bytes_per_sec: 1e9,
            },
        )
    }

    #[test]
    fn event_queue_pops_in_time_then_task_order() {
        let mut q = EventQueue::new();
        q.schedule(2.0, 1);
        q.schedule(1.0, 9);
        q.schedule(1.0, 3);
        q.schedule(3.0, 0);
        let order: Vec<(f64, usize)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time, e.task))).collect();
        assert_eq!(order, vec![(1.0, 3), (1.0, 9), (2.0, 1), (3.0, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn event_queue_same_task_same_time_pops_in_schedule_order() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, 4);
        let b = q.schedule(1.0, 4);
        assert_eq!(q.pop().unwrap().seq, a);
        assert_eq!(q.pop().unwrap().seq, b);
    }

    #[test]
    fn event_queue_cancel_is_lazy_and_exact() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, 0);
        let b = q.schedule(2.0, 1);
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports dead ticket");
        assert_eq!(q.len(), 1);
        let popped = q.pop().unwrap();
        assert_eq!((popped.seq, popped.task), (b, 1));
        assert!(!q.cancel(b), "popped ticket is no longer live");
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn event_queue_rejects_infinite_times() {
        EventQueue::new().schedule(f64::INFINITY, 0);
    }

    #[test]
    fn compute_advances_virtual_time_by_speed() {
        let mut vt: VirtualTaskCluster<()> = VirtualTaskCluster::new(two_machines(0.5));
        let times = Arc::new(Mutex::new((0.0, 0.0)));
        let (tf, ts) = (Arc::clone(&times), Arc::clone(&times));
        vt.spawn(0, move |ctx| async move {
            ctx.compute(10.0).await;
            tf.lock().unwrap().0 = ctx.now();
        });
        vt.spawn(1, move |ctx| async move {
            ctx.compute(10.0).await;
            ts.lock().unwrap().1 = ctx.now();
        });
        let report = vt.run();
        let (fast, slow) = *times.lock().unwrap();
        assert!((fast - 10.0).abs() < 1e-9);
        assert!((slow - 20.0).abs() < 1e-9);
        assert!((report.end_time - 20.0).abs() < 1e-9);
        assert!((report.per_proc[0].busy_time - 10.0).abs() < 1e-9);
        assert!((report.per_proc[1].busy_time - 20.0).abs() < 1e-9);
        assert_eq!(report.per_proc[1].machine, 1);
    }

    #[test]
    fn messages_arrive_after_latency() {
        let mut vt: VirtualTaskCluster<f64> = VirtualTaskCluster::new(two_machines(1.0));
        let arrival = Arc::new(Mutex::new((0.0, 0.0)));
        let arr = Arc::clone(&arrival);
        let receiver = vt.spawn(1, move |ctx| async move {
            let sent_at = ctx.recv().await;
            *arr.lock().unwrap() = (sent_at, ctx.now());
        });
        vt.spawn(0, move |ctx| async move {
            ctx.compute(2.0).await;
            ctx.send_sized(receiver, ctx.now(), 0);
        });
        vt.run();
        let (sent_at, received_at) = *arrival.lock().unwrap();
        assert!((sent_at - 2.0).abs() < 1e-9);
        assert!((received_at - 2.5).abs() < 1e-9, "latency 0.5 applies");
    }

    #[test]
    fn recv_accounts_wait_time() {
        let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(two_machines(1.0));
        let rx = vt.spawn(0, move |ctx| async move {
            let _ = ctx.recv().await;
        });
        vt.spawn(1, move |ctx| async move {
            ctx.compute(4.0).await;
            ctx.send_sized(rx, 1, 0);
        });
        let report = vt.run();
        assert!(
            (report.per_proc[0].wait_time - 4.5).abs() < 1e-9,
            "receiver waits from t=0 to t=4.5, got {}",
            report.per_proc[0].wait_time
        );
        assert_eq!(report.per_proc[0].messages_received, 1);
        assert_eq!(report.per_proc[1].messages_sent, 1);
    }

    #[test]
    fn fifo_holds_when_small_message_follows_large() {
        // A 1 MB message takes ~1 s on the default link; a 0-byte message
        // sent right after must NOT overtake it.
        let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(homogeneous(2));
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let rx = vt.spawn(0, move |ctx| async move {
            for _ in 0..2 {
                let msg = ctx.recv().await;
                o.lock().unwrap().push(msg);
            }
        });
        vt.spawn(1, move |ctx| async move {
            ctx.send_sized(rx, 1, 1_000_000); // slow
            ctx.send_sized(rx, 2, 0); // fast, but must queue behind
        });
        vt.run();
        assert_eq!(*order.lock().unwrap(), vec![1, 2]);
    }

    #[test]
    fn simultaneous_wakes_run_in_task_id_order() {
        // Two receivers get messages deliverable at the same instant; the
        // lower task id must run first — the `(wake, task id)` rule.
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(homogeneous(1));
        for w in 0..2usize {
            let l = Arc::clone(&log);
            vt.spawn(0, move |ctx| async move {
                let _ = ctx.recv().await;
                l.lock().unwrap().push(w);
            });
        }
        vt.spawn(0, move |ctx| async move {
            // Deliberately send to the higher id first: delivery times tie
            // (same route latency, same size), so id order must win.
            ctx.send_sized(1, 7, 0);
            ctx.send_sized(0, 7, 0);
        });
        vt.run();
        assert_eq!(*log.lock().unwrap(), vec![0, 1]);
    }

    #[test]
    fn try_recv_respects_delivery_time() {
        let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(two_machines(1.0));
        let got = Arc::new(Mutex::new((None, None)));
        let g = Arc::clone(&got);
        let rx = vt.spawn(0, move |ctx| async move {
            let early = ctx.try_recv(); // nothing has arrived at t=0
            ctx.compute(10.0).await;
            let late = ctx.try_recv(); // sent at t~1, arrived long ago
            *g.lock().unwrap() = (early, late);
        });
        vt.spawn(1, move |ctx| async move {
            ctx.compute(1.0).await;
            ctx.send_sized(rx, 7, 0);
        });
        vt.run();
        assert_eq!(*got.lock().unwrap(), (None, Some(7)));
    }

    #[test]
    fn message_sent_mid_stretch_arrives_before_stretch_ends() {
        // The cut-short pattern: a task in a multi-step compute stretch
        // must see, through `try_recv`, a message a peer sent after the
        // stretch began. Each `compute` suspends, so the peer runs
        // meanwhile.
        let cut_at = Arc::new(Mutex::new(None));
        let mut vt: VirtualTaskCluster<&'static str> = VirtualTaskCluster::new(homogeneous(2));
        let c = Arc::clone(&cut_at);
        vt.spawn(0, move |ctx| async move {
            for step in 0..100u32 {
                ctx.compute(1.0).await;
                if ctx.try_recv().is_some() {
                    *c.lock().unwrap() = Some(step);
                    return;
                }
            }
        });
        vt.spawn(1, move |ctx| async move {
            ctx.compute(2.5).await; // the worker's stretch is under way
            ctx.send(0, "cut");
        });
        vt.run();
        let cut = cut_at.lock().unwrap().expect("worker must see the cut");
        assert!((1..100).contains(&cut), "cut mid-stretch, got step {cut}");
    }

    #[test]
    fn loaded_machine_is_slower() {
        let cluster = ClusterSpec::new(
            vec![
                Machine::new("free", 1.0),
                Machine::new("busy", 1.0).with_load(LoadModel::Periodic {
                    period: 4.0,
                    duty: 0.5,
                    busy_factor: 0.25,
                }),
            ],
            LinkModel::default(),
        );
        let mut vt: VirtualTaskCluster<()> = VirtualTaskCluster::new(cluster);
        let times = Arc::new(Mutex::new((0.0, 0.0)));
        let (ta, tb) = (Arc::clone(&times), Arc::clone(&times));
        vt.spawn(0, move |ctx| async move {
            ctx.compute(8.0).await;
            ta.lock().unwrap().0 = ctx.now();
        });
        vt.spawn(1, move |ctx| async move {
            ctx.compute(8.0).await;
            tb.lock().unwrap().1 = ctx.now();
        });
        vt.run();
        let (free, busy) = *times.lock().unwrap();
        assert!((free - 8.0).abs() < 1e-9);
        assert!(busy > free + 1.0, "load must slow the busy machine");
    }

    #[test]
    fn send_to_finished_task_is_dropped() {
        let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(homogeneous(2));
        let early = vt.spawn(0, |ctx| async move {
            ctx.compute(0.1).await; // dies immediately after
        });
        vt.spawn(1, move |ctx| async move {
            ctx.compute(5.0).await;
            ctx.send(early, 1); // receiver long dead
            ctx.compute(1.0).await;
        });
        let report = vt.run();
        assert_eq!(report.per_proc[0].messages_received, 0);
        assert_eq!(report.per_proc[1].messages_sent, 1, "send still counted");
    }

    #[test]
    fn deterministic_replay() {
        fn run_once() -> (Vec<(u64, u64, f64)>, f64) {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut vt: VirtualTaskCluster<(u64, u64)> = VirtualTaskCluster::new(homogeneous(4));
            let l = Arc::clone(&log);
            let master = vt.spawn(0, move |ctx| async move {
                for _ in 0..9 {
                    let msg = ctx.recv().await;
                    let t = ctx.now();
                    l.lock().unwrap().push((msg.0, msg.1, t));
                }
            });
            for w in 0..3u64 {
                vt.spawn(1 + w as usize, move |ctx| async move {
                    for i in 0..3u64 {
                        ctx.compute(1.0 + w as f64 * 0.3 + i as f64).await;
                        ctx.send(master, (w, i));
                    }
                });
            }
            let report = vt.run();
            let out = log.lock().unwrap().clone();
            (out, report.end_time)
        }
        let (a, end_a) = run_once();
        let (b, end_b) = run_once();
        assert_eq!(a, b, "same inputs must replay identically");
        assert_eq!(end_a, end_b);
        assert_eq!(a.len(), 9);
    }

    #[test]
    fn scales_to_thousands_of_tasks() {
        // The point of this runtime: virtual-time measurements at worker
        // counts a thread per process cannot reach. 2001 tasks on a
        // cluster, one OS thread.
        let mut vt: VirtualTaskCluster<u64> = VirtualTaskCluster::new(homogeneous(12));
        const N: u64 = 2000;
        vt.spawn(0, move |ctx| async move {
            let mut sum = 0u64;
            for _ in 0..N {
                sum += ctx.recv().await;
            }
            assert_eq!(sum, N * (N + 1) / 2);
        });
        for i in 1..=N {
            vt.spawn((i % 12) as usize, move |ctx| async move {
                ctx.compute(1.0).await;
                ctx.send(0, i);
            });
        }
        let report = vt.run();
        assert_eq!(report.per_proc.len(), N as usize + 1);
        assert_eq!(report.per_proc[0].messages_received, N);
        assert!(report.end_time > 0.0);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(homogeneous(2));
        vt.spawn(0, |ctx| async move {
            let _ = ctx.recv().await; // nobody will ever send
        });
        vt.spawn(1, |ctx| async move {
            ctx.compute(1.0).await;
        });
        vt.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panic_propagates() {
        // A panicking task fails the whole run: the panic unwinds out of
        // `run` instead of leaving its peers waiting on it.
        let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(homogeneous(2));
        vt.spawn(0, |ctx| async move {
            ctx.compute(1.0).await;
            panic!("boom");
        });
        vt.spawn(1, |ctx| async move {
            ctx.compute(0.5).await;
        });
        vt.run();
    }

    /// Two equal computes on one machine, finish times collected by task.
    fn co_located_pair(contention: Contention) -> (f64, f64, RunReport) {
        let mut vt: VirtualTaskCluster<()> = VirtualTaskCluster::new(homogeneous(1));
        vt.set_contention(contention);
        let times = Arc::new(Mutex::new((0.0, 0.0)));
        let (ta, tb) = (Arc::clone(&times), Arc::clone(&times));
        vt.spawn(0, move |ctx| async move {
            ctx.compute(10.0).await;
            ta.lock().unwrap().0 = ctx.now();
        });
        vt.spawn(0, move |ctx| async move {
            ctx.compute(10.0).await;
            tb.lock().unwrap().1 = ctx.now();
        });
        let report = vt.run();
        let (a, b) = *times.lock().unwrap();
        (a, b, report)
    }

    #[test]
    fn time_sliced_computes_share_the_machine() {
        // Exclusive: both 10-unit computes on the speed-1 machine end at
        // t=10, as if alone. TimeSliced: both hold half the machine the
        // whole way and end at t=20.
        let (a, b, _) = co_located_pair(Contention::Exclusive);
        assert!((a - 10.0).abs() < 1e-9 && (b - 10.0).abs() < 1e-9);
        let (a, b, report) = co_located_pair(Contention::TimeSliced);
        assert!((a - 20.0).abs() < 1e-9, "shared machine: {a}");
        assert!((b - 20.0).abs() < 1e-9, "shared machine: {b}");
        // The whole span counts as busy (runnable procs queue, they do
        // not wait on messages).
        assert!((report.per_proc[0].busy_time - 20.0).abs() < 1e-9);
    }

    #[test]
    fn staggered_time_slicing_repartitions_on_arrival() {
        // Task 0 computes 10 units from t=0; task 1 joins at t=4 (after
        // a 4-unit solo compute on machine 1... keep it same-machine:
        // task 1 waits via a message). Simpler: task 1 computes 2 units
        // starting at t=0 on the same machine — both share from the
        // start, task 1's 2 units at half speed end at t=4; task 0 then
        // runs alone: 10 = 2 (by t=4, half speed) + 8 alone → ends 12.
        let mut vt: VirtualTaskCluster<()> = VirtualTaskCluster::new(homogeneous(1));
        vt.set_contention(Contention::TimeSliced);
        let times = Arc::new(Mutex::new((0.0, 0.0)));
        let (ta, tb) = (Arc::clone(&times), Arc::clone(&times));
        vt.spawn(0, move |ctx| async move {
            ctx.compute(10.0).await;
            ta.lock().unwrap().0 = ctx.now();
        });
        vt.spawn(0, move |ctx| async move {
            ctx.compute(2.0).await;
            tb.lock().unwrap().1 = ctx.now();
        });
        vt.run();
        let (long, short) = *times.lock().unwrap();
        assert!((short - 4.0).abs() < 1e-9, "2 units at half speed: {short}");
        assert!((long - 12.0).abs() < 1e-9, "2 shared + 8 alone: {long}");
    }

    #[test]
    fn single_proc_per_machine_is_bit_identical_under_time_slicing() {
        // One proc per machine: every share is exactly 1.0 and the
        // tracked arithmetic must reproduce the untracked run bit for
        // bit — timeline, accounting, everything.
        fn staged(contention: Contention) -> (Vec<(u64, u64, f64)>, RunReport) {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut vt: VirtualTaskCluster<(u64, u64)> = VirtualTaskCluster::new(two_machines(0.7));
            vt.set_contention(contention);
            let l = Arc::clone(&log);
            let hub = vt.spawn(0, move |ctx| async move {
                for _ in 0..4 {
                    let m = ctx.recv().await;
                    let t = ctx.now();
                    l.lock().unwrap().push((m.0, m.1, t));
                }
            });
            vt.spawn(1, move |ctx| async move {
                for i in 0..4u64 {
                    ctx.compute(1.5 + i as f64).await;
                    ctx.send(hub, (7, i));
                }
            });
            let report = vt.run();
            let out = log.lock().unwrap().clone();
            (out, report)
        }
        let (log_ex, rep_ex) = staged(Contention::Exclusive);
        let (log_ts, rep_ts) = staged(Contention::TimeSliced);
        assert_eq!(log_ex, log_ts);
        assert_eq!(rep_ex.end_time, rep_ts.end_time);
        assert_eq!(rep_ex.per_proc, rep_ts.per_proc);
    }

    #[test]
    fn slow_fault_stretches_an_inflight_compute() {
        // 10 units on a speed-1 machine, slowed to 0.5× at t=5: 5 units
        // done, the rest at half speed → ends at 5 + 5/0.5 = 15.
        let mut vt: VirtualTaskCluster<()> = VirtualTaskCluster::new(homogeneous(2));
        let mut plan: FaultPlan<()> = FaultPlan::new(0);
        plan.slow_machine(5.0, 0, 0.5);
        vt.set_fault_plan(plan);
        let t_end = Arc::new(Mutex::new(0.0));
        let te = Arc::clone(&t_end);
        vt.spawn(0, move |ctx| async move {
            ctx.compute(10.0).await;
            *te.lock().unwrap() = ctx.now();
        });
        let report = vt.run();
        assert!((*t_end.lock().unwrap() - 15.0).abs() < 1e-9);
        assert!((report.per_proc[0].busy_time - 15.0).abs() < 1e-9);
        assert_eq!(report.per_proc[0].fate, TaskFate::Completed);
    }

    #[test]
    fn pause_fault_parks_and_resumes_a_compute() {
        // 10 units on speed 1, machine frozen over [2, 6): 2 done, 4
        // stalled, 8 after → ends at 14.
        let mut vt: VirtualTaskCluster<()> = VirtualTaskCluster::new(homogeneous(1));
        let mut plan: FaultPlan<()> = FaultPlan::new(0);
        plan.pause_machine(2.0, 0, 6.0);
        vt.set_fault_plan(plan);
        let t_end = Arc::new(Mutex::new(0.0));
        let te = Arc::clone(&t_end);
        vt.spawn(0, move |ctx| async move {
            ctx.compute(10.0).await;
            *te.lock().unwrap() = ctx.now();
        });
        vt.run();
        assert!((*t_end.lock().unwrap() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn killed_task_notifies_and_survivor_continues() {
        let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(homogeneous(2));
        let mut plan: FaultPlan<u32> = FaultPlan::new(0);
        // Task 1 dies at t=3 mid-compute; the runtime hands task 0 the
        // death notice (message 99).
        plan.kill_task(3.0, 1, vec![(0, 99)]);
        vt.set_fault_plan(plan);
        let got = Arc::new(Mutex::new(0u32));
        let g = Arc::clone(&got);
        vt.spawn(0, move |ctx| async move {
            let m = ctx.recv().await;
            *g.lock().unwrap() = m;
        });
        vt.spawn(1, move |ctx| async move {
            ctx.compute(100.0).await; // never finishes
            ctx.send(0, 1);
        });
        let report = vt.run();
        assert_eq!(*got.lock().unwrap(), 99);
        assert_eq!(report.per_proc[1].fate, TaskFate::Killed);
        assert!((report.per_proc[1].finished_at - 3.0).abs() < 1e-9);
        assert!(
            (report.per_proc[1].busy_time - 3.0).abs() < 1e-9,
            "killed mid-compute: busy up to the kill only"
        );
        assert_eq!(report.per_proc[0].fate, TaskFate::Completed);
    }

    #[test]
    fn crashed_machine_strands_tasks_as_orphans() {
        // The machine crashes mid-compute with no kill entries: the
        // task can never finish, and a fault-plan run must terminate
        // with the task orphaned instead of panicking.
        let mut vt: VirtualTaskCluster<()> = VirtualTaskCluster::new(homogeneous(2));
        let mut plan: FaultPlan<()> = FaultPlan::new(0);
        plan.crash_machine(4.0, 1);
        vt.set_fault_plan(plan);
        vt.spawn(0, |ctx| async move {
            ctx.compute(1.0).await;
        });
        vt.spawn(1, |ctx| async move {
            ctx.compute(50.0).await;
        });
        let report = vt.run();
        assert_eq!(report.per_proc[0].fate, TaskFate::Completed);
        assert_eq!(report.per_proc[1].fate, TaskFate::Orphaned);
    }

    #[test]
    fn dropped_route_counts_on_the_sender() {
        let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(homogeneous(2));
        let mut plan: FaultPlan<u32> = FaultPlan::new(0);
        plan.route(RouteFault {
            src: Some(1),
            dst: Some(0),
            from: 0.0,
            until: 5.0,
            action: RouteAction::Drop,
        });
        vt.set_fault_plan(plan);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        vt.spawn(0, move |ctx| async move {
            // Only the post-window message arrives.
            let msg = ctx.recv().await;
            g.lock().unwrap().push(msg);
        });
        vt.spawn(1, move |ctx| async move {
            ctx.compute(1.0).await;
            ctx.send(0, 111); // t=1: inside the drop window
            ctx.compute(9.0).await;
            ctx.send(0, 222); // t=10: window closed
        });
        let report = vt.run();
        assert_eq!(*got.lock().unwrap(), vec![222]);
        assert_eq!(report.per_proc[1].messages_dropped, 1);
        assert_eq!(
            report.per_proc[1].messages_sent, 2,
            "drops still count as sends"
        );
        assert_eq!(report.per_proc[0].messages_received, 1);
    }

    #[test]
    fn jitter_can_reorder_a_route() {
        // Two back-to-back zero-byte sends; with a huge jitter spread
        // some seed reorders them. Determinism: the same seed gives the
        // same order every run.
        fn run_with_seed(seed: u64) -> Vec<u32> {
            let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(homogeneous(2));
            let mut plan: FaultPlan<u32> = FaultPlan::new(seed);
            plan.route(RouteFault {
                src: Some(1),
                dst: Some(0),
                from: 0.0,
                until: 1e9,
                action: RouteAction::Jitter(100.0),
            });
            vt.set_fault_plan(plan);
            let got = Arc::new(Mutex::new(Vec::new()));
            let g = Arc::clone(&got);
            vt.spawn(0, move |ctx| async move {
                for _ in 0..2 {
                    let m = ctx.recv().await;
                    g.lock().unwrap().push(m);
                }
            });
            vt.spawn(1, move |ctx| async move {
                ctx.send_sized(0, 1, 0);
                ctx.send_sized(0, 2, 0);
            });
            vt.run();
            let out = got.lock().unwrap().clone();
            out
        }
        let mut saw_reorder = false;
        for seed in 0..32 {
            let once = run_with_seed(seed);
            assert_eq!(once, run_with_seed(seed), "jitter must replay per seed");
            if once == vec![2, 1] {
                saw_reorder = true;
            }
        }
        assert!(saw_reorder, "some seed in 0..32 must reorder the route");
    }

    #[test]
    fn recv_deadline_times_out_and_accounts_wait() {
        let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(homogeneous(2));
        let outcome = Arc::new(Mutex::new((None, 0.0)));
        let o = Arc::clone(&outcome);
        vt.spawn(0, move |ctx| async move {
            let got = ctx.recv_deadline(3.0).await;
            *o.lock().unwrap() = (got, ctx.now());
        });
        vt.spawn(1, move |ctx| async move {
            ctx.compute(10.0).await;
            ctx.send(0, 5); // far past the deadline; dropped (rx done)
        });
        let report = vt.run();
        let (got, when) = *outcome.lock().unwrap();
        assert_eq!(got, None);
        assert!((when - 3.0).abs() < 1e-9, "woke at the deadline: {when}");
        assert!((report.per_proc[0].wait_time - 3.0).abs() < 1e-9);
    }

    #[test]
    fn recv_deadline_returns_an_early_message() {
        let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(two_machines(1.0));
        let outcome = Arc::new(Mutex::new(None));
        let o = Arc::clone(&outcome);
        vt.spawn(0, move |ctx| async move {
            *o.lock().unwrap() = ctx.recv_deadline(100.0).await;
        });
        vt.spawn(1, move |ctx| async move {
            ctx.compute(2.0).await;
            ctx.send_sized(0, 42, 0);
        });
        vt.run();
        assert_eq!(*outcome.lock().unwrap(), Some(42));
    }

    #[test]
    fn fault_free_plan_off_path_is_bit_identical() {
        // Installing NO plan and leaving contention Exclusive keeps the
        // historical fast path; a run with an (empty) tracked setup via
        // TimeSliced on single-proc machines matches it bitwise. This is
        // the golden-compatibility contract in miniature.
        fn run_once(tracked: bool) -> (f64, Vec<ProcStats>) {
            let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(two_machines(0.5));
            if tracked {
                vt.set_contention(Contention::TimeSliced);
            }
            vt.spawn(0, |ctx| async move {
                let _ = ctx.recv().await;
                ctx.compute(3.0).await;
            });
            vt.spawn(1, |ctx| async move {
                ctx.compute(4.0).await;
                ctx.send(0, 9);
            });
            let r = vt.run();
            (r.end_time, r.per_proc)
        }
        let (end_a, procs_a) = run_once(false);
        let (end_b, procs_b) = run_once(true);
        assert_eq!(end_a, end_b);
        assert_eq!(procs_a, procs_b);
    }
}
