//! A single-threaded cooperative task runtime: thousands of logical
//! processes on one OS thread.
//!
//! One OS thread per logical process caps the process count at what the
//! host will give us in threads and stacks — far below the "thousands of
//! simulated workers on one host" target. This module is the
//! scale-oriented wall-clock substrate: every logical process is a
//! *future*, polled by a deterministic FIFO executor, and a blocking
//! receive is simply a poll that returns [`Poll::Pending`] until a
//! message lands in the task's mailbox.
//!
//! Design notes:
//!
//! * **No timers, no wakers, no I/O.** Progress in a message-passing
//!   protocol comes only from messages, so the executor's ready queue is
//!   driven entirely by [`TaskCtx::send`]: delivering to a parked task
//!   schedules it. A task that returns `Pending` is parked until someone
//!   sends to it.
//! * **Deterministic.** The ready queue is FIFO, tasks are polled on one
//!   thread in a fixed order, and nothing consults real time for
//!   scheduling — identical inputs replay identical executions, like the
//!   virtual cluster.
//! * **Accounting matches the virtual cluster's shape.** Each task fills
//!   a [`ProcStats`]: messages, bytes, charged work units, and wall-clock
//!   time spent parked in `recv`. Clocks are host wall-clock seconds
//!   (there is no virtual time here; this runtime trades the timing model
//!   for scale).
//!
//! Deadlock (every live task parked with an empty mailbox) panics with
//! the list of stuck tasks, like the virtual cluster.

use crate::metrics::{ProcStats, RunReport};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// Shared state of one cooperative run: mailboxes, ready queue, stats.
struct Hub<M> {
    start: Instant,
    mailboxes: Vec<RefCell<VecDeque<M>>>,
    /// FIFO of task ids scheduled to be polled.
    ready: RefCell<VecDeque<usize>>,
    /// Whether a task id is already in `ready` (dedup guard).
    queued: RefCell<Vec<bool>>,
    /// Completed tasks are never rescheduled; sends to them are dropped
    /// (the virtual cluster's "undeliverable" semantics).
    done: RefCell<Vec<bool>>,
    stats: RefCell<Vec<ProcStats>>,
    /// When each task last parked in `recv` (wall-clock wait accounting).
    parked_since: RefCell<Vec<Option<Instant>>>,
}

impl<M> Hub<M> {
    fn new(n: usize) -> Hub<M> {
        Hub {
            start: Instant::now(),
            mailboxes: (0..n).map(|_| RefCell::new(VecDeque::new())).collect(),
            ready: RefCell::new((0..n).collect()),
            queued: RefCell::new(vec![true; n]),
            done: RefCell::new(vec![false; n]),
            stats: RefCell::new(vec![ProcStats::default(); n]),
            parked_since: RefCell::new(vec![None; n]),
        }
    }

    fn schedule(&self, id: usize) {
        let mut queued = self.queued.borrow_mut();
        if !queued[id] && !self.done.borrow()[id] {
            queued[id] = true;
            self.ready.borrow_mut().push_back(id);
        }
    }

    fn next_ready(&self) -> Option<usize> {
        let id = self.ready.borrow_mut().pop_front()?;
        self.queued.borrow_mut()[id] = false;
        Some(id)
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn send(&self, src: usize, dst: usize, msg: M, bytes: u64) {
        assert!(dst < self.mailboxes.len(), "send to unknown task {dst}");
        {
            let mut stats = self.stats.borrow_mut();
            stats[src].messages_sent += 1;
            stats[src].bytes_sent += bytes;
        }
        if self.done.borrow()[dst] {
            return; // undeliverable: receiver already finished
        }
        self.mailboxes[dst].borrow_mut().push_back(msg);
        self.schedule(dst);
    }

    /// One `recv` poll: pop a message or park the task.
    fn poll_recv(&self, id: usize) -> Poll<M> {
        match self.mailboxes[id].borrow_mut().pop_front() {
            Some(msg) => {
                let mut stats = self.stats.borrow_mut();
                stats[id].messages_received += 1;
                if let Some(t0) = self.parked_since.borrow_mut()[id].take() {
                    stats[id].wait_time += t0.elapsed().as_secs_f64();
                }
                Poll::Ready(msg)
            }
            None => {
                let mut parked = self.parked_since.borrow_mut();
                if parked[id].is_none() {
                    parked[id] = Some(Instant::now());
                }
                Poll::Pending
            }
        }
    }

    fn try_recv(&self, id: usize) -> Option<M> {
        let msg = self.mailboxes[id].borrow_mut().pop_front()?;
        self.stats.borrow_mut()[id].messages_received += 1;
        Some(msg)
    }

    fn retire(&self, id: usize) {
        self.done.borrow_mut()[id] = true;
        self.stats.borrow_mut()[id].finished_at = self.now();
    }
}

/// Handle through which a task interacts with the runtime.
///
/// Cheap to clone (shares the hub); `recv` is the only suspension point.
pub struct TaskCtx<M> {
    id: usize,
    hub: Rc<Hub<M>>,
}

impl<M> TaskCtx<M> {
    /// This task's id (spawn order).
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of tasks in the run.
    pub fn num_tasks(&self) -> usize {
        self.hub.mailboxes.len()
    }

    /// Wall-clock seconds since the run started.
    pub fn now(&self) -> f64 {
        self.hub.now()
    }

    /// Record `work` charged units. Real computation takes real wall time;
    /// like the thread transport, only the units are accounted.
    pub fn compute(&self, work: f64) {
        assert!(work >= 0.0, "work must be non-negative");
        self.hub.stats.borrow_mut()[self.id].work_done += work;
    }

    /// Deliver a message to task `dst`, scheduling it if parked. Sends to
    /// finished tasks are dropped. `bytes` feeds the traffic accounting.
    pub fn send_sized(&self, dst: usize, msg: M, bytes: u64) {
        self.hub.send(self.id, dst, msg, bytes);
    }

    /// [`TaskCtx::send_sized`] with the default 1 KiB accounting size.
    pub fn send(&self, dst: usize, msg: M) {
        self.send_sized(dst, msg, 1024);
    }

    /// Take a message if one is queued; never suspends.
    pub fn try_recv(&self) -> Option<M> {
        self.hub.try_recv(self.id)
    }

    /// Wait for the next message. This is the main cooperative scheduling
    /// point: an empty mailbox parks the task until a send arrives.
    pub fn recv(&self) -> impl Future<Output = M> + '_ {
        std::future::poll_fn(move |_cx| self.hub.poll_recv(self.id))
    }

    /// Hand the executor back to the other ready tasks and resume at the
    /// back of the FIFO. Long compute-only stretches (no `recv`) should
    /// yield between chunks so peers can make progress — and so messages
    /// they send mid-stretch (e.g. a cut-short request) can actually
    /// arrive before the stretch completes.
    pub fn yield_now(&self) -> impl Future<Output = ()> + '_ {
        let mut yielded = false;
        std::future::poll_fn(move |_cx| {
            if yielded {
                Poll::Ready(())
            } else {
                yielded = true;
                // Re-enqueue ourselves: the executor will re-poll this
                // task after everything currently ahead in the queue.
                self.hub.schedule(self.id);
                Poll::Pending
            }
        })
    }
}

type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Builder + executor: spawn logical processes as futures, then run the
/// whole cohort to completion on the calling thread.
pub struct TaskCluster<M> {
    spawners: Vec<Box<dyn FnOnce(TaskCtx<M>) -> TaskFuture>>,
}

impl<M> Default for TaskCluster<M> {
    fn default() -> Self {
        TaskCluster::new()
    }
}

impl<M> TaskCluster<M> {
    /// An empty cluster; add tasks with [`TaskCluster::spawn`].
    pub fn new() -> TaskCluster<M> {
        TaskCluster {
            spawners: Vec::new(),
        }
    }

    /// Register a task; returns its id (spawn order). `f` receives the
    /// task's [`TaskCtx`] and returns the future to drive. Futures need
    /// not be `Send` — the whole cohort runs on one thread.
    pub fn spawn<F, Fut>(&mut self, f: F) -> usize
    where
        F: FnOnce(TaskCtx<M>) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let id = self.spawners.len();
        self.spawners.push(Box::new(move |ctx| Box::pin(f(ctx))));
        id
    }

    /// Number of tasks registered so far.
    pub fn num_spawned(&self) -> usize {
        self.spawners.len()
    }

    /// Drive every task to completion and report per-task metrics.
    ///
    /// Panics if the cohort deadlocks (all live tasks parked in `recv`
    /// with empty mailboxes) or any task panics.
    pub fn run(self) -> RunReport {
        assert!(!self.spawners.is_empty(), "no tasks spawned");
        let n = self.spawners.len();
        let hub: Rc<Hub<M>> = Rc::new(Hub::new(n));
        let mut tasks: Vec<Option<TaskFuture>> = self
            .spawners
            .into_iter()
            .enumerate()
            .map(|(id, f)| {
                Some(f(TaskCtx {
                    id,
                    hub: Rc::clone(&hub),
                }))
            })
            .collect();

        // Wakers carry no information here — readiness is tracked by the
        // hub's queue, driven by sends.
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        let mut live = n;
        while let Some(id) = hub.next_ready() {
            // A task can complete while still queued (e.g. it scheduled
            // itself on its final poll); skip retired entries.
            let Some(task) = tasks[id].as_mut() else {
                continue;
            };
            if task.as_mut().poll(&mut cx).is_ready() {
                tasks[id] = None; // release the task's state eagerly
                hub.retire(id);
                live -= 1;
            }
        }
        if live > 0 {
            let stuck: Vec<usize> = tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.is_some())
                .map(|(i, _)| i)
                .collect();
            panic!(
                "task cluster deadlock: tasks {stuck:?} parked in recv with no pending messages"
            );
        }

        let stats = hub.stats.borrow();
        RunReport {
            end_time: stats.iter().map(|p| p.finished_at).fold(0.0, f64::max),
            per_proc: stats.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn messages_route_between_tasks() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let mut cluster: TaskCluster<u32> = TaskCluster::new();
        let g = Arc::clone(&got);
        let rx = cluster.spawn(move |ctx| async move {
            for _ in 0..3 {
                let msg = ctx.recv().await;
                g.lock().unwrap().push(msg);
            }
        });
        cluster.spawn(move |ctx| async move {
            for i in 0..3 {
                ctx.send(rx, i);
            }
        });
        let report = cluster.run();
        assert_eq!(*got.lock().unwrap(), vec![0, 1, 2]);
        assert_eq!(report.per_proc[0].messages_received, 3);
        assert_eq!(report.per_proc[1].messages_sent, 3);
        assert_eq!(report.per_proc[1].bytes_sent, 3 * 1024);
    }

    #[test]
    fn recv_parks_until_send_arrives() {
        // The receiver is spawned first and polled first: its mailbox is
        // empty, so it must park and resume only after the sender runs.
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut cluster: TaskCluster<&'static str> = TaskCluster::new();
        let o = Arc::clone(&order);
        cluster.spawn(move |ctx| async move {
            let msg = ctx.recv().await;
            o.lock().unwrap().push(msg);
        });
        let o = Arc::clone(&order);
        cluster.spawn(move |ctx| async move {
            o.lock().unwrap().push("sender ran");
            ctx.send(0, "delivered");
        });
        cluster.run();
        assert_eq!(*order.lock().unwrap(), vec!["sender ran", "delivered"]);
    }

    #[test]
    fn try_recv_never_suspends() {
        let seen = Arc::new(Mutex::new((None, None)));
        let mut cluster: TaskCluster<u32> = TaskCluster::new();
        let s = Arc::clone(&seen);
        cluster.spawn(move |ctx| async move {
            let early = ctx.try_recv(); // nothing yet
            let bounced = ctx.recv().await; // parks; sender runs meanwhile
            ctx.send(1, bounced);
            s.lock().unwrap().0 = early;
        });
        let s = Arc::clone(&seen);
        cluster.spawn(move |ctx| async move {
            ctx.send(0, 7);
            let back = ctx.recv().await;
            s.lock().unwrap().1 = ctx.try_recv().or(Some(back));
        });
        cluster.run();
        assert_eq!(*seen.lock().unwrap(), (None, Some(7)));
    }

    #[test]
    fn send_to_finished_task_is_dropped() {
        let mut cluster: TaskCluster<u32> = TaskCluster::new();
        let early = cluster.spawn(|_ctx| async move {});
        cluster.spawn(move |ctx| async move {
            let _ = ctx.recv().await; // wait until `early` is long dead
        });
        cluster.spawn(move |ctx| async move {
            ctx.send(early, 5); // receiver finished before this runs
            ctx.send_sized(1, 9, 0);
        });
        let report = cluster.run();
        assert_eq!(report.per_proc[0].messages_received, 0);
        assert_eq!(report.per_proc[2].messages_sent, 2);
    }

    #[test]
    fn work_and_wait_are_accounted() {
        let mut cluster: TaskCluster<u32> = TaskCluster::new();
        cluster.spawn(|ctx| async move {
            let _ = ctx.recv().await;
            ctx.compute(2.5);
        });
        cluster.spawn(|ctx| async move {
            ctx.compute(1.5);
            ctx.send(0, 1);
        });
        let report = cluster.run();
        assert!((report.per_proc[0].work_done - 2.5).abs() < 1e-12);
        assert!((report.total_work() - 4.0).abs() < 1e-12);
        assert!(report.per_proc[0].wait_time >= 0.0);
        assert!(report.end_time >= 0.0);
    }

    #[test]
    fn deterministic_fifo_schedule() {
        fn run_once() -> Vec<(u32, u32)> {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut cluster: TaskCluster<(u32, u32)> = TaskCluster::new();
            let l = Arc::clone(&log);
            let master = cluster.spawn(move |ctx| async move {
                for _ in 0..9 {
                    let msg = ctx.recv().await;
                    l.lock().unwrap().push(msg);
                }
            });
            for w in 0..3u32 {
                cluster.spawn(move |ctx| async move {
                    for i in 0..3u32 {
                        ctx.send(master, (w, i));
                    }
                });
            }
            cluster.run();
            let out = log.lock().unwrap().clone();
            out
        }
        let a = run_once();
        assert_eq!(a, run_once(), "same inputs must replay identically");
        assert_eq!(a.len(), 9);
    }

    #[test]
    fn scales_to_thousands_of_tasks() {
        // The point of this runtime: far more logical processes than the
        // host has threads. 2001 tasks ping a collector once each.
        let mut cluster: TaskCluster<u64> = TaskCluster::new();
        const N: u64 = 2000;
        cluster.spawn(move |ctx| async move {
            let mut sum = 0u64;
            for _ in 0..N {
                sum += ctx.recv().await;
            }
            assert_eq!(sum, N * (N + 1) / 2);
        });
        for i in 1..=N {
            cluster.spawn(move |ctx| async move {
                ctx.send(0, i);
            });
        }
        let report = cluster.run();
        assert_eq!(report.per_proc.len(), N as usize + 1);
        assert_eq!(report.per_proc[0].messages_received, N);
    }

    #[test]
    fn yield_now_interleaves_compute_stretches() {
        // Two workers log their steps, yielding between them: the log
        // must interleave deterministically instead of running each
        // worker to completion.
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut cluster: TaskCluster<u32> = TaskCluster::new();
        for w in 0..2u32 {
            let l = Arc::clone(&log);
            cluster.spawn(move |ctx| async move {
                for step in 0..3u32 {
                    l.lock().unwrap().push((w, step));
                    ctx.yield_now().await;
                }
            });
        }
        cluster.run();
        assert_eq!(
            *log.lock().unwrap(),
            vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
    }

    #[test]
    fn message_sent_mid_stretch_arrives_before_stretch_ends() {
        // The cut-short pattern: a worker yielding between steps must be
        // able to observe a message sent after its stretch began.
        let cut_at = Arc::new(Mutex::new(None));
        let mut cluster: TaskCluster<&'static str> = TaskCluster::new();
        let c = Arc::clone(&cut_at);
        cluster.spawn(move |ctx| async move {
            for step in 0..100u32 {
                ctx.yield_now().await;
                if ctx.try_recv().is_some() {
                    *c.lock().unwrap() = Some(step);
                    return;
                }
            }
        });
        cluster.spawn(move |ctx| async move {
            ctx.yield_now().await; // let the worker start its stretch
            ctx.send(0, "cut");
        });
        cluster.run();
        let cut = cut_at.lock().unwrap().expect("worker must see the cut");
        assert!((1..100).contains(&cut), "cut mid-stretch, got step {cut}");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut cluster: TaskCluster<u32> = TaskCluster::new();
        cluster.spawn(|ctx| async move {
            let _ = ctx.recv().await; // nobody will ever send
        });
        cluster.spawn(|ctx| async move {
            ctx.compute(1.0);
        });
        cluster.run();
    }
}
