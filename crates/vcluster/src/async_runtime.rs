//! The cooperative runtime under `AsyncEngine`, checked as a runtime.
//!
//! `AsyncEngine` has no executor of its own: it runs the vt runtime on
//! [`topology::homogeneous(1)`](crate::topology::homogeneous), with every
//! task on machine 0. Under the default exclusive contention model each
//! task still gets its own unit-speed CPU, and every message crosses the
//! loopback link. The tests below pin what a cooperative message-passing
//! runtime must give the protocol under exactly that preset: routing and
//! traffic accounting, a `recv` that parks until a send arrives, a
//! `try_recv` that never suspends, dropped sends to finished tasks, work
//! and wait accounting, thousands of tasks on one thread, and deadlock
//! detection.

#[cfg(test)]
mod tests {
    use crate::message::LinkModel;
    use crate::topology::homogeneous;
    use crate::virtual_runtime::VirtualTaskCluster;
    use std::sync::{Arc, Mutex};

    /// The `AsyncEngine` preset: one unit-speed machine hosting every
    /// task, each on a dedicated CPU.
    fn preset<M: 'static>() -> VirtualTaskCluster<M> {
        VirtualTaskCluster::new(homogeneous(1))
    }

    /// Delivery delay of a default-sized (1 KiB) message on loopback.
    fn loopback_1k() -> f64 {
        LinkModel::default().transfer_time(0, 0, 1024)
    }

    #[test]
    fn messages_route_between_tasks() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let mut cluster: VirtualTaskCluster<u32> = preset();
        let g = Arc::clone(&got);
        let rx = cluster.spawn(0, move |ctx| async move {
            for _ in 0..3 {
                let msg = ctx.recv().await;
                g.lock().unwrap().push(msg);
            }
        });
        cluster.spawn(0, move |ctx| async move {
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
        let mut cluster: VirtualTaskCluster<&'static str> = preset();
        let o = Arc::clone(&order);
        cluster.spawn(0, move |ctx| async move {
            let msg = ctx.recv().await;
            o.lock().unwrap().push(msg);
        });
        let o = Arc::clone(&order);
        cluster.spawn(0, move |ctx| async move {
            o.lock().unwrap().push("sender ran");
            ctx.send(0, "delivered");
        });
        cluster.run();
        assert_eq!(*order.lock().unwrap(), vec!["sender ran", "delivered"]);
    }

    #[test]
    fn try_recv_never_suspends() {
        let seen = Arc::new(Mutex::new((None, None)));
        let mut cluster: VirtualTaskCluster<u32> = preset();
        let s = Arc::clone(&seen);
        cluster.spawn(0, move |ctx| async move {
            let early = ctx.try_recv(); // nothing yet
            let bounced = ctx.recv().await; // parks; sender runs meanwhile
            ctx.send(1, bounced);
            s.lock().unwrap().0 = early;
        });
        let s = Arc::clone(&seen);
        cluster.spawn(0, move |ctx| async move {
            ctx.send(0, 7);
            let back = ctx.recv().await;
            s.lock().unwrap().1 = ctx.try_recv().or(Some(back));
        });
        cluster.run();
        assert_eq!(*seen.lock().unwrap(), (None, Some(7)));
    }

    #[test]
    fn send_to_finished_task_is_dropped() {
        let mut cluster: VirtualTaskCluster<u32> = preset();
        let early = cluster.spawn(0, |_ctx| async move {});
        cluster.spawn(0, move |ctx| async move {
            let _ = ctx.recv().await; // wait until `early` is long dead
        });
        cluster.spawn(0, move |ctx| async move {
            ctx.send(early, 5); // receiver finished before this runs
            ctx.send_sized(1, 9, 0);
        });
        let report = cluster.run();
        assert_eq!(report.per_proc[0].messages_received, 0);
        assert_eq!(report.per_proc[2].messages_sent, 2);
    }

    #[test]
    fn work_and_wait_are_accounted() {
        let mut cluster: VirtualTaskCluster<u32> = preset();
        cluster.spawn(0, |ctx| async move {
            let _ = ctx.recv().await;
            ctx.compute(2.5).await;
        });
        cluster.spawn(0, |ctx| async move {
            ctx.compute(1.5).await;
            ctx.send(0, 1);
        });
        let report = cluster.run();
        assert!((report.per_proc[0].work_done - 2.5).abs() < 1e-12);
        assert!((report.total_work() - 4.0).abs() < 1e-12);
        assert!(report.per_proc[0].wait_time >= 0.0);
        assert!(report.end_time >= 0.0);
        // Both tasks share machine 0 but each has its own CPU: the
        // receiver waits exactly for the sender's stretch plus loopback.
        let arrival = 1.5 + loopback_1k();
        assert!((report.per_proc[0].wait_time - arrival).abs() < 1e-9);
        assert!((report.end_time - (arrival + 2.5)).abs() < 1e-9);
    }

    #[test]
    fn scales_to_thousands_of_tasks() {
        // The point of this runtime: far more logical processes than the
        // host has threads. 2001 tasks ping a collector once each.
        let mut cluster: VirtualTaskCluster<u64> = preset();
        const N: u64 = 2000;
        cluster.spawn(0, move |ctx| async move {
            let mut sum = 0u64;
            for _ in 0..N {
                sum += ctx.recv().await;
            }
            assert_eq!(sum, N * (N + 1) / 2);
        });
        for i in 1..=N {
            cluster.spawn(0, move |ctx| async move {
                ctx.send(0, i);
            });
        }
        let report = cluster.run();
        assert_eq!(report.per_proc.len(), N as usize + 1);
        assert_eq!(report.per_proc[0].messages_received, N);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut cluster: VirtualTaskCluster<u32> = preset();
        cluster.spawn(0, |ctx| async move {
            let _ = ctx.recv().await; // nobody will ever send
        });
        cluster.spawn(0, |ctx| async move {
            ctx.compute(1.0).await;
        });
        cluster.run();
    }
}
