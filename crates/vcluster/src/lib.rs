//! A deterministic virtual-time heterogeneous cluster runtime.
//!
//! The paper runs its parallel tabu search with PVM on twelve physical
//! workstations of three speed classes. This crate substitutes that
//! testbed with a simulated cluster that reproduces exactly the properties
//! the experiments measure — *relative* execution speed, background load,
//! and message latency — while being fully deterministic and runnable
//! anywhere:
//!
//! * [`virtual_runtime::VirtualTaskCluster`] runs every logical process
//!   as a future on one OS thread under a discrete-event scheduler that
//!   advances a global **virtual clock** to the next wake-up in
//!   `(time, task id)` order, so runs are exactly reproducible and
//!   thousands of processes fit in one thread,
//! * CPU work is charged explicitly via
//!   [`virtual_runtime::VirtualTaskCtx::compute`] in abstract *work
//!   units*; a machine of speed `s` executes `s` units per virtual
//!   second, modulated by its background [`machine::LoadModel`],
//! * messages travel through a [`message::LinkModel`] with latency and
//!   bandwidth; mailbox delivery order is `(arrival time, send sequence)`,
//! * per-process [`metrics`] (busy time, message counts) feed the
//!   experiment harness,
//! * opt-in [`fault`] layers add machine contention and scripted faults.
//!
//! The paper's twelve-machine cluster (7 fast / 3 medium / 2 slow) is
//! provided by [`topology::paper_cluster`]; [`topology::homogeneous`]
//! is the unit-speed control condition.

mod async_runtime;
pub mod fault;
pub mod machine;
pub mod mailbox;
pub mod message;
pub mod metrics;
pub mod topology;
pub mod virtual_runtime;

pub use fault::{Contention, FaultPlan, MachineEvent, RouteAction, RouteFault};
pub use machine::{LoadModel, Machine};
pub use message::LinkModel;
pub use metrics::{ProcStats, RunReport, TaskFate};
pub use topology::ClusterSpec;
pub use virtual_runtime::{EventQueue, VirtualTaskCluster, VirtualTaskCtx};
