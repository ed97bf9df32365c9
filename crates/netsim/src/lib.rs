//! Discrete-event, flow-level network emulator.
//!
//! The paper runs its two experiments on nine VirtualBox VMs emulating a
//! subset of the Global P4 Lab: RARE/freeRtr routers, VirtualBox
//! rate-limited NICs, `tc`-injected delay, and iperf3/ping as traffic
//! generators. This crate is the software substitute: a fluid-flow
//! simulator with
//!
//! * a capacitated, delay-annotated [`topo::Topology`] (including the
//!   Fig 9 testbed as [`topo::global_p4_lab`]);
//! * **max-min fair** bandwidth sharing recomputed whenever the flow set
//!   changes ([`fairness`]), which is the steady-state behaviour of
//!   competing TCP flows on shared bottlenecks;
//! * first-order TCP rate convergence and a protocol-efficiency factor,
//!   so throughput curves ramp like the paper's Fig 12 rather than
//!   stepping instantaneously;
//! * RTT probes with M/M/1-style queueing delay on utilized links
//!   ([`sim::Simulation::ping`]), standing in for `ping`;
//! * an event queue (start/stop/reroute flows, link capacity changes,
//!   link failure) with per-flow rate and per-path probe reads — what
//!   the "agents \[that\] collect telemetry data from relevant network
//!   paths" of Sec. IV measure. The simulator keeps no samples itself:
//!   the loop's one telemetry store is `framework::TelemetryService`.
//!
//! Determinism: given the same seed and event schedule, a simulation run
//! is bit-for-bit reproducible.

pub mod fairness;
pub mod flow;
pub mod maxmin;
pub mod sim;
pub mod timeq;
pub mod topo;

pub use fairness::FairShareEngine;
pub use flow::{Flow, FlowId, FlowSpec};
pub use maxmin::{MaxMinKernel, WaterfillMetrics, WaterfillStats};
pub use sim::{Event, Simulation};
pub use topo::{LinkId, NodeIdx, ShortestPathTree, Topology};

/// Errors from the emulator.
#[derive(Debug, Clone, PartialEq)]
pub enum NetsimError {
    /// Named node does not exist.
    UnknownNode(String),
    /// Node index out of range.
    BadNodeIndex(usize),
    /// Two nodes are not adjacent.
    NotAdjacent(String, String),
    /// A path was empty or disconnected.
    BadPath(String),
    /// Flow id does not exist.
    UnknownFlow(u64),
    /// Link id does not exist.
    UnknownLink(usize),
    /// A link capacity (Mbps) that is NaN, infinite or negative.
    BadCapacity(usize, f64),
    /// A flow demand (Mbps) that is NaN, infinite or negative.
    BadDemand(u64, f64),
}

impl std::fmt::Display for NetsimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetsimError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            NetsimError::BadNodeIndex(i) => write!(f, "node index {i} out of range"),
            NetsimError::NotAdjacent(a, b) => write!(f, "nodes {a} and {b} are not adjacent"),
            NetsimError::BadPath(m) => write!(f, "bad path: {m}"),
            NetsimError::UnknownFlow(id) => write!(f, "unknown flow {id}"),
            NetsimError::UnknownLink(id) => write!(f, "unknown link {id}"),
            NetsimError::BadCapacity(id, mbps) => {
                write!(
                    f,
                    "link {id}: capacity {mbps} Mbps is not a finite, non-negative rate"
                )
            }
            NetsimError::BadDemand(id, mbps) => {
                write!(
                    f,
                    "flow {id}: demand {mbps} Mbps is not a finite, non-negative rate"
                )
            }
        }
    }
}

impl std::error::Error for NetsimError {}
