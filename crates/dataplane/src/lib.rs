//! The packet-level PolKA forwarding plane.
//!
//! The paper's control loop ends in a *data plane*: the controller
//! compiles a path into one CRT routeID, ingress edges stamp it into a
//! [`polka::header::PolkaHeader`], and every core node forwards by a
//! single polynomial remainder — the header is never rewritten in
//! flight, so path migration and failure recovery are one ingress
//! rewrite. The fluid simulator in [`netsim`] models *rates*; this crate
//! models *packets*, closing the loop the paper actually runs:
//!
//! * [`label::FlowLabel`] — the two on-wire route encodings behind one
//!   type: the PolKA routeID (read-only remainder per hop) and the
//!   port-switching segment list (pop-one-label per hop, header
//!   mutates), so PolKA and the baseline run through the *same*
//!   pipeline for apples-to-apples benches. [`label::FlowRoute::polka`]
//!   and [`label::FlowRoute::segments`] build either from one route
//!   spec (`freertr::resolve::path_spec` compiles a node path into it);
//! * [`plane::ForwardingPlane`] — per-node port tables precomputed from
//!   a [`netsim::Topology`] plus one [`polka::CoreNode`] per router;
//!   batch-of-packets-per-hop forwarding ([`plane::ForwardingPlane::forward_batch`]);
//! * [`shard::forward_sharded`] — the pipeline sharded by ingress, the
//!   shards run on [`linalg::par`]; core nodes are stateless so shards
//!   share nothing and merged counters are deterministic;
//! * [`netem::PacketNet`] — the deterministic packet emulator: per-link
//!   drop-tail queues with transmission + propagation delay, periodic
//!   traffic sources, per-link/per-flow counters, and egress
//!   proof-of-transit verification ([`polka::pot`]) that rejects
//!   tampered or detoured packets; its nodes run as shards on
//!   [`linalg::par::settle`], in conservative windows as long as the
//!   soonest a packet can cross between two shards, each popping its
//!   heads from the simulator's own queue ([`netsim::timeq`]) in
//!   4 096-ns buckets.
//!
//! Everything is integer-nanosecond, allocation-light and free of RNG:
//! two runs with the same inputs produce bit-identical counters, on any
//! number of cores.

pub mod label;
pub mod netem;
pub mod plane;
pub mod shard;

pub use label::{FlowLabel, FlowRoute, PacketState};
pub use netem::{FlowReport, LinkReport, PacketNet, TrafficSpec};
pub use plane::{BatchReport, DropReason, ForwardingPlane, HopOutcome};
pub use shard::{forward_sharded, shard_critical_path};

/// Errors from data-plane construction and operation.
#[derive(Debug, Clone, PartialEq)]
pub enum DataplaneError {
    /// A route label could not be built for the path.
    Route(String),
    /// The underlying PolKA layer failed.
    Polka(polka::PolkaError),
    /// The topology does not support the requested operation.
    Topology(String),
    /// An unknown flow was referenced.
    UnknownFlow(String),
    /// A traffic source the emulator cannot run (no payload, or a rate
    /// that is NaN, negative or infinite).
    Traffic(String),
}

impl std::fmt::Display for DataplaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataplaneError::Route(m) => write!(f, "route error: {m}"),
            DataplaneError::Polka(e) => write!(f, "polka error: {e}"),
            DataplaneError::Topology(m) => write!(f, "topology error: {m}"),
            DataplaneError::UnknownFlow(n) => write!(f, "unknown flow {n:?}"),
            DataplaneError::Traffic(m) => write!(f, "traffic error: {m}"),
        }
    }
}

impl std::error::Error for DataplaneError {}

impl From<polka::PolkaError> for DataplaneError {
    fn from(e: polka::PolkaError) -> Self {
        DataplaneError::Polka(e)
    }
}
