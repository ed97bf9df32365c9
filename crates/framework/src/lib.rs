//! The Hecate–PolKA integration framework: the paper's core contribution
//! (Sec. IV, Figs 3–4).
//!
//! The moving parts, mirroring Fig 3:
//!
//! * [`telemetry::TelemetryService`] — a time-series store fed by the
//!   emulator's per-path probes ("telemetry data … stored in a time
//!   series database for analysis");
//! * [`hecate::HecateService`] — wraps one of the eighteen regressors,
//!   forecasts each path's QoS for the next `horizon` steps ("Hecate
//!   computes the predicted values for the next 10 steps");
//! * [`optimizer`] — objective functions over path forecasts
//!   (min-latency, max-bandwidth, min-max-utilization) and the flow→tunnel
//!   assignment search;
//! * [`controller`] — the Fig 4 sequence: new flow → telemetry → Hecate →
//!   optimizer → SR (PolKA) service → flow steered;
//! * [`scheduler::Scheduler`] — queued flow requests with start times;
//! * [`dashboard`] — text rendering: sparklines, flow rows and tables;
//! * [`sdn::SelfDrivingNetwork`] — the assembled system: netsim substrate,
//!   freeRtr agents, compiled PolKA tunnels, services. The paper's two
//!   experiments (Fig 11, Fig 12) run on its public API from the `bench`
//!   crate's `figures` module;
//! * [`Policy`] — the network's routing policy (Hecate, last-sample,
//!   static shortest-path), the one place its arms live: the network
//!   runs it through [`SelfDrivingNetwork::admit_under`] and
//!   [`SelfDrivingNetwork::steer`], for the scenario runner and the
//!   trace-driven steering experiment alike;
//! * [`policies`] — the offline decision-policy ablation of Sec. III
//!   ("Real-time Decision Making"): two raw traces scored against an
//!   oracle, with no network in the loop.

pub mod controller;
pub mod dashboard;
pub mod dataloop;
pub mod hecate;
pub mod optimizer;
pub mod policies;
pub mod scheduler;
pub mod sdn;
mod steering;
pub mod telemetry;
pub mod waterfill;

pub use hecate::HecateService;
pub use optimizer::{Objective, OptimizerConfig};
pub use scheduler::{FlowRequest, Scheduler};
pub use sdn::SelfDrivingNetwork;
pub use steering::Policy;
pub use telemetry::{Metric, TelemetryService};
pub use waterfill::SharedWaterfill;

/// Index of a **managed ingress/egress pair** — the unit the multi-pair
/// control plane keys everything on: candidate tunnel sets, telemetry
/// namespaces, flow admission and the shared-link assignment.
///
/// A single-pair deployment (the paper's testbed, or
/// [`SelfDrivingNetwork::over_topology_pairs`] with one pair) is
/// `PairId(0)` everywhere and decides on the same shared-link engine as
/// any other; only its series/tunnel names stay un-namespaced, as the
/// Fig 10 configuration names its tunnels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PairId(pub usize);

impl PairId {
    /// The pair's index into the network's managed-pair table.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for PairId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Errors from the framework layer.
#[derive(Debug)]
pub enum FrameworkError {
    /// The ML layer failed.
    Ml(hecate_ml::MlError),
    /// The control plane failed.
    Freertr(freertr::FreertrError),
    /// The emulator failed.
    Netsim(netsim::NetsimError),
    /// The packet-level data plane failed.
    Dataplane(dataplane::DataplaneError),
    /// A telemetry round named a series of another store.
    Telemetry(telemetry::ForeignSeries),
    /// A flow label that would break flow identity: repeated in its
    /// batch, already managed, or in the packet plane's reserved
    /// `probe:` namespace.
    FlowLabel(String),
    /// A flow (by label) declaring a demand that is NaN, infinite or
    /// negative: no placement can honour it.
    FlowDemand(String),
    /// No candidate tunnel satisfies the request.
    NoFeasiblePath,
}

impl std::fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameworkError::Ml(e) => write!(f, "ML failure: {e}"),
            FrameworkError::Freertr(e) => write!(f, "control-plane failure: {e}"),
            FrameworkError::Netsim(e) => write!(f, "emulator failure: {e}"),
            FrameworkError::Dataplane(e) => write!(f, "data-plane failure: {e}"),
            FrameworkError::Telemetry(e) => write!(f, "telemetry failure: {e}"),
            FrameworkError::FlowLabel(l) => write!(f, "flow label {l:?} is taken or reserved"),
            FrameworkError::FlowDemand(l) => {
                write!(
                    f,
                    "flow {l:?} declares a demand that is not finite and >= 0"
                )
            }
            FrameworkError::NoFeasiblePath => write!(f, "no feasible path"),
        }
    }
}

impl std::error::Error for FrameworkError {}

impl From<hecate_ml::MlError> for FrameworkError {
    fn from(e: hecate_ml::MlError) -> Self {
        FrameworkError::Ml(e)
    }
}
impl From<freertr::FreertrError> for FrameworkError {
    fn from(e: freertr::FreertrError) -> Self {
        FrameworkError::Freertr(e)
    }
}
impl From<netsim::NetsimError> for FrameworkError {
    fn from(e: netsim::NetsimError) -> Self {
        FrameworkError::Netsim(e)
    }
}
impl From<dataplane::DataplaneError> for FrameworkError {
    fn from(e: dataplane::DataplaneError) -> Self {
        FrameworkError::Dataplane(e)
    }
}
impl From<telemetry::ForeignSeries> for FrameworkError {
    fn from(e: telemetry::ForeignSeries) -> Self {
        FrameworkError::Telemetry(e)
    }
}
