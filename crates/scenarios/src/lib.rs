//! The scenario engine: a benchmark harness that asks whether the
//! ML-driven source-routing loop still wins once it leaves the paper's
//! single testbed.
//!
//! The paper evaluates Hecate+PolKA on one fixed Global P4 Lab subset;
//! related work (NeuRoute's time-varying traffic matrices, Valadarsky
//! et al.'s insistence on many topologies and demand patterns) shows a
//! learned routing system has to be judged across a *population* of
//! conditions. This crate provides that population, deterministically:
//!
//! * [`zoo`] — parametric topology generators (fat-tree, ring+chords,
//!   two-tier WAN, Waxman and Erdős–Rényi random graphs, ESnet- and
//!   GÉANT-inspired real-WAN maps), all emitting `netsim::Topology`;
//! * [`traffic`] — traffic-matrix generators (gravity demands, diurnal
//!   sinusoids, elephant/mice mixes, bursty on/off sources) compiled to
//!   per-link background-load series;
//! * [`elastic`] — elastic background *flows* (greedy elephants plus
//!   churning demand-limited mice) compiled into real `netsim` events
//!   that compete in the max-min water-fill alongside managed flows —
//!   the 100k-flow workload behind the `scale-1k` scenario;
//! * [`events`] — scripted failure timelines (link failures, flap
//!   storms, maintenance drains) applied through the framework's
//!   `set_link_state` / `set_link_capacity` hooks;
//! * [`runner`] — executes a [`runner::Scenario`] end-to-end through
//!   `framework::SelfDrivingNetwork` (fluid, or packet-level via
//!   `attach_dataplane`) under a routing [`Policy`] — re-exported
//!   `framework::Policy`, whose arms the network runs, so the runner
//!   never branches on one;
//! * [`observe`] — opt-in sim-time observability for a run
//!   ([`runner::Scenario::run_observed`]): structured traces of the
//!   whole control loop (exportable as JSONL or a Perfetto-loadable
//!   Chrome trace), per-epoch metric snapshots folded into the
//!   scorecard, and flight-recorder dumps on SLO-violation epochs;
//! * [`scorecard`] — the resulting [`scorecard::Scorecard`] (aggregate
//!   goodput, p50/p99 per-flow throughput, SLO-violation epochs,
//!   migrations, post-failure recovery times) and the policy-matrix
//!   rendering;
//! * [`mod@catalog`] — canned (topology × traffic × events) scenarios
//!   with fixed seeds, the `repro scenarios` suite.
//!
//! **Determinism is the contract**: every scenario replays to a
//! bit-identical scorecard from its `u64` seed (property-tested in
//! `tests/determinism.rs`). One epoch is one simulated second — the
//! paper's 1 Hz telemetry cadence.

pub mod catalog;
pub mod elastic;
pub mod events;
pub mod observe;
pub mod runner;
pub mod scorecard;
pub mod traffic;
pub mod zoo;

pub use catalog::{catalog, catalog_smoke, scale_1k, scale_1k_smoke};
pub use elastic::ElasticSpec;
pub use framework::Policy;
pub use observe::{ObsvArtifacts, ObsvOptions};
pub use runner::{FlowPlan, PlaneMode, Scenario};
pub use scorecard::{render_matrix, MetricsSection, PairScore, Recovery, Scorecard};
pub use traffic::TrafficSpec;
pub use zoo::TopologySpec;

/// Errors from scenario construction or execution.
#[derive(Debug)]
pub enum ScenarioError {
    /// The scenario description is internally inconsistent.
    Config(String),
    /// The framework layer failed while driving the scenario.
    Framework(framework::FrameworkError),
    /// The emulator rejected an event or path.
    Netsim(netsim::NetsimError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Config(m) => write!(f, "scenario config error: {m}"),
            ScenarioError::Framework(e) => write!(f, "framework failure: {e}"),
            ScenarioError::Netsim(e) => write!(f, "emulator failure: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<framework::FrameworkError> for ScenarioError {
    fn from(e: framework::FrameworkError) -> Self {
        ScenarioError::Framework(e)
    }
}

impl From<netsim::NetsimError> for ScenarioError {
    fn from(e: netsim::NetsimError) -> Self {
        ScenarioError::Netsim(e)
    }
}
