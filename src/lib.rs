//! # polka-hecate
//!
//! A full Rust reproduction of *"Framework for Integrating Machine
//! Learning Methods for Path-Aware Source Routing"* (SC 2024,
//! arXiv:2501.04624): ML-driven traffic engineering (Hecate) steering a
//! polynomial source-routing data plane (PolKA) over an emulated
//! RARE/freeRtr testbed.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`gf2poly`] — GF(2)\[t\] polynomial arithmetic (CRT, irreducibles);
//! * [`polka`] — routeID compilation, stateless forwarding, migration,
//!   proof-of-transit and multipath extensions, port-switching baseline;
//! * [`dataplane`] — the packet-level PolKA forwarding plane: route
//!   labels behind one trait (routeID vs segment list), per-node port
//!   tables, batch-of-packets-per-hop forwarding sharded by ingress
//!   over `linalg::par`, and a deterministic drop-tail-queue emulator
//!   with egress proof-of-transit checks;
//! * [`linalg`] — dense linear algebra + parallel helpers;
//! * [`hecate_ml`] — the paper's eighteen regressors and the evaluation
//!   pipeline;
//! * [`traces`] — the synthetic UQ wireless dataset;
//! * [`lp`] — simplex and the Sec. III TE formulations;
//! * [`netsim`] — the discrete-event flow-level network emulator;
//! * [`freertr`] — control-plane emulation (config dialect, ACL/PBR,
//!   transactional router agents);
//! * [`framework`] — the integrated self-driving network (the loop of
//!   Figs 3–4; the workspace's `bench` crate runs the Fig 11 and Fig 12
//!   experiments on it), built around the shared ForecastEngine: a trained-model cache in `framework::hecate`
//!   (train once, roll/observe online, refit after N new samples),
//!   batched scheduler-tick decisions via
//!   `framework::controller::decide_flows_pairs`, and a mirrored-ring
//!   telemetry store with zero-copy windowed reads;
//! * [`scenarios`] — the deterministic scenario engine: a topology zoo
//!   (fat-tree, ring+chords, two-tier WAN, Waxman/Erdős–Rényi, ESnet-
//!   and GÉANT-like maps), traffic-matrix generators (gravity, diurnal,
//!   elephant/mice, on/off), scripted failure timelines, and a runner
//!   that scores routing policies (`Scorecard`) across the whole
//!   catalog from a single `u64` seed.
//!
//! ## Quickstart
//!
//! ```
//! use polka_hecate::framework::{FlowRequest, Objective, PairId, SelfDrivingNetwork};
//!
//! // The paper testbed: Fig 9 topology, Fig 10 edge config, 3 tunnels.
//! let mut sdn = SelfDrivingNetwork::testbed(42).unwrap();
//! let flow = FlowRequest {
//!     label: "flow1".into(),
//!     tos: 32,
//!     demand_mbps: None,
//!     start_ms: 0,
//!     pair: PairId::default(),
//! };
//! sdn.admit_flow(&flow, Objective::MaxBandwidth).unwrap();
//! // 30 s of telemetry, then one re-optimization on Hecate's forecasts.
//! sdn.advance(30_000).unwrap();
//! sdn.reoptimize_bandwidth().unwrap();
//! sdn.advance(35_000).unwrap();
//! let tunnel = sdn.flow_tunnel("flow1").unwrap();
//! assert!(sdn.tunnel_names().iter().any(|t| t == tunnel));
//! assert!(sdn.flow_rate("flow1").unwrap() > 0.0);
//! ```

pub use dataplane;
pub use framework;
pub use freertr;
pub use gf2poly;
pub use hecate_ml;
pub use linalg;
pub use lp;
pub use netsim;
pub use polka;
pub use scenarios;
pub use traces;
