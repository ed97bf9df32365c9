//! Closing the control loop through the packet-level data plane.
//!
//! With [`SelfDrivingNetwork::attach_dataplane`] the loop becomes the
//! one the paper actually runs on hardware:
//!
//! ```text
//! decide → compile routeID (CRT) → stamp at ingress → forward packets
//!   → link/flow counters → telemetry store → forecast → re-decide
//! ```
//!
//! Every tunnel carries a periodic *probe* flow and every managed flow
//! a traffic source in [`dataplane::PacketNet`]; one
//! [`SelfDrivingNetwork::packet_epoch`] forwards a window of real
//! packets, then feeds the **measured** counters (each tunnel's
//! residual from its links' load, each flow's delivered goodput) into
//! the telemetry store — the same store Hecate forecasts from. Path
//! migration reaches the plane as exactly one ingress routeID swap
//! ([`dataplane::PacketNet::set_route`]); core nodes are never touched.

use crate::sdn::SelfDrivingNetwork;
use crate::FrameworkError;
use dataplane::netem::check_source;
use dataplane::{FlowRoute, PacketNet, TrafficSpec};
use netsim::NodeIdx;
use std::collections::HashMap;

/// The name prefix of the packet plane's per-tunnel probe flows
/// (`probe:<tunnel>`); managed flow labels may not use it.
pub(crate) const PROBE_PREFIX: &str = "probe:";

/// Tuning for the attached packet plane.
#[derive(Debug, Clone)]
pub struct DataplaneConfig {
    /// Packet-time per epoch (ms). One telemetry sample per tunnel and
    /// flow is produced per epoch; the paper samples at 1 Hz.
    pub epoch_ms: u64,
    /// Per-tunnel probe rate (Mbps) — the always-on measurement stream.
    pub probe_rate_mbps: f64,
    /// Probe payload size (bytes).
    pub probe_bytes: u32,
    /// Default offered load for managed flows without a declared demand
    /// (a stand-in for greedy TCP; the drop-tail queues shave it).
    pub default_flow_mbps: f64,
    /// Managed-flow payload size (bytes).
    pub flow_bytes: u32,
}

impl Default for DataplaneConfig {
    fn default() -> Self {
        DataplaneConfig {
            epoch_ms: 1000,
            probe_rate_mbps: 0.4,
            probe_bytes: 250,
            default_flow_mbps: 8.0,
            flow_bytes: 1250,
        }
    }
}

/// The attached packet plane plus the stamping state the ingress edge
/// keeps per flow.
#[derive(Debug)]
pub struct PacketPlane {
    net: PacketNet,
    cfg: DataplaneConfig,
    /// flow label -> tunnel currently stamped at the ingress.
    stamped: HashMap<String, String>,
    /// How many tunnels, in discovery order, carry a probe stream.
    probed: usize,
}

impl PacketPlane {
    /// The underlying packet network (counters, reports).
    pub fn net(&self) -> &PacketNet {
        &self.net
    }

    /// Total ingress routeID rewrites performed by migrations.
    pub fn ingress_rewrites(&self) -> u64 {
        self.net.ingress_rewrites
    }

    /// The tunnel currently stamped for a managed flow.
    pub fn stamped_tunnel(&self, label: &str) -> Option<&str> {
        self.stamped.get(label).map(String::as_str)
    }

    /// Attaches (or detaches) the sim-time tracer on the packet net.
    pub(crate) fn set_tracer(&mut self, tracer: obsv::Tracer) {
        self.net.set_tracer(tracer);
    }

    /// Exposes the packet net's live loss counters in `registry`.
    pub(crate) fn register_metrics(&self, registry: &obsv::Registry) {
        self.net.register_metrics(registry);
    }
}

/// What one packet epoch measured.
#[derive(Debug, Clone)]
pub struct PacketEpochReport {
    /// Sample timestamp (ms, simulation clock).
    pub at_ms: u64,
    /// Measured available bandwidth per tunnel (Mbps), candidate order.
    pub tunnel_available: Vec<(String, f64)>,
    /// Delivered goodput per managed flow (Mbps).
    pub flow_goodput: Vec<(String, f64)>,
    /// Packets delivered (with verified PoT) in this epoch, all flows.
    pub delivered: u64,
    /// Packets dropped in this epoch, all flows and causes.
    pub dropped: u64,
    /// Packets rejected by the egress PoT check in this epoch.
    pub pot_rejected: u64,
    /// Ingress routeID rewrites performed in this epoch (migrations).
    pub rewrites: u64,
}

impl SelfDrivingNetwork {
    /// The packet route for tunnel row `row` (host links are edge
    /// business; the label encodes the router path).
    fn tunnel_packet_route(&self, row: usize) -> FlowRoute {
        let compiled = &self.rows[row].tunnel;
        FlowRoute::polka(
            compiled.node_path[0],
            compiled.node_path[1],
            compiled.route.clone(),
            &compiled.spec,
        )
    }

    /// Starts the probe stream of every tunnel that has none yet: all of
    /// them at attach time, later the ones `discover_tunnels` added.
    fn start_missing_probes(&self, plane: &mut PacketPlane) -> Result<(), FrameworkError> {
        for row in plane.probed..self.rows.len() {
            plane.net.add_flow(TrafficSpec {
                name: format!("{PROBE_PREFIX}{}", self.rows[row].name()),
                route: self.tunnel_packet_route(row),
                payload_bytes: plane.cfg.probe_bytes,
                rate_mbps: plane.cfg.probe_rate_mbps,
            })?;
            plane.probed = row + 1;
        }
        Ok(())
    }

    /// Builds the packet-level data plane over the current topology and
    /// starts one probe stream per tunnel. Uses the same node-ID
    /// allocator that compiled the tunnels, so stamped routeIDs and the
    /// plane's core nodes agree. A config whose probe or managed-flow
    /// source [`dataplane::netem::check_source`] refuses attaches
    /// nothing.
    pub fn attach_dataplane(&mut self, cfg: DataplaneConfig) -> Result<(), FrameworkError> {
        check_source("probe streams", cfg.probe_bytes, cfg.probe_rate_mbps)?;
        check_source("managed flows", cfg.flow_bytes, cfg.default_flow_mbps)?;
        let mut plane = PacketPlane {
            net: PacketNet::new(&self.sim.topo, &mut self.alloc)?,
            cfg,
            stamped: HashMap::new(),
            probed: 0,
        };
        self.start_missing_probes(&mut plane)?;
        // A bundle attached before the plane existed still reaches it.
        plane.net.set_tracer(self.obsv.tracer.clone());
        plane.net.register_metrics(&self.obsv.metrics);
        self.packet_plane = Some(plane);
        Ok(())
    }

    /// The attached plane, if any.
    pub fn dataplane(&self) -> Option<&PacketPlane> {
        self.packet_plane.as_ref()
    }

    /// Resolves the link between two named routers, seeing through
    /// failures (a failed link is invisible to `link_between`, but
    /// restores and re-rates must still find it).
    fn resolve_link(&self, a: &str, b: &str) -> Result<netsim::LinkId, FrameworkError> {
        let na = self.sim.topo.node(a)?;
        let nb = self.sim.topo.node(b)?;
        let lid = self.sim.topo.link_between(na, nb).or_else(|_| {
            self.sim
                .topo
                .neighbors(na)
                .iter()
                .find(|(n, _)| *n == nb)
                .map(|(_, l)| *l)
                .ok_or(netsim::NetsimError::NotAdjacent(a.into(), b.into()))
        })?;
        Ok(lid)
    }

    /// Fails (or restores) the link between two named routers in *both*
    /// planes: the packet plane immediately, the fluid substrate via a
    /// validated event at the current time.
    pub fn set_link_state(&mut self, a: &str, b: &str, up: bool) -> Result<(), FrameworkError> {
        let lid = self.resolve_link(a, b)?;
        let now = self.sim.now_ms();
        self.sim.schedule(now, netsim::Event::SetLinkUp(lid, up))?;
        if let Some(plane) = self.packet_plane.as_mut() {
            plane.net.set_link_up(lid, up);
        }
        Ok(())
    }

    /// Re-rates the link between two named routers in *both* planes —
    /// the hook scenario traffic matrices and maintenance drains
    /// modulate capacity through. Works on failed links too (the new
    /// rate applies once the link is restored).
    pub fn set_link_capacity(&mut self, a: &str, b: &str, mbps: f64) -> Result<(), FrameworkError> {
        let lid = self.resolve_link(a, b)?;
        let now = self.sim.now_ms();
        self.sim
            .schedule(now, netsim::Event::SetLinkCapacity(lid, mbps.max(0.0)))?;
        if let Some(plane) = self.packet_plane.as_mut() {
            plane.net.set_link_rate(lid, mbps.max(0.0));
        }
        Ok(())
    }

    /// Runs one epoch of the packet data plane and feeds the measured
    /// counters into the telemetry store:
    ///
    /// 1. ingress sync — tunnels discovered since the last epoch get
    ///    their probe stream, and every managed flow's stamped route is
    ///    matched to its current tunnel (a migration decided since the
    ///    last epoch lands here as **one** routeID swap);
    /// 2. forward a window of packets through queues and core nodes;
    /// 3. per tunnel, insert the *measured* available bandwidth
    ///    (bottleneck residual from link counters, plus the tunnel's own
    ///    delivered traffic, zero across failed links) — and per flow,
    ///    the delivered goodput.
    pub fn packet_epoch(&mut self) -> Result<PacketEpochReport, FrameworkError> {
        let mut plane = self.packet_plane.take().ok_or_else(|| {
            FrameworkError::Dataplane(dataplane::DataplaneError::Topology(
                "no packet plane attached; call attach_dataplane first".into(),
            ))
        })?;
        let result = self.packet_epoch_inner(&mut plane);
        self.packet_plane = Some(plane);
        result
    }

    fn packet_epoch_inner(
        &mut self,
        plane: &mut PacketPlane,
    ) -> Result<PacketEpochReport, FrameworkError> {
        // (1) ingress sync: probe new tunnels, stamp new flows, re-stamp
        // migrated ones.
        let rewrites_before = plane.net.ingress_rewrites;
        self.start_missing_probes(plane)?;
        for f in &self.flows {
            let tunnel = self.rows[f.tunnel].name();
            match plane.stamped.get(&f.label) {
                Some(current) if current == tunnel => continue,
                Some(_) => plane
                    .net
                    .set_route(&f.label, self.tunnel_packet_route(f.tunnel))?,
                None => plane.net.add_flow(TrafficSpec {
                    name: f.label.clone(),
                    route: self.tunnel_packet_route(f.tunnel),
                    payload_bytes: plane.cfg.flow_bytes,
                    rate_mbps: f.demand.unwrap_or(plane.cfg.default_flow_mbps),
                })?,
            }
            plane.stamped.insert(f.label.clone(), tunnel.to_string());
        }

        // (2) forward one window of packets; advance the fluid clock in
        // lockstep so timestamps and control-plane state (link events)
        // stay coherent.
        let epoch_ms = plane.cfg.epoch_ms.max(1);
        let window = plane.net.run_window(epoch_ms * 1_000_000);
        self.sim
            .run_until(self.sim.now_ms() + epoch_ms, self.sample_ms);
        let at = self.sim.now_ms();

        // (3) measured telemetry. Index the window by directed link.
        let by_dir: HashMap<(NodeIdx, NodeIdx), &dataplane::netem::LinkWindow> =
            window.links.iter().map(|l| ((l.from, l.to), l)).collect();
        let mut goodput_of: HashMap<&str, f64> = HashMap::with_capacity(window.flows.len());
        let mut probe_goodput: HashMap<&str, f64> = HashMap::new();
        for f in &window.flows {
            goodput_of.insert(&f.name, f.goodput_mbps);
            if let Some(tunnel) = f.name.strip_prefix(PROBE_PREFIX) {
                probe_goodput.insert(tunnel, f.goodput_mbps);
            }
        }
        // Per flow, its delivered goodput; per tunnel, its managed
        // flows' sum, in flow order (the f64 lands in telemetry).
        let mut samples = Vec::with_capacity(self.rows.len() + self.flows.len());
        let mut managed_goodput = vec![0.0; self.rows.len()];
        let mut flow_goodput = Vec::with_capacity(self.flows.len());
        for f in &self.flows {
            let g = goodput_of.get(f.label.as_str()).copied().unwrap_or(0.0);
            managed_goodput[f.tunnel] += g;
            samples.push((f.rate_series, g));
            flow_goodput.push((f.label.clone(), g));
        }
        let mut tunnel_available = Vec::new();
        for (row, managed) in self.rows.iter().zip(managed_goodput) {
            let (compiled, name) = (&row.tunnel, row.name());
            let mut residual = f64::INFINITY;
            for hop in compiled.node_path.windows(2) {
                let Some(lw) = by_dir.get(&(hop[0], hop[1])) else {
                    residual = 0.0;
                    break;
                };
                if !lw.up {
                    residual = 0.0;
                    break;
                }
                residual = residual.min(lw.rate_mbps - lw.used_mbps);
            }
            // Capacity visible to the optimizer: bottleneck residual
            // plus what this tunnel's own streams already deliver
            // (mirrors the fluid collector's accounting).
            let own = probe_goodput.get(name).copied().unwrap_or(0.0) + managed;
            let avail = residual.max(0.0) + own;
            samples.push((row.series.0, avail));
            tunnel_available.push((name.to_string(), avail));
        }
        self.telemetry.insert_batch(at, &samples)?;
        let sum = |f: fn(&dataplane::FlowReport) -> u64| -> u64 {
            window.flows.iter().map(|w| f(&w.report)).sum()
        };
        Ok(PacketEpochReport {
            at_ms: at,
            tunnel_available,
            flow_goodput,
            delivered: sum(|r| r.delivered),
            dropped: sum(|r| {
                r.dropped_no_route + r.dropped_link_down + r.dropped_ttl + r.dropped_queue
            }),
            pot_rejected: sum(|r| r.pot_rejected),
            rewrites: plane.net.ingress_rewrites - rewrites_before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Objective;
    use crate::scheduler::FlowRequest;
    use crate::telemetry::{Metric, SeriesKey};
    use crate::PairId;

    fn attached() -> SelfDrivingNetwork {
        let mut sdn = SelfDrivingNetwork::testbed(5).unwrap();
        sdn.attach_dataplane(DataplaneConfig::default()).unwrap();
        sdn
    }

    #[test]
    fn a_config_the_emulator_cannot_run_attaches_nothing() {
        let bad = [
            DataplaneConfig {
                probe_bytes: 0,
                ..DataplaneConfig::default()
            },
            DataplaneConfig {
                probe_rate_mbps: f64::INFINITY,
                ..DataplaneConfig::default()
            },
            DataplaneConfig {
                flow_bytes: 0,
                ..DataplaneConfig::default()
            },
            DataplaneConfig {
                default_flow_mbps: f64::NAN,
                ..DataplaneConfig::default()
            },
            DataplaneConfig {
                default_flow_mbps: -1.0,
                ..DataplaneConfig::default()
            },
        ];
        for cfg in bad {
            let mut sdn = SelfDrivingNetwork::testbed(5).unwrap();
            let refused = sdn.attach_dataplane(cfg.clone());
            assert!(
                matches!(
                    refused,
                    Err(FrameworkError::Dataplane(
                        dataplane::DataplaneError::Traffic(_)
                    ))
                ),
                "{cfg:?}: {refused:?}"
            );
            assert!(sdn.dataplane().is_none());
        }
    }

    #[test]
    fn probes_measure_every_tunnel() {
        let mut sdn = attached();
        let r = sdn.packet_epoch().unwrap();
        assert_eq!(r.tunnel_available.len(), 3);
        // Idle tunnels measure close to their configured bottlenecks
        // (20/10/5 Mbps), from real packet counters.
        let avail: HashMap<&str, f64> = r
            .tunnel_available
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        assert!((avail["tunnel1"] - 20.0).abs() < 1.0, "{avail:?}");
        assert!((avail["tunnel2"] - 10.0).abs() < 1.0, "{avail:?}");
        assert!((avail["tunnel3"] - 5.0).abs() < 1.0, "{avail:?}");
        assert_eq!(r.pot_rejected, 0);
        assert!(r.delivered > 0);
    }

    #[test]
    fn both_collectors_refuse_a_swapped_telemetry_store() {
        // The network's series handles belong to the store it was built
        // with: a store swapped in later refuses them instead of taking
        // samples under whichever of its series share their indices.
        let mut sdn = attached();
        sdn.telemetry = crate::TelemetryService::new(64);
        sdn.telemetry
            .insert(&SeriesKey::new("other", Metric::Rtt), 0, 1.0);
        let refused =
            |r: Result<(), FrameworkError>| matches!(r, Err(FrameworkError::Telemetry(_)));
        assert!(refused(sdn.packet_epoch().map(|_| ())));
        assert!(refused(sdn.collect_telemetry()));
        assert_eq!(
            sdn.telemetry.keys(),
            vec![SeriesKey::new("other", Metric::Rtt)]
        );
        assert_eq!(
            sdn.telemetry.total(&SeriesKey::new("other", Metric::Rtt)),
            1
        );
    }

    #[test]
    fn tunnels_discovered_after_attaching_get_probed() {
        let mut sdn = attached();
        // Fig 10 declares no MIA→PAR tunnel: discovery builds two.
        let created = sdn.discover_tunnels("MIA", "PAR", 2).unwrap();
        assert_eq!(created.len(), 2, "{created:?}");
        let r = sdn.packet_epoch().unwrap();
        assert_eq!(r.tunnel_available.len(), 3 + created.len());
        for tunnel in &created {
            let probe = sdn
                .dataplane()
                .unwrap()
                .net()
                .flow_report(&format!("probe:{tunnel}"));
            assert!(
                probe.is_some_and(|p| p.delivered > 0),
                "{tunnel} carries no probe: {probe:?}"
            );
        }
    }

    #[test]
    fn managed_flow_traffic_shows_up_in_counters() {
        let mut sdn = attached();
        sdn.admit_flow(
            &FlowRequest {
                label: "flow1".into(),
                tos: 32,
                demand_mbps: Some(6.0),
                start_ms: 0,
                pair: PairId::default(),
            },
            Objective::MaxBandwidth,
        )
        .unwrap();
        sdn.packet_epoch().unwrap();
        let r = sdn.packet_epoch().unwrap();
        let g = r.flow_goodput.iter().find(|(l, _)| l == "flow1").unwrap().1;
        assert!((g - 6.0).abs() < 0.5, "goodput {g}");
    }

    #[test]
    fn epoch_without_attachment_errors() {
        let mut sdn = SelfDrivingNetwork::testbed(5).unwrap();
        assert!(sdn.packet_epoch().is_err());
    }

    #[test]
    fn capacity_change_reaches_both_planes() {
        let mut sdn = attached();
        sdn.packet_epoch().unwrap();
        // Squeeze tunnel1's bottleneck from 20 to 2 Mbps.
        sdn.set_link_capacity("MIA", "SAO", 2.0).unwrap();
        let r = sdn.packet_epoch().unwrap();
        let avail1 = r
            .tunnel_available
            .iter()
            .find(|(n, _)| n == "tunnel1")
            .unwrap()
            .1;
        assert!(avail1 < 3.0, "packet plane saw the squeeze: {r:?}");
        // The fluid plane agrees.
        let t1 = sdn.tunnel("tunnel1").unwrap().node_path.clone();
        let fluid = sdn.sim.path_available_mbps(&t1).unwrap();
        assert!(fluid < 3.0, "fluid plane saw the squeeze: {fluid}");
        // Restore.
        sdn.set_link_capacity("MIA", "SAO", 20.0).unwrap();
        let r = sdn.packet_epoch().unwrap();
        let avail1 = r
            .tunnel_available
            .iter()
            .find(|(n, _)| n == "tunnel1")
            .unwrap()
            .1;
        assert!(avail1 > 15.0, "{r:?}");
    }

    #[test]
    fn link_failure_zeroes_the_tunnel_and_restoration_recovers() {
        let mut sdn = attached();
        sdn.packet_epoch().unwrap();
        sdn.set_link_state("MIA", "SAO", false).unwrap();
        let down = sdn.packet_epoch().unwrap();
        let avail1 = down
            .tunnel_available
            .iter()
            .find(|(n, _)| n == "tunnel1")
            .unwrap()
            .1;
        // A handful of in-flight packets may still drain in the first
        // failed epoch; the measured capacity collapses all the same.
        assert!(avail1 < 0.5, "{down:?}");
        assert!(down.dropped > 0);
        sdn.set_link_state("MIA", "SAO", true).unwrap();
        let up = sdn.packet_epoch().unwrap();
        let avail1 = up
            .tunnel_available
            .iter()
            .find(|(n, _)| n == "tunnel1")
            .unwrap()
            .1;
        assert!(avail1 > 15.0, "{up:?}");
    }
}
