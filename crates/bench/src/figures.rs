//! One reproduction entry point per paper figure.

use framework::controller::{decide_flows_pairs, BatchDecision, SequenceLog};
use framework::optimizer::FlowDemand;
use framework::policies::{compare_policies, PolicyReport};
use framework::sdn::SelfDrivingNetwork;
use framework::{FlowRequest, FrameworkError, Objective, PairId, Policy};
use hecate_ml::{evaluate_all, evaluate_regressor, EvalReport, PipelineConfig, RegressorKind};
use linalg::stats::Summary;
use netsim::Event;
use traces::UqDataset;

/// Fig 1: the PolKA worked example. Returns the per-hop (node, port)
/// trace plus the routeID string.
pub fn fig1() -> (String, Vec<(String, u16)>) {
    use gf2poly::Poly;
    use polka::{NodeId, PortId, RouteSpec};
    let spec = RouteSpec::new(vec![
        (NodeId::new("s1", Poly::from_binary_str("11")), PortId(1)),
        (NodeId::new("s2", Poly::from_binary_str("111")), PortId(2)),
        (NodeId::new("s3", Poly::from_binary_str("1011")), PortId(6)),
    ]);
    let route = spec.compile().expect("fig1 compiles");
    let nodes: Vec<_> = spec.hops().iter().map(|(n, _)| n.clone()).collect();
    let trace = polka::route::trace_route(&route, &nodes)
        .into_iter()
        .map(|(n, p)| (n, p.0))
        .collect();
    (route.to_string(), trace)
}

/// Fig 2 / Eqs 1–3: the two-path TE optima across a demand sweep.
/// Rows: (demand h, min-cost x_sd, min-delay x_sd, min-max utilization).
pub fn fig2(capacity: f64) -> Vec<(f64, f64, f64, f64)> {
    let mut rows = Vec::new();
    let mut h = capacity * 0.1;
    while h < capacity * 1.9 {
        let cost = lp::te::min_cost_split(h, capacity, 1.0, 2.0)
            .map(|s| s.x_sd)
            .unwrap_or(f64::NAN);
        let delay = lp::te::min_delay_split(h, capacity)
            .map(|s| s.x_sd)
            .unwrap_or(f64::NAN);
        let mm = lp::te::min_max_utilization(h, &[capacity, capacity])
            .map(|a| a.max_utilization)
            .unwrap_or(f64::NAN);
        rows.push((h, cost, delay, mm));
        h += capacity * 0.2;
    }
    rows
}

/// Fig 5: the UQ traces and their per-regime summaries.
pub fn fig5() -> (UqDataset, Vec<(String, Summary)>) {
    let d = UqDataset::default_dataset();
    let summaries = vec![
        (
            "wifi indoor (0-100s)".to_string(),
            linalg::stats::summarize(&d.wifi[..100]),
        ),
        (
            "wifi outdoor (125-400s)".to_string(),
            linalg::stats::summarize(&d.wifi[125..400]),
        ),
        (
            "lte indoor (0-100s)".to_string(),
            linalg::stats::summarize(&d.lte[..100]),
        ),
        (
            "lte outdoor (125-400s)".to_string(),
            linalg::stats::summarize(&d.lte[125..400]),
        ),
    ];
    (d, summaries)
}

/// Fig 6: RMSE of all eighteen regressors on both paths.
/// Returns (kind, wifi RMSE, lte RMSE) rows in paper order.
pub fn fig6() -> Vec<(RegressorKind, f64, f64)> {
    let d = UqDataset::default_dataset();
    let cfg = PipelineConfig::default();
    let wifi = evaluate_all(&d.wifi, &cfg);
    let lte = evaluate_all(&d.lte, &cfg);
    wifi.into_iter()
        .zip(lte)
        .filter_map(|(w, l)| match (w, l) {
            (Ok(w), Ok(l)) => Some((w.kind, w.rmse, l.rmse)),
            _ => None,
        })
        .collect()
}

/// Fig 7 (RFR) / Fig 8 (GPR): observed vs predicted on both paths.
pub fn fig7_fig8(kind: RegressorKind) -> (EvalReport, EvalReport) {
    let d = UqDataset::default_dataset();
    let cfg = PipelineConfig::default();
    let wifi = evaluate_regressor(kind, &d.wifi, &cfg).expect("wifi evaluates");
    let lte = evaluate_regressor(kind, &d.lte, &cfg).expect("lte evaluates");
    (wifi, lte)
}

/// Result of the Fig 11 latency-migration experiment.
#[derive(Debug, Clone)]
pub struct LatencyMigrationResult {
    /// Per-second RTT of the user's ICMP stream (s, ms).
    pub rtt_series: Vec<(f64, f64)>,
    /// When the migration happened (s).
    pub migration_at_s: f64,
    /// Tunnel before migration.
    pub tunnel_before: String,
    /// Tunnel after migration.
    pub tunnel_after: String,
    /// Mean RTT before/after migration.
    pub mean_before_ms: f64,
    /// Mean RTT after migration.
    pub mean_after_ms: f64,
}

/// **Fig 11**: agile migration to a lower-latency path, on the paper
/// testbed built from `seed`. An ICMP stream runs on tunnel 1
/// (MIA-SAO-AMS) for `phase_s` seconds; the optimizer is then consulted
/// with the min-latency objective and the flow is migrated (one PBR
/// rewrite) to its recommendation (MIA-CHI-AMS); the stream continues
/// for another `phase_s` seconds.
pub fn fig11(phase_s: u64, seed: u64) -> Result<LatencyMigrationResult, FrameworkError> {
    let mut sdn = SelfDrivingNetwork::testbed(seed)?;
    let req = FlowRequest {
        label: "icmp".into(),
        tos: 0,
        demand_mbps: Some(0.1), // ping stream: negligible load
        start_ms: 0,
        pair: PairId::default(),
    };
    // Phase (i): arbitrary allocation — tunnel1 per the Fig 10 PBR.
    sdn.admit_flow(&req, Objective::MaxBandwidth)?;
    // Force the paper's phase-(i) arbitrary choice to tunnel1 even if
    // telemetry would have suggested otherwise (cold start does this
    // naturally; this keeps the experiment deterministic).
    if sdn.flow_tunnel("icmp") != Some("tunnel1") {
        sdn.migrate_flow("icmp", "tunnel1")?;
    }
    let mut rtt_series = Vec::new();
    let mut ping_on_current = |sdn: &mut SelfDrivingNetwork| -> Result<(), FrameworkError> {
        let tunnel = sdn.flow_tunnel("icmp").and_then(|t| sdn.tunnel(t));
        let path = tunnel
            .ok_or(FrameworkError::NoFeasiblePath)?
            .node_path
            .clone();
        let rtt = sdn.sim.ping(&path)?;
        rtt_series.push((sdn.sim.now_ms() as f64 / 1000.0, rtt));
        Ok(())
    };
    for s in 1..=phase_s {
        sdn.advance(s * 1000)?;
        ping_on_current(&mut sdn)?;
    }
    // Consult the optimizer for the stream with the min-latency
    // objective.
    let (model, names) = (sdn.link_model(false), sdn.tunnel_names());
    let config = *sdn.optimizer_config();
    let flow = FlowDemand {
        pair: req.pair,
        demand: req.demand_mbps,
    };
    let mut decision = decide_flows_pairs(
        &sdn.hecate,
        &sdn.telemetry,
        &[flow],
        &names,
        &model,
        Objective::MinLatency,
        &config,
        &mut sdn.log,
    )?;
    let tunnel_after = decision
        .decisions
        .pop()
        .ok_or(FrameworkError::NoFeasiblePath)?
        .tunnel;
    sdn.migrate_flow("icmp", &tunnel_after)?;
    for s in phase_s + 1..=2 * phase_s {
        sdn.advance(s * 1000)?;
        ping_on_current(&mut sdn)?;
    }
    let split = phase_s as usize;
    let mean = |xs: &[(f64, f64)]| -> f64 {
        xs.iter().map(|(_, v)| v).sum::<f64>() / xs.len().max(1) as f64
    };
    Ok(LatencyMigrationResult {
        migration_at_s: phase_s as f64,
        tunnel_before: "tunnel1".into(),
        mean_before_ms: mean(&rtt_series[..split]),
        mean_after_ms: mean(&rtt_series[split..]),
        tunnel_after,
        rtt_series,
    })
}

/// Result of the Fig 12 flow-aggregation experiment.
#[derive(Debug, Clone)]
pub struct FlowAggregationResult {
    /// Per-flow goodput series (label, (s, Mbps) pairs).
    pub per_flow: Vec<(String, Vec<(f64, f64)>)>,
    /// Aggregate goodput series (s, Mbps).
    pub total: Vec<(f64, f64)>,
    /// When the redistribution happened (s).
    pub redistribution_at_s: f64,
    /// Final (label, tunnel) assignment.
    pub assignment: Vec<(String, String)>,
    /// Mean aggregate goodput in the steady window before redistribution.
    pub total_before_mbps: f64,
    /// Mean aggregate goodput in the steady window after.
    pub total_after_mbps: f64,
}

/// **Fig 12**: flow aggregation across multiple paths, on the paper
/// testbed built from `seed`. Three greedy TCP flows (ToS 32/64/96)
/// start on tunnel 1; after `phase_s` seconds the optimizer
/// redistributes them across the three tunnels; the run continues to
/// `2 * phase_s`.
pub fn fig12(phase_s: u64, seed: u64) -> Result<FlowAggregationResult, FrameworkError> {
    let mut sdn = SelfDrivingNetwork::testbed(seed)?;
    let labels = ["flow1", "flow2", "flow3"];
    sdn.scheduler
        .submit_all(labels.iter().enumerate().map(|(i, label)| FlowRequest {
            label: label.to_string(),
            tos: 32 * (i as u8 + 1),
            demand_mbps: None,
            start_ms: i as u64 * 1000,
            pair: PairId::default(),
        }));
    sdn.advance(phase_s * 1000)?;
    // All flows were PBR'd to tunnel1 in phase (i) (cold start).
    let redistribution_at_s = sdn.sim.now_ms() as f64 / 1000.0;
    let assignment = sdn.reoptimize_bandwidth()?;
    sdn.advance(2 * phase_s * 1000)?;

    let per_flow: Vec<(String, Vec<(f64, f64)>)> = labels
        .iter()
        .map(|l| (l.to_string(), sdn.flow_series(l)))
        .collect();
    // Aggregate by sample time.
    let mut total_map: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for (_, series) in &per_flow {
        for (s, v) in series {
            *total_map.entry((*s * 1000.0) as u64).or_insert(0.0) += v;
        }
    }
    let total: Vec<(f64, f64)> = total_map
        .into_iter()
        .map(|(ms, v)| (ms as f64 / 1000.0, v))
        .collect();
    // Steady-state windows: the last third of each phase.
    let window = |lo_s: f64, hi_s: f64| -> f64 {
        let vals: Vec<f64> = total
            .iter()
            .filter(|(s, _)| *s >= lo_s && *s < hi_s)
            .map(|(_, v)| *v)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let p = phase_s as f64;
    Ok(FlowAggregationResult {
        total_before_mbps: window(p * 2.0 / 3.0, p),
        total_after_mbps: window(p + p * 2.0 / 3.0, 2.0 * p),
        per_flow,
        total,
        redistribution_at_s,
        assignment,
    })
}

/// Ablation (Sec III "Real-time Decision Making"): decision policies on
/// the UQ traces.
pub fn ablation_policies() -> Vec<PolicyReport> {
    let d = UqDataset::default_dataset();
    compare_policies(&d.wifi, &d.lte, 10)
}

/// Result of one run of the trace-driven steering extension.
#[derive(Debug, Clone)]
pub struct SteeringResult {
    /// Which policy ran.
    pub policy: Policy,
    /// The managed flow's goodput series (s, Mbps).
    pub goodput: Vec<(f64, f64)>,
    /// Mean goodput over the run (after warm-up).
    pub mean_goodput: f64,
    /// Number of migrations performed.
    pub migrations: usize,
}

/// **Extension experiment** (paper future work: "evaluate path
/// selection performance" with the framework in the loop), on the paper
/// testbed (seed 21): the `traces`' WiFi series drives tunnel 1's
/// bottleneck link and its LTE series drives tunnel 2's, mimicking
/// wireless access links; one greedy flow is re-steered every 10 s
/// under `policy` for `duration_s` seconds. The WiFi path collapses
/// when the walk goes outdoors, so static allocation loses badly while
/// telemetry-driven policies follow the capacity.
pub fn ext_steering(
    policy: Policy,
    traces: &UqDataset,
    duration_s: u64,
) -> Result<SteeringResult, FrameworkError> {
    let mut sdn = SelfDrivingNetwork::testbed(21)?;
    // Attach traces to the tunnel bottlenecks and open up the links
    // behind them so the wireless hop is the only constraint.
    let topo = &sdn.sim.topo;
    let (mia, sao) = (topo.node("MIA")?, topo.node("SAO")?);
    let (chi, ams) = (topo.node("CHI")?, topo.node("AMS")?);
    let mia_sao = topo.link_between(mia, sao)?;
    let mia_chi = topo.link_between(mia, chi)?;
    let sao_ams = topo.link_between(sao, ams)?;
    let chi_ams = topo.link_between(chi, ams)?;
    sdn.sim
        .schedule(0, Event::SetLinkCapacity(sao_ams, 1000.0))?;
    sdn.sim
        .schedule(0, Event::SetLinkCapacity(chi_ams, 1000.0))?;
    sdn.sim
        .schedule_capacity_trace(mia_sao, 0, 1000, &traces.wifi)?;
    sdn.sim
        .schedule_capacity_trace(mia_chi, 0, 1000, &traces.lte)?;

    // One greedy flow, admitted cold (lands on tunnel1 = the WiFi path).
    let steered = FlowRequest {
        label: "steered".into(),
        tos: 32,
        demand_mbps: None,
        start_ms: 0,
        pair: PairId::default(),
    };
    sdn.admit_under(policy, &[steered])?;
    const REOPT_MS: u64 = 10_000; // the decision interval
    let mut migrations = 0usize;
    let mut next_reopt = REOPT_MS;
    while sdn.sim.now_ms() < duration_s * 1000 {
        let until = (sdn.sim.now_ms() + 1000).min(duration_s * 1000);
        sdn.advance(until)?;
        if sdn.sim.now_ms() >= next_reopt {
            next_reopt += REOPT_MS;
            migrations += sdn.steer(policy).len();
        }
    }
    let goodput = sdn.flow_series("steered");
    let warm: Vec<f64> = goodput
        .iter()
        .filter(|(s, _)| *s >= 15.0)
        .map(|(_, v)| *v)
        .collect();
    Ok(SteeringResult {
        policy,
        mean_goodput: warm.iter().sum::<f64>() / warm.len().max(1) as f64,
        goodput,
        migrations,
    })
}

/// Shared harness for the decision-throughput artifact: the Fig 9
/// testbed grown to `paths` candidate tunnels via k-shortest-path
/// discovery (the Sec VII continent-wide direction), with UQ wireless
/// traces driving the two experiment links so every per-tunnel
/// bandwidth series is genuinely dynamic, advanced until every series
/// has 75 telemetry samples. Returns the telemetry store (moved out of
/// the finished network), the first
/// `paths` candidate tunnel names and the network's shared-link model
/// (`link_model(false)`) cut to those tunnels.
fn throughput_testbed(
    paths: usize,
) -> (
    framework::TelemetryService,
    Vec<String>,
    framework::optimizer::SharedLinkModel,
) {
    let mut sdn = SelfDrivingNetwork::testbed(7).expect("testbed");
    for dst in ["PAR", "POZ"] {
        if sdn.tunnel_names().len() >= paths {
            break;
        }
        sdn.discover_tunnels("MIA", dst, paths).expect("discovery");
    }
    let d = traces::UqDataset::generate(&traces::UqSpec {
        len: 90,
        outdoor_at: 40,
        arrival_at: 80,
        seed: 9,
    });
    let mia = sdn.sim.topo.node("MIA").expect("MIA");
    let sao = sdn.sim.topo.node("SAO").expect("SAO");
    let chi = sdn.sim.topo.node("CHI").expect("CHI");
    let mia_sao = sdn.sim.topo.link_between(mia, sao).expect("link");
    let mia_chi = sdn.sim.topo.link_between(mia, chi).expect("link");
    sdn.sim
        .schedule_capacity_trace(mia_sao, 0, 1000, &d.wifi)
        .expect("the lab has the MIA-SAO link");
    sdn.sim
        .schedule_capacity_trace(mia_chi, 0, 1000, &d.lte)
        .expect("the lab has the MIA-CHI link");
    sdn.advance(75_000).expect("telemetry warm-up");
    let mut names = sdn.tunnel_names();
    names.truncate(paths);
    let mut model = sdn.link_model(false);
    model.tunnel_links.truncate(paths);
    model.candidates[0].retain(|&t| t < paths);
    (sdn.telemetry, names, model)
}

/// The decision-throughput artifact: cold (refit-every-decision, the
/// seed's behavior) vs warm (trained-model cache) flow-arrival
/// decisions over the same netsim-driven telemetry.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Candidate paths per decision.
    pub paths: usize,
    /// Flow arrivals decided by the cold engine.
    pub cold_flows: usize,
    /// Flow arrivals decided by the warm engine, one at a time.
    pub warm_flows: usize,
    /// Cold decisions per second.
    pub cold_dps: f64,
    /// Warm decisions per second (per-flow decisions).
    pub warm_dps: f64,
    /// Warm decisions per second when flows are decided in batched
    /// scheduler ticks of 64.
    pub warm_batch_dps: f64,
    /// warm_dps / cold_dps.
    pub speedup: f64,
    /// Every cold and warm per-flow decision picked the same tunnel.
    pub matched: bool,
    /// Assignments the warm decisions' placement searches scored, per
    /// flow and batched ([`BatchDecision::scored`]).
    pub warm_scored: u64,
    /// Progressive-fill rounds over the warm decisions
    /// ([`BatchDecision::fill_rounds`]).
    pub warm_fill_rounds: u64,
    /// Cache behavior counters over the warm runs.
    pub cache: framework::hecate::CacheStats,
}

/// Measures decisions/sec for cold vs warm engines on identical
/// telemetry (no samples arrive during measurement, so cold and warm
/// recommendations must agree exactly). Every decision is the one
/// consult a network admits with, `decide_flows_pairs`.
pub fn decision_throughput(paths: usize, cold_flows: usize, warm_flows: usize) -> ThroughputReport {
    use framework::HecateService;
    let (telemetry, names, model) = throughput_testbed(paths);
    let config = framework::OptimizerConfig::default();
    let consult = |hecate: &HecateService, reqs: &[FlowDemand], log: &mut SequenceLog| {
        let max = Objective::MaxBandwidth;
        decide_flows_pairs(hecate, &telemetry, reqs, &names, &model, max, &config, log)
            .expect("warm telemetry")
    };
    let tunnel = |out: BatchDecision| out.decisions[0].tunnel.clone();
    let flows = |n: usize| {
        let greedy = FlowDemand {
            pair: PairId::default(),
            demand: None,
        };
        vec![greedy; n]
    };
    let (one, tick) = (flows(1), flows(64));
    let mut log = SequenceLog::default();

    // Cold: the seed's per-arrival behavior — with the cache cleared,
    // the consult refits every path's model for every single flow.
    let cold = HecateService::new(); // the paper's RFR
    let t0 = std::time::Instant::now();
    let mut cold_picks = Vec::with_capacity(cold_flows);
    for _ in 0..cold_flows {
        cold.clear_cache();
        cold_picks.push(tunnel(consult(&cold, &one, &mut log)));
    }
    let cold_dps = cold_flows as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // Warm: same per-flow decisions against the trained-model cache.
    let hecate = HecateService::new();
    let (mut warm_scored, mut warm_fill_rounds) = (0, 0);
    let mut count = |out: &BatchDecision| {
        warm_scored += out.scored;
        warm_fill_rounds += out.fill_rounds;
    };
    let t1 = std::time::Instant::now();
    let mut warm_picks = Vec::with_capacity(warm_flows);
    for _ in 0..warm_flows {
        let out = consult(&hecate, &one, &mut log);
        count(&out);
        warm_picks.push(tunnel(out));
    }
    let warm_dps = warm_flows as f64 / t1.elapsed().as_secs_f64().max(1e-9);

    // Warm, batched: whole scheduler ticks of 64 flows share one
    // consultation.
    let batches = warm_flows.div_ceil(64).max(1);
    let t2 = std::time::Instant::now();
    for _ in 0..batches {
        count(&consult(&hecate, &tick, &mut log));
    }
    let warm_batch_dps = (batches * tick.len()) as f64 / t2.elapsed().as_secs_f64().max(1e-9);

    let matched = !cold_picks.is_empty()
        && !warm_picks.is_empty()
        && cold_picks
            .iter()
            .chain(&warm_picks)
            .all(|p| p == &cold_picks[0]);
    ThroughputReport {
        paths: names.len(),
        cold_flows,
        warm_flows,
        cold_dps,
        warm_dps,
        warm_batch_dps,
        speedup: warm_dps / cold_dps.max(1e-9),
        matched,
        warm_scored,
        warm_fill_rounds,
        cache: hecate.cache_stats(),
    }
}

/// The packet-forwarding workload shared by the scaling figure and its
/// tests: a 16-node mesh, 8 ingress flows on identical-length (4-hop)
/// ring walks, each expressible as a PolKA routeID or a segment list,
/// plus each item's encoded hops (the nodeIDs its packets visit, in
/// path order).
fn forwarding_workload(
    polka: bool,
    packets_per_flow: usize,
) -> (
    dataplane::ForwardingPlane,
    Vec<dataplane::shard::WorkItem>,
    Vec<Vec<polka::NodeId>>,
) {
    use netsim::NodeIdx;
    let topo = netsim::topo::mesh(16, 4, 100.0);
    let mut alloc = polka::NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
    let paths: Vec<Vec<NodeIdx>> = (0..8u32)
        .map(|i| (0..5).map(|k| NodeIdx((i + k) % 16)).collect())
        .collect();
    let items: Vec<dataplane::shard::WorkItem> = (paths.iter())
        .map(|path| {
            let spec = freertr::resolve::path_spec(&topo, &mut alloc, path).expect("ring walk");
            let (ingress, first_hop) = (path[0], path[1]);
            let route = if polka {
                let id = spec.compile().expect("route compiles");
                dataplane::FlowRoute::polka(ingress, first_hop, id, &spec)
            } else {
                dataplane::FlowRoute::segments(ingress, first_hop, &spec)
            };
            dataplane::shard::WorkItem {
                route,
                count: packets_per_flow,
            }
        })
        .collect();
    let hops = (paths.iter())
        .map(|path| {
            path[1..]
                .iter()
                .map(|&n| alloc.get(topo.node_name(n)).expect("assigned").clone())
                .collect()
        })
        .collect();
    let plane = dataplane::ForwardingPlane::new(&topo, &mut alloc).expect("plane");
    (plane, items, hops)
}

/// How many times faster the 1-shard PolKA batch forwards than long
/// division ([`polka::route::port_by_division`]) reduces the same hops:
/// the median of `rounds` rounds, each timing the two back to back. A
/// ratio of two kernels timed in one process moves with the code, not
/// with the host's clock, which is what `repro forwarding` gates.
pub fn polka_over_division(packets_per_flow: usize, rounds: usize) -> f64 {
    use dataplane::{shard_critical_path, FlowLabel};
    use std::hint::black_box;
    let (plane, items, hops) = forwarding_workload(true, packets_per_flow);
    let mut ratios: Vec<f64> = (0..rounds.max(1))
        .map(|_| {
            let (_, batch_ns) = shard_critical_path(&plane, &items, 1);
            let t0 = std::time::Instant::now();
            let mut ports = 0u64;
            for (item, nodes) in items.iter().zip(&hops) {
                let FlowLabel::Polka(route) = &item.route.label else {
                    unreachable!("the mesh was built with PolKA labels");
                };
                for _ in 0..item.count {
                    for node in nodes {
                        let port = polka::route::port_by_division(black_box(route), node);
                        ports += port.map_or(0, |p| u64::from(p.0));
                    }
                }
            }
            black_box(ports);
            let division_ns = t0.elapsed().as_nanos().max(1) as f64;
            division_ns / batch_ns[0].max(1) as f64
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// One row of the forwarding-throughput figure.
#[derive(Debug, Clone)]
pub struct ForwardingRow {
    /// `"polka"` or `"seglist"`.
    pub mode: &'static str,
    /// Shard count.
    pub shards: usize,
    /// Packets forwarded end-to-end.
    pub packets: u64,
    /// Threaded wall-clock throughput (Mpps) — bounded by physical
    /// cores; ~flat on a 1-core CI box.
    pub wall_mpps: f64,
    /// Critical-path throughput (Mpps): the partition run shard-by-shard
    /// in isolation; equals wall clock on a machine with
    /// `cores >= shards`.
    pub critical_mpps: f64,
}

/// The `repro forwarding` artifact: PolKA vs the port-switching
/// baseline through the same sharded pipeline at 1/2/4/8 shards.
#[derive(Debug, Clone)]
pub struct ForwardingReport {
    /// One row per (mode, shard count).
    pub rows: Vec<ForwardingRow>,
    /// PolKA label size at ingress (bits).
    pub polka_label_bits: usize,
    /// Segment-list label size at ingress (bits).
    pub seglist_label_bits: usize,
    /// Critical-path scaling, PolKA, 1 → 4 shards.
    pub scaling_1_to_4: f64,
    /// Threaded wall-clock scaling, PolKA, 1 → 4 shards.
    pub wall_scaling_1_to_4: f64,
    /// Physical parallelism of the host that produced the wall numbers.
    pub host_cores: usize,
}

/// Measures forwarding throughput for both encodings at 1/2/4/8 shards.
/// Work is submitted in batches per ingress; counters are asserted
/// identical across every configuration before a number is reported.
pub fn forwarding_scaling(packets_per_flow: usize) -> ForwardingReport {
    use dataplane::{forward_sharded, shard_critical_path};
    let mut rows = Vec::new();
    let mut label_bits = (0usize, 0usize);
    for (mode, is_polka) in [("polka", true), ("seglist", false)] {
        let (plane, items, _) = forwarding_workload(is_polka, packets_per_flow);
        if is_polka {
            label_bits.0 = items[0].route.label.label_bits();
        } else {
            label_bits.1 = items[0].route.label.label_bits();
        }
        let mut reference = None;
        for shards in [1usize, 2, 4, 8] {
            // Threaded wall clock.
            let t0 = std::time::Instant::now();
            let (merged, _) = forward_sharded(&plane, &items, shards);
            let wall_ns = t0.elapsed().as_nanos().max(1) as u64;
            // Isolated critical path.
            let (merged_cp, times) = shard_critical_path(&plane, &items, shards);
            assert_eq!(merged, merged_cp, "sharding must not change counters");
            let reference = reference.get_or_insert(merged);
            assert_eq!(*reference, merged, "shard count must not change counters");
            let critical_ns = times.iter().copied().max().unwrap_or(1).max(1);
            let packets = merged.total();
            rows.push(ForwardingRow {
                mode,
                shards,
                packets,
                wall_mpps: packets as f64 * 1000.0 / wall_ns as f64,
                critical_mpps: packets as f64 * 1000.0 / critical_ns as f64,
            });
        }
    }
    let polka_at = |shards: usize, f: fn(&ForwardingRow) -> f64| {
        rows.iter()
            .find(|r| r.mode == "polka" && r.shards == shards)
            .map(f)
            .unwrap_or(0.0)
    };
    ForwardingReport {
        scaling_1_to_4: polka_at(4, |r| r.critical_mpps) / polka_at(1, |r| r.critical_mpps),
        wall_scaling_1_to_4: polka_at(4, |r| r.wall_mpps) / polka_at(1, |r| r.wall_mpps),
        host_cores: linalg::par::worker_count(usize::MAX),
        polka_label_bits: label_bits.0,
        seglist_label_bits: label_bits.1,
        rows,
    }
}

/// Extension: walk-forward cross-validated model selection on the WiFi
/// trace — the leakage-free version of the paper's single-split pick.
pub fn ext_cv() -> Vec<hecate_ml::select::CvReport> {
    let d = UqDataset::default_dataset();
    hecate_ml::select::select_model(
        &[
            RegressorKind::Rfr,
            RegressorKind::Gbr,
            RegressorKind::Hgbr,
            RegressorKind::Lr,
            RegressorKind::Ridge,
            RegressorKind::Lasso,
            RegressorKind::SvmRbf,
        ],
        &d.wifi,
        10,
        3,
        42,
    )
}

/// Extension: the future-work MLP vs the paper's chosen RFR on the UQ
/// pipeline. Returns (model name, wifi RMSE, lte RMSE).
pub fn ext_mlp() -> Vec<(String, f64, f64)> {
    use hecate_ml::nn::MlpRegressor;
    use hecate_ml::pipeline::evaluate_model;
    let d = UqDataset::default_dataset();
    let cfg = PipelineConfig::default();
    let mut rows = Vec::new();
    for kind in [RegressorKind::Rfr, RegressorKind::Lr] {
        let w = evaluate_regressor(kind, &d.wifi, &cfg).expect("wifi");
        let l = evaluate_regressor(kind, &d.lte, &cfg).expect("lte");
        rows.push((kind.label().to_string(), w.rmse, l.rmse));
    }
    // The MLP is not one of the paper's eighteen, so it lives outside
    // the registry; it runs the same protocol.
    let run_mlp = |series: &[f64]| -> f64 {
        let mut mlp = MlpRegressor::compact(cfg.seed);
        let (obs, prd, _) = evaluate_model(&mut mlp, series, &cfg).expect("mlp");
        hecate_ml::metrics::rmse(&obs, &prd)
    };
    rows.push(("MLP".to_string(), run_mlp(&d.wifi), run_mlp(&d.lte)));
    rows
}

/// One scenario's policy matrix, ready to render.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// Scenario name.
    pub name: String,
    /// `topology x traffic x events` one-liner.
    pub describe: String,
    /// One scorecard per policy, in `Policy::all` order.
    pub cards: Vec<scenarios::Scorecard>,
}

/// Extension: the scenario suite — every canned catalog entry run
/// across the full policy matrix from its fixed seed. `smoke` selects
/// the CI subset (same scenarios, 40% horizon).
///
/// Deterministic end to end: same build, same numbers, bit for bit.
pub fn scenario_suite(smoke: bool) -> Vec<ScenarioMatrix> {
    let cat = if smoke {
        // The smoke subset also carries the event-core scale-out at its
        // reduced horizon — CI exercises the 1000-node/100k-flow path
        // on every push.
        let mut cat = scenarios::catalog_smoke();
        cat.push(scenarios::scale_1k_smoke());
        cat
    } else {
        scenarios::catalog()
    };
    cat.into_iter()
        .map(|s| ScenarioMatrix {
            name: s.name.clone(),
            describe: s.describe(),
            cards: s.run_matrix().expect("catalog scenarios run"),
        })
        .collect()
}

/// What the event-core scale-out run measured: wall-clock throughput,
/// the determinism double-check, and the per-phase wall-clock split
/// (water-fill solving vs event dispatch) from the profiled replay.
#[derive(Debug, Clone)]
pub struct SimScaleReport {
    /// Scenario name (`scale-1k`, possibly smoke-scaled).
    pub scenario: String,
    /// Epochs executed (1 epoch = 1 simulated second).
    pub epochs: u64,
    /// External simulator events applied.
    pub sim_events: u64,
    /// The most events the simulator's queue held at once.
    pub queue_peak_events: u64,
    /// Queued events the simulator's scheduling walked past.
    pub queue_list_steps: u64,
    /// Wall-clock seconds of the first (timed, untraced) run.
    pub wall_s: f64,
    /// `sim_events / wall_s` of the untraced run — the headline number,
    /// measured with the trace sink fully off.
    pub events_per_sec: f64,
    /// Mean aggregate managed goodput (Mbps) — a sanity anchor that the
    /// run did real work.
    pub mean_aggregate_mbps: f64,
    /// Wall-clock seconds of the second (profiled) replay.
    pub profiled_wall_s: f64,
    /// Wall seconds the profiled replay spent inside max-min water-fill
    /// recomputes (`sim.waterfill` spans).
    pub waterfill_wall_s: f64,
    /// Water-fill recomputes performed (one `sim.waterfill` span each).
    pub waterfill_solves: u64,
    /// Wall seconds the profiled replay spent dispatching due event
    /// batches (`sim.dispatch` spans, exclusive of the water-fill time
    /// which is traced separately).
    pub dispatch_wall_s: f64,
    /// Event batches dispatched.
    pub dispatch_batches: u64,
    /// `sim_events / dispatch_wall_s` — throughput of the dispatch
    /// phase alone in the profiled replay.
    pub dispatch_events_per_sec: f64,
}

/// Extension: the `scale-1k` event-core scale-out — a 1000-node Waxman
/// WAN carrying ~100k elastic background flows, run under the Hecate
/// policy. Runs the scenario **twice** and asserts the two scorecards
/// are bit-identical, timing the first run untraced (the headline
/// events/sec) and profiling the second through the wall-clock
/// [`crate::profile::ProfilingSink`] for the water-fill vs dispatch phase split — which doubles as
/// the proof that tracing never perturbs the simulation. `smoke`
/// selects the 40%-horizon CI cut.
pub fn sim_scale(smoke: bool) -> SimScaleReport {
    let s = if smoke {
        scenarios::scale_1k_smoke()
    } else {
        scenarios::scale_1k()
    };
    let t0 = std::time::Instant::now();
    let a = s.run(scenarios::Policy::Hecate).expect("scale-1k runs");
    let wall_s = t0.elapsed().as_secs_f64();
    let profiler = crate::profile::ProfilingSink::shared();
    let opts = scenarios::ObsvOptions {
        extra_sink: Some(profiler.clone()),
        ..Default::default()
    };
    let t1 = std::time::Instant::now();
    let (b, _) = s
        .run_observed(scenarios::Policy::Hecate, &opts)
        .expect("scale-1k replays profiled");
    let profiled_wall_s = t1.elapsed().as_secs_f64();
    assert_eq!(a, b, "scale-1k must replay bit-identically under tracing");
    // The two spans are siblings in the event loop (dispatch closes
    // before the water-fill opens), so their wall times are disjoint.
    let waterfill = profiler.total("sim.waterfill");
    let dispatch = profiler.total("sim.dispatch");
    let dispatch_wall_s = dispatch.wall_s();
    SimScaleReport {
        scenario: s.name.clone(),
        epochs: a.epochs,
        sim_events: a.sim_events,
        queue_peak_events: a.queue_peak_events,
        queue_list_steps: a.queue_list_steps,
        wall_s,
        events_per_sec: a.sim_events as f64 / wall_s.max(1e-9),
        mean_aggregate_mbps: a.mean_aggregate_mbps,
        profiled_wall_s,
        waterfill_wall_s: waterfill.wall_s(),
        waterfill_solves: waterfill.calls,
        dispatch_wall_s,
        dispatch_batches: dispatch.calls,
        dispatch_events_per_sec: a.sim_events as f64 / dispatch_wall_s.max(1e-9),
    }
}

/// Deterministic xorshift for the million-flow tick's event stream
/// (same idiom as the waterfill proptests) — the workload replays
/// bit-identically from one seed, so the solve counters it reports can
/// gate exactly in CI.
struct TickRng(u64);

impl TickRng {
    fn new(seed: u64) -> Self {
        TickRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Every mouse flow offers this much (Mb/s); arrivals at this demand
/// are the candidate fast-path events of the tick workload.
const TICK_MOUSE_MBPS: f64 = 0.05;

/// Synthetic access-bottleneck WAN for the million-flow tick: one
/// 40 Mb/s access link per pair, trunk groups of 2 pairs sharing two
/// 100 Mb/s backbone trunks, and two candidate tunnels per pair that
/// differ only in which trunk they ride. Two greedy elephants per pair
/// keep every access link saturated, so the interesting (non-fast-path)
/// incremental machinery is exercised on most events, while the trunks
/// keep slack so components stay local to the touched pairs — the
/// access-bottleneck shape of a real multi-site WAN.
fn tick_model(pairs: usize) -> framework::optimizer::SharedLinkModel {
    let groups = pairs.div_ceil(2);
    let mut headroom = vec![40.0; pairs];
    headroom.extend(std::iter::repeat_n(100.0, 2 * groups));
    let mut tunnel_links = Vec::with_capacity(2 * pairs);
    let mut candidates = Vec::with_capacity(pairs);
    for p in 0..pairs {
        let trunk_a = pairs + 2 * (p / 2);
        tunnel_links.push(vec![p, trunk_a]);
        tunnel_links.push(vec![p, trunk_a + 1]);
        candidates.push(vec![2 * p, 2 * p + 1]);
    }
    framework::optimizer::SharedLinkModel::new(headroom, tunnel_links, candidates)
}

/// What the million-flow control-plane tick measured: per-tick patch
/// latency percentiles for the standing incremental water-fill, the
/// full-recompute contrast, and the (deterministic) solve counters.
#[derive(Debug, Clone)]
pub struct TickLatencyReport {
    /// Managed flows standing in the engine when ticking started.
    pub flows: usize,
    /// Endpoint pairs (two candidate tunnels each).
    pub pairs: usize,
    /// Directed links in the model (access + trunks).
    pub links: usize,
    /// Scheduler ticks measured.
    pub ticks: usize,
    /// Flow events (arrive/depart/ramp/reroute) patched per tick.
    pub events_per_tick: usize,
    /// Wall microseconds to build the engine and solve the initial
    /// 100k-flow allocation (one bulk resolve).
    pub setup_us: f64,
    /// Median tick latency (patch batch + resolve), microseconds.
    pub tick_p50_us: f64,
    /// 99th-percentile tick latency, microseconds — the headline gate.
    pub tick_p99_us: f64,
    /// Worst tick, microseconds.
    pub tick_max_us: f64,
    /// One audited from-scratch recompute over all flows, microseconds
    /// — what every tick would cost without the incremental engine.
    pub full_recompute_us: f64,
    /// Restricted (component-local) solves over the ticked phase.
    pub incremental_solves: u64,
    /// Escalations to the full flow set over the ticked phase.
    pub full_solves: u64,
    /// Component-expansion iterations over the ticked phase.
    pub expansions: u64,
    /// Events absorbed with no solve at all over the ticked phase.
    pub fast_path_events: u64,
    /// Final bitwise audit: standing solution == full recompute.
    pub audited: bool,
}

/// The million-flow control-plane tick (the perf tentpole's headline
/// artifact): a standing [`framework::SharedWaterfill`] over
/// `tick_model(pairs)` seeded with two greedy elephants per pair
/// plus demand-limited mice up to `flows` total, then driven through
/// `ticks` scheduler ticks of `events_per_tick` mixed flow events
/// (arrival / departure / demand ramp / reroute, xorshift-drawn from
/// `seed`) each followed by one `resolve()`. Ticks are wall-timed;
/// the event stream and therefore the solve counters and final rates
/// are deterministic, and the run ends with a bitwise
/// incremental-vs-recompute audit.
pub fn million_flow_tick(
    flows: usize,
    pairs: usize,
    ticks: usize,
    events_per_tick: usize,
    seed: u64,
) -> TickLatencyReport {
    use framework::SharedWaterfill;
    let model = tick_model(pairs);
    let links = model.headroom.len();
    let t0 = std::time::Instant::now();
    let mut wf = SharedWaterfill::new(&model);
    let mut next_id: u64 = 0;
    // Two greedy elephants per pair, one per candidate tunnel: every
    // access link stays saturated, so mouse churn genuinely patches a
    // contended max-min solution instead of coasting on slack.
    for p in 0..pairs {
        wf.insert(next_id, 2 * p, None);
        wf.insert(next_id + 1, 2 * p + 1, None);
        next_id += 2;
    }
    // Mice fill pair-major: one pair's flows get contiguous ids and
    // therefore contiguous arena slots, the locality a per-site flow
    // table would have in a real controller.
    let mice_per_pair = (flows - 2 * pairs).div_ceil(pairs);
    let mut mice: Vec<u64> = Vec::with_capacity(flows);
    while (next_id as usize) < flows {
        let m = next_id as usize - 2 * pairs;
        let p = (m / mice_per_pair).min(pairs - 1);
        let tunnel = 2 * p + (m & 1);
        wf.insert(next_id, tunnel, Some(TICK_MOUSE_MBPS));
        mice.push(next_id);
        next_id += 1;
    }
    wf.resolve();
    let setup_us = t0.elapsed().as_secs_f64() * 1e6;

    let base = wf.stats();
    let mut rng = TickRng::new(seed);
    let mut tick_us = Vec::with_capacity(ticks);
    for _ in 0..ticks {
        let t = std::time::Instant::now();
        for _ in 0..events_per_tick {
            match rng.below(4) {
                0 => {
                    // Arrival: a new mouse on a random candidate tunnel.
                    let p = rng.below(pairs as u64) as usize;
                    let tunnel = 2 * p + rng.below(2) as usize;
                    wf.insert(next_id, tunnel, Some(TICK_MOUSE_MBPS));
                    mice.push(next_id);
                    next_id += 1;
                }
                1 if !mice.is_empty() => {
                    // Departure of a random standing mouse.
                    let idx = rng.below(mice.len() as u64) as usize;
                    wf.remove(mice.swap_remove(idx));
                }
                2 if !mice.is_empty() => {
                    // Time-varying demand: ramp a mouse to 0.02..0.10.
                    let id = mice[rng.below(mice.len() as u64) as usize];
                    let demand = 0.02 + 0.01 * rng.below(9) as f64;
                    wf.set_demand(id, Some(demand));
                }
                _ if !mice.is_empty() => {
                    // Reroute onto the pair's sibling tunnel (2p <-> 2p+1).
                    let id = mice[rng.below(mice.len() as u64) as usize];
                    let tunnel = wf.tunnel_of(id).expect("standing mouse");
                    wf.set_tunnel(id, tunnel ^ 1);
                }
                _ => {}
            }
        }
        wf.resolve();
        tick_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let end = wf.stats();

    let t1 = std::time::Instant::now();
    let full = wf.full_rates();
    let full_recompute_us = t1.elapsed().as_secs_f64() * 1e6;
    assert_eq!(full.len(), wf.flow_count());

    tick_us.sort_by(f64::total_cmp);
    let pct = |q: usize| tick_us[((tick_us.len() * q) / 100).min(tick_us.len() - 1)];
    TickLatencyReport {
        flows,
        pairs,
        links,
        ticks,
        events_per_tick,
        setup_us,
        tick_p50_us: pct(50),
        tick_p99_us: pct(99),
        tick_max_us: *tick_us.last().expect("ticks > 0"),
        full_recompute_us,
        incremental_solves: end.incremental_solves - base.incremental_solves,
        full_solves: end.full_solves - base.full_solves,
        expansions: end.expansions - base.expansions,
        fast_path_events: end.fast_path_events - base.fast_path_events,
        audited: wf.audit(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matches_paper() {
        let (route, trace) = fig1();
        assert_eq!(
            trace,
            vec![
                ("s1".to_string(), 1),
                ("s2".to_string(), 2),
                ("s3".to_string(), 6)
            ]
        );
        assert!(!route.is_empty());
    }

    #[test]
    fn fig2_sweep_is_monotone_in_demand() {
        let rows = fig2(10.0);
        assert!(rows.len() >= 8);
        // min-max utilization grows with demand
        let utils: Vec<f64> = rows.iter().map(|r| r.3).collect();
        assert!(utils.windows(2).all(|w| w[1] >= w[0] - 1e-9));
    }

    #[test]
    fn throughput_testbed_has_eight_dynamic_paths() {
        let (telemetry, names, model) = throughput_testbed(8);
        assert_eq!(names.len(), 8, "{names:?}");
        assert_eq!(model.tunnel_links.len(), 8);
        assert_eq!(model.candidates, vec![(0..8).collect::<Vec<_>>()]);
        for name in &names {
            let key =
                framework::telemetry::SeriesKey::new(name, framework::Metric::AvailableBandwidth);
            assert!(telemetry.len(&key) >= 70, "{name}: {}", telemetry.len(&key));
        }
    }

    #[test]
    fn warm_engine_is_5x_faster_and_agrees_with_cold() {
        // The acceptance bar: >= 5x decisions/sec warm-vs-cold on the
        // RFR model with 8 candidate paths, with identical
        // recommendations. The release-mode gap is orders of magnitude;
        // 5x holds comfortably even under an unoptimized test build.
        let r = decision_throughput(8, 2, 40);
        assert_eq!(r.paths, 8);
        assert!(r.matched, "cached engine diverged from uncached");
        assert!(
            r.speedup >= 5.0,
            "warm {:.1}/s vs cold {:.1}/s = {:.1}x",
            r.warm_dps,
            r.cold_dps,
            r.speedup
        );
        assert_eq!(r.cache.refits, 8, "one fit per path: {:?}", r.cache);
        assert!(r.warm_batch_dps > 0.0);
    }

    #[test]
    fn forwarding_scaling_reports_consistent_counters_and_scales() {
        // Timing shares this core with other test threads, so accept
        // the best of three attempts for the scaling ratio; the counter
        // invariants are asserted on every attempt (and inside
        // forwarding_scaling itself).
        let mut best = 0.0f64;
        for _ in 0..3 {
            let r = forwarding_scaling(2500);
            assert_eq!(r.rows.len(), 8, "2 modes x 4 shard counts");
            // Every configuration forwarded every packet, and both
            // encodings agree (8 flows x 2500 packets).
            for row in &r.rows {
                assert_eq!(row.packets, 8 * 2500, "{row:?}");
                assert!(row.wall_mpps > 0.0 && row.critical_mpps > 0.0);
            }
            // The PolKA label is the compact one.
            assert!(r.polka_label_bits < r.seglist_label_bits);
            best = best.max(r.scaling_1_to_4);
            if best > 1.5 {
                break;
            }
        }
        // The partitioned pipeline parallelizes: >1.5x critical-path
        // scaling from 1 to 4 shards.
        assert!(best > 1.5, "scaling {best:.2}");
    }

    #[test]
    fn scenario_suite_smoke_covers_the_acceptance_matrix() {
        let suite = scenario_suite(true);
        // >= 6 distinct (topology x traffic x events) scenarios...
        assert!(suite.len() >= 6);
        let mut differentiated = 0;
        for m in &suite {
            // ...each across >= 3 policies...
            assert_eq!(m.cards.len(), 3);
            for c in &m.cards {
                assert_eq!(c.scenario, m.name);
                assert_eq!(c.aggregate_series.len() as u64, c.epochs);
            }
            if m.cards[0].aggregate_series != m.cards[2].aggregate_series
                || m.cards[0].migrations != m.cards[2].migrations
            {
                differentiated += 1;
            }
        }
        // An adaptive policy may legitimately coincide with static on a
        // short smoke horizon (no decision epoch with enough history
        // lands inside the impairment window), but if MOST scenarios
        // show no difference the policy hook is dead.
        assert!(
            differentiated * 2 >= suite.len(),
            "only {differentiated}/{} scenarios differentiate hecate from static",
            suite.len()
        );
    }

    #[test]
    fn million_flow_tick_small_params_audit_and_counters() {
        // Small-parameter cut of the 100k/256 headline run: the same
        // access-bottleneck shape, so every structural claim is
        // exercised — deterministic event stream, incremental solves
        // engaged (the elephants keep access links saturated), and the
        // final bitwise incremental-vs-recompute audit.
        let r = million_flow_tick(2_000, 32, 20, 8, 7);
        assert_eq!(r.flows, 2_000);
        assert_eq!(r.pairs, 32);
        assert_eq!(r.links, 32 + 2 * 16, "32 access + 16 trunk groups x 2");
        assert_eq!(r.ticks, 20);
        assert!(r.audited, "incremental diverged from full recompute");
        assert!(
            r.incremental_solves > 0,
            "saturated access links must force restricted solves: {r:?}"
        );
        assert_eq!(r.full_solves, 0, "nothing should escalate: {r:?}");
        assert!(r.tick_p50_us <= r.tick_p99_us && r.tick_p99_us <= r.tick_max_us);
        // Counter determinism: same seed, same stream, same counters.
        let again = million_flow_tick(2_000, 32, 20, 8, 7);
        assert_eq!(r.incremental_solves, again.incremental_solves);
        assert_eq!(r.fast_path_events, again.fast_path_events);
        assert_eq!(r.expansions, again.expansions);
    }

    #[test]
    fn tick_model_has_two_disjoint_trunk_tunnels_per_pair() {
        let m = tick_model(256);
        assert_eq!(m.candidates.len(), 256);
        assert_eq!(m.tunnel_links.len(), 512);
        assert_eq!(m.headroom.len(), 256 + 2 * 128);
        for (p, cands) in m.candidates.iter().enumerate() {
            assert_eq!(cands, &vec![2 * p, 2 * p + 1]);
            let a = &m.tunnel_links[2 * p];
            let b = &m.tunnel_links[2 * p + 1];
            assert_eq!(a[0], p, "both tunnels share the access link");
            assert_eq!(b[0], p);
            assert_ne!(a[1], b[1], "trunk hops are disjoint");
            assert_eq!(a[1] / 2, b[1] / 2, "same trunk group");
        }
    }

    #[test]
    fn fig5_summaries_capture_the_regimes() {
        let (_, summaries) = fig5();
        let get = |name: &str| {
            summaries
                .iter()
                .find(|(n, _)| n.starts_with(name))
                .unwrap()
                .1
                .clone()
        };
        assert!(get("wifi indoor").mean > get("wifi outdoor").mean);
        assert!(get("lte outdoor").mean > get("lte indoor").mean);
    }
}
