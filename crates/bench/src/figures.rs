//! One reproduction entry point per paper figure.

use framework::policies::{compare_policies, PolicyReport};
use framework::sdn::{FlowAggregationResult, LatencyMigrationResult, SelfDrivingNetwork};
use hecate_ml::{evaluate_all, evaluate_regressor, EvalReport, PipelineConfig, RegressorKind};
use linalg::stats::Summary;
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

/// Fig 11: the latency-migration experiment.
pub fn fig11(phase_s: u64, seed: u64) -> LatencyMigrationResult {
    let mut sdn = SelfDrivingNetwork::testbed(seed).expect("testbed");
    sdn.run_latency_migration(phase_s).expect("experiment")
}

/// Fig 12: the flow-aggregation experiment.
pub fn fig12(phase_s: u64, seed: u64) -> FlowAggregationResult {
    let mut sdn = SelfDrivingNetwork::testbed(seed).expect("testbed");
    sdn.run_flow_aggregation(phase_s).expect("experiment")
}

/// Ablation (Sec III "Real-time Decision Making"): decision policies on
/// the UQ traces.
pub fn ablation_policies() -> Vec<PolicyReport> {
    let d = UqDataset::default_dataset();
    compare_policies(&d.wifi, &d.lte, 10)
}

/// Extension experiment: the framework steering a flow over
/// wireless-trace-driven links, one row per policy.
pub fn ext_steering() -> Vec<framework::sdn::SteeringResult> {
    let d = traces::UqDataset::generate(&traces::UqSpec {
        len: 220,
        outdoor_at: 50,
        arrival_at: 200,
        seed: 6,
    });
    framework::Policy::all()
        .into_iter()
        .map(|p| {
            let mut sdn = SelfDrivingNetwork::testbed(21).expect("testbed");
            sdn.run_trace_driven_steering(p, 200, 10, &d.wifi, &d.lte)
                .expect("steering run")
        })
        .collect()
}

/// Shared harness for the decision-throughput artifact: the Fig 9
/// testbed grown to `paths` candidate tunnels via k-shortest-path
/// discovery (the Sec VII continent-wide direction), with UQ wireless
/// traces driving the two experiment links so every per-tunnel
/// bandwidth series is genuinely dynamic, advanced until every series
/// has 75 telemetry samples. Returns the telemetry store, the first
/// `paths` candidate tunnel names and the network's shared-link model
/// (`link_model(false)`) cut to those tunnels.
pub fn throughput_testbed(
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
    sdn.sim.schedule_capacity_trace(mia_sao, 0, 1000, &d.wifi);
    sdn.sim.schedule_capacity_trace(mia_chi, 0, 1000, &d.lte);
    sdn.advance(75_000).expect("telemetry warm-up");
    let mut names = sdn.tunnel_names();
    names.truncate(paths);
    let mut model = sdn.link_model(false);
    model.tunnel_links.truncate(paths);
    model.candidates[0].retain(|&t| t < paths);
    (sdn.telemetry.clone(), names, model)
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
    /// Cache behavior counters over the warm runs.
    pub cache: framework::hecate::CacheStats,
}

/// Measures decisions/sec for cold vs warm engines on identical
/// telemetry (no samples arrive during measurement, so cold and warm
/// recommendations must agree exactly). Every decision is the one
/// consult a network admits with, `decide_flows_pairs`.
pub fn decision_throughput(paths: usize, cold_flows: usize, warm_flows: usize) -> ThroughputReport {
    use framework::controller::{decide_flows_pairs, BatchDecision, SequenceLog};
    use framework::scheduler::FlowRequest;
    use framework::{HecateService, Objective};
    let (telemetry, names, model) = throughput_testbed(paths);
    let config = framework::OptimizerConfig::default();
    let consult = |hecate: &HecateService, reqs: &[FlowRequest], log: &mut SequenceLog| {
        let max = Objective::MaxBandwidth;
        decide_flows_pairs(hecate, &telemetry, reqs, &names, &model, max, &config, log)
            .expect("warm telemetry")
    };
    let tunnel = |out: BatchDecision| out.decisions[0].tunnel.clone();
    let flows = |n: usize| -> Vec<FlowRequest> {
        (0..n)
            .map(|i| FlowRequest {
                label: format!("f{i}"),
                tos: 0,
                demand_mbps: None,
                start_ms: 0,
                pair: framework::PairId::default(),
            })
            .collect()
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
    let t1 = std::time::Instant::now();
    let mut warm_picks = Vec::with_capacity(warm_flows);
    for _ in 0..warm_flows {
        warm_picks.push(tunnel(consult(&hecate, &one, &mut log)));
    }
    let warm_dps = warm_flows as f64 / t1.elapsed().as_secs_f64().max(1e-9);

    // Warm, batched: whole scheduler ticks of 64 flows share one
    // consultation.
    let batches = warm_flows.div_ceil(64).max(1);
    let t2 = std::time::Instant::now();
    for _ in 0..batches {
        consult(&hecate, &tick, &mut log);
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
        cache: hecate.cache_stats(),
    }
}

/// The packet-forwarding workload shared by the scaling figure and its
/// tests: a 16-node mesh, 8 ingress flows on identical-length (4-hop)
/// ring walks, each expressible as a PolKA routeID or a segment list.
pub fn forwarding_workload(
    polka: bool,
    packets_per_flow: usize,
) -> (dataplane::ForwardingPlane, Vec<dataplane::shard::WorkItem>) {
    use netsim::NodeIdx;
    let topo = netsim::topo::mesh(16, 4, 100.0);
    let mut alloc = polka::NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1));
    let items: Vec<dataplane::shard::WorkItem> = (0..8u32)
        .map(|i| {
            let path: Vec<NodeIdx> = (0..5).map(|k| NodeIdx((i + k) % 16)).collect();
            dataplane::shard::WorkItem {
                route: dataplane::FlowRoute::along_path(&topo, &mut alloc, &path, polka)
                    .expect("route compiles"),
                count: packets_per_flow,
            }
        })
        .collect();
    let plane = dataplane::ForwardingPlane::new(&topo, &mut alloc).expect("plane");
    (plane, items)
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
    use dataplane::{forward_sharded, shard_critical_path, SourceRoute};
    let mut rows = Vec::new();
    let mut label_bits = (0usize, 0usize);
    for (mode, is_polka) in [("polka", true), ("seglist", false)] {
        let (plane, items) = forwarding_workload(is_polka, packets_per_flow);
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
    use hecate_ml::Regressor;
    let d = UqDataset::default_dataset();
    let cfg = PipelineConfig::default();
    let mut rows = Vec::new();
    for kind in [RegressorKind::Rfr, RegressorKind::Lr] {
        let w = evaluate_regressor(kind, &d.wifi, &cfg).expect("wifi");
        let l = evaluate_regressor(kind, &d.lte, &cfg).expect("lte");
        rows.push((kind.label().to_string(), w.rmse, l.rmse));
    }
    // MLP goes through the same protocol by hand (it is not part of the
    // paper's eighteen, so it lives outside the registry).
    let run_mlp = |series: &[f64]| -> f64 {
        use hecate_ml::data::{make_supervised, sequential_split};
        use hecate_ml::StandardScaler;
        let (train, test) = sequential_split(series, cfg.train_fraction);
        let mut scaler = StandardScaler::new();
        let col = linalg::Matrix::from_vec(train.len(), 1, train.to_vec());
        scaler.fit(&col).expect("scaler");
        let ts = scaler.transform_column(train, 0).expect("scale train");
        let vs = scaler.transform_column(test, 0).expect("scale test");
        let (x, y) = make_supervised(&ts, cfg.lags).expect("train windows");
        let (xt, yt) = make_supervised(&vs, cfg.lags).expect("test windows");
        let mut mlp = MlpRegressor::compact(cfg.seed);
        mlp.fit(&x, &y).expect("mlp fit");
        let pred = mlp.predict(&xt).expect("mlp predict");
        let obs = scaler.inverse_transform_column(&yt, 0).expect("inv obs");
        let prd = scaler.inverse_transform_column(&pred, 0).expect("inv pred");
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
pub fn tick_model(pairs: usize) -> framework::optimizer::SharedLinkModel {
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
/// [`tick_model`]`(pairs)` seeded with two greedy elephants per pair
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
