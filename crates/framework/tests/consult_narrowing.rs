//! Pins the narrowed admission consult to the behaviour it replaced.
//!
//! A multi-pair admit forecasts only its pairs' candidate tunnels;
//! every other series is deferred: it refits when its refit is due and
//! otherwise takes its fresh samples into the lag window without
//! rolling. The claim is that this changes
//! no decision, no refit and no cache age — only how many rolls run.
//! The reference network forecasts *every* tunnel right before each
//! admit, which is what admission did before it was narrowed.

use framework::controller::{decide_flows_pairs, BatchDecision, SequenceLog};
use framework::optimizer::{FlowDemand, SharedLinkModel, SolverKind};
use framework::scheduler::FlowRequest;
use framework::telemetry::{Metric, SeriesKey};
use framework::{
    HecateService, Objective, OptimizerConfig, PairId, SelfDrivingNetwork, TelemetryService,
};
use hecate_ml::RegressorKind;

/// Deterministic xorshift (the proptest files' idiom).
struct Rng(u64);
impl Rng {
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

const PAIRS: usize = 4;

/// Four pairs on two ingresses (`n0`, `n3`), two tunnels each, a
/// single-tree model so the debug build refits quickly, and a refit
/// every three samples so deferred series come due between consults.
fn network() -> SelfDrivingNetwork {
    let topo = netsim::topo::mesh(12, 3, 10.0);
    let ends = [("n0", "n6"), ("n0", "n4"), ("n3", "n9"), ("n3", "n8")];
    let mut net = SelfDrivingNetwork::over_topology_pairs(topo, &ends, 2, 1).unwrap();
    net.hecate.model = RegressorKind::Dtr;
    net.hecate.refit_after = 3;
    // Pairs 2 and 3 start with history, pairs 0 and 1 without: the
    // first batches are cold while other series are forecastable.
    for name in net.tunnel_names() {
        if name.starts_with("p2/") || name.starts_with("p3/") {
            let key = SeriesKey::new(&name, Metric::AvailableBandwidth);
            for t in 0..20u64 {
                net.telemetry.insert(&key, t, 6.0 + (t % 5) as f64);
            }
        }
    }
    net
}

/// Everything the two networks must agree on after a step.
fn state(net: &SelfDrivingNetwork, labels: &[String]) -> String {
    let ages: Vec<Option<u64>> = net
        .tunnel_names()
        .iter()
        .map(|n| {
            net.hecate
                .cache_age(&net.telemetry, n, Metric::AvailableBandwidth)
        })
        .collect();
    let tunnels: Vec<Option<&str>> = labels.iter().map(|l| net.flow_tunnel(l)).collect();
    let edges: Vec<String> = (0..PAIRS)
        .map(|p| net.pair_edge(PairId(p)).unwrap().running_config().emit())
        .collect();
    let refits = net.hecate.cache_stats().refits;
    format!("ages {ages:?}\ntunnels {tunnels:?}\nrefits {refits}\nedges {edges:?}")
}

#[test]
fn narrowed_admission_matches_forecasting_every_tunnel() {
    let (mut a, mut b) = (network(), network());
    let mut rng = Rng(0x5eed_cafe);
    let mut labels = Vec::new();
    // The two series that get a NaN and an ∞, and the epoch they did.
    let poisoned = ["p3/tunnel1", "p2/tunnel2"];
    let mut poisoned_at = None;
    let age = |net: &SelfDrivingNetwork, name: &str| {
        net.hecate
            .cache_age(&net.telemetry, name, Metric::AvailableBandwidth)
    };
    for e in 0..48u64 {
        if e % 5 == 4 {
            assert_eq!(
                a.reoptimize_bandwidth().unwrap(),
                b.reoptimize_bandwidth().unwrap(),
                "epoch {e}: consult"
            );
        }
        // A rotating subset of one to three pairs; epoch 0 admits on
        // cold pair 0 alone, and the epoch after the poisoning keeps
        // clear of the poisoned pairs.
        let mut pairs: Vec<usize> = (0..PAIRS).filter(|_| rng.below(2) == 0).collect();
        pairs.truncate(3);
        if poisoned_at == Some(e) {
            pairs.retain(|&p| p < 2);
        }
        if e == 0 || pairs.is_empty() {
            pairs = vec![e as usize % 2];
        }
        let reqs: Vec<FlowRequest> = pairs
            .iter()
            .map(|&p| {
                let label = format!("f{}", labels.len());
                labels.push(label.clone());
                FlowRequest {
                    label,
                    tos: 32,
                    demand_mbps: (rng.below(3) != 0).then(|| 0.5 + rng.below(40) as f64 / 10.0),
                    start_ms: e * 1000,
                    pair: PairId(p),
                }
            })
            .collect();
        b.hecate
            .forecast_all(&b.telemetry, &b.tunnel_names(), Metric::AvailableBandwidth);
        let got = a.admit_flows(&reqs, Objective::MaxBandwidth).unwrap();
        let want = b.admit_flows(&reqs, Objective::MaxBandwidth).unwrap();
        assert_eq!(got, want, "epoch {e}: decisions");
        if e == 0 {
            assert!(got.iter().all(|d| d.used_forecast && d.score.is_none()));
        }
        if poisoned_at == Some(e) {
            // The deferred update spent both entries, as a forecast
            // would have.
            assert_eq!(poisoned.map(|n| age(&a, n)), [None, None]);
        }
        for net in [&mut a, &mut b] {
            net.advance((e + 1) * 1000).unwrap();
        }
        // Hostile samples in two series the next batch does not need,
        // once neither entry would be outrun by them and no consult
        // comes first.
        let young = poisoned
            .iter()
            .all(|n| age(&a, n).is_some_and(|age| age <= 1));
        if e >= 20 && poisoned_at.is_none() && young && (e + 1) % 5 != 4 {
            for (name, bad) in poisoned.iter().zip([f64::NAN, f64::INFINITY]) {
                let key = SeriesKey::new(name, Metric::AvailableBandwidth);
                for net in [&mut a, &mut b] {
                    net.telemetry.insert(&key, (e + 1) * 1000, bad);
                }
            }
            poisoned_at = Some(e + 1);
        }
        if e == 30 {
            let made = a.discover_tunnels("n0", "n6", 4).unwrap();
            assert!(!made.is_empty(), "discovery added no tunnel");
            assert_eq!(b.discover_tunnels("n0", "n6", 4).unwrap(), made);
        }
        assert_eq!(state(&a, &labels), state(&b, &labels), "epoch {e}: state");
    }
    assert!(poisoned_at.is_some(), "the hostile samples never went in");
    let (sa, sb) = (a.hecate.cache_stats(), b.hecate.cache_stats());
    assert!(
        sa.updates < sb.updates,
        "narrowed {} vs full {} updates",
        sa.updates,
        sb.updates
    );
}

/// Two pairs, two private tunnels each.
fn two_pairs() -> (SharedLinkModel, Vec<String>) {
    let model = SharedLinkModel::new(
        vec![20.0, 10.0, 10.0, 20.0],
        vec![vec![0], vec![1], vec![2], vec![3]],
        vec![vec![0, 1], vec![2, 3]],
    );
    let names = ["p0/t1", "p0/t2", "p1/t1", "p1/t2"]
        .map(String::from)
        .to_vec();
    (model, names)
}

fn fill(ts: &mut TelemetryService, name: &str, from: u64, n: u64, v: f64) {
    let key = SeriesKey::new(name, Metric::AvailableBandwidth);
    for t in from..from + n {
        ts.insert(&key, t * 1000, v + (t % 3) as f64);
    }
}

/// One greedy flow on pair 0 under `config`, and the Fig 4 steps.
fn admit_pair0(
    h: &HecateService,
    ts: &TelemetryService,
    config: &OptimizerConfig,
) -> (BatchDecision, Vec<&'static str>) {
    let (model, names) = two_pairs();
    let reqs = [FlowDemand {
        pair: PairId(0),
        demand: None,
    }];
    let mut log = SequenceLog::default();
    let objective = Objective::MaxBandwidth;
    let out = decide_flows_pairs(h, ts, &reqs, &names, &model, objective, config, &mut log);
    let out = out.unwrap();
    assert_eq!(out.series, 2, "only pair 0's tunnels are forecast");
    (out, log.steps().to_vec())
}

#[test]
fn cold_batch_falls_back_only_when_no_series_anywhere_is_forecastable() {
    let fell_back = |steps: &[&str]| steps.contains(&"fallbackArbitraryPath");
    let mut ts = TelemetryService::new(1000);
    let h = HecateService::new();
    // Nothing anywhere: phase (i).
    let (d, steps) = admit_pair0(&h, &ts, &OptimizerConfig::default());
    assert!(fell_back(&steps) && !d.decisions[0].used_forecast);
    // Pair 1 warm, pair 0 (the batch) cold: a deferred series refits
    // and counts, so the batch is placed, not sent to the first tunnel.
    fill(&mut ts, "p1/t1", 0, 30, 8.0);
    let (d, steps) = admit_pair0(&h, &ts, &OptimizerConfig::default());
    assert!(!fell_back(&steps) && d.decisions[0].used_forecast && d.decisions[0].score.is_none());
    assert_eq!(h.cache_stats().refits, 1);
    // Its entry is usable and not outrun: deferred, still forecastable.
    fill(&mut ts, "p1/t1", 30, 1, 8.0);
    let (_, steps) = admit_pair0(&h, &ts, &OptimizerConfig::default());
    assert!(!fell_back(&steps));
    assert_eq!(h.cache_stats().refits, 1, "a deferred series refit early");
    assert_eq!(h.cache_stats().updates, 0, "a deferred series was rolled");
    // A non-finite fresh sample spends it, as a forecast would: nothing
    // is forecastable again.
    ts.insert(
        &SeriesKey::new("p1/t1", Metric::AvailableBandwidth),
        31_000,
        f64::NAN,
    );
    let (d, steps) = admit_pair0(&h, &ts, &OptimizerConfig::default());
    assert!(fell_back(&steps) && !d.decisions[0].used_forecast);
    assert_eq!(h.cache_age(&ts, "p1/t1", Metric::AvailableBandwidth), None);
}

#[test]
fn deferred_series_roll_later_to_the_bits_a_full_forecast_gives() {
    let (_, names) = two_pairs();
    let mut ts = TelemetryService::new(1000);
    for (i, name) in names.iter().enumerate() {
        fill(&mut ts, name, 0, 40, 5.0 + 3.0 * i as f64);
    }
    let narrowed = HecateService::new();
    let full = HecateService::new();
    for round in 0..4u64 {
        admit_pair0(&narrowed, &ts, &OptimizerConfig::default());
        full.forecast_all(&ts, &names, Metric::AvailableBandwidth);
        for (i, name) in names.iter().enumerate() {
            fill(&mut ts, name, 40 + round, 1, 5.0 + 3.0 * i as f64);
        }
    }
    // Pair 1 took four samples without a roll; its next forecast
    // matches the service that rolled after every one.
    let a = narrowed.forecast_all(&ts, &names, Metric::AvailableBandwidth);
    let b = full.forecast_all(&ts, &names, Metric::AvailableBandwidth);
    assert_eq!(a.len(), names.len());
    for (x, y) in a.iter().zip(&b) {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!((&x.path, bits(&x.values)), (&y.path, bits(&y.values)));
    }
    let (sa, sb) = (narrowed.cache_stats(), full.cache_stats());
    assert_eq!(sa.refits, sb.refits);
    assert!(sa.updates < sb.updates, "{sa:?} vs {sb:?}");
}

#[test]
fn the_solver_cutoff_comes_from_the_config() {
    let mut ts = TelemetryService::new(1000);
    fill(&mut ts, "p0/t1", 0, 30, 9.0);
    let h = HecateService::new();
    let (out, _) = admit_pair0(&h, &ts, &OptimizerConfig::default());
    assert_eq!(out.solver, Some(SolverKind::Exhaustive));
    let greedy = OptimizerConfig {
        exhaustive_bound: 0,
    };
    assert_eq!(
        admit_pair0(&h, &ts, &greedy).0.solver,
        Some(SolverKind::Greedy)
    );
}
