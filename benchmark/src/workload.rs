//! The four workloads: fixed shapes, inputs generated from `--seed`.
//!
//! The program under test only ever sees generated inputs (a topology,
//! flow requests, capacity events, an elastic schedule); the seed never
//! reaches it except as `Simulation`'s own jitter seed.

use netsim::Topology;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scenarios::{zoo, ElasticSpec};

/// Epochs between consults (`reoptimize_bandwidth`); equals Hecate's
/// default `refit_after`, so every consult refits every tunnel series.
pub const CONSULT_EVERY: u64 = 10;
/// A flow-epoch violates its SLO below this share of declared demand…
pub const SLO_FRACTION: f64 = 0.8;
/// …once this many epochs of ramp-up grace have passed since admission.
pub const SLO_GRACE_EPOCHS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    Fluid,
    Packet,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modulate {
    /// Every link: each netsim solve escalates to a *full* one.
    AllLinks,
    /// Only the links the managed tunnels cross: their series always
    /// have something to forecast, yet the simulator's solves stay
    /// incremental.
    TunnelLinks,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topo {
    TwoTierWan { cores: usize, edges_per_core: usize },
    FatTree { k: usize },
    Waxman { n: usize },
}

/// One workload's fixed shape. Only the number of timed epochs varies,
/// with `--seconds` (see [`Shape::timed_epochs`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub name: &'static str,
    pub plane: Plane,
    pub topo: Topo,
    pub pairs: usize,
    pub k: usize,
    /// Flows admitted in set-up.
    pub initial_flows: usize,
    /// `FlowRequest`s admitted at the start of every timed epoch.
    pub arrivals_per_epoch: usize,
    /// Declared demands are spread evenly over this range (Mbps).
    pub demand_mbps: (f64, f64),
    /// Which links are re-rated every epoch (sinusoid, seeded
    /// phase/period).
    pub modulate: Modulate,
    /// Fail a link of pair 0's primary tunnel at 1/3 of the timed
    /// window and restore it at 1/2.
    pub flap: bool,
    pub elastic: Option<ElasticSpec>,
    /// Hecate's staleness threshold (`HecateService::refit_after`,
    /// default 10): samples a series may grow before its model is
    /// refitted rather than rolled.
    pub refit_after: u64,
    /// Untimed epochs run in set-up (followed by one untimed consult, so
    /// the timed window starts with every model fitted).
    pub warmup_epochs: u64,
    /// Timed epochs per second of `--seconds`, calibrated on the 2-core
    /// reference container so a run measures for about that long.
    pub epochs_per_second: f64,
}

impl Shape {
    /// The timed window: a whole number of consult periods, fixed by
    /// `--seconds` alone so that a seed's deterministic outputs repeat.
    pub fn timed_epochs(&self, seconds: u64) -> u64 {
        let periods = (self.epochs_per_second * seconds as f64 / CONSULT_EVERY as f64).round();
        (periods as u64).max(2) * CONSULT_EVERY
    }

    /// A cut small enough for debug-mode tests: same layers, same
    /// driver code, toy sizes.
    pub fn tiny(&self) -> Shape {
        let mut s = self.clone();
        s.topo = match self.topo {
            Topo::TwoTierWan { .. } => Topo::TwoTierWan {
                cores: 5,
                edges_per_core: 2,
            },
            Topo::FatTree { .. } => Topo::FatTree { k: 4 },
            Topo::Waxman { .. } => Topo::Waxman { n: 60 },
        };
        s.pairs = self.pairs.min(3);
        s.initial_flows = self.initial_flows.min(6);
        s.arrivals_per_epoch = self.arrivals_per_epoch.min(2);
        s.warmup_epochs = 14;
        s.elastic = self.elastic.as_ref().map(|e| ElasticSpec {
            elephants: 8,
            mice_per_epoch: 30,
            routes: 24,
            ..e.clone()
        });
        s
    }
}

/// The benchmark's workloads, in report order.
pub fn shapes() -> Vec<Shape> {
    let wan = Topo::TwoTierWan {
        cores: 16,
        edges_per_core: 4,
    };
    vec![
        Shape {
            name: "wan-steady",
            plane: Plane::Fluid,
            topo: wan,
            pairs: 32,
            k: 3,
            initial_flows: 128,
            arrivals_per_epoch: 0,
            demand_mbps: (0.015, 0.045),
            modulate: Modulate::AllLinks,
            flap: true,
            elastic: None,
            refit_after: 10,
            warmup_epochs: 120,
            epochs_per_second: 11.0,
        },
        Shape {
            name: "wan-arrivals",
            plane: Plane::Fluid,
            topo: wan,
            pairs: 32,
            k: 3,
            initial_flows: 32,
            arrivals_per_epoch: 8,
            demand_mbps: (0.0003, 0.0009),
            modulate: Modulate::AllLinks,
            flap: false,
            elastic: None,
            // Models are fitted once in set-up and only rolled
            // afterwards: this workload measures the update path, and a
            // fit-only gain must not move it.
            refit_after: 1_000_000,
            warmup_epochs: 120,
            epochs_per_second: 50.0,
        },
        Shape {
            name: "fattree-packet",
            plane: Plane::Packet,
            topo: Topo::FatTree { k: 8 },
            pairs: 8,
            k: 3,
            initial_flows: 64,
            arrivals_per_epoch: 0,
            demand_mbps: (0.9, 1.3),
            modulate: Modulate::AllLinks,
            flap: true,
            elastic: None,
            refit_after: 10,
            warmup_epochs: 15,
            epochs_per_second: 17.0,
        },
        Shape {
            name: "waxman-elastic",
            plane: Plane::Fluid,
            topo: Topo::Waxman { n: 1000 },
            pairs: 2,
            k: 3,
            initial_flows: 4,
            arrivals_per_epoch: 0,
            demand_mbps: (0.2, 0.4),
            modulate: Modulate::TunnelLinks,
            flap: false,
            elastic: Some(ElasticSpec {
                elephants: 400,
                mice_per_epoch: 1660,
                mouse_mbps: 0.75,
                mouse_lifetime_epochs: 3,
                routes: 800,
                mouse_ramp: Some(2.0),
            }),
            refit_after: 10,
            warmup_epochs: 15,
            epochs_per_second: 12.0,
        },
    ]
}

pub fn shape(name: &str) -> Option<Shape> {
    shapes().into_iter().find(|s| s.name == name)
}

/// An independent seed per purpose, all derived from `--seed`.
pub fn substream_seed(seed: u64, purpose: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose
}

pub fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(substream_seed(seed, purpose))
}

pub const STREAM_WAVES: u64 = 1;
pub const STREAM_DEMANDS: u64 = 2;
pub const STREAM_ELASTIC: u64 = 3;

/// The Waxman graph is drawn once, from this constant: a different
/// graph per `--seed` changes how much work an epoch is (tunnel lengths,
/// water-fill component sizes) by more than the metrics' bounds, so the
/// seed varies the traffic on the graph instead.
const WAXMAN_GRAPH_SEED: u64 = 11;

pub fn build_topology(topo: Topo) -> Topology {
    match topo {
        Topo::TwoTierWan {
            cores,
            edges_per_core,
        } => zoo::two_tier_wan(cores, edges_per_core),
        Topo::FatTree { k } => zoo::fat_tree(k),
        Topo::Waxman { n } => zoo::waxman(n, 0.15, 0.15, WAXMAN_GRAPH_SEED),
    }
}

/// One link's capacity schedule: its raw rate scaled by a sinusoid
/// between 0.5 and 1.0, period and phase drawn from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkWave {
    pub a: String,
    pub b: String,
    pub raw_mbps: f64,
    pub period_epochs: f64,
    pub phase: f64,
}

impl LinkWave {
    pub fn capacity_at(&self, epoch: u64) -> f64 {
        let angle = std::f64::consts::TAU * epoch as f64 / self.period_epochs + self.phase;
        self.raw_mbps * (0.75 + 0.25 * angle.sin())
    }
}

pub fn link_waves(topo: &Topology, seed: u64) -> Vec<LinkWave> {
    let mut rng = stream(seed, STREAM_WAVES);
    topo.links()
        .iter()
        .map(|l| LinkWave {
            a: topo.node_name(l.a).to_string(),
            b: topo.node_name(l.b).to_string(),
            raw_mbps: l.capacity_mbps,
            period_epochs: rng.gen_range(20.0..60.0),
            phase: rng.gen_range(0.0..std::f64::consts::TAU),
        })
        .collect()
}

/// `n` demands spread evenly over `range`, in seeded order: every batch
/// sums to the same total whatever the seed, so `goodput_mbps` compares
/// across seeds while *which* flow is heavy still varies.
pub fn demand_batch(rng: &mut StdRng, n: usize, range: (f64, f64)) -> Vec<f64> {
    let mut demands: Vec<f64> = (0..n)
        .map(|i| range.0 + (range.1 - range.0) * (i as f64 + 0.5) / n as f64)
        .collect();
    demands.shuffle(rng);
    demands
}
