//! Unit-cost probes: what one call into each layer costs on the final
//! live state. They run after the timed window, never inside it, and
//! explain the loop spans (`hecate.forecast_ms ≈ refits ×
//! hecate-ml.fit_ms / workers`, …).

use crate::clock::now_ns;
use crate::driver::Loop;
use crate::stats::median;
use dataplane::{FlowRoute, ForwardingPlane};
use framework::optimizer::assign_flows_shared_with;
use framework::telemetry::SeriesKey;
use framework::{Metric, PairId, SharedWaterfill};
use hecate_ml::pipeline::TrainedForecaster;
use hecate_ml::RegressorKind;
use std::hint::black_box;

/// Calls per probe; each probe reports the median.
pub const CALLS: usize = 200;

/// Median nanoseconds of one `f()`, over [`CALLS`] samples of `reps`
/// back-to-back calls each (`reps > 1` lifts nanosecond-scale
/// operations above the clock's resolution).
fn probe(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..CALLS)
        .map(|_| {
            let start = now_ns();
            for _ in 0..reps {
                f();
            }
            (now_ns() - start) as f64 / reps as f64
        })
        .collect();
    median(&samples).expect("CALLS > 0").value
}

/// Runs every probe; returns `(metric name, value)` in the metric's own
/// unit (the suffix of its name).
pub fn run(lp: &mut Loop) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let names = lp.tunnel_names().to_vec();
    let tunnel0 = lp.net.tunnel(&names[0]).expect("registered tunnel").clone();

    // ML: one RFR fit on a real tunnel series, one slide-and-reroll.
    let key0 = SeriesKey::new(&names[0], Metric::AvailableBandwidth);
    let history = lp.net.telemetry.last_n(&key0, 120);
    let (kind, lags, horizon, seed) = (RegressorKind::Rfr, lp.net.hecate.lags, 10, 42);
    let fit = || TrainedForecaster::fit(kind, &history, lags, seed);
    let mut model = fit().map_err(|e| format!("probe fit: {e}"))?;
    out.push((
        "hecate-ml.fit_ms",
        probe(1, || drop(black_box(fit()))) / 1e6,
    ));
    let mut i = 0;
    out.push((
        "hecate-ml.roll_us",
        probe(1, || {
            i += 1;
            let _ = model.observe(history[i % history.len()]);
            black_box(model.roll(horizon).ok());
        }) / 1e3,
    ));

    // Telemetry: one insert into the live store.
    let probe_key = SeriesKey::new("loopbench-probe", Metric::FlowRate);
    let mut t = 0;
    out.push((
        "telemetry.insert_ns",
        probe(16, || {
            t += 1;
            lp.net.telemetry.insert(&probe_key, t, 1.0);
        }),
    ));

    // Optimizer: building the shared-link model, one joint assignment.
    out.push((
        "optimizer.link_model_us",
        probe(1, || drop(black_box(lp.net.link_model(true)))) / 1e3,
    ));
    let model_now = lp.net.link_model(true);
    let demands = lp.demands();
    let config = *lp.net.optimizer_config();
    let assignment = assign_flows_shared_with(&model_now, &demands, &config)
        .map_err(|e| format!("probe assign: {e}"))?
        .0;
    out.push((
        "optimizer.assign_us",
        probe(1, || {
            black_box(assign_flows_shared_with(&model_now, &demands, &config).ok());
        }) / 1e3,
    ));

    // Standing water-fill: a 32-flow demand patch and its re-solve.
    let mut wf = SharedWaterfill::new(&model_now);
    for (id, (&tunnel, d)) in assignment.tunnel_of_flow.iter().zip(&demands).enumerate() {
        wf.insert(id as u64, tunnel, d.demand);
    }
    wf.resolve();
    let mut flip = false;
    out.push((
        "waterfill.patch_resolve_us",
        probe(1, || {
            flip = !flip;
            let scale = if flip { 1.5 } else { 1.0 };
            for (id, d) in demands.iter().take(32).enumerate() {
                wf.set_demand(id as u64, d.demand.map(|mbps| mbps * scale));
            }
            black_box(wf.resolve());
        }) / 1e3,
    ));

    // PolKA: CRT compile of one routeID, one per-hop `routeID mod nodeID`.
    out.push((
        "polka.compile_us",
        probe(1, || drop(black_box(tunnel0.spec.compile()))) / 1e3,
    ));
    let mut core = polka::CoreNode::new(tunnel0.spec.hops()[0].0.clone());
    out.push((
        "polka.forward_ns",
        probe(64, || {
            black_box(core.forward(black_box(&tunnel0.route)));
        }),
    ));

    // freeRtr: one idempotent PBR re-set = one agent round-trip.
    let edge = lp.net.pair_edge(PairId(0)).expect("pair 0 exists").clone();
    let tunnel_of_f0 = lp
        .net
        .flow_tunnel("f0")
        .ok_or("probe: flow f0 is not managed")?
        .to_string();
    out.push((
        "freertr.set_pbr_us",
        probe(1, || {
            let _ = black_box(edge.set_pbr("f0", &tunnel_of_f0));
        }) / 1e3,
    ));

    // netsim: one bottleneck query along a tunnel.
    out.push((
        "netsim.path_query_ns",
        probe(1, || {
            black_box(lp.net.sim.path_available_mbps(&tunnel0.node_path).ok());
        }),
    ));

    // Dataplane: bare forwarding, no queues — per packet over a batch.
    const BATCH: usize = 256;
    let mut alloc = lp.net.allocator().clone();
    let mut plane = ForwardingPlane::new(&lp.net.sim.topo, &mut alloc)
        .map_err(|e| format!("probe forwarding plane: {e}"))?;
    let route = FlowRoute::polka(
        tunnel0.node_path[0],
        tunnel0.node_path[1],
        tunnel0.route.clone(),
        &tunnel0.spec,
    );
    out.push((
        "dataplane.forward_batch_ns_per_pkt",
        probe(1, || {
            black_box(plane.forward_batch(&route, BATCH));
        }) / BATCH as f64,
    ));
    Ok(out)
}
