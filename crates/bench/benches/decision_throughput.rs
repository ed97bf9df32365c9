//! Bench: flow-arrival decision throughput, cold vs warm ForecastEngine.
//!
//! Every decision is the consult a network admits with,
//! `decide_flows_pairs`. `cold` is the seed reproduction's behavior —
//! the trained-model cache cleared, so every path's regressor is refit
//! for every arriving flow; `warm` serves the same decision from the
//! cache; `warm_batch` amortizes one consultation across a 64-flow
//! scheduler tick. All three decide against identical netsim-driven
//! telemetry (8 candidate tunnels over the Fig 9 testbed grown by path
//! discovery), so the recommendations are identical — only the cost
//! differs.

use bench::figures::{multipair_testbed, throughput_testbed};
use criterion::{criterion_group, criterion_main, Criterion};
use framework::controller::{decide_flows_pairs, SequenceLog};
use framework::optimizer::{Objective, SharedLinkModel};
use framework::scheduler::FlowRequest;
use framework::{HecateService, PairId, TelemetryService};
use std::hint::black_box;

/// One max-bandwidth consult of `reqs`; the number of decisions.
fn consult(
    hecate: &HecateService,
    telemetry: &TelemetryService,
    reqs: &[FlowRequest],
    names: &[String],
    model: &SharedLinkModel,
) -> usize {
    let mut log = SequenceLog::default();
    decide_flows_pairs(
        hecate,
        telemetry,
        reqs,
        names,
        model,
        Objective::MaxBandwidth,
        &Default::default(),
        &mut log,
    )
    .expect("warm telemetry")
    .decisions
    .len()
}

/// `n` greedy flow requests, flow `i` on pair `pair_of(i)`.
fn flows(n: usize, pair_of: impl Fn(usize) -> usize) -> Vec<FlowRequest> {
    (0..n)
        .map(|i| FlowRequest {
            label: format!("f{i}"),
            tos: 0,
            demand_mbps: None,
            start_ms: 0,
            pair: PairId(pair_of(i)),
        })
        .collect()
}

fn bench_decisions(c: &mut Criterion) {
    let (telemetry, names, model) = throughput_testbed(8);
    let mut group = c.benchmark_group("decision_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    let (one, tick) = (flows(1, |_| 0), flows(64, |_| 0));

    // Cold: refit all 8 path models per decision (the old hot path).
    let cold = HecateService::new();
    group.bench_function("cold/8paths/RFR", |b| {
        b.iter(|| {
            cold.clear_cache();
            black_box(consult(&cold, &telemetry, &one, &names, &model))
        })
    });

    // Warm: identical decision served from the trained-model cache.
    let warm = HecateService::new();
    consult(&warm, &telemetry, &one, &names, &model); // prime the cache
    group.bench_function("warm/8paths/RFR", |b| {
        b.iter(|| black_box(consult(&warm, &telemetry, &one, &names, &model)))
    });

    // Warm, batched: a 64-flow scheduler tick per iteration — report
    // the per-tick cost; per-flow cost is this divided by 64.
    group.bench_function("warm_batch64/8paths/RFR", |b| {
        b.iter(|| black_box(consult(&warm, &telemetry, &tick, &names, &model)))
    });
    group.finish();
}

/// The multi-pair sweep: one warm scheduler-tick decision (one flow per
/// managed pair) across 1 / 4 / 16 pairs, each pair with two disjoint
/// candidate tunnels over a shared 40-node mesh.
fn bench_multipair(c: &mut Criterion) {
    let mut group = c.benchmark_group("decision_throughput_multipair");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));

    for pairs in [1usize, 4, 16] {
        let (telemetry, names, model) = multipair_testbed(pairs);
        let hecate = HecateService::new();
        let tick = flows(pairs, |p| p);
        // Prime the trained-model cache once, like a running network.
        consult(&hecate, &telemetry, &tick, &names, &model);
        group.bench_function(format!("pairs{pairs}/shared"), |b| {
            b.iter(|| black_box(consult(&hecate, &telemetry, &tick, &names, &model)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decisions, bench_multipair);
criterion_main!(benches);
