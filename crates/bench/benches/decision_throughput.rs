//! Bench: flow-arrival decision throughput, cold vs warm ForecastEngine
//! (ISSUE 2's tentpole artifact).
//!
//! `cold` is the seed reproduction's behavior — refit every path's
//! regressor for every arriving flow; `warm` serves the same decision
//! from the trained-model cache; `warm_batch` amortizes one consultation
//! across a 64-flow scheduler tick via `decide_flows`. All three decide
//! against identical netsim-driven telemetry (8 candidate tunnels over
//! the Fig 9 testbed grown by path discovery), so the recommendations
//! are identical — only the cost differs.

use bench::figures::{multipair_testbed, throughput_testbed};
use criterion::{criterion_group, criterion_main, Criterion};
use framework::controller::{decide_flows, decide_flows_pairs, decide_path, SequenceLog};
use framework::optimizer::{select_path, Objective};
use framework::scheduler::FlowRequest;
use framework::{HecateService, Metric, PairId};
use std::hint::black_box;

fn bench_decisions(c: &mut Criterion) {
    let (telemetry, names) = throughput_testbed(8);
    let mut group = c.benchmark_group("decision_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));

    // Cold: refit all 8 path models per decision (the old hot path).
    let cold = HecateService::new();
    group.bench_function("cold/8paths/RFR", |b| {
        b.iter(|| {
            let forecasts =
                cold.forecast_all_uncached(&telemetry, &names, Metric::AvailableBandwidth);
            black_box(
                select_path(Objective::MaxBandwidth, &forecasts)
                    .unwrap()
                    .path
                    .clone(),
            )
        })
    });

    // Warm: identical decision served from the trained-model cache.
    let warm = HecateService::new();
    let mut log = SequenceLog::default();
    decide_path(&warm, &telemetry, &names, Objective::MaxBandwidth, &mut log)
        .expect("prime the cache");
    group.bench_function("warm/8paths/RFR", |b| {
        b.iter(|| {
            let mut log = SequenceLog::default();
            black_box(
                decide_path(&warm, &telemetry, &names, Objective::MaxBandwidth, &mut log)
                    .unwrap()
                    .tunnel,
            )
        })
    });

    // Warm, batched: a 64-flow scheduler tick per iteration — report
    // the per-tick cost; per-flow cost is this divided by 64.
    let tick: Vec<FlowRequest> = (0..64)
        .map(|i| FlowRequest {
            label: format!("f{i}"),
            tos: 0,
            demand_mbps: None,
            start_ms: 0,
            pair: framework::PairId::default(),
        })
        .collect();
    group.bench_function("warm_batch64/8paths/RFR", |b| {
        b.iter(|| {
            let mut log = SequenceLog::default();
            black_box(
                decide_flows(
                    &warm,
                    &telemetry,
                    &tick,
                    &names,
                    Objective::MaxBandwidth,
                    &mut log,
                )
                .unwrap()
                .len(),
            )
        })
    });
    group.finish();
}

/// The multi-pair sweep: one warm scheduler-tick decision (one flow per
/// managed pair) across 1 / 4 / 16 pairs, each pair with two disjoint
/// candidate tunnels over a shared 40-node mesh.
///
/// `pairs1` runs BOTH engines on the identical single-pair workload:
/// `legacy` is the bottleneck-per-tunnel path a single-pair
/// `SelfDrivingNetwork` actually takes (byte-for-byte the pre-refactor
/// hot path, so its throughput *is* the pre-refactor number — asserted
/// behaviorally in `figures::multipair_n1_decisions_match_the_legacy_engine`),
/// and `shared` is the link-level engine pinned to N=1 for comparison.
fn bench_multipair(c: &mut Criterion) {
    let mut group = c.benchmark_group("decision_throughput_multipair");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));

    for pairs in [1usize, 4, 16] {
        let (telemetry, names, model) = multipair_testbed(pairs);
        let hecate = HecateService::new();
        let tick: Vec<FlowRequest> = (0..pairs)
            .map(|p| FlowRequest {
                label: format!("f{p}"),
                tos: 0,
                demand_mbps: None,
                start_ms: 0,
                pair: PairId(p),
            })
            .collect();
        // Prime the trained-model cache once, like a running network.
        let mut log = SequenceLog::default();
        decide_flows_pairs(
            &hecate,
            &telemetry,
            &tick,
            &names,
            &model,
            Objective::MaxBandwidth,
            &Default::default(),
            &mut log,
        )
        .expect("prime the cache");
        if pairs == 1 {
            group.bench_function("pairs1/legacy", |b| {
                b.iter(|| {
                    let mut log = SequenceLog::default();
                    black_box(
                        decide_flows(
                            &hecate,
                            &telemetry,
                            &tick,
                            &names,
                            Objective::MaxBandwidth,
                            &mut log,
                        )
                        .unwrap()
                        .len(),
                    )
                })
            });
        }
        group.bench_function(format!("pairs{pairs}/shared"), |b| {
            b.iter(|| {
                let mut log = SequenceLog::default();
                black_box(
                    decide_flows_pairs(
                        &hecate,
                        &telemetry,
                        &tick,
                        &names,
                        &model,
                        Objective::MaxBandwidth,
                        &Default::default(),
                        &mut log,
                    )
                    .unwrap()
                    .decisions
                    .len(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decisions, bench_multipair);
criterion_main!(benches);
