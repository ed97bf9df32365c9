//! Bench: the Sec III optimization kernels — simplex on the min-max
//! utilization LP (Fig 2 formalism) and the flow→tunnel assignment
//! search the framework runs at re-optimization time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use framework::optimizer::{assign_flows_shared, FlowDemand, SharedLinkModel};
use framework::PairId;
use std::hint::black_box;

fn bench_min_max_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("minmax_utilization_lp");
    for paths in [2usize, 4, 8, 16] {
        let caps: Vec<f64> = (0..paths).map(|i| 5.0 + (i as f64) * 2.5).collect();
        let demand = caps.iter().sum::<f64>() * 0.7;
        group.bench_with_input(BenchmarkId::from_parameter(paths), &caps, |b, caps| {
            b.iter(|| black_box(lp::te::min_max_utilization(demand, caps).unwrap()))
        });
    }
    group.finish();
}

fn bench_delay_split(c: &mut Criterion) {
    c.bench_function("min_delay_split_golden_section", |b| {
        b.iter(|| black_box(lp::te::min_delay_split(8.0, 10.0).unwrap()))
    });
}

fn bench_assignment_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_assignment_search");
    for (tunnels, flows) in [(3usize, 3usize), (3, 6), (4, 6)] {
        // One pair over tunnels that are nothing but their caps.
        let caps: Vec<f64> = (0..tunnels).map(|i| 20.0 / (i + 1) as f64).collect();
        let model = SharedLinkModel::one_pair(tunnels).with_tunnel_caps(&caps);
        let demands: Vec<FlowDemand> = (0..flows)
            .map(|i| FlowDemand {
                pair: PairId(0),
                demand: if i % 2 == 0 { None } else { Some(3.0) },
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{tunnels}t_{flows}f")),
            &(model, demands),
            |b, (model, demands)| {
                b.iter(|| black_box(assign_flows_shared(model, demands).unwrap()))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_min_max_lp,
    bench_delay_split,
    bench_assignment_search
);
criterion_main!(benches);
