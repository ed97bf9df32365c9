//! Bench: Fig 11's migration primitive — what does a path change cost
//! each layer? PolKA's promise is that migration is a single edge
//! rewrite: recompiling the backup label (controller, one CRT), the PBR
//! rewrite (edge config), and the whole fig11 experiment (emulated
//! end-to-end) for scale.

use criterion::{criterion_group, criterion_main, Criterion};
use freertr::config::fig10_mia_config;
use freertr::resolve::{allocator_for, compile_tunnel};
use netsim::topo::global_p4_lab;
use std::hint::black_box;

fn bench_label_swap(c: &mut Criterion) {
    let topo = global_p4_lab();
    let mut alloc = allocator_for(&topo);
    let cfg = fig10_mia_config();
    let t2 = cfg.tunnel("tunnel2").unwrap().clone();
    c.bench_function("compile_backup_label", |b| {
        b.iter(|| black_box(compile_tunnel(&t2, &topo, &mut alloc).unwrap()))
    });
}

fn bench_pbr_rewrite(c: &mut Criterion) {
    let mut cfg = fig10_mia_config();
    let mut flip = false;
    c.bench_function("pbr_rewrite_in_config", |b| {
        b.iter(|| {
            flip = !flip;
            let target = if flip { "tunnel2" } else { "tunnel1" };
            cfg.set_pbr("flow3", target).unwrap();
            black_box(&cfg);
        })
    });
}

/// Sixteen PBR rewrites in one edge transaction (one lock, one undo
/// log), to be read against sixteen of `pbr_rewrite_in_config`.
fn bench_pbr_transaction(c: &mut Criterion) {
    use freertr::agent::{ConfigOp, RouterHandle};
    let mia = RouterHandle::new("MIA");
    mia.apply_text(&fig10_mia_config().emit()).unwrap();
    let mut flip = false;
    c.bench_function("pbr_rewrite_x16_transaction", |b| {
        b.iter(|| {
            flip = !flip;
            let target = if flip { "tunnel2" } else { "tunnel1" };
            let ops = (0..16)
                .map(|i| ConfigOp::SetPbr {
                    acl: format!("flow{}", i % 3 + 1),
                    tunnel: target.to_string(),
                })
                .collect();
            mia.transact(ops).unwrap();
        })
    });
}

fn bench_fig11_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_experiment");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(2));
    group.measurement_time(std::time::Duration::from_secs(10));
    group.bench_function("latency_migration_20s_phases", |b| {
        b.iter(|| black_box(bench::figures::fig11(20, 1).unwrap().mean_after_ms))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_label_swap,
    bench_pbr_rewrite,
    bench_pbr_transaction,
    bench_fig11_end_to_end
);
criterion_main!(benches);
