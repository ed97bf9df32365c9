//! Ablation bench: Random Forest size (the paper uses the sklearn
//! default of 100 trees). Fit time scales linearly; the accuracy knee
//! is far earlier — this quantifies the trade for DESIGN.md §6.
//!
//! `tree_fit_distinct_bootstraps` is the per-tree unit cost behind it,
//! measured the way a forest pays it: every fit sees other rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hecate_ml::data::make_supervised;
use hecate_ml::ensemble::RandomForestRegressor;
use hecate_ml::tree::DecisionTreeRegressor;
use hecate_ml::Regressor;
use linalg::Matrix;
use std::hint::black_box;
use traces::UqDataset;

fn bench_forest_size(c: &mut Criterion) {
    let data = UqDataset::default_dataset();
    let (x, y) = make_supervised(&data.wifi, 10).unwrap();
    let mut group = c.benchmark_group("forest_size_fit");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    for trees in [10usize, 50, 100, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(trees), &trees, |b, &t| {
            b.iter(|| {
                let mut f = RandomForestRegressor::with_trees(t);
                f.fit(&x, &y).unwrap();
                black_box(f.tree_count())
            })
        });
    }
    group.finish();
}

fn bench_tree_fit_distinct_bootstraps(c: &mut Criterion) {
    // What `HecateService::fit_entry` hands a forest: a 120-sample
    // history, i.e. a 110 x 10 lag matrix. Timing one tree over and
    // over on the same rows trains the branch predictor on that tree's
    // comparisons and reads ~40 % low; a forest never fits the same
    // bootstrap twice, so the honest number cycles 100 of them.
    let data = UqDataset::default_dataset();
    let (x, y) = make_supervised(&data.wifi[..120], 10).unwrap();
    let n = x.rows();
    // Knuth's MMIX LCG, top bits: plenty for picking rows.
    let mut state = 42u64;
    let mut draw = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let bootstraps: Vec<(Matrix, Vec<f64>)> = (0..100)
        .map(|_| {
            let idx: Vec<usize> = (0..n).map(|_| draw()).collect();
            (x.select_rows(&idx), idx.iter().map(|&i| y[i]).collect())
        })
        .collect();
    let mut group = c.benchmark_group("tree_fit_distinct_bootstraps");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    for (name, cycle) in [("cycle_100", 100usize), ("same_rows", 1)] {
        group.bench_function(name, |b| {
            let mut k = 0;
            b.iter(|| {
                let (xb, yb) = &bootstraps[k % cycle];
                k += 1;
                let mut t = DecisionTreeRegressor::new();
                t.fit(xb, yb).unwrap();
                black_box(t.node_count())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_forest_size,
    bench_tree_fit_distinct_bootstraps
);
criterion_main!(benches);
