//! Bench: fit+predict cost of the Fig 6 regressors on the UQ-sized
//! workload (365 training windows, 10 lags). The paper runs all 18; we
//! bench a representative spread (fastest linear, the chosen RFR, the
//! boosted models, and the kernel methods). RFR is the exception: it
//! is the model the control loop refits, so its case times exactly that
//! fit — `TrainedForecaster::fit` on a 120-sample history, what
//! `HecateService::fit_entry` runs per series per consult.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hecate_ml::pipeline::TrainedForecaster;
use hecate_ml::{evaluate_regressor, PipelineConfig, RegressorKind};
use std::hint::black_box;
use traces::UqDataset;

fn bench_fit(c: &mut Criterion) {
    let data = UqDataset::default_dataset();
    let cfg = PipelineConfig::default();
    let mut group = c.benchmark_group("regressor_fit_uq");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    for kind in [
        RegressorKind::Lr,
        RegressorKind::Ridge,
        RegressorKind::Lasso,
        RegressorKind::Dtr,
        RegressorKind::Gbr,
        RegressorKind::Hgbr,
        RegressorKind::Gpr,
        RegressorKind::SvmRbf,
        RegressorKind::TheilSenR,
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(kind.label()), &kind, |b, &k| {
            b.iter(|| black_box(evaluate_regressor(k, &data.wifi, &cfg).unwrap().rmse))
        });
    }
    let history = &data.wifi[..120];
    group.bench_function("RFR/120-sample-history", |b| {
        b.iter(|| {
            let fit = TrainedForecaster::fit(RegressorKind::Rfr, history, cfg.lags, cfg.seed);
            black_box(fit.unwrap().trained_on())
        })
    });
    group.finish();
}

fn bench_forecast(c: &mut Criterion) {
    // The framework's hot path: one recursive 10-step forecast.
    let data = UqDataset::default_dataset();
    let history = &data.wifi[..120];
    let mut group = c.benchmark_group("hecate_forecast_10step");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    for kind in [RegressorKind::Lr, RegressorKind::Rfr] {
        group.bench_with_input(BenchmarkId::from_parameter(kind.label()), &kind, |b, &k| {
            b.iter(|| black_box(hecate_ml::pipeline::forecast_next(k, history, 10, 10, 7).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fit, bench_forecast);
criterion_main!(benches);
