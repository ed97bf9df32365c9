//! loopbench: one closed-loop benchmark of the whole telemetry → Hecate
//! → optimizer → PolKA → plane cycle, with a per-layer budget that adds
//! up. See `benchmark/README.md`.

pub mod clock;
pub mod compare;
pub mod driver;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// `run_seconds` of `BENCHMARK.json`: what `run`/`all` measure for when
/// `--seconds` is not given.
pub const DEFAULT_SECONDS: u64 = 10;
/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 11;
/// Where result files and traces go, relative to the repo root the
/// benchmark is run from.
pub const OUT_DIR: &str = "benchmark/out";
