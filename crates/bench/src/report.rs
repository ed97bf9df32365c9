//! The unified `bench/v1` report file the `repro` subcommands share.
//!
//! Each subcommand measures its own corner of the system; this module
//! folds those measurements into one `BENCH_report.json` by upserting a
//! named [`Section`] per invocation (read-modify-write, so `repro sim`
//! followed by `repro throughput` accumulates both sections). CI diffs
//! the accumulated report against the committed `BENCH_baseline.json`
//! with `repro bench-diff`; the baseline's per-metric classes and
//! tolerance bands decide what gates.
//!
//! The destination honors the `BENCH_REPORT` environment variable so a
//! harness can write two same-seed runs to different files and assert
//! their diff is clean.

use obsv_analyze::{BenchReport, Metric, Section};
use std::path::PathBuf;

/// Where the unified report lives: `$BENCH_REPORT`, defaulting to
/// `BENCH_report.json` in the working directory.
fn report_path() -> PathBuf {
    std::env::var("BENCH_REPORT")
        .unwrap_or_else(|_| "BENCH_report.json".into())
        .into()
}

/// Upserts one section into the on-disk report. A malformed or missing
/// existing file starts a fresh report; write failures are reported but
/// never fail the measurement run itself (the gate that *consumes* the
/// file is where absence fails).
pub fn write_section(name: &str, smoke: bool, metrics: Vec<(&str, Metric)>) {
    let path = report_path();
    let mut report = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| BenchReport::parse(&s).ok())
        .unwrap_or_default();
    let mut section = Section {
        smoke,
        metrics: Default::default(),
    };
    for (k, m) in metrics {
        section.metrics.insert(k.to_string(), m);
    }
    report.set_section(name, section);
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => println!("wrote section {:?} to {}", name, path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
