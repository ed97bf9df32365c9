//! Shared workload setup for the benchmark harness and the
//! figure-reproduction binary (`repro`).
//!
//! One module per paper artifact: each `figN` function regenerates the
//! data behind that figure and returns it as printable rows, so the
//! `repro` binary, the integration tests and EXPERIMENTS.md all draw from
//! the same code path.

// Wall-clock timing is this crate's purpose; detlint exempts
// crates/bench from its wall-clock rule for the same reason.
#![allow(clippy::disallowed_methods)]

pub mod figures;
pub mod profile;
pub mod report;

/// Formats a `(time, value)` series as aligned rows, one every `step`.
pub fn format_series(header: &str, series: &[(f64, f64)], step: usize) -> String {
    let mut out = String::new();
    out.push_str(header);
    out.push('\n');
    for (t, v) in series.iter().step_by(step.max(1)) {
        out.push_str(&format!("  t={t:7.1}  {v:10.3}\n"));
    }
    out
}
