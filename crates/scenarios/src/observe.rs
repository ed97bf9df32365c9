//! Observability plumbing for scenario runs: what to record, and what
//! an observed run hands back besides its scorecard.
//!
//! The runner owns the [`obsv::Obsv`] bundle for a run — it builds the
//! sink stack from [`ObsvOptions`], threads the bundle through
//! `SelfDrivingNetwork::set_obsv` (which fans it out to the fluid sim,
//! the Hecate cache and the packet plane), and folds the results into
//! [`ObsvArtifacts`]. Everything here is deterministic: records are
//! stamped in simulation nanoseconds, so two observed runs of the same
//! scenario produce byte-identical JSONL (proptest-pinned in
//! `tests/determinism.rs`).

use std::sync::Arc;

/// Cap on SLO-violation flight dumps per run (first violations win).
/// Violations can recur every epoch; the artifacts must stay bounded.
pub const MAX_SLO_DUMPS: usize = 4;

/// What the runner should observe beyond the scorecard. The default is
/// fully off — [`Scenario::run`](crate::Scenario::run) uses it, and the
/// run then carries a no-op tracer that emits and allocates nothing.
#[derive(Clone, Default)]
pub struct ObsvOptions {
    /// Buffer every trace record in memory for export.
    pub trace: bool,
    /// Fold per-epoch metric snapshots into the scorecard's
    /// [`MetricsSection`](crate::scorecard::MetricsSection).
    pub snapshots: bool,
    /// Flight-recorder ring capacity in records; `0` disables it. When
    /// on, the tail of the trace is dumped on SLO-violation epochs
    /// (at most [`MAX_SLO_DUMPS`]).
    pub flight_capacity: usize,
    /// Extra sink fanned out alongside the built-ins — the bench
    /// harness hangs its wall-clock profiler here.
    pub extra_sink: Option<Arc<dyn obsv::TraceSink>>,
}

impl std::fmt::Debug for ObsvOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsvOptions")
            .field("trace", &self.trace)
            .field("snapshots", &self.snapshots)
            .field("flight_capacity", &self.flight_capacity)
            .field("extra_sink", &self.extra_sink.is_some())
            .finish()
    }
}

impl ObsvOptions {
    /// Nothing observed; the run is exactly `Scenario::run`.
    pub fn off() -> Self {
        ObsvOptions::default()
    }

    /// Everything on: full trace buffer, per-epoch metric snapshots,
    /// and a 4096-record flight recorder.
    pub fn full() -> Self {
        ObsvOptions {
            trace: true,
            snapshots: true,
            flight_capacity: 4096,
            extra_sink: None,
        }
    }
}

/// What one observed run produced besides its scorecard.
#[derive(Debug, Default)]
pub struct ObsvArtifacts {
    /// Every trace record, in emission order (empty unless
    /// [`ObsvOptions::trace`] was set).
    pub records: Vec<obsv::TraceRecord>,
    /// Final registry snapshot (present when snapshots were on).
    pub metrics: Option<obsv::MetricsSnapshot>,
    /// `(epoch, JSONL dump)` flight-recorder captures from
    /// SLO-violation epochs, at most [`MAX_SLO_DUMPS`].
    pub slo_dumps: Vec<(u64, String)>,
}

impl ObsvArtifacts {
    /// The full trace as JSONL (one record per line) — the
    /// byte-identical replay artifact.
    pub fn jsonl(&self) -> String {
        obsv::export::jsonl(&self.records)
    }

    /// The full trace as Chrome trace-event JSON (load in Perfetto or
    /// `chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        obsv::export::chrome_trace(&self.records)
    }

    /// Names of distinct spans present in the trace, sorted.
    pub fn span_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .records
            .iter()
            .filter(|r| r.kind == obsv::RecordKind::Begin)
            .map(|r| r.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}
