//! Deterministic sim-time observability for the control loop.
//!
//! Three pillars, all dependency-free and all stamped in **simulation
//! nanoseconds** (never wall-clock, so the workspace determinism
//! contract holds by construction):
//!
//! 1. **Structured tracing** ([`Tracer`], [`TraceSink`]) — spans and
//!    instant events with `&'static str` names and lazily-built
//!    arguments. The disabled tracer is a `None` sink: every call is an
//!    inlined branch that emits nothing and allocates nothing.
//! 2. **Metrics** ([`Registry`], [`Counter`], [`Gauge`],
//!    [`Histogram`]) — deterministic instruments with sorted,
//!    bit-replayable [`Registry::snapshot`]s. The hand-rolled stats
//!    structs that used to live in `netsim::fairness` and
//!    `framework::hecate` are now thin snapshots over these counters.
//! 3. **Exporters + flight recorder** ([`export`], [`FlightRecorder`])
//!    — JSONL and Chrome trace-event (Perfetto-loadable) writers, plus
//!    a bounded ring of the most recent records for post-mortem dumps
//!    on SLO violations and panics.
//!
//! Wall-clock profiling is not here: the bench harness attaches its
//! own sink (`bench::profile::ProfilingSink`) through [`TraceSink`].
//!
//! Two runs of the same scenario with the same seed produce
//! byte-identical JSONL traces — traces are testable artifacts, pinned
//! by proptests in `crates/scenarios`.

pub mod export;
mod flight;
mod metrics;
mod trace;

pub use flight::{install_panic_dump, FlightRecorder};
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry, SnapshotValue};
pub use trace::{
    Fanout, RecordKind, RecordingSink, SimClock, SimNs, Span, TraceRecord, TraceSink, Tracer, Value,
};

/// The observability bundle a component is handed: a tracer plus a
/// metrics registry. Cloning is cheap (two `Arc` handles); the default
/// is fully off — a no-op tracer and an empty registry.
#[derive(Debug, Clone, Default)]
pub struct Obsv {
    /// Structured trace facade (may be off).
    pub tracer: Tracer,
    /// Shared instrument registry.
    pub metrics: Registry,
}

impl Obsv {
    /// A disabled bundle: no-op tracer, fresh registry. Metrics are
    /// still live (they are cheap atomics); only tracing is gated.
    pub fn off() -> Self {
        Obsv::default()
    }

    /// A bundle tracing into `sink`.
    pub fn to(sink: std::sync::Arc<dyn TraceSink>) -> Self {
        Obsv {
            tracer: Tracer::to(sink),
            metrics: Registry::default(),
        }
    }
}
