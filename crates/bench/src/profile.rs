//! A **wall-clock** profiling sink for `obsv` traces.
//!
//! `obsv` stamps every record in simulation time; this sink adds the
//! wall clock on the bench side. It pairs `Begin`/`End` records by
//! name on a stack and accumulates *wall* nanoseconds per span name, so
//! `repro sim` can answer "where does the wall time go — water-fill or
//! event dispatch?". It is attached only when a harness explicitly asks
//! for a profile.
//!
//! Sim-time records pass through untouched — attaching this sink in an
//! [`obsv::Fanout`] never perturbs the deterministic trace artifacts.

use obsv::{RecordKind, TraceRecord, TraceSink};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Default)]
struct State {
    /// Open spans: (name, wall start). Pairing is lexical — spans come
    /// from structured code — so a name-matched pop from the top is
    /// enough.
    stack: Vec<(&'static str, Instant)>,
    totals: BTreeMap<&'static str, SpanTotal>,
}

/// Accumulated wall time for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Completed spans.
    pub calls: u64,
    /// Total wall nanoseconds across those spans (inclusive of nested
    /// spans' time).
    pub wall_ns: u64,
}

impl SpanTotal {
    /// Total wall seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }
}

/// The profiling sink. Attach via [`obsv::Fanout`] (or alone) and
/// read [`ProfilingSink::totals`] after the run.
#[derive(Default)]
pub struct ProfilingSink {
    state: Mutex<State>,
}

impl ProfilingSink {
    /// A fresh, shareable sink.
    pub fn shared() -> std::sync::Arc<Self> {
        std::sync::Arc::new(ProfilingSink::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Wall totals per span name, name-sorted.
    pub fn totals(&self) -> Vec<(&'static str, SpanTotal)> {
        self.lock().totals.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// The total for one span name.
    pub fn total(&self, name: &str) -> SpanTotal {
        self.lock().totals.get(name).copied().unwrap_or_default()
    }
}

impl TraceSink for ProfilingSink {
    fn emit(&self, rec: TraceRecord) {
        match rec.kind {
            RecordKind::Begin => {
                // Wall time is a reported measurement, never fed back
                // into any decision or trace artifact.
                let now = Instant::now();
                self.lock().stack.push((rec.name, now));
            }
            RecordKind::End => {
                let mut st = self.lock();
                // Pop the nearest open span with this name; unmatched
                // Ends (span leaked across a panic) are ignored.
                if let Some(pos) = st.stack.iter().rposition(|(n, _)| *n == rec.name) {
                    let (name, start) = st.stack.remove(pos);
                    let wall_ns = start.elapsed().as_nanos() as u64;
                    let t = st.totals.entry(name).or_default();
                    t.calls += 1;
                    t.wall_ns += wall_ns;
                }
            }
            RecordKind::Instant | RecordKind::Counter => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obsv::Tracer;

    #[test]
    fn accumulates_wall_time_per_span_name() {
        let sink = ProfilingSink::shared();
        let t = Tracer::to(sink.clone());
        for i in 0..3u64 {
            let s = t.span("sim", "sim.dispatch", i);
            s.end(i, Vec::new);
        }
        let s = t.span("sim", "sim.waterfill", 10);
        s.end(10, Vec::new);
        let totals = sink.totals();
        let names: Vec<&str> = totals.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["sim.dispatch", "sim.waterfill"]);
        assert_eq!(sink.total("sim.dispatch").calls, 3);
        assert_eq!(sink.total("sim.waterfill").calls, 1);
        assert_eq!(sink.total("absent").calls, 0);
    }

    #[test]
    fn nested_spans_pair_by_name() {
        let sink = ProfilingSink::shared();
        let t = Tracer::to(sink.clone());
        let outer = t.span("r", "epoch", 0);
        let inner = t.span("r", "consult", 0);
        inner.end(0, Vec::new);
        outer.end(1, Vec::new);
        assert_eq!(sink.total("epoch").calls, 1);
        assert_eq!(sink.total("consult").calls, 1);
        assert!(sink.lock().stack.is_empty());
    }
}
