//! From-outside spans: the driver brackets each call into a layer's
//! public function, keeps the spans in memory, and flushes them once
//! the run is over. No `obsv` tracer is armed (README: that would make
//! `forecast_all` serialise its fan-out, i.e. measure another program).

use crate::clock::now_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One bracketed call. `parent` indexes the recorder's span list;
/// spans of one loop iteration share `epoch`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub epoch: u64,
}

/// In-memory span recorder. Disabled, [`Recorder::span`] is a plain
/// call: the untraced run reads no clock on behalf of tracing.
#[derive(Debug, Default)]
pub struct Recorder {
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            ..Self::default()
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span under the innermost open one; `None` when disabled.
    pub fn begin(&mut self, name: &'static str, epoch: u64) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            epoch,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span [`Recorder::begin`] returned (spans nest, so it
    /// is the innermost open one).
    pub fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost-first");
            self.spans[id as usize].end_ns = now_ns();
        }
    }

    /// Brackets one call.
    pub fn span<R>(&mut self, name: &'static str, epoch: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, epoch);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent, epoch}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"epoch\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.epoch
            );
        }
        out
    }
}

/// Per-name aggregate over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Row {
    pub calls: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by direct children.
    pub self_ns: u64,
}

/// The per-layer budget of one timed window.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    pub rows: BTreeMap<&'static str, Row>,
    pub wall_ns: u64,
    /// Sum of top-level (parentless) span durations.
    pub top_level_ns: u64,
}

impl Budget {
    /// Builds the budget of the window `[start_ns, end_ns]` the spans
    /// were recorded in.
    pub fn of(spans: &[Span], start_ns: u64, end_ns: u64) -> Self {
        let mut children_ns = vec![0u64; spans.len()];
        let mut budget = Budget {
            wall_ns: end_ns - start_ns,
            ..Self::default()
        };
        for s in spans {
            let dur = s.end_ns - s.start_ns;
            match s.parent {
                Some(p) => children_ns[p as usize] += dur,
                None => budget.top_level_ns += dur,
            }
        }
        for (s, child_ns) in spans.iter().zip(children_ns) {
            let dur = s.end_ns - s.start_ns;
            let row = budget.rows.entry(s.name).or_default();
            row.calls += 1;
            row.total_ns += dur;
            row.self_ns += dur - child_ns;
        }
        budget
    }

    /// Wall time no top-level span covers.
    pub fn unattributed_ns(&self) -> u64 {
        self.wall_ns - self.top_level_ns
    }

    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns() as f64 / self.wall_ns.max(1) as f64
    }

    pub fn row(&self, name: &str) -> Row {
        self.rows.get(name).copied().unwrap_or_default()
    }

    /// Self time of `name` in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.row(name).self_ns as f64 / 1e6
    }
}
