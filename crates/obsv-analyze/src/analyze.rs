//! Streaming trace analyzer over the `obsv` span stream.
//!
//! Consumes records one at a time — either in-memory
//! [`obsv::TraceRecord`]s or JSONL lines as written by
//! [`obsv::export::jsonl`] — and maintains per-span-name aggregates:
//! count, total time, **self time** (total minus time attributed to
//! lexically nested child spans), min/max, and deterministic
//! p50/p95/p99 over a fixed-bucket log histogram. It also accumulates a
//! parent→child edge map from which [`TraceAnalyzer::critical_path`]
//! extracts the heaviest span chain.
//!
//! Determinism contract: aggregates are pure folds over the record
//! stream with `BTreeMap` keying and order-independent histogram
//! merges, so the streaming result is byte-identical to a
//! from-full-trace recomputation (pinned by proptest in
//! `tests/analyzer_equivalence.rs`).
//!
//! Span pairing is lexical, as in `bench::profile`: an `End` closes
//! the most recent unclosed `Begin` of the same name. An `End` with no
//! open `Begin` is counted in [`TraceAnalyzer::dangling_ends`] and
//! otherwise ignored; `Begin`s still open at read time show up in
//! [`TraceAnalyzer::open_spans`].

use obsv::export::{parse_json, Json};
use obsv::{RecordKind, SimNs, TraceRecord, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Upper bucket bounds for [`DurationHistogram`]: a 1–2–5 log ladder
/// from 100 ns to 1e12 ns (1000 s of sim time). Fixed at compile time
/// so two analyzers always agree on bucket edges.
const BUCKET_BOUNDS: [u64; 31] = build_bounds();

const fn build_bounds() -> [u64; 31] {
    let mut b = [0u64; 31];
    let mut base: u64 = 100;
    let mut i = 0;
    while i < 30 {
        b[i] = base;
        b[i + 1] = base * 2;
        b[i + 2] = base * 5;
        base *= 10;
        i += 3;
    }
    b[30] = base;
    b
}

/// Number of counting buckets: a dedicated zero bucket (sim time often
/// does not advance inside controller spans, so exact-zero durations
/// are the common case and deserve an exact quantile), one bucket per
/// bound, and an overflow bucket.
const BUCKETS: usize = BUCKET_BOUNDS.len() + 2;

/// A fixed-bucket duration histogram with deterministic nearest-rank
/// quantiles. Merging two histograms is element-wise addition, so the
/// result is independent of merge order (pinned by proptest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurationHistogram {
    counts: [u64; BUCKETS],
    /// Largest recorded value; used as the representative for the
    /// overflow bucket (max is commutative, so merge order still does
    /// not matter).
    max_ns: u64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            counts: [0; BUCKETS],
            max_ns: 0,
        }
    }
}

impl DurationHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        DurationHistogram::default()
    }

    fn bucket(dur_ns: u64) -> usize {
        if dur_ns == 0 {
            0
        } else {
            // First bound >= dur, shifted past the zero bucket.
            1 + BUCKET_BOUNDS.partition_point(|&b| b < dur_ns)
        }
    }

    /// Records one duration.
    pub fn record(&mut self, dur_ns: u64) {
        self.counts[Self::bucket(dur_ns)] += 1;
        self.max_ns = self.max_ns.max(dur_ns);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Folds another histogram in. Commutative and associative.
    pub fn merge(&mut self, other: &DurationHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), reported as the upper
    /// bound of the bucket holding that rank (0 for the zero bucket,
    /// the observed max for the overflow bucket). Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match i {
                    0 => 0,
                    i if i <= BUCKET_BOUNDS.len() => BUCKET_BOUNDS[i - 1],
                    _ => self.max_ns,
                };
            }
        }
        self.max_ns
    }
}

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanAgg {
    /// Closed span count.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus time inside lexically nested child
    /// spans — where the time was actually spent.
    pub self_ns: u64,
    /// Shortest closed span (0 when none closed).
    pub min_ns: u64,
    /// Longest closed span.
    pub max_ns: u64,
    /// Duration distribution.
    pub hist: DurationHistogram,
    /// Sums of non-negative integer span arguments (e.g. `events`,
    /// `flows`, `cache_hits`) across Begin and End records. Sim time
    /// often stands still inside controller spans, so these work
    /// counters are the deterministic signal the phase table leans on.
    pub arg_sums: BTreeMap<String, u64>,
}

/// Aggregate for one counter track.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterAgg {
    /// Samples seen.
    pub samples: u64,
    /// Most recent value.
    pub last: u64,
    /// Largest value.
    pub max: u64,
}

/// One hop on the critical path: the heaviest child under its parent.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalHop {
    /// Span name.
    pub name: String,
    /// Total time attributed to this parent→child edge.
    pub total_ns: u64,
    /// Times the edge occurred.
    pub count: u64,
}

#[derive(Debug)]
struct OpenSpan {
    name: String,
    begin_ns: SimNs,
    child_ns: u64,
}

#[derive(Debug, Clone, PartialEq, Default)]
struct Edge {
    count: u64,
    total_ns: u64,
}

/// The streaming analyzer. Feed records in emission order via
/// [`push_record`](TraceAnalyzer::push_record) or
/// [`push_jsonl`](TraceAnalyzer::push_jsonl); read aggregates at any
/// point. Instant events count as records and aggregate nowhere.
#[derive(Debug, Default)]
pub struct TraceAnalyzer {
    stack: Vec<OpenSpan>,
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, CounterAgg>,
    /// Parent name ("" at the root) → child name edges.
    edges: BTreeMap<(String, String), Edge>,
    records: u64,
    dangling_ends: u64,
}

/// Extracts the summable arguments of a record: non-negative integer
/// values (U64, non-negative I64, and finite non-negative integral
/// F64 — the same set a JSONL round-trip preserves).
fn u64_args(args: &[(&'static str, Value)]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (k, v) in args {
        let n = match v {
            Value::U64(n) => Some(*n),
            Value::I64(n) if *n >= 0 => Some(*n as u64),
            Value::F64(x)
                if x.is_finite() && *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 =>
            {
                Some(*x as u64)
            }
            _ => None,
        };
        if let Some(n) = n {
            out.push(((*k).to_string(), n));
        }
    }
    out
}

impl TraceAnalyzer {
    /// An empty analyzer.
    pub fn new() -> Self {
        TraceAnalyzer::default()
    }

    /// Feeds one in-memory record.
    pub fn push_record(&mut self, rec: &TraceRecord) {
        let args = u64_args(&rec.args);
        self.ingest(rec.at_ns, rec.kind, rec.name, &args);
    }

    /// Feeds every record in emission order.
    pub fn push_records(&mut self, recs: &[TraceRecord]) {
        for r in recs {
            self.push_record(r);
        }
    }

    /// Feeds one JSONL line as written by [`obsv::export::jsonl`].
    /// Blank lines are ignored.
    fn push_jsonl_line(&mut self, line: &str) -> Result<(), String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        let v = parse_json(line)?;
        let at_ns = match v.get("at_ns") {
            Some(Json::Num(x)) if x.is_finite() && *x >= 0.0 => *x as u64,
            _ => return Err("missing or bad at_ns".into()),
        };
        let kind = match v.get("ph").and_then(Json::as_str) {
            Some("B") => RecordKind::Begin,
            Some("E") => RecordKind::End,
            Some("i") => RecordKind::Instant,
            Some("C") => RecordKind::Counter,
            other => return Err(format!("bad phase {other:?}")),
        };
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name")?
            .to_string();
        let mut args = Vec::new();
        if let Some(Json::Obj(m)) = v.get("args") {
            for (k, av) in m {
                if let Json::Num(x) = av {
                    if x.is_finite() && *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 {
                        args.push((k.clone(), *x as u64));
                    }
                }
            }
        }
        self.ingest(at_ns, kind, &name, &args);
        Ok(())
    }

    /// Feeds a whole JSONL document; returns the number of non-blank
    /// lines consumed.
    pub fn push_jsonl(&mut self, text: &str) -> Result<usize, String> {
        let mut n = 0;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            self.push_jsonl_line(line)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            n += 1;
        }
        Ok(n)
    }

    fn ingest(&mut self, at_ns: SimNs, kind: RecordKind, name: &str, args: &[(String, u64)]) {
        self.records += 1;
        match kind {
            RecordKind::Begin => {
                self.add_arg_sums(name, args);
                self.stack.push(OpenSpan {
                    name: name.to_string(),
                    begin_ns: at_ns,
                    child_ns: 0,
                });
            }
            RecordKind::End => {
                let Some(pos) = self.stack.iter().rposition(|s| s.name == name) else {
                    self.dangling_ends += 1;
                    return;
                };
                let open = self.stack.remove(pos);
                let dur = at_ns.saturating_sub(open.begin_ns);
                let parent = if pos > 0 {
                    let p = &mut self.stack[pos - 1];
                    p.child_ns += dur;
                    p.name.clone()
                } else {
                    String::new()
                };
                let edge = self.edges.entry((parent, name.to_string())).or_default();
                edge.count += 1;
                edge.total_ns += dur;
                self.add_arg_sums(name, args);
                let agg = self.spans.entry(name.to_string()).or_default();
                agg.min_ns = if agg.count == 0 {
                    dur
                } else {
                    agg.min_ns.min(dur)
                };
                agg.max_ns = agg.max_ns.max(dur);
                agg.count += 1;
                agg.total_ns += dur;
                agg.self_ns += dur.saturating_sub(open.child_ns);
                agg.hist.record(dur);
            }
            RecordKind::Instant => {}
            RecordKind::Counter => {
                let c = self.counters.entry(name.to_string()).or_default();
                c.samples += 1;
                if let Some((_, v)) = args.iter().find(|(k, _)| k == "value") {
                    c.last = *v;
                    c.max = c.max.max(*v);
                }
            }
        }
    }

    fn add_arg_sums(&mut self, name: &str, args: &[(String, u64)]) {
        if args.is_empty() {
            return;
        }
        let agg = self.spans.entry(name.to_string()).or_default();
        for (k, v) in args {
            *agg.arg_sums.entry(k.clone()).or_default() += v;
        }
    }

    /// The aggregate for one span name, if any record mentioned it.
    pub fn span(&self, name: &str) -> Option<&SpanAgg> {
        self.spans.get(name)
    }

    /// All span aggregates, sorted by name.
    pub fn spans(&self) -> impl Iterator<Item = (&str, &SpanAgg)> {
        self.spans.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The aggregate for one counter track.
    pub fn counter(&self, name: &str) -> Option<&CounterAgg> {
        self.counters.get(name)
    }

    /// Records consumed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// `End` records that matched no open `Begin`.
    pub fn dangling_ends(&self) -> u64 {
        self.dangling_ends
    }

    /// Spans begun but not yet ended.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// Walks the heaviest parent→child chain from the root: at each
    /// level picks the child with the largest total time, breaking
    /// ties by count (descending) then name (ascending), so the path
    /// is fully deterministic even in an all-zero-duration trace.
    pub fn critical_path(&self) -> Vec<CriticalHop> {
        let mut path = Vec::new();
        let mut current = String::new();
        let mut visited = std::collections::BTreeSet::new();
        while path.len() < 64 {
            let mut best: Option<(&str, &Edge)> = None;
            for ((parent, child), edge) in &self.edges {
                if *parent != current || visited.contains(child.as_str()) {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bname, b)) => {
                        (edge.total_ns, edge.count, std::cmp::Reverse(child.as_str()))
                            > (b.total_ns, b.count, std::cmp::Reverse(bname))
                    }
                };
                if better {
                    best = Some((child, edge));
                }
            }
            let Some((name, edge)) = best else { break };
            path.push(CriticalHop {
                name: name.to_string(),
                total_ns: edge.total_ns,
                count: edge.count,
            });
            visited.insert(name.to_string());
            current = name.to_string();
        }
        path
    }

    /// Renders the phase-budget table for the given span names, in the
    /// given order, with a row even for phases that never fired. Sim
    /// durations are milliseconds; the work column shows the largest
    /// summed integer args (the deterministic signal for zero-duration
    /// controller phases).
    pub fn render_phase_table(&self, phases: &[&str]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<26}{:>8}{:>12}{:>12}{:>10}{:>10}{:>10}  work",
            "phase", "count", "total ms", "self ms", "p50 ms", "p95 ms", "p99 ms"
        );
        let empty = SpanAgg::default();
        for name in phases {
            let agg = self.spans.get(*name).unwrap_or(&empty);
            let work = render_work(&agg.arg_sums);
            let _ = writeln!(
                out,
                "{:<26}{:>8}{:>12}{:>12}{:>10}{:>10}{:>10}  {}",
                name,
                agg.count,
                ms(agg.total_ns),
                ms(agg.self_ns),
                ms(agg.hist.quantile(0.50)),
                ms(agg.hist.quantile(0.95)),
                ms(agg.hist.quantile(0.99)),
                work
            );
        }
        out
    }

    /// Renders the critical path as one line, e.g.
    /// `scenario.epoch (60x, 59000.000 ms) -> sim.dispatch (..)`.
    pub fn render_critical_path(&self) -> String {
        let path = self.critical_path();
        if path.is_empty() {
            return "critical path: (no spans)".to_string();
        }
        let hops: Vec<String> = path
            .iter()
            .map(|h| format!("{} ({}x, {} ms)", h.name, h.count, ms(h.total_ns)))
            .collect();
        format!("critical path: {}", hops.join(" -> "))
    }
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// The top summed args (by value descending, then key ascending), at
/// most three, as `k=v` pairs.
fn render_work(sums: &BTreeMap<String, u64>) -> String {
    let mut items: Vec<(&str, u64)> = sums.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    items
        .iter()
        .take(3)
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use obsv::{RecordingSink, TraceSink, Tracer};
    use std::sync::Arc;

    fn trace_nested() -> Vec<TraceRecord> {
        let sink = RecordingSink::shared();
        let t = Tracer::to(sink.clone() as Arc<dyn TraceSink>);
        let outer = t.span("runner", "scenario.epoch", 0);
        let inner = t.span("sim", "sim.dispatch", 100);
        inner.end(400, || vec![("events", Value::U64(7))]);
        let inner2 = t.span("sim", "sim.waterfill", 400);
        inner2.end(600, Vec::new);
        outer.end(1_000, Vec::new);
        t.instant("packet", "packet.drop", 700, Vec::new);
        t.counter("sim", "sim.queue_depth", 800, 5);
        sink.take()
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut a = TraceAnalyzer::new();
        a.push_records(&trace_nested());
        let epoch = a.span("scenario.epoch").unwrap();
        assert_eq!(epoch.count, 1);
        assert_eq!(epoch.total_ns, 1_000);
        // 1000 total minus 300 (dispatch) minus 200 (waterfill).
        assert_eq!(epoch.self_ns, 500);
        let d = a.span("sim.dispatch").unwrap();
        assert_eq!(
            (d.total_ns, d.self_ns, d.min_ns, d.max_ns),
            (300, 300, 300, 300)
        );
        assert_eq!(d.arg_sums.get("events"), Some(&7));
        assert_eq!(a.counter("sim.queue_depth").unwrap().last, 5);
        assert_eq!(a.open_spans(), 0);
        assert_eq!(a.dangling_ends(), 0);
    }

    #[test]
    fn jsonl_ingest_matches_record_ingest() {
        let recs = trace_nested();
        let mut from_recs = TraceAnalyzer::new();
        from_recs.push_records(&recs);
        let mut from_text = TraceAnalyzer::new();
        from_text.push_jsonl(&obsv::export::jsonl(&recs)).unwrap();
        assert_eq!(
            from_recs.render_phase_table(&["scenario.epoch", "sim.dispatch", "sim.waterfill"]),
            from_text.render_phase_table(&["scenario.epoch", "sim.dispatch", "sim.waterfill"]),
        );
        assert_eq!(
            from_recs.render_critical_path(),
            from_text.render_critical_path()
        );
    }

    #[test]
    fn critical_path_walks_heaviest_chain() {
        let mut a = TraceAnalyzer::new();
        a.push_records(&trace_nested());
        let path = a.critical_path();
        let names: Vec<&str> = path.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["scenario.epoch", "sim.dispatch"]);
    }

    #[test]
    fn dangling_end_is_counted_not_crashed() {
        let mut a = TraceAnalyzer::new();
        a.push_record(&TraceRecord {
            at_ns: 5,
            kind: RecordKind::End,
            cat: "x",
            name: "orphan",
            args: vec![],
        });
        assert_eq!(a.dangling_ends(), 1);
        assert!(a.span("orphan").is_none());
    }

    #[test]
    fn histogram_quantiles_are_nearest_rank_bucket_bounds() {
        let mut h = DurationHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for _ in 0..90 {
            h.record(0);
        }
        for _ in 0..10 {
            h.record(150); // bucket bound 200
        }
        assert_eq!(h.quantile(0.50), 0);
        assert_eq!(h.quantile(0.95), 200);
        h.record(5_000_000_000_000); // overflow bucket
        assert_eq!(h.quantile(1.0), 5_000_000_000_000);
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = DurationHistogram::new();
        let mut b = DurationHistogram::new();
        a.record(0);
        a.record(120);
        b.record(950);
        b.record(10_000);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 4);
    }

    #[test]
    fn phase_table_renders_missing_phases_as_zero_rows() {
        let a = TraceAnalyzer::new();
        let table = a.render_phase_table(&["decide.forecast"]);
        assert!(table.contains("decide.forecast"));
        assert!(table.lines().count() == 2);
    }
}
