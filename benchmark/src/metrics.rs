//! The declared metrics — the same tables `BENCHMARK.json` and the
//! README carry — and the result records the runs produce.

use obsv::export::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse a metric may get before `compare` says `worse`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline value.
    Rel(f64),
    /// Absolute amount, for ratios whose healthy value is (near) zero.
    Abs(f64),
}

/// An end-to-end metric: measured by the untraced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Workloads it is defined on; empty = all of them.
    pub workloads: &'static [&'static str],
}

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }

    /// Declared in `BENCHMARK.json`: that file gates a metric on every
    /// workload by a share of its (never zero) median, so it carries the
    /// metrics defined everywhere with a relative bound. The rest are
    /// gated by `loopbench compare` on `report.json`.
    pub fn in_contract(&self) -> bool {
        self.workloads.is_empty() && matches!(self.bound, Bound::Rel(_))
    }
}

const FLUID: &[&str] = &["wan-steady", "wan-arrivals", "waxman-elastic"];

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, Bound::Rel(0.25), &[]),
    e2e("epochs_per_s", "1/s", Better::Higher, Bound::Rel(0.25), &[]),
    e2e(
        "decision_latency_ms_p50",
        "ms",
        Better::Lower,
        Bound::Rel(0.25),
        &[],
    ),
    e2e(
        "decision_latency_ms_p75",
        "ms",
        Better::Lower,
        Bound::Rel(0.25),
        &["wan-steady"],
    ),
    e2e(
        "admit_latency_ms_p50",
        "ms",
        Better::Lower,
        Bound::Rel(0.25),
        &["wan-arrivals"],
    ),
    e2e(
        "admit_latency_ms_p95",
        "ms",
        Better::Lower,
        Bound::Rel(0.25),
        &["wan-arrivals"],
    ),
    e2e(
        "sim_events_per_s",
        "1/s",
        Better::Higher,
        Bound::Rel(0.25),
        FLUID,
    ),
    e2e(
        "packets_per_s",
        "1/s",
        Better::Higher,
        Bound::Rel(0.25),
        &["fattree-packet"],
    ),
    e2e(
        "goodput_mbps",
        "Mbps",
        Better::Higher,
        Bound::Rel(0.05),
        &[],
    ),
    e2e(
        "slo_violation_ratio",
        "ratio",
        Better::Lower,
        Bound::Abs(0.01),
        &[],
    ),
    e2e(
        "packet_loss_ratio",
        "ratio",
        Better::Lower,
        Bound::Abs(0.01),
        &["fattree-packet"],
    ),
    e2e(
        "failed_ops_ratio",
        "ratio",
        Better::Lower,
        Bound::Abs(0.0),
        &[],
    ),
    e2e("peak_rss_mb", "MB", Better::Lower, Bound::Rel(0.15), &[]),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    workloads: &'static [&'static str],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        workloads,
    }
}

/// A per-layer metric: measured by the traced run, never gated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Needs both runs of a workload, so only `all` can report it.
pub const TRACE_OVERHEAD: PerLayer = layer("trace.overhead_ratio", "ratio", Better::Lower);

use Better::{Higher as H, Lower as L};

/// Every per-layer metric one traced run reports, layer by layer. The
/// README lists which end-to-end metric each should move, where.
pub const PER_LAYER: &[PerLayer] = &[
    layer("netsim.run_ms", "ms", L),
    layer("netsim.run_calls", "count", L),
    layer("netsim.schedule_ms", "ms", L),
    layer("netsim.events", "count", L),
    layer("netsim.us_per_event", "us", L),
    layer("netsim.incremental_solves", "count", L),
    layer("netsim.full_solves", "count", L),
    layer("netsim.expansions", "count", L),
    layer("netsim.fast_path_events", "count", H),
    layer("netsim.full_solve_ratio", "ratio", L),
    layer("telemetry.collect_ms", "ms", L),
    layer("telemetry.collect_calls", "count", L),
    layer("telemetry.series", "count", L),
    layer("telemetry.inserts", "count", L),
    layer("hecate.forecast_ms", "ms", L),
    layer("hecate.forecast_calls", "count", L),
    layer("hecate.refits", "count", L),
    layer("hecate.updates", "count", L),
    layer("hecate.hits", "count", H),
    layer("hecate.refit_ratio", "ratio", L),
    layer("hecate.ms_per_refit", "ms", L),
    layer("controller.admit_ms", "ms", L),
    layer("controller.admit_calls", "count", L),
    layer("controller.admitted_flows", "count", H),
    layer("optimizer.reoptimize_ms", "ms", L),
    layer("optimizer.reoptimize_calls", "count", L),
    layer("optimizer.migrations", "count", L),
    layer("waterfill.incremental_solves", "count", L),
    layer("waterfill.full_solves", "count", L),
    layer("waterfill.expansions", "count", L),
    layer("waterfill.fast_path_events", "count", H),
    layer("waterfill.audit_ok", "count", H),
    layer("dataloop.packet_epoch_ms", "ms", L),
    layer("dataloop.packet_epoch_calls", "count", L),
    layer("dataplane.packets_delivered", "count", H),
    layer("dataplane.packets_dropped", "count", L),
    layer("dataplane.pot_rejected", "count", L),
    layer("dataplane.ingress_rewrites", "count", L),
    layer("dataplane.us_per_packet", "us", L),
    layer("hecate-ml.fit_ms", "ms", L),
    layer("hecate-ml.roll_us", "us", L),
    layer("telemetry.insert_ns", "ns", L),
    layer("optimizer.link_model_us", "us", L),
    layer("optimizer.assign_us", "us", L),
    layer("waterfill.patch_resolve_us", "us", L),
    layer("polka.compile_us", "us", L),
    layer("polka.forward_ns", "ns", L),
    layer("freertr.set_pbr_us", "us", L),
    layer("netsim.path_query_ns", "ns", L),
    layer("dataplane.forward_batch_ns_per_pkt", "ns", L),
    layer("bench.score_ms", "ms", L),
    layer("loop.unattributed_ms", "ms", L),
    layer("loop.unattributed_share", "ratio", L),
];

/// The unit a per-layer metric is declared with.
///
/// # Panics
/// If `name` is not in [`PER_LAYER`]: reporting an undeclared metric is
/// a bug in the benchmark.
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
        .unit
}

/// One measured value; timings carry their sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub unit: String,
    pub value: f64,
    pub n: Option<usize>,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub epochs: u64,
    pub cores: usize,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub checks: Vec<String>,
    pub metrics: BTreeMap<String, Measured>,
    /// Outputs that depend on shape, seed and epoch count alone; the
    /// traced and untraced runs of one seed must agree on them.
    pub deterministic: BTreeMap<String, f64>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.is_empty()
    }

    pub fn put(&mut self, name: &str, unit: &str, value: f64, n: Option<usize>) {
        self.metrics.insert(
            name.to_string(),
            Measured {
                unit: unit.to_string(),
                value,
                n,
            },
        );
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
            let _ = writeln!(out, "  {name:<36} {:>16.4} {}{n}", m.value, m.unit);
        }
        out
    }

    /// The contract's last line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, the metrics being the declared set of this
    /// run's mode.
    pub fn contract_line(&self) -> String {
        let declared: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.in_contract())
                .map(|m| m.name)
                .collect()
        };
        let metrics: Vec<String> = declared
            .iter()
            .map(|name| {
                let m = &self.metrics[*name];
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    num(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn to_json(&self) -> String {
        let deterministic: Vec<String> = self
            .deterministic
            .iter()
            .map(|(name, v)| format!("{}: {}", quote(name), num(*v)))
            .collect();
        let checks: Vec<String> = self.checks.iter().map(|c| quote(c)).collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \
             \"epochs\": {},\n  \"cores\": {},\n  \"wall_s\": {},\n  \"correct\": {},\n  \
             \"attempted\": {},\n  \"failed\": {},\n  \"checks\": [{}],\n  \
             \"deterministic\": {{{}}},\n  \"metrics\": {}\n}}\n",
            quote(&self.workload),
            self.seed,
            self.seconds,
            self.traced,
            self.epochs,
            self.cores,
            num(self.wall_s),
            self.correct(),
            self.attempted,
            self.failed,
            checks.join(", "),
            deterministic.join(", "),
            metrics_json(&self.metrics, "  "),
        )
    }

    pub fn from_json(src: &str) -> Result<RunResult, String> {
        let j = obsv::export::parse_json(src)?;
        let number = |key: &str| match j.get(key) {
            Some(Json::Num(v)) => Ok(*v),
            _ => Err(format!("result has no number {key:?}")),
        };
        let Some(Json::Bool(traced)) = j.get("traced") else {
            return Err("result has no \"traced\"".into());
        };
        let Some(Json::Obj(deterministic)) = j.get("deterministic") else {
            return Err("result has no \"deterministic\"".into());
        };
        Ok(RunResult {
            workload: j
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("result has no \"workload\"")?
                .to_string(),
            seed: number("seed")? as u64,
            seconds: number("seconds")? as u64,
            traced: *traced,
            epochs: number("epochs")? as u64,
            cores: number("cores")? as usize,
            wall_s: number("wall_s")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            checks: j
                .get("checks")
                .and_then(Json::as_arr)
                .ok_or("result has no \"checks\"")?
                .iter()
                .filter_map(|c| c.as_str().map(str::to_string))
                .collect(),
            metrics: metrics_from_json(j.get("metrics"))?,
            deterministic: deterministic
                .iter()
                .filter_map(|(k, v)| match v {
                    Json::Num(v) => Some((k.clone(), *v)),
                    _ => None,
                })
                .collect(),
        })
    }
}

/// A `{name: {value, unit, n?}}` object, one metric per line, closing
/// brace at `indent`.
pub fn metrics_json(metrics: &BTreeMap<String, Measured>, indent: &str) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            let n = m.n.map_or(String::new(), |n| format!(", \"n\": {n}"));
            format!(
                "{indent}  {}: {{\"value\": {}, \"unit\": {}{n}}}",
                quote(name),
                num(m.value),
                quote(&m.unit)
            )
        })
        .collect();
    format!("{{\n{}\n{indent}}}", rows.join(",\n"))
}

/// Parses a `{name: {value, unit, n?}}` object.
pub fn metrics_from_json(j: Option<&Json>) -> Result<BTreeMap<String, Measured>, String> {
    let Some(Json::Obj(map)) = j else {
        return Err("expected an object of metrics".into());
    };
    map.iter()
        .map(|(name, m)| {
            let (Some(Json::Num(value)), Some(unit)) =
                (m.get("value"), m.get("unit").and_then(Json::as_str))
            else {
                return Err(format!("metric {name:?} lacks value/unit"));
            };
            let n = match m.get("n") {
                Some(Json::Num(n)) => Some(*n as usize),
                _ => None,
            };
            Ok((
                name.clone(),
                Measured {
                    unit: unit.to_string(),
                    value: *value,
                    n,
                },
            ))
        })
        .collect()
}

/// A JSON number with all its digits (Rust prints the shortest string
/// that round-trips); non-finite values have no JSON form.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
