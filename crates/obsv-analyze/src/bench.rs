//! The `bench/v1` unified benchmark report and its tolerance-banded
//! diff — the engine behind `repro bench-diff` and the CI perf gate.
//!
//! Every `repro` subcommand upserts one [`Section`] into a single
//! `BENCH_report.json`; CI diffs that against a committed
//! `BENCH_baseline.json`. Metrics carry their own comparison policy so
//! the gate is non-flaky by construction:
//!
//! - [`MetricClass::Exact`] — deterministic structural counters
//!   (epochs, matched paths). Any drift is a regression.
//! - [`MetricClass::Band`] — deterministic-modulo-toolchain counters
//!   (solver iterations, cache refits, goodput): libm `exp()` ULP
//!   differences across hosts can flip individual decisions, so these
//!   compare within `tol_abs + tol_rel·|old|`.
//! - [`MetricClass::Wall`] — wall-clock rates. Never diffed
//!   (report-only), but still gated by an absolute `floor` so a
//!   catastrophic slowdown fails CI while scheduler noise cannot.
//!
//! Tolerances and floors live in the **baseline** metric: the committed
//! baseline is the contract, and a fresh report is judged by it.
//! Serialization is hand-rolled deterministic JSON (`BTreeMap` order,
//! shortest-roundtrip floats, `null` for NaN and ±∞) parsed back with
//! `obsv::export`; `null` reads back as NaN.

use obsv::export::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a metric is compared by [`diff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Bit-deterministic: must match exactly.
    Exact,
    /// Deterministic modulo toolchain: must fall inside the tolerance
    /// band.
    Band,
    /// Wall-clock: report-only (floor still applies).
    Wall,
}

impl MetricClass {
    fn label(self) -> &'static str {
        match self {
            MetricClass::Exact => "exact",
            MetricClass::Band => "band",
            MetricClass::Wall => "wall",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(MetricClass::Exact),
            "band" => Some(MetricClass::Band),
            "wall" => Some(MetricClass::Wall),
            _ => None,
        }
    }
}

/// One measured value plus its comparison policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The measurement.
    pub value: f64,
    /// Comparison class.
    pub class: MetricClass,
    /// Relative tolerance (fraction of the baseline value; `Band`
    /// only).
    pub tol_rel: f64,
    /// Absolute tolerance (`Band` only).
    pub tol_abs: f64,
    /// Hard minimum for the new value, any class. `None` = no floor.
    pub floor: Option<f64>,
}

impl Metric {
    /// An exact-match metric.
    pub fn exact(value: f64) -> Self {
        Metric {
            value,
            class: MetricClass::Exact,
            tol_rel: 0.0,
            tol_abs: 0.0,
            floor: None,
        }
    }

    /// A banded metric: passes while
    /// `|new - old| <= tol_abs + tol_rel * |old|`.
    pub fn band(value: f64, tol_rel: f64, tol_abs: f64) -> Self {
        Metric {
            value,
            class: MetricClass::Band,
            tol_rel,
            tol_abs,
            floor: None,
        }
    }

    /// A report-only wall-clock metric.
    pub fn wall(value: f64) -> Self {
        Metric {
            value,
            class: MetricClass::Wall,
            tol_rel: 0.0,
            tol_abs: 0.0,
            floor: None,
        }
    }

    /// Adds a hard floor on the new value.
    pub fn with_floor(mut self, floor: f64) -> Self {
        self.floor = Some(floor);
        self
    }
}

/// One `repro` subcommand's metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Section {
    /// Whether the run was in smoke (scaled-down) mode. Smoke and full
    /// runs are not comparable, so a mismatch is a regression-level
    /// diff.
    pub smoke: bool,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

/// The whole `bench/v1` document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// Sections by name (`"sim"`, `"throughput"`, `"scenarios"`).
    pub sections: BTreeMap<String, Section>,
}

/// Writes `x`, or `null` when it is not finite: JSON has no NaN or ±∞,
/// and a stand-in number would record a measurement that never happened.
fn num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Reads a number written by [`num`]: `null` is NaN.
fn read_num(v: Option<&Json>) -> Option<f64> {
    match v {
        Some(Json::Num(x)) => Some(*x),
        Some(Json::Null) => Some(f64::NAN),
        _ => None,
    }
}

impl BenchReport {
    /// An empty report.
    pub fn new() -> Self {
        BenchReport::default()
    }

    /// Inserts or replaces one section.
    pub fn set_section(&mut self, name: &str, section: Section) {
        self.sections.insert(name.to_string(), section);
    }

    /// Deterministic JSON: sorted keys, shortest-roundtrip floats,
    /// trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\":\"bench/v1\",\"sections\":{");
        for (si, (sname, sec)) in self.sections.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{sname}\":{{\"smoke\":{},\"metrics\":{{", sec.smoke);
            for (mi, (mname, m)) in sec.metrics.iter().enumerate() {
                if mi > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{mname}\":{{\"value\":");
                num(&mut out, m.value);
                let _ = write!(out, ",\"class\":\"{}\",\"tol_rel\":", m.class.label());
                num(&mut out, m.tol_rel);
                out.push_str(",\"tol_abs\":");
                num(&mut out, m.tol_abs);
                if let Some(f) = m.floor {
                    out.push_str(",\"floor\":");
                    num(&mut out, f);
                }
                out.push('}');
            }
            out.push_str("}}");
        }
        out.push_str("}}\n");
        out
    }

    /// Parses a `bench/v1` document.
    pub fn parse(src: &str) -> Result<Self, String> {
        let v = parse_json(src.trim())?;
        match v.get("schema").and_then(Json::as_str) {
            Some("bench/v1") => {}
            other => return Err(format!("unsupported schema {other:?}")),
        }
        let mut report = BenchReport::new();
        let Some(Json::Obj(sections)) = v.get("sections") else {
            return Err("missing sections object".into());
        };
        for (sname, sv) in sections {
            let smoke = matches!(sv.get("smoke"), Some(Json::Bool(true)));
            let mut sec = Section {
                smoke,
                metrics: BTreeMap::new(),
            };
            if let Some(Json::Obj(metrics)) = sv.get("metrics") {
                for (mname, mv) in metrics {
                    let value = read_num(mv.get("value"))
                        .ok_or_else(|| format!("{sname}.{mname}: missing value"))?;
                    let class = mv
                        .get("class")
                        .and_then(Json::as_str)
                        .and_then(MetricClass::parse)
                        .ok_or_else(|| format!("{sname}.{mname}: bad class"))?;
                    let getf = |key: &str| read_num(mv.get(key)).unwrap_or(0.0);
                    sec.metrics.insert(
                        mname.clone(),
                        Metric {
                            value,
                            class,
                            tol_rel: getf("tol_rel"),
                            tol_abs: getf("tol_abs"),
                            floor: read_num(mv.get("floor")),
                        },
                    );
                }
            }
            report.sections.insert(sname.clone(), sec);
        }
        Ok(report)
    }
}

/// Severity of one diff line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffKind {
    /// Gate-failing difference.
    Regression,
    /// Informational (wall-clock deltas, new metrics).
    Info,
    /// Within policy.
    Ok,
}

/// One compared metric (or structural mismatch).
#[derive(Debug, Clone, PartialEq)]
pub struct DiffLine {
    /// Section name.
    pub section: String,
    /// Metric name ("" for section-level lines).
    pub metric: String,
    /// Severity.
    pub kind: DiffKind,
    /// Human-readable verdict.
    pub message: String,
}

/// The full comparison result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiffReport {
    /// All lines, in deterministic (section, metric) order.
    pub lines: Vec<DiffLine>,
}

impl DiffReport {
    /// Number of gate-failing lines.
    pub fn regressions(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| l.kind == DiffKind::Regression)
            .count()
    }

    /// Whether the gate should fail.
    pub fn has_regressions(&self) -> bool {
        self.regressions() > 0
    }

    /// Renders the table plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let tag = match l.kind {
                DiffKind::Regression => "REGRESSION",
                DiffKind::Info => "info",
                DiffKind::Ok => "ok",
            };
            let name = if l.metric.is_empty() {
                l.section.clone()
            } else {
                format!("{}.{}", l.section, l.metric)
            };
            let _ = writeln!(out, "{tag:<11} {name:<40} {}", l.message);
        }
        let _ = writeln!(
            out,
            "bench-diff: {} regression(s), {} line(s)",
            self.regressions(),
            self.lines.len()
        );
        out
    }
}

/// Compares `new` against the `old` baseline. Policy (class,
/// tolerances, floors) comes from the baseline metric; `Ok` lines are
/// emitted for passing metrics so the gate output shows coverage.
pub fn diff(old: &BenchReport, new: &BenchReport) -> DiffReport {
    let mut lines = Vec::new();
    for (sname, osec) in &old.sections {
        let Some(nsec) = new.sections.get(sname) else {
            lines.push(DiffLine {
                section: sname.clone(),
                metric: String::new(),
                kind: DiffKind::Regression,
                message: "section missing in new report".into(),
            });
            continue;
        };
        if osec.smoke != nsec.smoke {
            lines.push(DiffLine {
                section: sname.clone(),
                metric: String::new(),
                kind: DiffKind::Regression,
                message: format!(
                    "smoke mode mismatch (baseline {}, new {}): runs not comparable",
                    osec.smoke, nsec.smoke
                ),
            });
            continue;
        }
        for (mname, om) in &osec.metrics {
            let line = |kind, message| DiffLine {
                section: sname.clone(),
                metric: mname.clone(),
                kind,
                message,
            };
            let Some(nm) = nsec.metrics.get(mname) else {
                lines.push(line(
                    DiffKind::Regression,
                    "metric missing in new report".into(),
                ));
                continue;
            };
            // NaN passes every `<` and `>` test below, so a reading that
            // never happened is caught here.
            if !nm.value.is_finite() {
                lines.push(line(
                    DiffKind::Regression,
                    format!("non-finite value {} (baseline {})", nm.value, om.value),
                ));
                continue;
            }
            let floored = om.floor.is_some_and(|f| nm.value < f);
            if floored {
                lines.push(line(
                    DiffKind::Regression,
                    format!(
                        "{} below floor {} (baseline {})",
                        nm.value,
                        om.floor.unwrap_or(0.0),
                        om.value
                    ),
                ));
                continue;
            }
            match om.class {
                MetricClass::Exact => {
                    if nm.value != om.value {
                        lines.push(line(
                            DiffKind::Regression,
                            format!("exact mismatch: {} -> {}", om.value, nm.value),
                        ));
                    } else {
                        lines.push(line(DiffKind::Ok, format!("= {}", om.value)));
                    }
                }
                MetricClass::Band => {
                    let band = om.tol_abs + om.tol_rel * om.value.abs();
                    let delta = (nm.value - om.value).abs();
                    if delta > band {
                        lines.push(line(
                            DiffKind::Regression,
                            format!(
                                "{} -> {} (|delta| {delta} > band {band})",
                                om.value, nm.value
                            ),
                        ));
                    } else {
                        lines.push(line(
                            DiffKind::Ok,
                            format!("{} -> {} (band {band})", om.value, nm.value),
                        ));
                    }
                }
                MetricClass::Wall => {
                    let ratio = if om.value != 0.0 {
                        nm.value / om.value
                    } else {
                        0.0
                    };
                    lines.push(line(
                        DiffKind::Info,
                        format!(
                            "wall: {} -> {} ({ratio:.2}x, report-only{})",
                            om.value,
                            nm.value,
                            match om.floor {
                                Some(f) => format!(", floor {f}"),
                                None => String::new(),
                            }
                        ),
                    ));
                }
            }
        }
        for mname in nsec.metrics.keys() {
            if !osec.metrics.contains_key(mname) {
                lines.push(DiffLine {
                    section: sname.clone(),
                    metric: mname.clone(),
                    kind: DiffKind::Info,
                    message: "new metric (not in baseline)".into(),
                });
            }
        }
    }
    for sname in new.sections.keys() {
        if !old.sections.contains_key(sname) {
            lines.push(DiffLine {
                section: sname.clone(),
                metric: String::new(),
                kind: DiffKind::Info,
                message: "new section (not in baseline)".into(),
            });
        }
    }
    DiffReport { lines }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new();
        let mut sim = Section {
            smoke: true,
            metrics: BTreeMap::new(),
        };
        sim.metrics.insert("epochs".into(), Metric::exact(24.0));
        sim.metrics
            .insert("sim_events".into(), Metric::band(12345.0, 0.05, 0.0));
        sim.metrics.insert(
            "events_per_sec".into(),
            Metric::wall(250_000.0).with_floor(10_000.0),
        );
        r.set_section("sim", sim);
        r
    }

    /// Sets `sim.<metric>` in `r` to `value`.
    fn set(r: &mut BenchReport, metric: &str, value: f64) {
        let sim = r.sections.get_mut("sim").unwrap();
        sim.metrics.get_mut(metric).unwrap().value = value;
    }

    #[test]
    fn json_roundtrip_is_lossless_and_deterministic() {
        let r = sample();
        let json = r.to_json();
        assert_eq!(json, r.to_json());
        let back = BenchReport::parse(&json).expect("parses");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
        // JSON has no NaN or ±∞: they are written as `null`, never as a
        // stand-in number, and `null` reads back as NaN.
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut r = sample();
            set(&mut r, "epochs", x);
            let json = r.to_json();
            assert!(json.contains("\"epochs\":{\"value\":null,"), "{json}");
            let back = BenchReport::parse(&json).expect("parses");
            assert!(back.sections["sim"].metrics["epochs"].value.is_nan());
            assert_eq!(back.to_json(), json);
        }
    }

    #[test]
    fn identical_reports_diff_clean() {
        let r = sample();
        let d = diff(&r, &r);
        assert!(!d.has_regressions(), "{}", d.render());
    }

    #[test]
    fn exact_mismatch_and_missing_metric_are_regressions() {
        let old = sample();
        let mut new = sample();
        set(&mut new, "epochs", 23.0);
        new.sections
            .get_mut("sim")
            .unwrap()
            .metrics
            .remove("sim_events");
        let d = diff(&old, &new);
        assert_eq!(d.regressions(), 2, "{}", d.render());
    }

    #[test]
    fn band_tolerates_small_drift_only() {
        let old = sample();
        let mut new = sample();
        // 4% drift: inside the 5% band.
        set(&mut new, "sim_events", 12345.0 * 1.04);
        assert!(!diff(&old, &new).has_regressions());
        // 10% drift: outside.
        set(&mut new, "sim_events", 12345.0 * 1.10);
        assert!(diff(&old, &new).has_regressions());
        // A non-finite reading is outside every band.
        for x in [f64::NAN, f64::INFINITY] {
            set(&mut new, "sim_events", x);
            let d = diff(&old, &new);
            assert_eq!(d.regressions(), 1, "{}", d.render());
            assert!(d.render().contains("sim.sim_events"), "{}", d.render());
        }
    }

    #[test]
    fn wall_is_report_only_until_the_floor() {
        let old = sample();
        let mut new = sample();
        // A 2x wall slowdown above the floor: info only.
        set(&mut new, "events_per_sec", 125_000.0);
        assert!(!diff(&old, &new).has_regressions());
        // Below the floor: the planted-regression case CI exercises.
        set(&mut new, "events_per_sec", 5_000.0);
        let d = diff(&old, &new);
        assert!(d.has_regressions());
        assert!(d.render().contains("below floor"));
        // NaN is not below the floor and ∞ is above it; both gate.
        for x in [f64::NAN, f64::INFINITY] {
            set(&mut new, "events_per_sec", x);
            let d = diff(&old, &new);
            assert_eq!(d.regressions(), 1, "{}", d.render());
            let line = d.render();
            assert!(line.contains("REGRESSION  sim.events_per_sec"), "{line}");
            assert!(line.contains("non-finite"), "{line}");
        }
    }

    #[test]
    fn smoke_mismatch_and_missing_section_gate() {
        let old = sample();
        let mut new = sample();
        new.sections.get_mut("sim").unwrap().smoke = false;
        assert!(diff(&old, &new).has_regressions());
        assert!(diff(&old, &BenchReport::new()).has_regressions());
        // New-only sections are informational.
        let mut extra = sample();
        extra.set_section("throughput", Section::default());
        assert!(!diff(&old, &extra).has_regressions());
    }
}
