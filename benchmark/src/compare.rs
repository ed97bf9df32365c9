//! `loopbench compare A.json B.json`: per workload × end-to-end metric,
//! did B get worse than A by more than the metric's bound?

use crate::metrics::{metrics_from_json, Better, Bound, EndToEnd, Measured, END_TO_END};
use obsv::export::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Moved by no more than the bound, either way.
    Within,
    /// Worsened by more than the bound.
    Worse,
    /// Missing or not finite on either side (e.g. a percentile refused
    /// for lack of samples): nothing can be said.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `report.json`'s end-to-end section: workload → metric → value.
pub type EndToEndReport = BTreeMap<String, BTreeMap<String, Measured>>;

pub fn parse_report(src: &str) -> Result<EndToEndReport, String> {
    let j = obsv::export::parse_json(src)?;
    let Some(Json::Obj(workloads)) = j.get("workloads") else {
        return Err("report has no \"workloads\" object".into());
    };
    workloads
        .iter()
        .map(|(name, w)| Ok((name.clone(), metrics_from_json(w.get("end_to_end"))?)))
        .collect()
}

/// How far `b` moved from `a` in the metric's *bad* direction, in the
/// bound's own terms (share of `a`, or absolute).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let bad = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    match m.bound {
        Bound::Abs(_) => bad,
        Bound::Rel(_) => bad / a.abs().max(f64::MIN_POSITIVE),
    }
}

pub fn verdict(m: &EndToEnd, a: Option<f64>, b: Option<f64>) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else {
        return Verdict::Unresolved;
    };
    if !a.is_finite() || !b.is_finite() {
        return Verdict::Unresolved;
    }
    let (Bound::Rel(bound) | Bound::Abs(bound)) = m.bound;
    let w = worsening(m, a, b);
    if w > bound {
        Verdict::Worse
    } else if -w > bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Renders the comparison table; the flag says whether any row is `worse`.
pub fn compare(a: &EndToEndReport, b: &EndToEndReport) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for workload in a.keys().chain(b.keys().filter(|w| !a.contains_key(*w))) {
        for m in END_TO_END.iter().filter(|m| m.applies_to(workload)) {
            let value = |r: &EndToEndReport| r.get(workload)?.get(m.name).map(|x| x.value);
            let (va, vb) = (value(a), value(b));
            let v = verdict(m, va, vb);
            any_worse |= v == Verdict::Worse;
            let show = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.4}"));
            let (delta, bound) = match m.bound {
                Bound::Rel(bound) => (
                    va.zip(vb).map(|(a, b)| {
                        format!("{:+.2}%", 100.0 * (b - a) / a.abs().max(f64::MIN_POSITIVE))
                    }),
                    format!("{:.0}%", bound * 100.0),
                ),
                Bound::Abs(bound) => (
                    va.zip(vb).map(|(a, b)| format!("{:+.4}", b - a)),
                    format!("+{bound}"),
                ),
            };
            let _ = writeln!(
                out,
                "{:<16} {:<26} {:>14} {:>14} {:>9} {:>8}  {}",
                workload,
                m.name,
                show(va),
                show(vb),
                delta.unwrap_or_else(|| "-".into()),
                bound,
                v.label()
            );
        }
    }
    (out, any_worse)
}
