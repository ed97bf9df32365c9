//! A tiny cut of every workload through the real driver: the budget
//! adds up, a seed pins the deterministic outputs, the seed reaches the
//! inputs, and the reporting helpers keep their promises.

use loopbench::compare::{compare, parse_report, verdict, Verdict};
use loopbench::metrics::{Better, Bound, RunResult, END_TO_END, PER_LAYER};
use loopbench::run::measure;
use loopbench::stats::{median, tail, MIN_BEYOND};
use loopbench::trace::Budget;
use loopbench::workload::{build_topology, link_waves, shapes};
use obsv::export::{parse_json, Json};

const EPOCHS: u64 = 20;

fn tiny(seed: u64, traced: bool) -> Vec<(RunResult, Budget)> {
    shapes()
        .iter()
        .map(|s| {
            let (result, rec) = measure(&s.tiny(), seed, 1, Some(EPOCHS), traced)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            let wall_ns = (result.wall_s * 1e9).round() as u64;
            let start = rec.spans().first().map_or(0, |s| s.start_ns);
            (result, Budget::of(rec.spans(), start, start + wall_ns))
        })
        .collect()
}

#[test]
fn runs_are_correct_and_the_budget_adds_up() {
    for (result, budget) in tiny(11, true) {
        let w = &result.workload;
        assert!(result.correct(), "{w}: {:?}", result.checks);
        assert_eq!(result.failed, 0, "{w}");
        // epochs + the two consults of a 20-epoch window (+ admits).
        assert!(result.attempted >= EPOCHS + 2, "{w}");
        // Rows are self times: they sum to the top-level spans, which
        // with the unattributed remainder make up the wall.
        let self_ns: u64 = budget.rows.values().map(|r| r.self_ns).sum();
        assert_eq!(self_ns, budget.top_level_ns, "{w}");
        assert!(budget.top_level_ns <= budget.wall_ns, "{w}: spans overlap");
        assert_eq!(
            budget.top_level_ns + budget.unattributed_ns(),
            budget.wall_ns,
            "{w}"
        );
        let share = result.metrics["loop.unattributed_share"].value;
        assert!(share <= 0.05, "{w}: {share} of the wall is unattributed");
        // Every declared per-layer metric is reported, by name and unit.
        for m in PER_LAYER {
            let got = result
                .metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("{w}: {}", m.name));
            assert_eq!(got.unit, m.unit, "{w}: {}", m.name);
            assert!(got.value.is_finite(), "{w}: {}", m.name);
        }
        assert_eq!(result.metrics.len(), PER_LAYER.len(), "{w}");
    }
}

#[test]
fn a_seed_pins_the_deterministic_outputs_traced_or_not() {
    let first = tiny(7, false);
    let again = tiny(7, false);
    let traced = tiny(7, true);
    let other = tiny(8, false);
    for (((a, _), (b, _)), ((t, _), (o, _))) in
        first.iter().zip(&again).zip(traced.iter().zip(&other))
    {
        let w = &a.workload;
        assert!(a.correct(), "{w}: {:?}", a.checks);
        assert_eq!(a.deterministic, b.deterministic, "{w}: same seed");
        assert_eq!(a.deterministic, t.deterministic, "{w}: traced vs untraced");
        assert_ne!(
            a.deterministic, o.deterministic,
            "{w}: the seed reaches the loop"
        );
        // The untraced run reports exactly the end-to-end metrics of its
        // workload, minus percentiles its sample is too thin for.
        for m in END_TO_END.iter().filter(|m| m.applies_to(w)) {
            match a.metrics.get(m.name) {
                Some(got) => assert_eq!(got.unit, m.unit, "{w}: {}", m.name),
                None => assert!(
                    m.name.ends_with("_p75") || m.name.ends_with("_p95"),
                    "{w}: {}",
                    m.name
                ),
            }
        }
        assert_eq!(a.metrics["failed_ops_ratio"].value, 0.0, "{w}");
    }
}

#[test]
fn the_seed_drives_the_capacity_schedule() {
    let topo = build_topology(shapes()[0].tiny().topo);
    assert_eq!(link_waves(&topo, 1), link_waves(&topo, 1));
    let (a, b) = (link_waves(&topo, 1), link_waves(&topo, 2));
    assert_eq!(a.len(), topo.link_count());
    assert!((0..50).any(|e| a[0].capacity_at(e) != b[0].capacity_at(e)));
    for w in &a {
        for e in 0..200 {
            let c = w.capacity_at(e);
            assert!(c >= 0.5 * w.raw_mbps - 1e-9 && c <= w.raw_mbps + 1e-9);
        }
    }
}

#[test]
fn percentiles_carry_n_and_refuse_thin_tails() {
    let samples: Vec<f64> = (1..=40).map(f64::from).collect();
    let m = median(&samples).unwrap();
    assert_eq!((m.value, m.n), (20.5, 40));
    assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap().value, 2.0);
    assert!(median(&[]).is_none());
    // p75 of 40 leaves exactly MIN_BEYOND samples beyond it …
    let p75 = tail(&samples, 0.75).unwrap();
    assert_eq!((p75.value, p75.n), (30.0, 40));
    assert_eq!(40 - 30, MIN_BEYOND);
    // … one sample fewer, or a higher percentile, and it is refused.
    assert!(tail(&samples[..39], 0.75).is_err());
    assert!(tail(&samples, 0.95).is_err());
    assert!(tail(&samples, 1.0).is_err());
    let many: Vec<f64> = (1..=300).map(f64::from).collect();
    assert_eq!(tail(&many, 0.95).unwrap().value, 285.0);
}

#[test]
fn compare_gives_each_row_a_verdict_and_flags_worse() {
    let find = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap();
    let eps = find("epochs_per_s"); // higher is better, relative bound
    let Bound::Rel(bound) = eps.bound else {
        panic!("epochs_per_s is gated by a share of its baseline")
    };
    let moved = |by: f64| verdict(eps, Some(100.0), Some(100.0 * (1.0 + by)));
    assert_eq!(moved(-bound / 2.0), Verdict::Within);
    assert_eq!(moved(bound / 2.0), Verdict::Within);
    assert_eq!(moved(-bound * 1.5), Verdict::Worse);
    assert_eq!(moved(bound * 1.5), Verdict::Better);
    assert_eq!(verdict(eps, Some(100.0), None), Verdict::Unresolved);
    let slo = find("slo_violation_ratio"); // lower is better, +0.01 absolute
    assert_eq!((slo.better, slo.bound), (Better::Lower, Bound::Abs(0.01)));
    assert_eq!(verdict(slo, Some(0.0), Some(0.005)), Verdict::Within);
    assert_eq!(verdict(slo, Some(0.0), Some(0.02)), Verdict::Worse);
    let failed = find("failed_ops_ratio"); // any failure is worse
    assert_eq!(verdict(failed, Some(0.0), Some(0.0)), Verdict::Within);
    assert_eq!(verdict(failed, Some(0.0), Some(0.001)), Verdict::Worse);

    let report = |eps: f64| {
        format!(
            "{{\"workloads\": {{\"wan-steady\": {{\"end_to_end\": {{\
             \"epochs_per_s\": {{\"value\": {eps}, \"unit\": \"1/s\", \"n\": 110}}}}}}}}}}"
        )
    };
    let a = parse_report(&report(10.0)).unwrap();
    let (table, any_worse) = compare(&a, &parse_report(&report(5.0)).unwrap());
    assert!(any_worse, "{table}");
    assert!(
        table.contains("worse") && table.contains("unresolved"),
        "{table}"
    );
    let (table, any_worse) = compare(&a, &a);
    assert!(!any_worse, "{table}");
}

#[test]
fn results_round_trip_and_the_last_line_is_the_contract() {
    let (result, _) = measure(&shapes()[0].tiny(), 3, 1, Some(EPOCHS), false).unwrap();
    assert_eq!(RunResult::from_json(&result.to_json()).unwrap(), result);
    let line = parse_json(&result.contract_line()).unwrap();
    let Json::Obj(keys) = &line else {
        panic!("not an object")
    };
    assert_eq!(
        keys.keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics")
    };
    let declared: Vec<&str> = END_TO_END
        .iter()
        .filter(|m| m.in_contract())
        .map(|m| m.name)
        .collect();
    assert_eq!(metrics.len(), declared.len());
    for name in declared {
        assert!(
            matches!(metrics[name].get("value"), Some(Json::Num(v)) if *v > 0.0),
            "{name}"
        );
    }
}

/// `BENCHMARK.json` (one directory up, at the repo root) declares what
/// this crate measures, under the same names, units, directions and
/// bounds.
#[test]
fn benchmark_json_declares_what_the_code_measures() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let j = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let text = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
    let list = |key: &str| j.get(key).and_then(Json::as_arr).unwrap().to_vec();

    assert_eq!(
        j.get("run_seconds"),
        Some(&Json::Num(loopbench::DEFAULT_SECONDS as f64))
    );
    assert_eq!(list("paths"), [Json::Str("benchmark".into())]);
    let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(
        workloads,
        shapes().iter().map(|s| s.name).collect::<Vec<_>>()
    );

    let gated: Vec<(String, String, String, Json)> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").unwrap().clone(),
            )
        })
        .collect();
    let declared: Vec<(String, String, String, Json)> = END_TO_END
        .iter()
        .filter(|m| m.in_contract())
        .map(|m| {
            let Bound::Rel(bound) = m.bound else {
                unreachable!("in_contract means relative")
            };
            (
                m.name.into(),
                m.unit.into(),
                m.better.label().into(),
                Json::Num(bound),
            )
        })
        .collect();
    assert_eq!(gated, declared);

    let layers: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let declared: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.label().into()))
        .collect();
    assert_eq!(layers, declared);
}
