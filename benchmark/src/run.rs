//! One run of one workload: set-up, the timed window, output checks,
//! and the metrics of the run's mode (untraced → end-to-end, traced →
//! per-layer).

use crate::clock::timed;
use crate::driver::{Loop, Tally};
use crate::metrics::{layer_unit, RunResult, END_TO_END};
use crate::probes;
use crate::stats::{median, tail};
use crate::trace::{Budget, Recorder};
use crate::workload::{Plane, Shape};
use framework::hecate::CacheStats;
use netsim::WaterfillStats;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Layer counters read at the boundaries of the timed window.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    cache: CacheStats,
    sim_waterfill: WaterfillStats,
    sim_events: u64,
    optimizer_waterfill: WaterfillStats,
    telemetry_series: u64,
    telemetry_inserts: u64,
}

impl Counters {
    fn read(lp: &Loop) -> Self {
        let keys = lp.net.telemetry.keys();
        Counters {
            cache: lp.net.hecate.cache_stats(),
            sim_waterfill: lp.net.sim.waterfill_stats(),
            sim_events: lp.net.sim.events_processed(),
            optimizer_waterfill: lp.net.waterfill().map(|w| w.stats()).unwrap_or_default(),
            telemetry_series: keys.len() as u64,
            telemetry_inserts: keys.iter().map(|k| lp.net.telemetry.total(k)).sum(),
        }
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs `shape` once. `epochs` overrides the timed window `seconds`
/// would give (tests use a handful). A traced run also returns its
/// recorder, for the trace file and the budget tests.
pub fn measure(
    shape: &Shape,
    seed: u64,
    seconds: u64,
    epochs: Option<u64>,
    traced: bool,
) -> Result<(RunResult, Recorder), String> {
    let epochs = epochs.unwrap_or_else(|| shape.timed_epochs(seconds));
    let mut setup_s = Vec::new();
    let mut lp = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        drop(lp.take());
        let (built, ms) = timed(|| Loop::setup(shape, seed, epochs));
        lp = Some(built?);
        setup_s.push(ms / 1e3);
    }
    let mut lp = lp.expect("at least one set-up");

    let mut rec = Recorder::new(traced);
    let before = Counters::read(&lp);
    let mut tally = lp.run(epochs, &mut rec);
    let after = Counters::read(&lp);
    tally.check_failures.extend(lp.final_checks());
    if shape.plane == Plane::Packet && tally.pot_rejected != 0 {
        tally.check_failures.push(format!(
            "{} packets failed proof of transit",
            tally.pot_rejected
        ));
    }

    let sim_events = after.sim_events - before.sim_events;
    let packets = tally.packets_delivered + tally.packets_dropped;
    let wall_s = tally.wall_ns as f64 / 1e9;
    let mut result = RunResult {
        workload: shape.name.to_string(),
        seed,
        seconds,
        traced,
        epochs,
        cores: cores(),
        wall_s,
        attempted: tally.attempted,
        failed: tally.failed,
        checks: tally.check_failures.clone(),
        metrics: Default::default(),
        deterministic: [
            ("netsim.events", sim_events as f64),
            ("optimizer.migrations", tally.migrations as f64),
            ("goodput_mbps", tally.goodput_mbps()),
            ("slo_violation_ratio", tally.slo_violation_ratio()),
            (
                "dataplane.packets_delivered",
                tally.packets_delivered as f64,
            ),
            ("dataplane.packets_dropped", tally.packets_dropped as f64),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    };

    if traced {
        let budget = Budget::of(rec.spans(), tally.start_ns, tally.start_ns + tally.wall_ns);
        per_layer(
            &mut result,
            &tally,
            &budget,
            (&before, &after),
            lp.waterfill_audit_ok(),
        );
        for (name, value) in probes::run(&mut lp)? {
            result.put(name, layer_unit(name), value, Some(probes::CALLS));
        }
    } else {
        let n_consults = tally.consult_ms.len();
        let n_admits = tally.admit_ms.len();
        for m in END_TO_END.iter().filter(|m| m.applies_to(shape.name)) {
            let (value, n) = match m.name {
                "setup_s" => (median(&setup_s).map(|q| q.value), Some(SETUPS)),
                "epochs_per_s" => (Some(epochs as f64 / wall_s), Some(epochs as usize)),
                "decision_latency_ms_p50" => {
                    (median(&tally.consult_ms).map(|q| q.value), Some(n_consults))
                }
                "decision_latency_ms_p75" => (
                    tail(&tally.consult_ms, 0.75).ok().map(|q| q.value),
                    Some(n_consults),
                ),
                "admit_latency_ms_p50" => {
                    (median(&tally.admit_ms).map(|q| q.value), Some(n_admits))
                }
                "admit_latency_ms_p95" => (
                    tail(&tally.admit_ms, 0.95).ok().map(|q| q.value),
                    Some(n_admits),
                ),
                "sim_events_per_s" => (Some(sim_events as f64 / wall_s), None),
                "packets_per_s" => (Some(packets as f64 / wall_s), None),
                "goodput_mbps" => (Some(tally.goodput_mbps()), None),
                "slo_violation_ratio" => (Some(tally.slo_violation_ratio()), None),
                "packet_loss_ratio" => (Some(tally.packet_loss_ratio()), None),
                "failed_ops_ratio" => (Some(tally.failed_ops_ratio()), None),
                "peak_rss_mb" => (Some(peak_rss_mb()?), None),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            // A refused percentile (too few samples beyond it) is left
            // out rather than reported from a thin tail.
            if let Some(value) = value {
                result.put(m.name, m.unit, value, n);
            }
        }
    }
    Ok((result, rec))
}

/// The traced run's metrics: span self-times and call counts per layer,
/// the counters diffed over the timed window, and the ratios between
/// them.
fn per_layer(
    r: &mut RunResult,
    tally: &Tally,
    b: &Budget,
    (before, after): (&Counters, &Counters),
    audit_ok: bool,
) {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut put = |name: &str, value: f64| r.put(name, layer_unit(name), value, None);
    let sim =
        |f: fn(&WaterfillStats) -> u64| (f(&after.sim_waterfill) - f(&before.sim_waterfill)) as f64;
    let opt = |f: fn(&WaterfillStats) -> u64| {
        (f(&after.optimizer_waterfill) - f(&before.optimizer_waterfill)) as f64
    };
    let events = (after.sim_events - before.sim_events) as f64;
    put("netsim.run_ms", b.self_ms("netsim.run"));
    put("netsim.run_calls", b.row("netsim.run").calls as f64);
    put("netsim.schedule_ms", b.self_ms("netsim.schedule"));
    put("netsim.events", events);
    put(
        "netsim.us_per_event",
        ratio(b.self_ms("netsim.run") * 1e3, events),
    );
    put("netsim.incremental_solves", sim(|s| s.incremental_solves));
    put("netsim.full_solves", sim(|s| s.full_solves));
    put("netsim.expansions", sim(|s| s.expansions));
    put("netsim.fast_path_events", sim(|s| s.fast_path_events));
    put(
        "netsim.full_solve_ratio",
        ratio(
            sim(|s| s.full_solves),
            sim(|s| s.full_solves) + sim(|s| s.incremental_solves),
        ),
    );
    put("telemetry.collect_ms", b.self_ms("telemetry.collect"));
    put(
        "telemetry.collect_calls",
        b.row("telemetry.collect").calls as f64,
    );
    put("telemetry.series", after.telemetry_series as f64);
    put(
        "telemetry.inserts",
        (after.telemetry_inserts - before.telemetry_inserts) as f64,
    );
    let refits = (after.cache.refits - before.cache.refits) as f64;
    let updates = (after.cache.updates - before.cache.updates) as f64;
    let hits = (after.cache.hits - before.cache.hits) as f64;
    put("hecate.forecast_ms", b.self_ms("hecate.forecast_all"));
    put(
        "hecate.forecast_calls",
        b.row("hecate.forecast_all").calls as f64,
    );
    put("hecate.refits", refits);
    put("hecate.updates", updates);
    put("hecate.hits", hits);
    put("hecate.refit_ratio", ratio(refits, refits + updates + hits));
    put(
        "hecate.ms_per_refit",
        ratio(b.self_ms("hecate.forecast_all"), refits),
    );
    put("controller.admit_ms", b.self_ms("controller.admit"));
    put(
        "controller.admit_calls",
        b.row("controller.admit").calls as f64,
    );
    put("controller.admitted_flows", tally.admitted_flows as f64);
    put("optimizer.reoptimize_ms", b.self_ms("optimizer.reoptimize"));
    put(
        "optimizer.reoptimize_calls",
        b.row("optimizer.reoptimize").calls as f64,
    );
    put("optimizer.migrations", tally.migrations as f64);
    put(
        "waterfill.incremental_solves",
        opt(|s| s.incremental_solves),
    );
    put("waterfill.full_solves", opt(|s| s.full_solves));
    put("waterfill.expansions", opt(|s| s.expansions));
    put("waterfill.fast_path_events", opt(|s| s.fast_path_events));
    put("waterfill.audit_ok", f64::from(audit_ok));
    let packets = (tally.packets_delivered + tally.packets_dropped) as f64;
    put(
        "dataloop.packet_epoch_ms",
        b.self_ms("dataloop.packet_epoch"),
    );
    put(
        "dataloop.packet_epoch_calls",
        b.row("dataloop.packet_epoch").calls as f64,
    );
    put(
        "dataplane.packets_delivered",
        tally.packets_delivered as f64,
    );
    put("dataplane.packets_dropped", tally.packets_dropped as f64);
    put("dataplane.pot_rejected", tally.pot_rejected as f64);
    put("dataplane.ingress_rewrites", tally.ingress_rewrites as f64);
    put(
        "dataplane.us_per_packet",
        ratio(b.self_ms("dataloop.packet_epoch") * 1e3, packets),
    );
    put("bench.score_ms", b.self_ms("bench.score"));
    put("loop.unattributed_ms", b.unattributed_ns() as f64 / 1e6);
    put("loop.unattributed_share", b.unattributed_share());
}
