//! Figure-reproduction harness: regenerates every quantitative artifact
//! of the paper and prints the rows/series it reports.
//!
//! Usage:
//!   repro all            # everything (what EXPERIMENTS.md records)
//!   repro fig1           # PolKA worked example
//!   repro fig2           # Sec III TE optima sweep
//!   repro fig5           # UQ traces + regime summaries
//!   repro fig6           # 18-regressor RMSE table
//!   repro fig7           # RFR observed vs predicted
//!   repro fig8           # GPR observed vs predicted
//!   repro fig11          # latency migration experiment
//!   repro fig12          # flow aggregation experiment
//!   repro ablation       # decision-policy ablation (Sec III)
//!   repro throughput     # decisions/sec + the million-flow tick latency
//!   repro forwarding     # packet plane: PolKA vs segment list, sharded by ingress
//!   repro steering       # framework-in-the-loop steering extension
//!   repro scenarios      # scenario-suite policy matrix (topology zoo)
//!   repro sim            # event-core scale-out (scale-1k), `sim` report section
//!   repro trace          # observability artifact: traced control loop
//!   repro mlp            # future-work MLP extension
//!   repro cv             # walk-forward model selection extension
//!   repro bench-diff OLD NEW [--accept]       # perf-regression gate
//!
//! `SCENARIO_SMOKE=1` shrinks the scenario suite to the CI subset
//! (same scenarios, 40% horizon; `sim` runs the 40%-horizon scale-1k
//! cut; events/sec, wall time and the water-fill vs dispatch phase split
//! go into the `sim` section of the report below). `trace` validates the
//! traced control loop in memory, prints the analyzer's phase-budget
//! table plus the SLO blame lines, and, with `OBSV_TRACE=1`, writes
//! `TRACE_loop.jsonl` plus the Perfetto-loadable `TRACE_loop_chrome.json`.
//!
//! `sim`, `throughput`, `forwarding` and `scenarios` additionally upsert
//! their sections into the unified `bench/v1` report (`BENCH_report.json`,
//! or `$BENCH_REPORT`); `bench-diff` compares two such reports under the
//! baseline's per-metric tolerance policy, exits non-zero on
//! regressions, and with `--accept` rewrites the baseline from the new
//! report instead.

use bench::figures;
use bench::format_series;
use bench::report::write_section;
use hecate_ml::RegressorKind;
use obsv_analyze::Metric;

/// The single source of truth for figure names and their runners.
const FIGURES: [(&str, fn()); 17] = [
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", || fig7_or_8(RegressorKind::Rfr, "fig7")),
    ("fig8", || fig7_or_8(RegressorKind::Gpr, "fig8")),
    ("fig11", fig11),
    ("fig12", fig12),
    ("ablation", ablation),
    ("throughput", throughput),
    ("forwarding", forwarding),
    ("steering", steering),
    ("scenarios", scenario_suite),
    ("sim", sim_scale),
    ("trace", trace_artifact),
    ("mlp", mlp),
    ("cv", cv),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(|s| s.as_str()).unwrap_or("all");
    if which == "bench-diff" {
        std::process::exit(bench_diff(&args[1..]));
    }
    let all = which == "all";
    if !all && !FIGURES.iter().any(|(name, _)| *name == which) {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown figure {which:?}; choose one of: all {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    for (name, run) in FIGURES {
        if all || which == name {
            run();
        }
    }
}

fn banner(name: &str, caption: &str) {
    println!("\n=== {name}: {caption} ===");
}

/// `repro bench-diff <old> <new> [--accept]`: the perf-regression gate.
/// Compares `new` against the `old` baseline under the baseline's
/// per-metric policy (exact / tolerance band / wall floor). Returns the
/// process exit code: `0` clean, `1` regressions, `2` usage or I/O
/// error. `--accept` rewrites `old` from `new` after printing the diff
/// (the local workflow for intentionally moving the baseline).
fn bench_diff(args: &[String]) -> i32 {
    let accept = args.iter().any(|a| a == "--accept");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [old_path, new_path] = paths[..] else {
        eprintln!("usage: repro bench-diff <old.json> <new.json> [--accept]");
        return 2;
    };
    let load = |path: &str| -> Result<obsv_analyze::BenchReport, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        obsv_analyze::BenchReport::parse(&src).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (o, n) => {
            for r in [o, n] {
                if let Err(e) = r {
                    eprintln!("bench-diff: {e}");
                }
            }
            return 2;
        }
    };
    let d = obsv_analyze::diff(&old, &new);
    print!("{}", d.render());
    if accept {
        // Re-serialize (rather than copying the file) so the accepted
        // baseline is canonical bench/v1 JSON whatever produced `new`.
        match std::fs::write(old_path, new.to_json()) {
            Ok(()) => {
                println!("accepted: {new_path} -> {old_path}");
                return 0;
            }
            Err(e) => {
                eprintln!("bench-diff: could not accept into {old_path}: {e}");
                return 2;
            }
        }
    }
    i32::from(d.has_regressions())
}

fn fig1() {
    banner("fig1", "PolKA source routing worked example");
    let (route, trace) = figures::fig1();
    println!("routeID = {route}");
    for (node, port) in trace {
        println!("  at {node}: routeID mod nodeID -> port {port}");
    }
    println!("(paper: o1=1, o2=2, o3=6; routeID=10000 gives port 2 at s2)");
}

fn fig2() {
    banner("fig2", "two-path TE optima (Eqs 1-3), capacity c = 10");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "demand h", "min-cost x_sd", "min-delay x_sd", "minmax util"
    );
    for (h, cost, delay, util) in figures::fig2(10.0) {
        println!("{h:>8.1} {cost:>14.3} {delay:>14.3} {util:>14.3}");
    }
}

fn fig5() {
    banner("fig5", "UQ wireless dataset (synthetic equivalent)");
    let (d, summaries) = figures::fig5();
    println!("{} samples per path at 1 Hz", d.wifi.len());
    for (name, s) in summaries {
        println!(
            "  {name:<26} mean {:6.2}  std {:5.2}  min {:6.2}  max {:6.2}",
            s.mean, s.std, s.min, s.max
        );
    }
}

fn fig6() {
    banner(
        "fig6",
        "RMSE of 18 regression models (WiFi = Path 1, LTE = Path 2)",
    );
    let rows = figures::fig6();
    println!("{:<5} {:<12} {:>10} {:>10}", "id", "model", "WiFi", "LTE");
    for (kind, wifi, lte) in &rows {
        println!(
            "{:<5} {:<12} {:>10.2} {:>10.2}",
            kind.paper_id(),
            kind.label(),
            wifi,
            lte
        );
    }
    let mut by_sum: Vec<_> = rows.clone();
    by_sum.sort_by(|a, b| (a.1 + a.2).total_cmp(&(b.1 + b.2)));
    println!(
        "best: {}   worst: {}   (paper: RFR/GBR best, GPR excluded as worst)",
        by_sum.first().map(|r| r.0.label()).unwrap_or("?"),
        by_sum.last().map(|r| r.0.label()).unwrap_or("?")
    );
}

fn fig7_or_8(kind: RegressorKind, name: &str) {
    banner(
        name,
        &format!("observed vs predicted bandwidth ({})", kind.label()),
    );
    let (wifi, lte) = figures::fig7_fig8(kind);
    for (path, rep) in [("WiFi/Path1", &wifi), ("LTE/Path2", &lte)] {
        println!(
            "{path}: rmse {:.2}, mae {:.2}, r2 {:.3}",
            rep.rmse, rep.mae, rep.r2
        );
        println!("  t+idx  observed  predicted");
        for (i, (o, p)) in rep
            .observed
            .iter()
            .zip(&rep.predicted)
            .enumerate()
            .step_by(10)
        {
            println!("  {i:5} {o:9.2} {p:10.2}");
        }
    }
}

fn fig11() {
    banner("fig11", "agile migration to a lower-latency path");
    let r = figures::fig11(60, 42).expect("experiment");
    print!("{}", format_series("RTT (ms) @1Hz:", &r.rtt_series, 5));
    println!(
        "migration at t={}s: {} -> {}",
        r.migration_at_s, r.tunnel_before, r.tunnel_after
    );
    println!(
        "mean RTT before {:.2} ms, after {:.2} ms ({:.1}x better)",
        r.mean_before_ms,
        r.mean_after_ms,
        r.mean_before_ms / r.mean_after_ms
    );
}

fn fig12() {
    banner("fig12", "flow aggregation with multiple paths");
    let r = figures::fig12(60, 42).expect("experiment");
    for (label, series) in &r.per_flow {
        print!(
            "{}",
            format_series(&format!("{label} goodput (Mbps):"), series, 10)
        );
    }
    print!("{}", format_series("total goodput (Mbps):", &r.total, 10));
    println!("redistribution at t={}s:", r.redistribution_at_s);
    for (f, t) in &r.assignment {
        println!("  {f} -> {t}");
    }
    println!(
        "steady aggregate: before {:.2} Mbps, after {:.2} Mbps (paper: <20 then ~30)",
        r.total_before_mbps, r.total_after_mbps
    );
}

fn ablation() {
    banner("ablation", "decision policies on the UQ traces (Sec III)");
    println!(
        "{:<18} {:>12} {:>9} {:>9}",
        "policy", "goodput Mbps", "switches", "hit rate"
    );
    for r in figures::ablation_policies() {
        println!(
            "{:<18} {:>12.2} {:>9} {:>9.2}",
            r.policy, r.mean_goodput, r.switches, r.hit_rate
        );
    }
}

/// Floor on the million-flow tick's full-recompute / p99 ratio.
const RECOMPUTE_OVER_TICK_FLOOR: f64 = 10.0;

fn throughput() {
    banner(
        "throughput",
        "flow-arrival decisions/sec, cold (refit every decision) vs warm (ForecastEngine)",
    );
    let r = figures::decision_throughput(8, 20, 5000);
    println!(
        "{} candidate paths, RFR, identical telemetry for both engines",
        r.paths
    );
    println!(
        "  cold  (seed behavior)    {:>12.1} decisions/s   ({} flows)",
        r.cold_dps, r.cold_flows
    );
    println!(
        "  warm  (trained cache)    {:>12.1} decisions/s   ({} flows)",
        r.warm_dps, r.warm_flows
    );
    println!(
        "  warm  (64-flow batches)  {:>12.1} decisions/s",
        r.warm_batch_dps
    );
    println!(
        "  speedup {:.0}x, recommendations matched: {}, cache {:?}",
        r.speedup, r.matched, r.cache
    );
    println!(
        "  warm work: {} assignments scored, {} progressive-fill rounds",
        r.warm_scored, r.warm_fill_rounds
    );
    let consults = r.cache.hits + r.cache.updates + r.cache.refits;
    let hit_rate = r.cache.hits as f64 / consults.max(1) as f64;

    // The million-flow control plane: a standing incremental water-fill
    // over 100k managed flows / 256 pairs, patched through 200
    // scheduler ticks of 32 flow events each. Best of five repetitions:
    // the tail is scheduler-noise-sensitive, and the minimum over
    // identical reruns estimates the machine's true latency while a
    // real solver regression slows every rep. The solve counters must
    // not move across reps — same seed, same event stream, same
    // structure — which doubles as a determinism check. Each rep also
    // times one full recompute of its own standing solution; the median
    // over the reps of recompute / tick p99 is the gated figure, since
    // both sides of it run seconds apart on the same host.
    let reps: Vec<_> = (0..5)
        .map(|_| figures::million_flow_tick(100_000, 256, 200, 32, 11))
        .collect();
    let counters = |r: &figures::TickLatencyReport| {
        (
            r.incremental_solves,
            r.full_solves,
            r.expansions,
            r.fast_path_events,
        )
    };
    for r in &reps[1..] {
        assert_eq!(
            counters(r),
            counters(&reps[0]),
            "tick counters moved across identical reruns"
        );
    }
    let mut ratios: Vec<f64> = reps
        .iter()
        .map(|r| r.full_recompute_us / r.tick_p99_us.max(1e-9))
        .collect();
    ratios.sort_by(f64::total_cmp);
    let recompute_over_p99 = ratios[ratios.len() / 2];
    let t = reps
        .into_iter()
        .reduce(|best, r| {
            if r.tick_p99_us < best.tick_p99_us {
                r
            } else {
                best
            }
        })
        .expect("five reps");
    println!(
        "\nmillion-flow tick: {} flows / {} pairs / {} links, {} ticks x {} events",
        t.flows, t.pairs, t.links, t.ticks, t.events_per_tick
    );
    println!(
        "  tick latency p50 {:.0} us, p99 {:.0} us, max {:.0} us (setup {:.0} ms)",
        t.tick_p50_us,
        t.tick_p99_us,
        t.tick_max_us,
        t.setup_us / 1e3
    );
    println!(
        "  full recompute {:.0} us ({:.0}x a median tick); solves: {} incremental, {} full, \
         {} expansions, {} fast-path",
        t.full_recompute_us,
        t.full_recompute_us / t.tick_p50_us.max(1e-9),
        t.incremental_solves,
        t.full_solves,
        t.expansions,
        t.fast_path_events
    );
    println!(
        "  full recompute / tick p99 (median of 5 reps): {:.1}",
        recompute_over_p99
    );
    println!("  audit (incremental == recompute, bitwise): {}", t.audited);
    assert!(t.audited, "incremental water-fill diverged from recompute");

    write_section(
        "throughput",
        false,
        vec![
            ("paths", Metric::exact(r.paths as f64)),
            ("cold_flows", Metric::exact(r.cold_flows as f64)),
            ("warm_flows", Metric::exact(r.warm_flows as f64)),
            ("matched", Metric::exact(f64::from(r.matched))),
            // What the warm decisions did, not how fast: a placement
            // search or fill change that does more or less work moves
            // these.
            ("warm_scored", Metric::exact(r.warm_scored as f64)),
            ("warm_fill_rounds", Metric::exact(r.warm_fill_rounds as f64)),
            // libm exp() ULP drift can flip a handful of cache
            // decisions across toolchains; the rate still must not
            // collapse (that is the warm path's whole point).
            (
                "cache_hit_rate",
                Metric::band(hit_rate, 0.0, 0.05).with_floor(0.5),
            ),
            ("cold_dps", Metric::wall(r.cold_dps)),
            ("warm_dps", Metric::wall(r.warm_dps).with_floor(2_000.0)),
            (
                "warm_batch_dps",
                Metric::wall(r.warm_batch_dps).with_floor(20_000.0),
            ),
            ("speedup", Metric::wall(r.speedup)),
            // The million-flow tick. Flow/pair scale, the audit and the
            // solve counters gate exactly (and the flow count carries
            // the >= 100k floor): the counters are deterministic per
            // seed, so any move is a changed decision. The p99 gets a
            // generous shared-runner band; ticks/sec is report-only (a
            // bare rate reads the host), and the floor sits on the
            // tick's p99 against a full recompute timed in the same reps.
            (
                "tick_flows",
                Metric::exact(t.flows as f64).with_floor(100_000.0),
            ),
            ("tick_pairs", Metric::exact(t.pairs as f64)),
            ("tick_audit", Metric::exact(f64::from(t.audited))),
            (
                "tick_incremental_solves",
                Metric::exact(t.incremental_solves as f64),
            ),
            (
                "tick_fast_path_events",
                Metric::exact(t.fast_path_events as f64),
            ),
            ("tick_p50_us", Metric::wall(t.tick_p50_us)),
            ("tick_p99_us", Metric::band(t.tick_p99_us, 3.0, 500.0)),
            ("tick_rate_hz", Metric::wall(1e6 / t.tick_p99_us.max(1e-9))),
            (
                "recompute_over_tick_p99",
                Metric::wall(recompute_over_p99).with_floor(RECOMPUTE_OVER_TICK_FLOOR),
            ),
            ("full_recompute_us", Metric::wall(t.full_recompute_us)),
        ],
    );
}

fn forwarding() {
    banner(
        "forwarding",
        "packet-level forwarding plane: PolKA vs segment list, sharded by ingress",
    );
    let r = figures::forwarding_scaling(40_000);
    println!(
        "{:<8} {:>6} {:>10} {:>12} {:>15}",
        "mode", "shards", "packets", "wall Mpps", "critical Mpps"
    );
    for row in &r.rows {
        println!(
            "{:<8} {:>6} {:>10} {:>12.3} {:>15.3}",
            row.mode, row.shards, row.packets, row.wall_mpps, row.critical_mpps
        );
    }
    println!(
        "label at ingress: PolKA {} bits (immutable) vs segment list {} bits (pop per hop)",
        r.polka_label_bits, r.seglist_label_bits
    );
    println!(
        "PolKA 1 -> 4 shards: critical-path {:.2}x, wall-clock {:.2}x on {} core(s)",
        r.scaling_1_to_4, r.wall_scaling_1_to_4, r.host_cores
    );
    println!(
        "(critical path = each shard run in isolation; equals wall clock when cores >= shards)"
    );
    let polka1 = &r.rows[0];
    assert_eq!((polka1.mode, polka1.shards), ("polka", 1));
    let over_division = figures::polka_over_division(10_000, 7);
    println!("PolKA 1-shard batch vs long division over the same hops: {over_division:.2}x");
    write_section(
        "forwarding",
        false,
        vec![
            ("packets", Metric::exact(polka1.packets as f64)),
            // `forwarding_scaling` panics before it reports counters
            // that differ across modes of execution or shard counts.
            ("counters_match", Metric::exact(1.0)),
            // An absolute rate, so it moves with the host's clock as
            // much as with the code (8.5-33 Mpps on a 2-core container):
            // report-only. `packets` and `counters_match` pin the work,
            // and `polka_over_division` gates the kernel.
            ("polka_critical_mpps", Metric::wall(polka1.critical_mpps)),
            // The same batch over long division of the same hops, the
            // median of 7 interleaved rounds: a ratio of two kernels in
            // one process, so its floor measures the code. The floor is
            // about half of what the position tables read when they
            // landed (49-73x over eight runs on a 2-core container).
            (
                "polka_over_division",
                Metric::wall(over_division).with_floor(25.0),
            ),
        ],
    );
}

fn steering() {
    banner(
        "ext-steering",
        "framework in the loop on trace-driven wireless links",
    );
    println!(
        "{:<16} {:>14} {:>11}",
        "policy", "goodput Mbps", "migrations"
    );
    let d = traces::UqDataset::generate(&traces::UqSpec {
        len: 220,
        outdoor_at: 50,
        arrival_at: 200,
        seed: 6,
    });
    for p in framework::Policy::all() {
        let r = figures::ext_steering(p, &d, 200).expect("steering run");
        println!(
            "{:<16} {:>14.2} {:>11}",
            r.policy.name(),
            r.mean_goodput,
            r.migrations
        );
    }
}

fn scenario_suite() {
    let smoke = std::env::var("SCENARIO_SMOKE").is_ok_and(|v| v == "1");
    banner(
        "ext-scenarios",
        &format!(
            "scenario-suite policy matrix{} — topology zoo x traffic x failures, fixed seeds",
            if smoke { " (smoke subset)" } else { "" }
        ),
    );
    let matrices = figures::scenario_suite(smoke);
    for m in &matrices {
        println!("\n{}", m.describe);
        print!("{}", scenarios::render_matrix(&m.name, &m.cards));
    }
    println!(
        "\n(goodput = mean aggregate Mbps; p50/p99 over per-flow per-epoch samples; \
         recovery = epochs back to 80% of pre-failure aggregate; deterministic per seed)"
    );
    // Suite-level aggregates over the Hecate cards: every count exact
    // (deterministic per seed: a moved count is a changed decision),
    // goodput banded, nothing wall-clocked here — the section diffs
    // clean between two same-seed runs by construction.
    let hecate: Vec<&scenarios::Scorecard> = matrices
        .iter()
        .flat_map(|m| m.cards.iter().filter(|c| c.policy == "hecate"))
        .collect();
    let sum_u = |f: fn(&scenarios::Scorecard) -> u64| hecate.iter().map(|c| f(c)).sum::<u64>();
    let sum_packet = |f: fn(&dataplane::netem::EventWork) -> u64| {
        let cards = matrices.iter().flat_map(|m| &m.cards);
        cards.map(|c| f(&c.packet_work)).sum::<u64>() as f64
    };
    let goodput: f64 = hecate.iter().map(|c| c.mean_aggregate_mbps).sum();
    let blames_match = hecate
        .iter()
        .all(|c| c.blames.len() as u64 == c.slo_violation_epochs);
    write_section(
        "scenarios",
        smoke,
        vec![
            ("scenario_count", Metric::exact(matrices.len() as f64)),
            (
                "hecate_blames_match_violations",
                Metric::exact(f64::from(blames_match)),
            ),
            ("hecate_goodput_mbps", Metric::band(goodput, 0.02, 0.0)),
            (
                "hecate_slo_violation_epochs",
                Metric::exact(sum_u(|c| c.slo_violation_epochs) as f64),
            ),
            (
                "hecate_migrations",
                Metric::exact(sum_u(|c| c.migrations) as f64),
            ),
            (
                "hecate_sim_events",
                Metric::exact(sum_u(|c| c.sim_events) as f64),
            ),
            // The stamps the telemetry stores keep, in runs: a store
            // that kept one stamp per sample moves this count.
            (
                "hecate_telemetry_runs",
                Metric::exact(sum_u(|c| c.telemetry_runs) as f64),
            ),
            // The packet plane's event core over every card (the
            // fat-tree packet scenarios run it): the same counts on any
            // number of cores, so exact.
            (
                "packet_emissions",
                Metric::exact(sum_packet(|w| w.emissions)),
            ),
            ("packet_arrivals", Metric::exact(sum_packet(|w| w.arrivals))),
            ("packet_hops", Metric::exact(sum_packet(|w| w.hops))),
            (
                "packet_tie_groups",
                Metric::exact(sum_packet(|w| w.tie_groups)),
            ),
            (
                "packet_tie_fallbacks",
                Metric::exact(sum_packet(|w| w.tie_fallbacks)),
            ),
            // These follow the shard count, hence the host's cores.
            ("packet_windows", Metric::wall(sum_packet(|w| w.windows))),
            ("packet_handoffs", Metric::wall(sum_packet(|w| w.handoffs))),
            (
                "packet_busiest_shard_share",
                Metric::wall(busiest_shard_share(&matrices)),
            ),
        ],
    );
}

/// The busiest shard's share of the heads popped over every packet
/// scenario: 1 on one shard, ½ when two split the work evenly.
fn busiest_shard_share(matrices: &[figures::ScenarioMatrix]) -> f64 {
    let mut per_shard: Vec<u64> = Vec::new();
    for card in matrices.iter().flat_map(|m| &m.cards) {
        let events = &card.packet_work.shard_events;
        per_shard.resize(per_shard.len().max(events.len()), 0);
        for (total, e) in per_shard.iter_mut().zip(events) {
            *total += e;
        }
    }
    let all: u64 = per_shard.iter().sum();
    per_shard
        .iter()
        .max()
        .map_or(0.0, |&most| most as f64 / all.max(1) as f64)
}

fn sim_scale() {
    let smoke = std::env::var("SCENARIO_SMOKE").is_ok_and(|v| v == "1");
    banner(
        "ext-sim",
        &format!(
            "event-driven core at scale: scale-1k{} run twice, bit-identity asserted",
            if smoke { " (smoke cut)" } else { "" }
        ),
    );
    let r = figures::sim_scale(smoke);
    println!(
        "{}: {} epochs, {} external events (at most {} queued at once, {} list steps), \
         {:.2} s wall, {:.0} events/s, {:.2} Mbps managed aggregate",
        r.scenario,
        r.epochs,
        r.sim_events,
        r.queue_peak_events,
        r.queue_list_steps,
        r.wall_s,
        r.events_per_sec,
        r.mean_aggregate_mbps
    );
    println!("replay check: untraced and profiled runs produced bit-identical scorecards");
    println!(
        "phase split (profiled replay, {:.2} s wall): water-fill {:.2} s over {} solves, \
         event dispatch {:.2} s over {} batches ({:.0} events/s dispatch-only)",
        r.profiled_wall_s,
        r.waterfill_wall_s,
        r.waterfill_solves,
        r.dispatch_wall_s,
        r.dispatch_batches,
        r.dispatch_events_per_sec
    );
    write_section(
        "sim",
        smoke,
        vec![
            ("epochs", Metric::exact(r.epochs as f64)),
            ("sim_events", Metric::exact(r.sim_events as f64)),
            (
                "queue_peak_events",
                Metric::exact(r.queue_peak_events as f64),
            ),
            ("queue_list_steps", Metric::exact(r.queue_list_steps as f64)),
            (
                "mean_aggregate_mbps",
                Metric::band(r.mean_aggregate_mbps, 0.02, 0.0),
            ),
            ("waterfill_solves", Metric::exact(r.waterfill_solves as f64)),
            ("dispatch_batches", Metric::exact(r.dispatch_batches as f64)),
            ("wall_s", Metric::wall(r.wall_s)),
            (
                "events_per_sec",
                Metric::wall(r.events_per_sec).with_floor(20_000.0),
            ),
            (
                "dispatch_events_per_sec",
                Metric::wall(r.dispatch_events_per_sec),
            ),
            // The profiled replay's phase split (report-only).
            ("profiled_wall_s", Metric::wall(r.profiled_wall_s)),
            ("waterfill_wall_s", Metric::wall(r.waterfill_wall_s)),
            ("dispatch_wall_s", Metric::wall(r.dispatch_wall_s)),
        ],
    );
}

fn trace_artifact() {
    let smoke = std::env::var("SCENARIO_SMOKE").is_ok_and(|v| v == "1");
    banner(
        "ext-trace",
        "observability artifact: the control loop as a sim-time trace",
    );
    // A multi-pair catalog scenario under the full policy exercises
    // every instrumented phase: decision ticks, water-fill solves,
    // event dispatch, migrations.
    let scenario = scenarios::catalog()
        .into_iter()
        .find(|s| s.name == "wan-multipair")
        .expect("catalog has the multi-pair WAN");
    let scenario = if smoke {
        scenario.scaled(0.4)
    } else {
        scenario
    };
    // Flight recorder doubles as the panic dump for this process.
    let flight = obsv::FlightRecorder::new(4096);
    obsv::install_panic_dump(flight.clone());
    let opts = scenarios::ObsvOptions {
        trace: true,
        snapshots: true,
        flight_capacity: 0, // the runner's own ring is redundant here
        extra_sink: Some(flight),
    };
    let (card, art) = scenario
        .run_observed(scenarios::Policy::Hecate, &opts)
        .expect("wan-multipair runs observed");
    // The artifact is only worth shipping if it is complete and valid:
    // every control-loop phase spanned, and the Chrome export parses.
    let spans = art.span_names();
    const PHASES: [&str; 10] = [
        "scenario.epoch",
        "scenario.consult",
        "decide.consult",
        "decide.forecast",
        "ml.fit",
        "ml.roll",
        "decide.place",
        "decide.solve",
        "sim.dispatch",
        "sim.waterfill",
    ];
    for phase in PHASES {
        assert!(
            spans.contains(&phase),
            "no {phase} span in trace: {spans:?}"
        );
    }
    let chrome = art.chrome_trace();
    let parsed = obsv::export::parse_json(&chrome).expect("chrome trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert_eq!(events.len(), art.records.len());
    let metrics = card.metrics.as_ref().expect("snapshots were on");
    println!(
        "{}: {} trace records, {} span kinds, {} counter rows, {} SLO-violation epochs",
        card.scenario,
        art.records.len(),
        spans.len(),
        metrics.totals.len(),
        card.slo_violation_epochs
    );
    println!(
        "loop totals: {} cache hits / {} refits, {} water-fill expansions",
        metrics.total("hecate.cache.hits"),
        metrics.total("hecate.cache.refits"),
        metrics.total("netsim.waterfill.expansions")
    );
    // Phase budget: the streaming analyzer over the full trace. Stamps
    // are sim-time, so the table is deterministic per seed.
    let mut analyzer = obsv_analyze::TraceAnalyzer::default();
    analyzer.push_records(&art.records);
    assert_eq!(analyzer.dangling_ends(), 0, "trace has unmatched Ends");
    assert_eq!(analyzer.open_spans(), 0, "trace has unclosed spans");
    println!("\nphase budget (sim-time):");
    print!("{}", analyzer.render_phase_table(&PHASES));
    println!("{}", analyzer.render_critical_path());
    // Root-cause attribution: one blame line per violation epoch, by
    // construction.
    assert_eq!(
        card.blames.len() as u64,
        card.slo_violation_epochs,
        "every SLO-violation epoch must carry a blame"
    );
    for line in card.blame_lines() {
        println!("{line}");
    }
    if std::env::var("OBSV_TRACE").is_ok_and(|v| v == "1") {
        match std::fs::write("TRACE_loop.jsonl", art.jsonl())
            .and_then(|()| std::fs::write("TRACE_loop_chrome.json", &chrome))
        {
            Ok(()) => println!("wrote TRACE_loop.jsonl and TRACE_loop_chrome.json"),
            Err(e) => eprintln!("could not write trace artifacts: {e}"),
        }
    } else {
        println!("(set OBSV_TRACE=1 to write TRACE_loop.jsonl / TRACE_loop_chrome.json)");
    }
}

fn mlp() {
    banner(
        "ext-mlp",
        "future-work neural network vs the paper's models",
    );
    println!("{:<8} {:>10} {:>10}", "model", "WiFi RMSE", "LTE RMSE");
    for (name, wifi, lte) in figures::ext_mlp() {
        println!("{name:<8} {wifi:>10.2} {lte:>10.2}");
    }
}

fn cv() {
    banner(
        "ext-cv",
        "walk-forward cross-validated model selection (WiFi trace)",
    );
    println!("{:<12} {:>10}  fold RMSEs", "model", "mean RMSE");
    for r in figures::ext_cv() {
        let folds: Vec<String> = r.fold_rmse.iter().map(|v| format!("{v:.2}")).collect();
        println!(
            "{:<12} {:>10.2}  [{}]",
            r.kind.label(),
            r.mean_rmse,
            folds.join(", ")
        );
    }
}
