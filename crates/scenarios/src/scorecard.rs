//! The scorecard: what one `(scenario, policy, seed)` run measured,
//! plus the policy-matrix rendering.
//!
//! Scorecards are **plain deterministic data** — `PartialEq` compares
//! every float bit-for-bit, which is exactly the replay contract the
//! determinism proptest enforces.

use dataplane::netem::EventWork;
use framework::dashboard::{render_table, sparkline};

/// Recovery bookkeeping for one scripted failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Epoch the failure fired.
    pub failed_at_epoch: u64,
    /// Epochs until aggregate goodput regained 80% of its pre-failure
    /// level; `None` = never recovered within the horizon.
    pub recovered_after_epochs: Option<u64>,
}

/// What one managed pair contributed to a multi-pair run — the
/// attribution rows that make a regression on *one* pair visible under
/// an otherwise healthy aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct PairScore {
    /// Pair namespace (`p0`, `p1`, …).
    pub pair: String,
    /// `ingress-egress` router names.
    pub route: String,
    /// Mean aggregate goodput of this pair's flows over epochs where at
    /// least one of them had started (Mbps).
    pub mean_goodput_mbps: f64,
    /// Median per-flow per-epoch throughput sample of this pair (Mbps).
    pub p50_flow_mbps: f64,
    /// 99th-percentile per-flow per-epoch sample of this pair (Mbps).
    pub p99_flow_mbps: f64,
    /// Migrations the policy performed on this pair's flows.
    pub migrations: u64,
}

/// Metrics folded from the run's obsv registry — per-epoch counter
/// deltas plus final totals, both in ascending name order so the
/// section compares bitwise like every other scorecard field.
///
/// Present only on observed runs with snapshots enabled
/// (`Scenario::run_observed`); plain `run()` scorecards carry `None`
/// and stay byte-for-byte what they always were.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSection {
    /// Final counter totals (`netsim.waterfill.*`, `hecate.cache.*`,
    /// and the per-pair `hecate.cache.p<N>.*` scopes).
    pub totals: Vec<(String, u64)>,
    /// Counter increments during each epoch (entry `e` covers epoch
    /// `e`), zero rows suppressed.
    pub per_epoch: Vec<Vec<(String, u64)>>,
}

impl MetricsSection {
    /// Final total of one counter; absent counters read 0.
    pub fn total(&self, name: &str) -> u64 {
        self.totals
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.totals[i].1)
            .unwrap_or(0)
    }
}

/// What one scenario run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Scorecard {
    /// Scenario name.
    pub scenario: String,
    /// Policy that drove the run.
    pub policy: String,
    /// Master seed.
    pub seed: u64,
    /// Epochs executed (1 epoch = 1 simulated second).
    pub epochs: u64,
    /// Mean aggregate managed goodput over epochs where at least one
    /// flow had started (Mbps).
    pub mean_aggregate_mbps: f64,
    /// Median per-flow per-epoch throughput sample (Mbps).
    pub p50_flow_mbps: f64,
    /// 99th-percentile per-flow per-epoch throughput sample (Mbps) —
    /// the tail a lucky flow reaches.
    pub p99_flow_mbps: f64,
    /// Epochs in which at least one demand-declared flow delivered less
    /// than the scenario's SLO fraction of its demand.
    pub slo_violation_epochs: u64,
    /// One classified root-cause blame per violation epoch
    /// (`blames.len() == slo_violation_epochs` by construction) —
    /// computed from the scripted timeline and always-on metrics, so
    /// plain and observed runs carry identical lists.
    pub blames: Vec<obsv_analyze::Blame>,
    /// Path migrations the policy performed.
    pub migrations: u64,
    /// External simulator events applied during the run (rate
    /// convergence is flow state, not an event) — the numerator of the
    /// event core's events/sec throughput reporting. Deterministic like
    /// every other field.
    pub sim_events: u64,
    /// The most events the simulator's queue held at once
    /// ([`netsim::Simulation::queue_peak_events`]): what a pre-loaded
    /// schedule costs in memory, in entries.
    pub queue_peak_events: u64,
    /// Queued events the simulator's scheduling walked past to keep its
    /// buckets in order ([`netsim::Simulation::queue_list_steps`]): the
    /// queue's work beyond O(1) per event. Not rendered in the matrix.
    pub queue_list_steps: u64,
    /// The timestamp runs the run's telemetry store held at the end
    /// ([`framework::TelemetryService::stamp_runs`]): one per series
    /// sampled on a steady cadence, plus one per break in a cadence.
    /// Not rendered in the matrix.
    pub telemetry_runs: u64,
    /// The packet plane's event-core work (all zero on the fluid
    /// plane). Its counts of packets, hops and ties are the same on any
    /// number of cores; its windows, handoffs and per-shard events are
    /// not.
    pub packet_work: EventWork,
    /// Per-scripted-failure recovery times.
    pub recoveries: Vec<Recovery>,
    /// Aggregate managed goodput per epoch (Mbps) — the sparkline, and
    /// the series recoveries are measured on.
    pub aggregate_series: Vec<f64>,
    /// Per-managed-pair attribution (one entry per pair; single-pair
    /// scenarios have exactly one, mirroring the aggregate).
    pub per_pair: Vec<PairScore>,
    /// Control-loop metrics (water-fill solve counters, Hecate cache
    /// hits/refits globally and per pair) — `None` unless the run was
    /// observed with snapshots on.
    pub metrics: Option<MetricsSection>,
}

/// Column headers matching [`Scorecard::row`].
pub const HEADERS: [&str; 7] = [
    "policy", "goodput", "p50", "p99", "slo-viol", "migr", "recovery",
];

/// Cap on rendered blame lines per policy (see
/// [`Scorecard::blame_lines`]).
pub const MAX_BLAME_LINES: usize = 6;

impl Scorecard {
    /// One table row (policy-matrix format; see [`HEADERS`]).
    pub fn row(&self) -> Vec<String> {
        let recovery = if self.recoveries.is_empty() {
            "-".to_string()
        } else {
            self.recoveries
                .iter()
                .map(|r| match r.recovered_after_epochs {
                    Some(e) => format!("{e}ep"),
                    None => "never".to_string(),
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        vec![
            self.policy.clone(),
            format!("{:.2}", self.mean_aggregate_mbps),
            format!("{:.2}", self.p50_flow_mbps),
            format!("{:.2}", self.p99_flow_mbps),
            format!("{}", self.slo_violation_epochs),
            format!("{}", self.migrations),
            recovery,
        ]
    }

    /// Per-pair attribution rows (same columns as [`Scorecard::row`];
    /// the pair has no SLO/recovery bookkeeping of its own, so those
    /// cells read `-`). Empty on single-pair scorecards — the aggregate
    /// line already *is* the one pair.
    fn pair_rows(&self) -> Vec<Vec<String>> {
        if self.per_pair.len() <= 1 {
            return Vec::new();
        }
        self.per_pair
            .iter()
            .map(|p| {
                vec![
                    format!("  {} {}", p.pair, p.route),
                    format!("{:.2}", p.mean_goodput_mbps),
                    format!("{:.2}", p.p50_flow_mbps),
                    format!("{:.2}", p.p99_flow_mbps),
                    "-".to_string(),
                    format!("{}", p.migrations),
                    "-".to_string(),
                ]
            })
            .collect()
    }

    /// Blame lines for the matrix rendering: one root-cause line per
    /// violation epoch, capped at [`MAX_BLAME_LINES`] with a `+N more`
    /// tail so a persistently-violating run stays one screen. Empty
    /// when the run never violated.
    pub fn blame_lines(&self) -> Vec<String> {
        if self.blames.is_empty() {
            return Vec::new();
        }
        let mut out = vec![format!("  {:<16} slo blame:", self.policy)];
        for b in self.blames.iter().take(MAX_BLAME_LINES) {
            out.push(format!("    {}", b.line()));
        }
        if self.blames.len() > MAX_BLAME_LINES {
            out.push(format!(
                "    ... +{} more violation epoch(s)",
                self.blames.len() - MAX_BLAME_LINES
            ));
        }
        out
    }

    /// Control-loop metric lines for the matrix rendering: one summary
    /// line (water-fill solve counters + global cache behavior), then
    /// one cache-attribution line per pair on multi-pair runs. Empty
    /// when the run was not observed with snapshots.
    fn metrics_lines(&self) -> Vec<String> {
        let Some(m) = &self.metrics else {
            return Vec::new();
        };
        let mut out = vec![format!(
            "  {:<16} waterfill {} incr / {} full / {} expansions; cache {} hits / {} refits",
            self.policy,
            m.total("netsim.waterfill.incremental_solves"),
            m.total("netsim.waterfill.full_solves"),
            m.total("netsim.waterfill.expansions"),
            m.total("hecate.cache.hits"),
            m.total("hecate.cache.refits"),
        )];
        if self.per_pair.len() > 1 {
            for p in &self.per_pair {
                let hits = m.total(&format!("hecate.cache.{}.hits", p.pair));
                let updates = m.total(&format!("hecate.cache.{}.updates", p.pair));
                let refits = m.total(&format!("hecate.cache.{}.refits", p.pair));
                let consults = hits + updates + refits;
                if consults == 0 {
                    continue;
                }
                out.push(format!(
                    "    {:<14} cache {} hits / {} updates / {} refits ({:.0}% hit)",
                    p.pair,
                    hits,
                    updates,
                    refits,
                    100.0 * hits as f64 / consults as f64,
                ));
            }
        }
        out
    }
}

/// Deterministic nearest-rank percentile (q in 0..=1) over a copy of
/// the samples. Empty input yields 0.0.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Renders one scenario's policy comparison as a one-screen dashboard
/// frame: the scorecard table — each policy's aggregate line followed
/// by its per-pair attribution rows on multi-pair scenarios — plus one
/// goodput sparkline per policy.
pub fn render_matrix(title: &str, cards: &[Scorecard]) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for c in cards {
        rows.push(c.row());
        rows.extend(c.pair_rows());
    }
    let mut out = render_table(title, &HEADERS, &rows);
    for c in cards {
        out.push_str(&format!(
            "  {:<16} {}\n",
            c.policy,
            sparkline(&c.aggregate_series)
        ));
    }
    for c in cards {
        for line in c.blame_lines() {
            out.push_str(&line);
            out.push('\n');
        }
    }
    for c in cards {
        for line in c.metrics_lines() {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn card(policy: &str) -> Scorecard {
        Scorecard {
            scenario: "s".into(),
            policy: policy.into(),
            seed: 1,
            epochs: 4,
            mean_aggregate_mbps: 12.5,
            p50_flow_mbps: 4.0,
            p99_flow_mbps: 9.25,
            slo_violation_epochs: 2,
            blames: vec![],
            migrations: 3,
            sim_events: 99,
            queue_peak_events: 7,
            queue_list_steps: 6,
            telemetry_runs: 5,
            packet_work: EventWork::default(),
            recoveries: vec![
                Recovery {
                    failed_at_epoch: 10,
                    recovered_after_epochs: Some(4),
                },
                Recovery {
                    failed_at_epoch: 30,
                    recovered_after_epochs: None,
                },
            ],
            aggregate_series: vec![1.0, 8.0, 12.0, 12.5],
            per_pair: vec![
                PairScore {
                    pair: "p0".into(),
                    route: "SEAT-BOST".into(),
                    mean_goodput_mbps: 8.0,
                    p50_flow_mbps: 3.0,
                    p99_flow_mbps: 6.5,
                    migrations: 2,
                },
                PairScore {
                    pair: "p1".into(),
                    route: "SUNN-NEWY".into(),
                    mean_goodput_mbps: 4.5,
                    p50_flow_mbps: 1.0,
                    p99_flow_mbps: 2.75,
                    migrations: 1,
                },
            ],
            metrics: None,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn matrix_renders_rows_and_sparklines() {
        let frame = render_matrix("fat-tree(4)", &[card("hecate"), card("static-shortest")]);
        assert!(frame.contains("=== fat-tree(4) ==="));
        assert!(frame.contains("hecate"));
        assert!(frame.contains("static-shortest"));
        assert!(frame.contains("12.50"));
        assert!(frame.contains("4ep,never"));
        // two sparkline lines
        assert!(frame.matches('\u{2581}').count() >= 2);
    }

    #[test]
    fn per_pair_rows_attribute_multi_pair_regressions() {
        let frame = render_matrix("wan-multipair", &[card("hecate")]);
        // The aggregate line and one attribution row per pair, with
        // goodput, p99 and migrations visible per pair.
        assert!(frame.contains("p0 SEAT-BOST"));
        assert!(frame.contains("p1 SUNN-NEWY"));
        assert!(frame.contains("8.00"));
        assert!(frame.contains("2.75"));
        // A single-pair card renders no attribution rows.
        let mut single = card("hecate");
        single.per_pair.truncate(1);
        assert!(single.pair_rows().is_empty());
        let lines = render_matrix("s", &[single]).lines().count();
        assert!(lines < frame.lines().count());
    }

    #[test]
    fn metrics_section_renders_waterfill_and_per_pair_cache_lines() {
        let mut c = card("hecate");
        c.metrics = Some(MetricsSection {
            totals: vec![
                ("hecate.cache.hits".into(), 9),
                ("hecate.cache.p0.hits".into(), 6),
                ("hecate.cache.p0.refits".into(), 2),
                ("hecate.cache.p0.updates".into(), 0),
                ("hecate.cache.refits".into(), 3),
                ("netsim.waterfill.expansions".into(), 40),
                ("netsim.waterfill.full_solves".into(), 3),
                ("netsim.waterfill.incremental_solves".into(), 12),
            ],
            per_epoch: vec![vec![("hecate.cache.hits".into(), 9)]],
        });
        let m = c.metrics.as_ref().unwrap();
        assert_eq!(m.total("netsim.waterfill.expansions"), 40);
        assert_eq!(m.total("no.such.counter"), 0);
        let frame = render_matrix("t", &[c]);
        assert!(frame.contains("waterfill 12 incr / 3 full / 40 expansions"));
        assert!(frame.contains("cache 9 hits / 3 refits"));
        // p0 attributes 6 hits out of 8 consultations; p1 has no scoped
        // counters and renders no line.
        assert!(frame.contains("cache 6 hits / 0 updates / 2 refits (75% hit)"));
        assert!(!frame.contains("p1             cache"));
        // A card without metrics renders no metric lines at all.
        assert!(card("hecate").metrics_lines().is_empty());
    }

    #[test]
    fn blame_lines_render_capped_with_a_more_tail() {
        let mut c = card("hecate");
        assert!(c.blame_lines().is_empty());
        c.blames = (0..9)
            .map(|e| obsv_analyze::Blame {
                epoch: 20 + e,
                cause: obsv_analyze::BlameCause::LinkFailure,
                detail: format!("link a-b down {e} epoch(s)"),
                flows: vec!["f2".into()],
            })
            .collect();
        let lines = c.blame_lines();
        // Header + MAX_BLAME_LINES blames + the overflow tail.
        assert_eq!(lines.len(), 1 + MAX_BLAME_LINES + 1);
        assert!(lines[1].contains("link-failure"));
        assert!(lines[1].contains("f2"));
        assert!(lines.last().unwrap().contains("+3 more"));
        let frame = render_matrix("t", &[c]);
        assert!(frame.contains("slo blame:"));
        assert!(frame.contains("epoch  20"));
    }

    #[test]
    fn scorecards_compare_bitwise() {
        assert_eq!(card("p"), card("p"));
        let mut other = card("p");
        other.aggregate_series[2] += 1e-12;
        assert_ne!(card("p"), other);
    }
}
