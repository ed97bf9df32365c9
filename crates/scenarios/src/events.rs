//! Scripted event timelines: link failures, flap storms and
//! maintenance drains, compiled against a concrete topology + primary
//! tunnel into a flat list of per-epoch link actions the runner applies
//! through the framework's `set_link_state` / capacity hooks.

use crate::ScenarioError;
use netsim::{LinkId, NodeIdx, Topology};

/// How an event selects its victim link.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkPick {
    /// The link between two named routers.
    Between(String, String),
    /// The h-th hop of the primary tunnel (`tunnel1`, the shortest
    /// path), clamped to the path length — `PrimaryHop(1)` is the first
    /// router-to-router hop, the classic "failure that actually hurts".
    PrimaryHop(usize),
    /// The i-th link of the topology's link list (for reproducing a
    /// specific random-graph case).
    ByIndex(usize),
}

/// One scripted impairment.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Hard link failure, optionally restored after a hold-down.
    LinkDown {
        /// Victim link.
        link: LinkPick,
        /// Epochs until restoration; `None` = permanent.
        restore_after: Option<u64>,
    },
    /// A flap storm: the link goes down/up `flaps` times, one cycle per
    /// `period_epochs` (down for half the period, at least one epoch).
    FlapStorm {
        /// Victim link.
        link: LinkPick,
        /// Number of down/up cycles.
        flaps: u32,
        /// Cycle length in epochs.
        period_epochs: u64,
    },
    /// Maintenance drain / capacity degradation: the link's capacity is
    /// multiplied by `factor`, optionally restored later.
    Drain {
        /// Victim link.
        link: LinkPick,
        /// Capacity multiplier in (0..1].
        factor: f64,
        /// Epochs until full capacity returns; `None` = permanent.
        restore_after: Option<u64>,
    },
}

/// An event plus when it fires.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpec {
    /// Epoch at which the impairment starts.
    pub at_epoch: u64,
    /// What happens.
    pub kind: EventKind,
}

/// What the runner does to a link at one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkAction {
    /// Fail (false) or restore (true).
    SetUp(bool),
    /// Scale the link's raw capacity by this factor (1.0 = restored).
    SetScale(f64),
}

/// A compiled, concrete action: which link, when, what — plus whether
/// this action *starts* a failure (the recovery-time clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledAction {
    /// Epoch the action applies at.
    pub epoch: u64,
    /// The victim link.
    pub link: LinkId,
    /// The action.
    pub action: LinkAction,
    /// True for the initial down of a `LinkDown` / `FlapStorm` — the
    /// scorecard measures recovery time from these epochs.
    pub starts_failure: bool,
}

/// The link a pick names: the first link between its endpoints.
fn resolve(pick: &LinkPick, topo: &Topology, primary: &[NodeIdx]) -> Result<LinkId, ScenarioError> {
    let (a, b) = match pick {
        LinkPick::Between(a, b) => (topo.node(a)?, topo.node(b)?),
        LinkPick::PrimaryHop(h) => {
            if primary.len() < 2 {
                return Err(ScenarioError::Config("primary path too short".into()));
            }
            let h = (*h).min(primary.len() - 2);
            (primary[h], primary[h + 1])
        }
        LinkPick::ByIndex(i) => {
            let link = topo
                .links()
                .get(*i)
                .ok_or_else(|| ScenarioError::Config(format!("no link #{i}")))?;
            (link.a, link.b)
        }
    };
    Ok(topo.link_between(a, b)?)
}

/// Compiles a timeline against a topology and the primary tunnel path.
/// Actions come out sorted by epoch (stable within an epoch: spec
/// order), so the runner can walk them with a cursor.
pub fn compile_events(
    specs: &[EventSpec],
    topo: &Topology,
    primary: &[NodeIdx],
) -> Result<Vec<CompiledAction>, ScenarioError> {
    let mut out = Vec::new();
    let mut push = |epoch, link, action, starts_failure| {
        out.push(CompiledAction {
            epoch,
            link,
            action,
            starts_failure,
        })
    };
    for spec in specs {
        let at = spec.at_epoch;
        match &spec.kind {
            EventKind::LinkDown {
                link,
                restore_after,
            } => {
                let link = resolve(link, topo, primary)?;
                push(at, link, LinkAction::SetUp(false), true);
                if let Some(d) = restore_after {
                    push(at + (*d).max(1), link, LinkAction::SetUp(true), false);
                }
            }
            EventKind::FlapStorm {
                link,
                flaps,
                period_epochs,
            } => {
                let link = resolve(link, topo, primary)?;
                let period = (*period_epochs).max(2);
                let down_for = (period / 2).max(1);
                for i in 0..*flaps {
                    let down = at + i as u64 * period;
                    push(down, link, LinkAction::SetUp(false), i == 0);
                    push(down + down_for, link, LinkAction::SetUp(true), false);
                }
            }
            EventKind::Drain {
                link,
                factor,
                restore_after,
            } => {
                if !(*factor > 0.0 && *factor <= 1.0) {
                    return Err(ScenarioError::Config(format!(
                        "drain factor {factor} outside (0, 1]"
                    )));
                }
                let link = resolve(link, topo, primary)?;
                push(at, link, LinkAction::SetScale(*factor), false);
                if let Some(d) = restore_after {
                    push(at + (*d).max(1), link, LinkAction::SetScale(1.0), false);
                }
            }
        }
    }
    out.sort_by_key(|a| a.epoch);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn primary(topo: &Topology) -> Vec<NodeIdx> {
        let (s, d) = zoo::endpoints(topo);
        topo.shortest_path_by_delay(s, d).unwrap()
    }

    #[test]
    fn link_down_with_restore_compiles_to_two_actions() {
        let t = zoo::fat_tree(4);
        let p = primary(&t);
        let acts = compile_events(
            &[EventSpec {
                at_epoch: 10,
                kind: EventKind::LinkDown {
                    link: LinkPick::PrimaryHop(1),
                    restore_after: Some(5),
                },
            }],
            &t,
            &p,
        )
        .unwrap();
        assert_eq!(acts.len(), 2);
        assert_eq!(acts[0].epoch, 10);
        assert!(acts[0].starts_failure);
        assert_eq!(acts[0].action, LinkAction::SetUp(false));
        assert_eq!(acts[1].epoch, 15);
        assert_eq!(acts[1].action, LinkAction::SetUp(true));
        // The victim is the primary path's second hop.
        assert_eq!(acts[0].link, t.link_between(p[1], p[2]).unwrap());
        assert_eq!(acts[1].link, acts[0].link);
    }

    #[test]
    fn flap_storm_marks_one_failure_and_alternates() {
        let t = zoo::ring_chords(12, 3);
        let p = primary(&t);
        let acts = compile_events(
            &[EventSpec {
                at_epoch: 4,
                kind: EventKind::FlapStorm {
                    link: LinkPick::PrimaryHop(0),
                    flaps: 3,
                    period_epochs: 4,
                },
            }],
            &t,
            &p,
        )
        .unwrap();
        assert_eq!(acts.len(), 6);
        assert_eq!(acts.iter().filter(|a| a.starts_failure).count(), 1);
        let epochs: Vec<u64> = acts.iter().map(|a| a.epoch).collect();
        assert_eq!(epochs, vec![4, 6, 8, 10, 12, 14]);
        // Sorted + alternating down/up.
        for (i, a) in acts.iter().enumerate() {
            assert_eq!(a.action, LinkAction::SetUp(i % 2 == 1));
        }
    }

    #[test]
    fn drain_validates_factor_and_primary_hop_clamps() {
        let t = zoo::geant_like();
        let p = primary(&t);
        assert!(compile_events(
            &[EventSpec {
                at_epoch: 0,
                kind: EventKind::Drain {
                    link: LinkPick::PrimaryHop(0),
                    factor: 1.5,
                    restore_after: None,
                },
            }],
            &t,
            &p,
        )
        .is_err());
        // A hop index past the path end clamps to the last hop.
        let acts = compile_events(
            &[EventSpec {
                at_epoch: 3,
                kind: EventKind::Drain {
                    link: LinkPick::PrimaryHop(999),
                    factor: 0.25,
                    restore_after: Some(4),
                },
            }],
            &t,
            &p,
        )
        .unwrap();
        let last_hop = t.link_between(p[p.len() - 2], p[p.len() - 1]).unwrap();
        assert_eq!(acts[0].link, last_hop);
        assert_eq!(acts[0].action, LinkAction::SetScale(0.25));
        assert_eq!(acts[1].action, LinkAction::SetScale(1.0));
    }

    #[test]
    fn named_and_indexed_picks_resolve() {
        let t = zoo::esnet_like();
        let p = primary(&t);
        let acts = compile_events(
            &[
                EventSpec {
                    at_epoch: 1,
                    kind: EventKind::LinkDown {
                        link: LinkPick::Between("DENV".into(), "KANS".into()),
                        restore_after: None,
                    },
                },
                EventSpec {
                    at_epoch: 0,
                    kind: EventKind::LinkDown {
                        link: LinkPick::ByIndex(0),
                        restore_after: None,
                    },
                },
            ],
            &t,
            &p,
        )
        .unwrap();
        // Sorted by epoch.
        assert_eq!(acts[0].epoch, 0);
        let ends = |lid: LinkId| {
            let l = t.link(lid);
            (t.node_name(l.a), t.node_name(l.b))
        };
        assert_eq!(acts[0].link, LinkId(0));
        assert_eq!(ends(acts[0].link), ("SEAT", "SACR"));
        assert_eq!(ends(acts[1].link), ("DENV", "KANS"));
        // Unknown node errors.
        assert!(compile_events(
            &[EventSpec {
                at_epoch: 0,
                kind: EventKind::LinkDown {
                    link: LinkPick::Between("NOPE".into(), "KANS".into()),
                    restore_after: None,
                },
            }],
            &t,
            &p,
        )
        .is_err());
    }
}
