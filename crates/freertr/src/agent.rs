//! Router agents on a message queue.
//!
//! The paper: "we manage FreeRtr configurations by sending messages
//! through a Message Queue to reconfigure the router. A service receives
//! these messages, applies the necessary commands to reconfigure FreeRtr,
//! and then ensures the router operates with the updated configuration."
//!
//! Each [`RouterAgent`] runs on its own thread, consumes [`ConfigMsg`]s
//! from a crossbeam channel, applies them to its [`RouterConfig`] behind
//! a `parking_lot::RwLock`, and acknowledges. A message is one
//! *transaction* — an ordered list of [`ConfigOp`]s applied under one
//! write-lock, all or nothing, with one ack — so a controller admitting
//! a batch of flows pays one round-trip per ingress, not two per flow,
//! and [`RouterHandle::send`] lets it overlap the round-trips of several
//! edges. [`MessageQueue`] is the broker: it owns the per-router senders
//! and joins the agents on shutdown.

use crate::config::{parse_config, AclRule, RouterConfig, TunnelCfg};
use crate::FreertrError;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One configuration step of a transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigOp {
    /// Replace the whole configuration from config text.
    ApplyText(String),
    /// Install an access list if no rule with that name exists yet
    /// (the controller uses this when admitting a brand-new flow).
    EnsureAcl(AclRule),
    /// Install a tunnel interface if none with that name exists yet
    /// (the controller uses this after automatic tunnel discovery).
    EnsureTunnel(TunnelCfg),
    /// Rebind an ACL to a tunnel (the migration primitive).
    SetPbr {
        /// Access-list name.
        acl: String,
        /// Target tunnel.
        tunnel: String,
    },
}

/// Messages understood by a router agent.
#[derive(Debug)]
pub enum ConfigMsg {
    /// One transaction: the ops are applied in order under a single
    /// config write-lock — a concurrent [`RouterHandle::running_config`]
    /// sees all of them or none — and acknowledged once. All-or-nothing:
    /// when an op fails the configuration is put back exactly as the
    /// transaction found it and the ack carries that op's error.
    Apply(Vec<ConfigOp>, Sender<Result<(), FreertrError>>),
    /// Stop the agent thread.
    Shutdown,
}

/// The acknowledgment of a transaction already on its way to the agent
/// ([`RouterHandle::send`]).
#[must_use = "a transaction's outcome is only known once its ack is awaited"]
pub struct PendingAck(Receiver<Result<(), FreertrError>>);

impl PendingAck {
    /// Blocks until the agent has applied (or refused) the transaction.
    pub fn wait(self) -> Result<(), FreertrError> {
        self.0.recv().map_err(|_| FreertrError::ChannelClosed)?
    }
}

/// A handle for sending configuration to one router.
#[derive(Clone)]
pub struct RouterHandle {
    name: String,
    tx: Sender<ConfigMsg>,
    config: Arc<RwLock<RouterConfig>>,
}

impl RouterHandle {
    /// The router's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Queues one transaction on the agent and returns at once; the
    /// caller may [`RouterHandle::send`] to other routers before it
    /// awaits any ack, so N edges reconfigure in one round-trip's time.
    pub fn send(&self, ops: Vec<ConfigOp>) -> PendingAck {
        let (ack_tx, ack_rx) = bounded(1);
        // A stopped agent drops the message and `ack_tx` with it:
        // `wait` then reports `ChannelClosed`.
        let _ = self.tx.send(ConfigMsg::Apply(ops, ack_tx));
        PendingAck(ack_rx)
    }

    /// Applies config text and waits for the acknowledgment.
    pub fn apply_text(&self, text: &str) -> Result<(), FreertrError> {
        self.send(vec![ConfigOp::ApplyText(text.to_string())])
            .wait()
    }

    /// Installs an access list if absent, waiting for the acknowledgment.
    pub fn ensure_acl(&self, rule: AclRule) -> Result<(), FreertrError> {
        self.send(vec![ConfigOp::EnsureAcl(rule)]).wait()
    }

    /// Installs a tunnel interface if absent, waiting for the
    /// acknowledgment.
    pub fn ensure_tunnel(&self, tunnel: TunnelCfg) -> Result<(), FreertrError> {
        self.send(vec![ConfigOp::EnsureTunnel(tunnel)]).wait()
    }

    /// Rewrites one PBR entry and waits for the acknowledgment.
    pub fn set_pbr(&self, acl: &str, tunnel: &str) -> Result<(), FreertrError> {
        self.send(vec![ConfigOp::SetPbr {
            acl: acl.to_string(),
            tunnel: tunnel.to_string(),
        }])
        .wait()
    }

    /// A snapshot of the current running configuration.
    pub fn running_config(&self) -> RouterConfig {
        self.config.read().clone()
    }
}

/// How to take back one applied [`ConfigOp`].
enum Undo {
    /// `ApplyText` replaced this configuration.
    Config(RouterConfig),
    /// `EnsureAcl` appended a rule.
    Acl,
    /// `EnsureTunnel` appended an interface.
    Tunnel,
    /// `SetPbr` appended an entry.
    PbrPush,
    /// `SetPbr` rebound entry `.0`, which pointed at tunnel `.1`.
    PbrRebind(usize, String),
}

/// Applies `ops` in order; on the first failure undoes the applied ones
/// in reverse, so `cfg` is what it was.
fn apply_transaction(cfg: &mut RouterConfig, ops: Vec<ConfigOp>) -> Result<(), FreertrError> {
    let mut undo = Vec::with_capacity(ops.len());
    for op in ops {
        let step = match op {
            ConfigOp::ApplyText(text) => {
                parse_config(&text).map(|new| Some(Undo::Config(std::mem::replace(cfg, new))))
            }
            ConfigOp::EnsureAcl(rule) => Ok(cfg.ensure_acl(rule).then_some(Undo::Acl)),
            ConfigOp::EnsureTunnel(tunnel) => Ok(cfg.ensure_tunnel(tunnel).then_some(Undo::Tunnel)),
            ConfigOp::SetPbr { acl, tunnel } => cfg.rebind_pbr(&acl, tunnel).map(|old| {
                Some(match old {
                    Some((at, was)) => Undo::PbrRebind(at, was),
                    None => Undo::PbrPush,
                })
            }),
        };
        match step {
            Ok(done) => undo.extend(done),
            Err(e) => {
                for u in undo.into_iter().rev() {
                    match u {
                        Undo::Config(old) => *cfg = old,
                        Undo::Acl => drop(cfg.acls.pop()),
                        Undo::Tunnel => drop(cfg.tunnels.pop()),
                        Undo::PbrPush => drop(cfg.pbr.pop()),
                        Undo::PbrRebind(at, was) => cfg.pbr[at].tunnel = was,
                    }
                }
                return Err(e);
            }
        }
    }
    Ok(())
}

/// The agent thread body.
fn agent_loop(rx: Receiver<ConfigMsg>, config: Arc<RwLock<RouterConfig>>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            ConfigMsg::Apply(ops, ack) => {
                let result = apply_transaction(&mut config.write(), ops);
                let _ = ack.send(result);
            }
            ConfigMsg::Shutdown => break,
        }
    }
}

/// One emulated router: an agent thread plus its running config.
pub struct RouterAgent {
    handle: RouterHandle,
    join: Option<JoinHandle<()>>,
    tx: Sender<ConfigMsg>,
}

impl RouterAgent {
    /// Spawns an agent for a named router with an empty config.
    pub fn spawn(name: &str) -> Self {
        let (tx, rx) = unbounded();
        let config = Arc::new(RwLock::new(RouterConfig::new(name)));
        let thread_config = Arc::clone(&config);
        let join = std::thread::Builder::new()
            .name(format!("freertr-{name}"))
            .spawn(move || agent_loop(rx, thread_config))
            // detlint: allow(bare-panic) — set-up time, before any
            // traffic: the OS refusing a thread leaves no router to run.
            .expect("spawn router agent");
        RouterAgent {
            handle: RouterHandle {
                name: name.to_string(),
                tx: tx.clone(),
                config,
            },
            join: Some(join),
            tx,
        }
    }

    /// The sending handle.
    pub fn handle(&self) -> RouterHandle {
        self.handle.clone()
    }
}

impl Drop for RouterAgent {
    fn drop(&mut self) {
        let _ = self.tx.send(ConfigMsg::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// The broker: named router agents behind one façade.
#[derive(Default)]
pub struct MessageQueue {
    agents: HashMap<String, RouterAgent>,
}

impl MessageQueue {
    /// An empty broker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spawns (or returns the existing) agent for a router.
    pub fn router(&mut self, name: &str) -> RouterHandle {
        self.agents
            .entry(name.to_string())
            .or_insert_with(|| RouterAgent::spawn(name))
            .handle()
    }

    /// Existing router names.
    pub fn routers(&self) -> Vec<&str> {
        self.agents.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::fig10_mia_config;
    use crate::packet::PacketMeta;
    use crate::prefix::Ipv4Prefix;

    #[test]
    fn apply_text_reconfigures_router() {
        let mut mq = MessageQueue::new();
        let mia = mq.router("MIA");
        mia.apply_text(&fig10_mia_config().emit()).unwrap();
        let cfg = mia.running_config();
        assert_eq!(cfg.tunnels.len(), 3);
        assert_eq!(cfg.hostname, "MIA");
    }

    #[test]
    fn bad_config_text_is_rejected_with_ack() {
        let mut mq = MessageQueue::new();
        let r = mq.router("X");
        let err = r.apply_text("garbage line\n").unwrap_err();
        assert!(matches!(err, FreertrError::Parse { .. }));
        // config unchanged
        assert_eq!(r.running_config().hostname, "X");
    }

    #[test]
    fn set_pbr_round_trips_through_the_queue() {
        let mut mq = MessageQueue::new();
        let mia = mq.router("MIA");
        mia.apply_text(&fig10_mia_config().emit()).unwrap();
        mia.set_pbr("flow3", "tunnel3").unwrap();
        let cfg = mia.running_config();
        let p = PacketMeta::tcp(
            Ipv4Prefix::parse_addr("40.40.1.10").unwrap(),
            Ipv4Prefix::parse_addr("40.40.2.2").unwrap(),
            1000,
            5001,
            96,
        );
        assert_eq!(cfg.classify(&p), Some("tunnel3"));
    }

    #[test]
    fn set_pbr_on_missing_tunnel_errors() {
        let mut mq = MessageQueue::new();
        let mia = mq.router("MIA");
        mia.apply_text(&fig10_mia_config().emit()).unwrap();
        assert!(mia.set_pbr("flow3", "tunnel99").is_err());
    }

    #[test]
    fn multiple_routers_are_independent() {
        let mut mq = MessageQueue::new();
        let a = mq.router("A");
        let b = mq.router("B");
        a.apply_text("hostname A2\n").unwrap();
        assert_eq!(a.running_config().hostname, "A2");
        assert_eq!(b.running_config().hostname, "B");
        assert_eq!(mq.routers().len(), 2);
    }

    #[test]
    fn concurrent_updates_serialize() {
        let mut mq = MessageQueue::new();
        let mia = mq.router("MIA");
        mia.apply_text(&fig10_mia_config().emit()).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let h = mia.clone();
                std::thread::spawn(move || {
                    let tunnel = if i % 2 == 0 { "tunnel2" } else { "tunnel3" };
                    h.set_pbr("flow3", tunnel).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let cfg = mia.running_config();
        let t = &cfg.pbr.iter().find(|e| e.acl == "flow3").unwrap().tunnel;
        assert!(t == "tunnel2" || t == "tunnel3");
    }

    fn acl(name: &str) -> AclRule {
        AclRule {
            name: name.to_string(),
            proto: Some(crate::packet::PROTO_TCP),
            src: Ipv4Prefix::parse("40.40.1.0/24").unwrap(),
            dst: Ipv4Prefix::parse("40.40.2.2/32").unwrap(),
            tos: Some(8),
        }
    }

    fn pbr(acl: &str, tunnel: &str) -> ConfigOp {
        ConfigOp::SetPbr {
            acl: acl.to_string(),
            tunnel: tunnel.to_string(),
        }
    }

    #[test]
    fn transaction_applies_its_ops_in_order_with_one_ack() {
        let mut mq = MessageQueue::new();
        let mia = mq.router("MIA");
        // Each op needs the one before it: the text brings the tunnels,
        // the ACL must exist before its PBR entry, the second SetPbr
        // rebinds what the first one appended.
        mia.send(vec![
            ConfigOp::ApplyText(fig10_mia_config().emit()),
            ConfigOp::EnsureAcl(acl("new")),
            pbr("new", "tunnel2"),
            pbr("new", "tunnel3"),
        ])
        .wait()
        .unwrap();
        let mut want = fig10_mia_config();
        want.acls.push(acl("new"));
        want.set_pbr("new", "tunnel3").unwrap();
        assert_eq!(mia.running_config(), want);
    }

    #[test]
    fn a_reader_never_sees_half_a_transaction() {
        let mut mq = MessageQueue::new();
        let mia = mq.router("MIA");
        mia.apply_text(&fig10_mia_config().emit()).unwrap();
        let (base_acls, base_pbr) = (4, 4);
        const FLOWS: usize = 32;
        let start = std::sync::Barrier::new(2);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                start.wait();
                let mut snapshots = 0u64;
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    let cfg = mia.running_config();
                    // All of a transaction's ACLs come before all of
                    // its PBR entries: any half of one breaks this.
                    assert_eq!((cfg.acls.len() - base_acls) % FLOWS, 0);
                    assert_eq!(cfg.acls.len() - base_acls, cfg.pbr.len() - base_pbr);
                    snapshots += 1;
                }
                snapshots
            });
            start.wait();
            for round in 0..50 {
                let names: Vec<String> = (0..FLOWS).map(|i| format!("f{round}-{i}")).collect();
                let acls = names.iter().map(|n| ConfigOp::EnsureAcl(acl(n)));
                let binds = names.iter().map(|n| pbr(n, "tunnel2"));
                mia.send(acls.chain(binds).collect()).wait().unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            assert!(reader.join().unwrap() > 0);
        });
        assert_eq!(mia.running_config().pbr.len(), base_pbr + 50 * FLOWS);
    }

    #[test]
    fn failing_op_restores_the_configuration_it_found() {
        let mut mq = MessageQueue::new();
        let mia = mq.router("MIA");
        mia.apply_text(&fig10_mia_config().emit()).unwrap();
        let before = mia.running_config();
        let spare = TunnelCfg {
            id: "tunnel9".to_string(),
            ..Default::default()
        };
        // Every kind of change is applied before the failing SetPbr: an
        // appended ACL, a rebound entry, an appended tunnel, an
        // appended entry.
        let err = mia
            .send(vec![
                ConfigOp::EnsureAcl(acl("new")),
                pbr("flow3", "tunnel3"),
                ConfigOp::EnsureTunnel(spare.clone()),
                pbr("new", "tunnel9"),
                pbr("new", "tunnel77"),
                ConfigOp::EnsureAcl(acl("never")),
            ])
            .wait()
            .unwrap_err();
        assert_eq!(err, FreertrError::Unknown("interface tunnel77".into()));
        assert_eq!(mia.running_config(), before);
        // A replaced configuration comes back too, with what preceded it.
        let err = mia
            .send(vec![
                pbr("flow1", "tunnel2"),
                ConfigOp::ApplyText("hostname OTHER\n".into()),
                ConfigOp::EnsureTunnel(spare),
                pbr("flow1", "tunnel9"),
            ])
            .wait()
            .unwrap_err();
        assert_eq!(err, FreertrError::Unknown("access-list flow1".into()));
        assert_eq!(mia.running_config(), before);
        // And the same agent still takes the next transaction.
        mia.set_pbr("flow3", "tunnel2").unwrap();
    }

    #[test]
    fn ensure_wrappers_install_once() {
        let mut mq = MessageQueue::new();
        let r = mq.router("R");
        let tunnel = TunnelCfg {
            id: "tunnel1".to_string(),
            domain_path: vec!["R".into(), "S".into()],
            ..Default::default()
        };
        for _ in 0..2 {
            r.ensure_tunnel(tunnel.clone()).unwrap();
            r.ensure_acl(acl("f")).unwrap();
        }
        // An existing name wins over a different definition.
        r.ensure_acl(AclRule {
            tos: Some(99),
            ..acl("f")
        })
        .unwrap();
        let cfg = r.running_config();
        assert_eq!(cfg.tunnels, vec![tunnel]);
        assert_eq!(cfg.acls, vec![acl("f")]);
    }

    #[test]
    fn transactions_of_two_edges_are_in_flight_together() {
        let mut mq = MessageQueue::new();
        let (a, b) = (mq.router("A"), mq.router("B"));
        let text = fig10_mia_config().emit();
        // Both sent before either is awaited, and awaited out of order.
        let to_a = a.send(vec![
            ConfigOp::ApplyText(text.clone()),
            pbr("flow1", "tunnel2"),
        ]);
        let to_b = b.send(vec![ConfigOp::ApplyText(text), pbr("flow1", "tunnel3")]);
        to_b.wait().unwrap();
        to_a.wait().unwrap();
        let bound = |r: &RouterHandle| r.running_config().pbr[0].tunnel.clone();
        assert_eq!((bound(&a), bound(&b)), ("tunnel2".into(), "tunnel3".into()));
    }

    #[test]
    fn a_stopped_agent_answers_channel_closed() {
        let agent = RouterAgent::spawn("X");
        let handle = agent.handle();
        drop(agent);
        assert_eq!(
            handle.send(vec![pbr("f", "t")]).wait(),
            Err(FreertrError::ChannelClosed)
        );
        assert_eq!(handle.set_pbr("f", "t"), Err(FreertrError::ChannelClosed));
    }
}
