//! Router agents: each router's running configuration behind one lock.
//!
//! The paper: "we manage FreeRtr configurations by sending messages
//! through a Message Queue to reconfigure the router. A service receives
//! these messages, applies the necessary commands to reconfigure FreeRtr,
//! and then ensures the router operates with the updated configuration."
//!
//! Here a message is one *transaction* — an ordered list of
//! [`ConfigOp`]s applied under one write-lock on the router's
//! [`RouterConfig`], all or nothing — and [`RouterHandle::transact`]
//! applies it in the caller: every caller needs the outcome before it
//! reads anything, so a queue in between would only add a wait. A
//! reader ([`RouterHandle::running_config`]) sees all of a transaction
//! or none of it, and a controller admitting a batch of flows pays one
//! transaction per ingress, not two per flow.

use crate::config::{parse_config, AclRule, RouterConfig, TunnelCfg};
use crate::FreertrError;
use std::sync::{Arc, PoisonError, RwLock};

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

/// A handle on one router; its clones address the same running
/// configuration.
#[derive(Clone)]
pub struct RouterHandle {
    name: String,
    config: Arc<RwLock<RouterConfig>>,
}

impl RouterHandle {
    /// A router with an empty configuration.
    pub fn new(name: &str) -> Self {
        RouterHandle {
            name: name.to_string(),
            config: Arc::new(RwLock::new(RouterConfig::new(name))),
        }
    }

    /// The router's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Applies one transaction: the ops in order under a single config
    /// write-lock, so a concurrent [`RouterHandle::running_config`] sees
    /// all of them or none. All or nothing: when an op fails the
    /// configuration is put back exactly as the transaction found it and
    /// that op's error is returned.
    pub fn transact(&self, ops: Vec<ConfigOp>) -> Result<(), FreertrError> {
        // Every op leaves the configuration well-formed, so a lock
        // poisoned by a panicking caller still guards a valid one.
        let mut cfg = self.config.write().unwrap_or_else(PoisonError::into_inner);
        apply_transaction(&mut cfg, ops)
    }

    /// Replaces the configuration with config text.
    pub fn apply_text(&self, text: &str) -> Result<(), FreertrError> {
        self.transact(vec![ConfigOp::ApplyText(text.to_string())])
    }

    /// Installs an access list if absent.
    pub fn ensure_acl(&self, rule: AclRule) -> Result<(), FreertrError> {
        self.transact(vec![ConfigOp::EnsureAcl(rule)])
    }

    /// Installs a tunnel interface if absent.
    pub fn ensure_tunnel(&self, tunnel: TunnelCfg) -> Result<(), FreertrError> {
        self.transact(vec![ConfigOp::EnsureTunnel(tunnel)])
    }

    /// Rewrites one PBR entry.
    pub fn set_pbr(&self, acl: &str, tunnel: &str) -> Result<(), FreertrError> {
        self.transact(vec![ConfigOp::SetPbr {
            acl: acl.to_string(),
            tunnel: tunnel.to_string(),
        }])
    }

    /// A snapshot of the current running configuration.
    pub fn running_config(&self) -> RouterConfig {
        let cfg = self.config.read().unwrap_or_else(PoisonError::into_inner);
        cfg.clone()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::fig10_mia_config;
    use crate::packet::PacketMeta;
    use crate::prefix::Ipv4Prefix;

    #[test]
    fn apply_text_reconfigures_router() {
        let mia = RouterHandle::new("MIA");
        mia.apply_text(&fig10_mia_config().emit()).unwrap();
        let cfg = mia.running_config();
        assert_eq!(cfg.tunnels.len(), 3);
        assert_eq!(cfg.hostname, "MIA");
    }

    #[test]
    fn bad_config_text_is_rejected_with_ack() {
        let r = RouterHandle::new("X");
        let err = r.apply_text("garbage line\n").unwrap_err();
        assert!(matches!(err, FreertrError::Parse { .. }));
        // config unchanged
        assert_eq!(r.running_config().hostname, "X");
    }

    #[test]
    fn apply_text_refuses_pbr_bindings_that_set_pbr_refuses() {
        let mia = RouterHandle::new("MIA");
        mia.apply_text(&fig10_mia_config().emit()).unwrap();
        let before = mia.running_config();
        let no_acl = "interface tunnel9\n exit\npbr flow9 tunnel9\n";
        // The entry may precede the access list it names.
        let no_tunnel =
            "pbr flow9 tunnel99\naccess-list flow9 permit 6 40.40.1.0/24 40.40.2.2/32\n";
        assert_eq!(
            mia.apply_text(no_acl),
            Err(FreertrError::Unknown("access-list flow9".into()))
        );
        assert_eq!(
            mia.apply_text(no_tunnel),
            Err(FreertrError::Unknown("interface tunnel99".into()))
        );
        assert_eq!(mia.running_config(), before);
    }

    #[test]
    fn set_pbr_round_trips_through_the_queue() {
        let mia = RouterHandle::new("MIA");
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
        let mia = RouterHandle::new("MIA");
        mia.apply_text(&fig10_mia_config().emit()).unwrap();
        assert!(mia.set_pbr("flow3", "tunnel99").is_err());
    }

    #[test]
    fn multiple_routers_are_independent() {
        let a = RouterHandle::new("A");
        let b = RouterHandle::new("B");
        a.apply_text("hostname A2\n").unwrap();
        assert_eq!(a.running_config().hostname, "A2");
        assert_eq!(b.running_config().hostname, "B");
    }

    #[test]
    fn concurrent_updates_serialize() {
        let mia = RouterHandle::new("MIA");
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
        let mia = RouterHandle::new("MIA");
        // Each op needs the one before it: the text brings the tunnels,
        // the ACL must exist before its PBR entry, the second SetPbr
        // rebinds what the first one appended.
        mia.transact(vec![
            ConfigOp::ApplyText(fig10_mia_config().emit()),
            ConfigOp::EnsureAcl(acl("new")),
            pbr("new", "tunnel2"),
            pbr("new", "tunnel3"),
        ])
        .unwrap();
        let mut want = fig10_mia_config();
        want.acls.push(acl("new"));
        want.set_pbr("new", "tunnel3").unwrap();
        assert_eq!(mia.running_config(), want);
    }

    #[test]
    fn a_reader_never_sees_half_a_transaction() {
        let mia = RouterHandle::new("MIA");
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
                mia.transact(acls.chain(binds).collect()).unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            assert!(reader.join().unwrap() > 0);
        });
        assert_eq!(mia.running_config().pbr.len(), base_pbr + 50 * FLOWS);
    }

    #[test]
    fn failing_op_restores_the_configuration_it_found() {
        let mia = RouterHandle::new("MIA");
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
            .transact(vec![
                ConfigOp::EnsureAcl(acl("new")),
                pbr("flow3", "tunnel3"),
                ConfigOp::EnsureTunnel(spare.clone()),
                pbr("new", "tunnel9"),
                pbr("new", "tunnel77"),
                ConfigOp::EnsureAcl(acl("never")),
            ])
            .unwrap_err();
        assert_eq!(err, FreertrError::Unknown("interface tunnel77".into()));
        assert_eq!(mia.running_config(), before);
        // A replaced configuration comes back too, with what preceded it.
        let err = mia
            .transact(vec![
                pbr("flow1", "tunnel2"),
                ConfigOp::ApplyText("hostname OTHER\n".into()),
                ConfigOp::EnsureTunnel(spare),
                pbr("flow1", "tunnel9"),
            ])
            .unwrap_err();
        assert_eq!(err, FreertrError::Unknown("access-list flow1".into()));
        assert_eq!(mia.running_config(), before);
        // And the same router still takes the next transaction.
        mia.set_pbr("flow3", "tunnel2").unwrap();
    }

    #[test]
    fn ensure_wrappers_install_once() {
        let r = RouterHandle::new("R");
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
}
