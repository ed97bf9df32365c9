//! The router configuration model and the Fig 10 text dialect.
//!
//! Supported statements (a faithful subset of the paper's freeRtr
//! configuration in Fig 10):
//!
//! ```text
//! hostname MIA
//! access-list flow3 permit 6 40.40.1.0/24 40.40.2.2/32 tos 96
//! interface tunnel3
//!  tunnel destination 20.20.0.7
//!  tunnel domain-name MIA SAO AMS
//!  tunnel mode polka
//!  exit
//! pbr flow3 tunnel3 nexthop 30.30.3.2
//! ```
//!
//! `access-list` matches protocol, source and destination prefixes and an
//! optional ToS; `tunnel domain-name` lists the explicit router path
//! "which will be internally converted by freeRtr into a PolKA routeID to
//! be encapsulated in the packets passing through the tunnel" (the
//! conversion lives in [`crate::resolve`]); `tunnel mode polka` is the
//! one encapsulation, and any other mode is refused as an unknown tunnel
//! statement; `pbr` binds an access list to a tunnel.

use crate::packet::PacketMeta;
use crate::prefix::Ipv4Prefix;
use crate::FreertrError;

/// One access-list rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AclRule {
    /// List name (`flow3`).
    pub name: String,
    /// IP protocol to match; `None` = any.
    pub proto: Option<u8>,
    /// Source prefix.
    pub src: Ipv4Prefix,
    /// Destination prefix.
    pub dst: Ipv4Prefix,
    /// ToS byte to match; `None` = any.
    pub tos: Option<u8>,
}

impl AclRule {
    /// Does this rule match the packet?
    pub fn matches(&self, p: &PacketMeta) -> bool {
        self.proto.is_none_or(|proto| proto == p.proto)
            && self.src.contains(p.src)
            && self.dst.contains(p.dst)
            && self.tos.is_none_or(|tos| tos == p.tos)
    }
}

/// A tunnel interface.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TunnelCfg {
    /// Interface name (`tunnel3`).
    pub id: String,
    /// Remote tunnel endpoint address (informational, as in Fig 10).
    pub destination: Option<String>,
    /// Explicit router path (`MIA SAO AMS`).
    pub domain_path: Vec<String>,
}

/// A policy-based-routing entry binding an ACL to a tunnel.
#[derive(Debug, Clone, PartialEq)]
pub struct PbrEntry {
    /// Access-list name.
    pub acl: String,
    /// Tunnel interface name.
    pub tunnel: String,
    /// Next-hop address on the far side (informational).
    pub nexthop: Option<String>,
}

/// A router's full configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RouterConfig {
    /// Router hostname.
    pub hostname: String,
    /// Access lists, in match order.
    pub acls: Vec<AclRule>,
    /// Tunnel interfaces.
    pub tunnels: Vec<TunnelCfg>,
    /// PBR bindings, in match order.
    pub pbr: Vec<PbrEntry>,
}

impl RouterConfig {
    /// An empty configuration for a named router.
    pub fn new(hostname: &str) -> Self {
        RouterConfig {
            hostname: hostname.to_string(),
            ..Default::default()
        }
    }

    /// Finds a tunnel by name.
    pub fn tunnel(&self, id: &str) -> Option<&TunnelCfg> {
        self.tunnels.iter().find(|t| t.id == id)
    }

    /// Classifies a packet: first matching ACL that has a PBR binding
    /// wins; returns the tunnel name.
    pub fn classify(&self, p: &PacketMeta) -> Option<&str> {
        for rule in &self.acls {
            if rule.matches(p) {
                if let Some(entry) = self.pbr.iter().find(|e| e.acl == rule.name) {
                    return Some(entry.tunnel.as_str());
                }
            }
        }
        None
    }

    /// Rebinds an ACL to a different tunnel — the single PBR rewrite that
    /// performs a PolKA path migration ("each path migration is triggered
    /// by a single modification of a PBR entry in the ingress edge node").
    pub fn set_pbr(&mut self, acl: &str, tunnel: &str) -> Result<(), FreertrError> {
        self.rebind_pbr(acl, tunnel.to_string()).map(drop)
    }

    /// [`RouterConfig::set_pbr`], reporting what a transaction needs to
    /// take it back: the rewritten entry's index and previous tunnel, or
    /// `None` when a new entry was appended.
    pub(crate) fn rebind_pbr(
        &mut self,
        acl: &str,
        tunnel: String,
    ) -> Result<Option<(usize, String)>, FreertrError> {
        self.check_pbr(acl, &tunnel)?;
        if let Some((at, e)) = self.pbr.iter_mut().enumerate().find(|(_, e)| e.acl == acl) {
            return Ok(Some((at, std::mem::replace(&mut e.tunnel, tunnel))));
        }
        self.pbr.push(PbrEntry {
            acl: acl.to_string(),
            tunnel,
            nexthop: None,
        });
        Ok(None)
    }

    /// A PBR entry may bind only a declared access list to a declared
    /// tunnel interface.
    fn check_pbr(&self, acl: &str, tunnel: &str) -> Result<(), FreertrError> {
        if !self.acls.iter().any(|a| a.name == acl) {
            return Err(FreertrError::Unknown(format!("access-list {acl}")));
        }
        if self.tunnel(tunnel).is_none() {
            return Err(FreertrError::Unknown(format!("interface {tunnel}")));
        }
        Ok(())
    }

    /// Appends `rule` unless an access list of that name exists; true
    /// when it was appended.
    pub(crate) fn ensure_acl(&mut self, rule: AclRule) -> bool {
        let absent = !self.acls.iter().any(|a| a.name == rule.name);
        if absent {
            self.acls.push(rule);
        }
        absent
    }

    /// Appends `tunnel` unless an interface of that name exists; true
    /// when it was appended.
    pub(crate) fn ensure_tunnel(&mut self, tunnel: TunnelCfg) -> bool {
        let absent = self.tunnel(&tunnel.id).is_none();
        if absent {
            self.tunnels.push(tunnel);
        }
        absent
    }

    /// Emits the config in the text dialect (round-trips through
    /// [`parse_config`]).
    pub fn emit(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("hostname {}\n", self.hostname));
        for a in &self.acls {
            out.push_str(&format!(
                "access-list {} permit {} {} {}",
                a.name,
                a.proto.map_or("all".to_string(), |p| p.to_string()),
                a.src,
                a.dst
            ));
            if let Some(tos) = a.tos {
                out.push_str(&format!(" tos {tos}"));
            }
            out.push('\n');
        }
        for t in &self.tunnels {
            out.push_str(&format!("interface {}\n", t.id));
            if let Some(d) = &t.destination {
                out.push_str(&format!(" tunnel destination {d}\n"));
            }
            if !t.domain_path.is_empty() {
                out.push_str(&format!(
                    " tunnel domain-name {}\n",
                    t.domain_path.join(" ")
                ));
            }
            out.push_str(" tunnel mode polka\n exit\n");
        }
        for e in &self.pbr {
            out.push_str(&format!("pbr {} {}", e.acl, e.tunnel));
            if let Some(nh) = &e.nexthop {
                out.push_str(&format!(" nexthop {nh}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Parses the text dialect into a [`RouterConfig`]. As with
/// [`RouterConfig::set_pbr`], every `pbr` entry must name an access
/// list and a tunnel interface the text declares.
pub fn parse_config(text: &str) -> Result<RouterConfig, FreertrError> {
    let mut cfg = RouterConfig::default();
    let mut current_tunnel: Option<TunnelCfg> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('!') || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let err = |m: String| FreertrError::Parse {
            line: lineno,
            message: m,
        };
        // Inside an interface block, lines start with `tunnel …` or `exit`.
        if let Some(t) = current_tunnel.as_mut() {
            match toks.as_slice() {
                ["exit"] => {
                    cfg.tunnels.extend(current_tunnel.take());
                    continue;
                }
                ["tunnel", "destination", d] => {
                    t.destination = Some(d.to_string());
                    continue;
                }
                ["tunnel", "domain-name", rest @ ..] if !rest.is_empty() => {
                    t.domain_path = rest.iter().map(|s| s.to_string()).collect();
                    continue;
                }
                ["tunnel", "mode", "polka"] => continue,
                ["interface", _] => {
                    // implicit exit before a new block
                    cfg.tunnels.extend(current_tunnel.take());
                    // fall through to top-level handling below
                }
                _ => return Err(err(format!("unknown tunnel statement {line:?}"))),
            }
        }
        match toks.as_slice() {
            ["hostname", h] => cfg.hostname = h.to_string(),
            ["access-list", name, "permit", proto, src, dst, rest @ ..] => {
                let proto = if *proto == "all" {
                    None
                } else {
                    Some(
                        proto
                            .parse::<u8>()
                            .map_err(|_| err(format!("bad protocol {proto:?}")))?,
                    )
                };
                let tos = match rest {
                    [] => None,
                    ["tos", t] => Some(t.parse::<u8>().map_err(|_| err(format!("bad tos {t:?}")))?),
                    _ => return Err(err(format!("trailing tokens {rest:?}"))),
                };
                cfg.acls.push(AclRule {
                    name: name.to_string(),
                    proto,
                    src: Ipv4Prefix::parse(src).map_err(|e| err(format!("source prefix: {e}")))?,
                    dst: Ipv4Prefix::parse(dst)
                        .map_err(|e| err(format!("destination prefix: {e}")))?,
                    tos,
                });
            }
            ["interface", id] => {
                current_tunnel = Some(TunnelCfg {
                    id: id.to_string(),
                    ..Default::default()
                });
            }
            ["pbr", acl, tunnel, rest @ ..] => {
                let nexthop = match rest {
                    [] => None,
                    ["nexthop", nh] => Some(nh.to_string()),
                    _ => return Err(err(format!("trailing tokens {rest:?}"))),
                };
                cfg.pbr.push(PbrEntry {
                    acl: acl.to_string(),
                    tunnel: tunnel.to_string(),
                    nexthop,
                });
            }
            _ => return Err(err(format!("unknown statement {line:?}"))),
        }
    }
    if let Some(t) = current_tunnel.take() {
        cfg.tunnels.push(t); // unterminated block: accept, like freeRtr
    }
    // Checked once the whole text is read: an entry may come before the
    // declarations it names.
    for e in &cfg.pbr {
        cfg.check_pbr(&e.acl, &e.tunnel)?;
    }
    Ok(cfg)
}

/// The paper's Fig 10 edge configuration for the MIA router, with all
/// three experiment tunnels installed.
pub fn fig10_mia_config() -> RouterConfig {
    parse_config(
        "hostname MIA\n\
         access-list flow1 permit 6 40.40.1.0/24 40.40.2.2/32 tos 32\n\
         access-list flow2 permit 6 40.40.1.0/24 40.40.2.2/32 tos 64\n\
         access-list flow3 permit 6 40.40.1.0/24 40.40.2.2/32 tos 96\n\
         access-list icmp permit 1 40.40.1.0/24 40.40.2.2/32\n\
         interface tunnel1\n\
         \x20tunnel destination 20.20.0.7\n\
         \x20tunnel domain-name MIA SAO AMS\n\
         \x20tunnel mode polka\n\
         \x20exit\n\
         interface tunnel2\n\
         \x20tunnel destination 20.20.0.7\n\
         \x20tunnel domain-name MIA CHI AMS\n\
         \x20tunnel mode polka\n\
         \x20exit\n\
         interface tunnel3\n\
         \x20tunnel destination 20.20.0.7\n\
         \x20tunnel domain-name MIA CAL CHI AMS\n\
         \x20tunnel mode polka\n\
         \x20exit\n\
         pbr flow1 tunnel1 nexthop 30.30.1.2\n\
         pbr flow2 tunnel1 nexthop 30.30.1.2\n\
         pbr flow3 tunnel1 nexthop 30.30.3.2\n\
         pbr icmp tunnel1\n",
    )
    // detlint: allow(bare-panic) — the text is a constant, parsed by
    // `emit_parse_roundtrip` and every other test that calls this.
    .expect("fig10 config is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PROTO_TCP;

    fn addr(s: &str) -> u32 {
        Ipv4Prefix::parse_addr(s).unwrap()
    }

    #[test]
    fn fig10_snippet_parses() {
        // The exact shape described in the paper's Fig 10 text.
        let cfg = parse_config(
            "access-list flow3 permit 6 40.40.1.0/24 40.40.2.2/32 tos 96\n\
             interface tunnel3\n\
             \x20tunnel destination 20.20.0.7\n\
             \x20tunnel domain-name MIA SAO AMS\n\
             \x20tunnel mode polka\n\
             \x20exit\n\
             pbr flow3 tunnel3 nexthop 30.30.3.2\n",
        )
        .unwrap();
        assert_eq!(cfg.acls.len(), 1);
        assert_eq!(cfg.acls[0].proto, Some(PROTO_TCP));
        assert_eq!(cfg.acls[0].tos, Some(96));
        let t = cfg.tunnel("tunnel3").unwrap();
        assert_eq!(t.domain_path, vec!["MIA", "SAO", "AMS"]);
        assert_eq!(t.destination.as_deref(), Some("20.20.0.7"));
        assert_eq!(cfg.pbr[0].nexthop.as_deref(), Some("30.30.3.2"));
    }

    #[test]
    fn emit_parse_roundtrip() {
        let cfg = fig10_mia_config();
        let text = cfg.emit();
        let back = parse_config(&text).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn classify_by_tos() {
        let cfg = fig10_mia_config();
        let p96 = PacketMeta::tcp(addr("40.40.1.10"), addr("40.40.2.2"), 1000, 5001, 96);
        let p32 = PacketMeta::tcp(addr("40.40.1.10"), addr("40.40.2.2"), 1000, 5001, 32);
        assert_eq!(cfg.classify(&p96), Some("tunnel1")); // flow3 -> tunnel1 initially
        assert_eq!(cfg.classify(&p32), Some("tunnel1"));
    }

    #[test]
    fn classify_rejects_wrong_subnet_and_proto() {
        let cfg = fig10_mia_config();
        let wrong_net = PacketMeta::tcp(addr("10.0.0.1"), addr("40.40.2.2"), 1, 2, 96);
        assert_eq!(cfg.classify(&wrong_net), None);
        let wrong_proto = PacketMeta {
            proto: 17,
            ..PacketMeta::tcp(addr("40.40.1.1"), addr("40.40.2.2"), 1, 2, 96)
        };
        assert_eq!(cfg.classify(&wrong_proto), None);
    }

    #[test]
    fn pbr_rewrite_is_the_migration_primitive() {
        let mut cfg = fig10_mia_config();
        let p = PacketMeta::tcp(addr("40.40.1.10"), addr("40.40.2.2"), 1000, 5001, 96);
        assert_eq!(cfg.classify(&p), Some("tunnel1"));
        cfg.set_pbr("flow3", "tunnel3").unwrap();
        assert_eq!(cfg.classify(&p), Some("tunnel3"));
        // Other flows untouched.
        let p32 = PacketMeta::tcp(addr("40.40.1.10"), addr("40.40.2.2"), 1000, 5001, 32);
        assert_eq!(cfg.classify(&p32), Some("tunnel1"));
    }

    #[test]
    fn set_pbr_validates_references() {
        let mut cfg = fig10_mia_config();
        assert!(cfg.set_pbr("nope", "tunnel1").is_err());
        assert!(cfg.set_pbr("flow3", "tunnel9").is_err());
    }

    #[test]
    fn acl_without_tos_matches_any_tos() {
        let cfg = fig10_mia_config();
        let ping = PacketMeta::icmp(addr("40.40.1.10"), addr("40.40.2.2"));
        assert_eq!(cfg.classify(&ping), Some("tunnel1"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let cfg = parse_config("! comment\n\n# another\nhostname X\n").unwrap();
        assert_eq!(cfg.hostname, "X");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_config("hostname A\nbogus statement here\n").unwrap_err();
        match e {
            FreertrError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn only_the_polka_tunnel_mode_parses() {
        for mode in ["segment-list", "mpls", ""] {
            let text = format!("interface tunnel1\n tunnel mode {mode}\n exit\n");
            match parse_config(&text) {
                Err(FreertrError::Parse { line, message }) => {
                    assert_eq!(line, 2);
                    assert!(message.contains("unknown tunnel statement"), "{message}");
                }
                other => panic!("mode {mode:?} parsed: {other:?}"),
            }
        }
    }

    #[test]
    fn unterminated_interface_block_accepted() {
        let cfg = parse_config("interface tunnel1\n tunnel mode polka\n").unwrap();
        assert_eq!(cfg.tunnels.len(), 1);
    }

    #[test]
    fn implicit_exit_between_interfaces() {
        let cfg = parse_config("interface tunnel1\n tunnel mode polka\ninterface tunnel2\n exit\n")
            .unwrap();
        assert_eq!(cfg.tunnels.len(), 2);
    }
}
