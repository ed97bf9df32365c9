//! Property tests: the Fig 10 config dialect round-trips arbitrary
//! well-formed configurations, and classification behaves set-like.

use freertr::config::{parse_config, AclRule, PbrEntry, RouterConfig, TunnelCfg};
use freertr::packet::PacketMeta;
use freertr::prefix::Ipv4Prefix;
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len))
}

fn arb_acl(i: usize) -> impl Strategy<Value = AclRule> {
    (
        arb_prefix(),
        arb_prefix(),
        prop::option::of(any::<u8>()),
        prop::option::of(any::<u8>()),
    )
        .prop_map(move |(src, dst, proto, tos)| AclRule {
            name: format!("acl{i}"),
            proto,
            src,
            dst,
            tos,
        })
}

fn arb_tunnel(i: usize) -> impl Strategy<Value = TunnelCfg> {
    (
        prop::collection::vec("[A-Z]{2,4}", 2..6),
        prop::option::of(any::<u32>()),
    )
        .prop_map(move |(path, dest)| TunnelCfg {
            id: format!("tunnel{i}"),
            destination: dest.map(|d| Ipv4Prefix::new(d, 32).to_string().replace("/32", "")),
            domain_path: path,
        })
}

fn arb_config() -> impl Strategy<Value = RouterConfig> {
    (1usize..4, 1usize..4).prop_flat_map(|(n_acl, n_tun)| {
        let acls: Vec<_> = (0..n_acl).map(arb_acl).collect();
        let tunnels: Vec<_> = (0..n_tun).map(arb_tunnel).collect();
        (acls, tunnels, "[a-z]{1,8}").prop_map(move |(acls, tunnels, host)| {
            let pbr = acls
                .iter()
                .zip(tunnels.iter().cycle())
                .map(|(a, t)| PbrEntry {
                    acl: a.name.clone(),
                    tunnel: t.id.clone(),
                    nexthop: None,
                })
                .collect();
            RouterConfig {
                hostname: host,
                acls,
                tunnels,
                pbr,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn emit_parse_roundtrip(cfg in arb_config()) {
        let text = cfg.emit();
        let back = parse_config(&text).unwrap();
        prop_assert_eq!(back, cfg);
    }

    #[test]
    fn classification_matches_manual_scan(cfg in arb_config(), src in any::<u32>(), dst in any::<u32>(), proto in any::<u8>(), tos in any::<u8>()) {
        let p = PacketMeta { src, dst, proto, tos, sport: 1, dport: 2 };
        let expected = cfg.acls.iter().find_map(|a| {
            if a.matches(&p) {
                cfg.pbr.iter().find(|e| e.acl == a.name).map(|e| e.tunnel.as_str())
            } else {
                None
            }
        });
        prop_assert_eq!(cfg.classify(&p), expected);
    }

    #[test]
    fn any_prefix_matches_everything(addr in any::<u32>()) {
        prop_assert!(Ipv4Prefix::any().contains(addr));
    }

    #[test]
    fn prefix_display_parse_roundtrip(addr in any::<u32>(), len in 0u8..=32) {
        let p = Ipv4Prefix::new(addr, len);
        let back = Ipv4Prefix::parse(&p.to_string()).unwrap();
        prop_assert_eq!(back, p);
    }

    #[test]
    fn packet_codec_roundtrip(src in any::<u32>(), dst in any::<u32>(), proto in any::<u8>(), tos in any::<u8>(), sport in any::<u16>(), dport in any::<u16>()) {
        let p = PacketMeta { src, dst, proto, tos, sport, dport };
        let mut wire = p.encode();
        prop_assert_eq!(PacketMeta::decode(&mut wire), Some(p));
    }
}
