//! Tunnel → PolKA routeID compilation and data-plane validation.
//!
//! This is the integration the paper highlights in Fig 10: "tunnel
//! domain-name provides the list of routers that are part of the explicit
//! path, which will be internally converted by freeRtr into a PolKA
//! routeID to be encapsulated in the packets passing through the tunnel."
//!
//! [`compile_tunnel`] performs that conversion against the emulated
//! topology through [`path_spec`], which assigns each router an
//! irreducible node polynomial and each hop its physical output port;
//! [`walk_route`] then *executes* the data plane: starting after the
//! ingress edge, each node computes `routeID mod nodeID` and the packet
//! follows that port through the topology — proving the single label
//! steers the packet end to end.

use crate::config::TunnelCfg;
use crate::FreertrError;
use netsim::{NodeIdx, Topology};
use polka::{NodeIdAllocator, PortId, RouteId, RouteSpec};

/// A tunnel compiled against the topology.
#[derive(Debug, Clone)]
pub struct CompiledTunnel {
    /// Tunnel name (`tunnel3`).
    pub id: String,
    /// Node indices of the domain path.
    pub node_path: Vec<NodeIdx>,
    /// The controller-side route spec (node, port) pairs.
    pub spec: RouteSpec,
    /// The compiled polynomial route identifier.
    pub route: RouteId,
}

impl CompiledTunnel {
    /// Header size of the PolKA label in bits.
    pub fn label_bits(&self) -> usize {
        self.route.label_bits()
    }
}

/// Compiles a tunnel's domain path into a PolKA routeID: resolves the
/// router names against the topology, then [`path_spec`].
pub fn compile_tunnel(
    tunnel: &TunnelCfg,
    topo: &Topology,
    alloc: &mut NodeIdAllocator,
) -> Result<CompiledTunnel, FreertrError> {
    let names: Vec<&str> = tunnel.domain_path.iter().map(|s| s.as_str()).collect();
    let node_path = topo
        .path_by_names(&names)
        .map_err(|e| FreertrError::Route(format!("tunnel {}: {e}", tunnel.id)))?;
    let spec = path_spec(topo, alloc, &node_path)?;
    let route = spec
        .compile()
        .map_err(|e| FreertrError::Route(e.to_string()))?;
    Ok(CompiledTunnel {
        id: tunnel.id.clone(),
        node_path,
        spec,
        route,
    })
}

/// The route spec of an explicit node path, the one place the
/// path → `RouteSpec` convention lives. Hops encoded: every router after
/// the ingress edge, each assigned its node ID from `alloc` in path
/// order. Intermediate routers get the topology's port facing the next
/// one; the egress edge gets port 0 ("deliver locally" / decapsulate).
/// The spec compiles to a PolKA routeID ([`RouteSpec::compile`]) or
/// reads as the port-switching segment list (its ports in order).
pub fn path_spec(
    topo: &Topology,
    alloc: &mut NodeIdAllocator,
    path: &[NodeIdx],
) -> Result<RouteSpec, FreertrError> {
    if path.len() < 2 {
        return Err(FreertrError::Route(
            "a route needs at least an ingress and one router".into(),
        ));
    }
    let mut hops = Vec::with_capacity(path.len() - 1);
    for k in 1..path.len() {
        let node = path[k];
        let node_id = alloc
            .assign(topo.node_name(node))
            .map_err(|e| FreertrError::Route(e.to_string()))?;
        let port = match path.get(k + 1) {
            Some(&next) => PortId(topo.neighbor_port(node, next).ok_or_else(|| {
                FreertrError::Route(format!(
                    "{} has no port towards {}",
                    topo.node_name(node),
                    topo.node_name(next)
                ))
            })?),
            None => PortId(0),
        };
        hops.push((node_id, port));
    }
    Ok(RouteSpec::new(hops))
}

/// Executes the PolKA data plane for a compiled tunnel: starting at the
/// first router after the ingress edge, each node computes
/// `routeID mod nodeID` and the packet moves out that physical port.
/// Returns the sequence of nodes visited (including ingress), or an
/// error if the label steers into a non-existent port.
pub fn walk_route(
    compiled: &CompiledTunnel,
    topo: &Topology,
    alloc: &NodeIdAllocator,
) -> Result<Vec<NodeIdx>, FreertrError> {
    let mut visited = vec![compiled.node_path[0]];
    let mut current = *compiled
        .node_path
        .get(1)
        .ok_or_else(|| FreertrError::Route("path too short".into()))?;
    for _hop in 0..topo.node_count() {
        visited.push(current);
        let node_id = alloc.get(topo.node_name(current)).ok_or_else(|| {
            FreertrError::Route(format!("{} has no nodeID", topo.node_name(current)))
        })?;
        let port = polka::route::port_by_division(&compiled.route, node_id)
            .ok_or_else(|| FreertrError::Route("remainder is not a port".into()))?;
        if port == PortId(0) {
            return Ok(visited); // delivered at egress
        }
        current = topo.neighbor_by_port(current, port.0).ok_or_else(|| {
            FreertrError::Route(format!(
                "{} has no physical port {}",
                topo.node_name(current),
                port.0
            ))
        })?;
    }
    Err(FreertrError::Route("routing loop detected".into()))
}

/// Convenience: an allocator sized for the topology (its max port fits
/// under the polynomial degree and every router can get a distinct ID).
pub fn allocator_for(topo: &Topology) -> NodeIdAllocator {
    NodeIdAllocator::for_network(topo.node_count(), topo.max_port().max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::fig10_mia_config;
    use netsim::topo::global_p4_lab;

    #[test]
    fn all_three_tunnels_compile_and_walk() {
        let topo = global_p4_lab();
        let mut alloc = allocator_for(&topo);
        let cfg = fig10_mia_config();
        for tid in ["tunnel1", "tunnel2", "tunnel3"] {
            let tunnel = cfg.tunnel(tid).unwrap();
            let compiled = compile_tunnel(tunnel, &topo, &mut alloc).unwrap();
            let visited = walk_route(&compiled, &topo, &alloc).unwrap();
            assert_eq!(
                visited, compiled.node_path,
                "{tid}: data-plane walk must follow the domain path"
            );
        }
    }

    #[test]
    fn route_label_is_compact() {
        let topo = global_p4_lab();
        let mut alloc = allocator_for(&topo);
        let cfg = fig10_mia_config();
        let compiled = compile_tunnel(cfg.tunnel("tunnel3").unwrap(), &topo, &mut alloc).unwrap();
        // 3 encoded hops (CAL, CHI, AMS) * degree of the node polynomials.
        let max_bits = 3 * alloc.degree();
        assert!(
            compiled.label_bits() <= max_bits,
            "{} > {max_bits}",
            compiled.label_bits()
        );
    }

    #[test]
    fn distinct_tunnels_get_distinct_routes() {
        let topo = global_p4_lab();
        let mut alloc = allocator_for(&topo);
        let cfg = fig10_mia_config();
        let r1 = compile_tunnel(cfg.tunnel("tunnel1").unwrap(), &topo, &mut alloc).unwrap();
        let r2 = compile_tunnel(cfg.tunnel("tunnel2").unwrap(), &topo, &mut alloc).unwrap();
        assert_ne!(r1.route, r2.route);
    }

    #[test]
    fn same_tunnel_compiles_identically() {
        // The allocator memoizes node IDs, so recompiling yields the same
        // label — migrations swap labels, they don't recompute state.
        let topo = global_p4_lab();
        let mut alloc = allocator_for(&topo);
        let cfg = fig10_mia_config();
        let a = compile_tunnel(cfg.tunnel("tunnel1").unwrap(), &topo, &mut alloc).unwrap();
        let b = compile_tunnel(cfg.tunnel("tunnel1").unwrap(), &topo, &mut alloc).unwrap();
        assert_eq!(a.route, b.route);
    }

    #[test]
    fn bad_domain_path_rejected() {
        let topo = global_p4_lab();
        let mut alloc = allocator_for(&topo);
        let tunnel = TunnelCfg {
            id: "bad".into(),
            domain_path: vec!["MIA".into(), "AMS".into()], // not adjacent
            ..Default::default()
        };
        assert!(compile_tunnel(&tunnel, &topo, &mut alloc).is_err());
        let short = TunnelCfg {
            id: "short".into(),
            domain_path: vec!["MIA".into()],
            ..Default::default()
        };
        assert!(compile_tunnel(&short, &topo, &mut alloc).is_err());
    }

    #[test]
    fn segment_list_baseline_matches_polka_ports() {
        // The spec's ports in order are the segment list; the routeID
        // must reduce to each of them at its node.
        let topo = global_p4_lab();
        let mut alloc = allocator_for(&topo);
        let cfg = fig10_mia_config();
        let compiled = compile_tunnel(cfg.tunnel("tunnel3").unwrap(), &topo, &mut alloc).unwrap();
        for (node, port) in compiled.spec.hops() {
            assert_eq!(
                polka::route::port_by_division(&compiled.route, node),
                Some(*port)
            );
        }
        let again = path_spec(&topo, &mut alloc, &compiled.node_path).unwrap();
        assert_eq!(again.hops(), compiled.spec.hops());
    }

    #[test]
    fn path_spec_rejects_bad_paths() {
        let topo = global_p4_lab();
        let mut alloc = allocator_for(&topo);
        let [mia, ams] = ["MIA", "AMS"].map(|n| topo.node(n).unwrap());
        assert!(path_spec(&topo, &mut alloc, &[mia, ams, mia]).is_err());
        assert!(path_spec(&topo, &mut alloc, &[mia]).is_err());
        assert!(path_spec(&topo, &mut alloc, &[]).is_err());
    }

    #[test]
    fn walk_detects_corrupted_label() {
        let topo = global_p4_lab();
        let mut alloc = allocator_for(&topo);
        let cfg = fig10_mia_config();
        let mut compiled =
            compile_tunnel(cfg.tunnel("tunnel1").unwrap(), &topo, &mut alloc).unwrap();
        // Corrupt the label: flip low bits. The walk must fail or
        // deliver somewhere other than the intended path — never panic.
        let poly = compiled.route.poly().clone();
        let corrupted = &poly + &gf2poly::Poly::from_bits(0b1111);
        compiled.route = RouteId::from_poly(corrupted);
        // Either the walk errors (corruption detected) or it wanders off
        // the intended path — both acceptable, panicking is not.
        if let Ok(v) = walk_route(&compiled, &topo, &alloc) {
            assert_ne!(v, compiled.node_path);
        }
    }
}
