//! Route compilation (controller side) and forwarding (switch side).

use crate::{NodeId, PolkaError, PortId};
use gf2poly::{crt, Poly};

/// A compiled PolKA route identifier: one polynomial that encodes the
/// output port of every core node on the path. The label is immutable in
/// flight — nodes read it, never rewrite it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RouteId(pub(crate) Poly);

impl RouteId {
    /// The underlying polynomial.
    pub fn poly(&self) -> &Poly {
        &self.0
    }

    /// Wraps a raw polynomial (e.g. decoded from a packet header).
    pub fn from_poly(p: Poly) -> Self {
        RouteId(p)
    }

    /// Length of the label in bits (degree + 1), the header-size metric
    /// the PolKA papers report.
    pub fn label_bits(&self) -> usize {
        self.0.degree().map_or(1, |d| d + 1)
    }
}

impl std::fmt::Display for RouteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0.to_binary_str())
    }
}

/// A controller-side path description: ordered `(node, output port)` hops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteSpec {
    hops: Vec<(NodeId, PortId)>,
}

impl RouteSpec {
    /// Builds a route spec from `(node, port)` hops.
    pub fn new(hops: Vec<(NodeId, PortId)>) -> Self {
        RouteSpec { hops }
    }

    /// The hops in path order.
    pub fn hops(&self) -> &[(NodeId, PortId)] {
        &self.hops
    }

    /// Number of core hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True when the path has no hops.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Compiles the path into a [`RouteId`] with the polynomial CRT.
    ///
    /// Validates that every port fits under its node and that node
    /// polynomials are distinct (distinct irreducibles ⇒ coprime moduli).
    pub fn compile(&self) -> Result<RouteId, PolkaError> {
        if self.hops.is_empty() {
            return Err(PolkaError::EmptyPath);
        }
        let mut system = Vec::with_capacity(self.hops.len());
        for (i, (node, port)) in self.hops.iter().enumerate() {
            node.check_port(*port)?;
            for (prev, _) in &self.hops[..i] {
                if prev.poly() == node.poly() {
                    return Err(PolkaError::DuplicateNode(node.name().to_string()));
                }
            }
            system.push((port.to_poly(), node.poly().clone()));
        }
        Ok(RouteId(crt(&system)?))
    }
}

/// `routeID mod nodeID` by long division: what a walker that visits each
/// node once uses instead of building a [`CoreNode`], and what a
/// `CoreNode` wider than its position tables falls back to. `None` when
/// the remainder is not a port label.
pub fn port_by_division(route: &RouteId, node: &NodeId) -> Option<PortId> {
    let rem = route.0.rem_ref(node.poly()).ok()?;
    PortId::from_poly(&rem)
}

/// The CRC datapath of one node, sliced by byte position: `T_i[b] =
/// (b·t^(8i)) mod nodeID` for the eight bytes of a limb (`i < 8`) and
/// the two bytes of the remainder carried into the next limb (`i = 8,
/// 9`). Reducing `r·t^64 + limb` is then, by linearity, the XOR of ten
/// lookups that do not wait on one another: the slicing-by-8 CRC
/// technique, where a serial byte table needs eight dependent ones.
#[derive(Clone)]
struct PositionTables {
    tables: [[u16; 256]; 10],
}

impl PositionTables {
    /// The widest nodeID whose remainder fits the two carried bytes,
    /// and the `u16` entries: every port label.
    const MAX_DEGREE: usize = 16;

    /// `None` for a nodeID the tables cannot serve (degree 0 or above
    /// [`PositionTables::MAX_DEGREE`]).
    fn new(node: &Poly) -> Option<PositionTables> {
        let degree = node.degree()?;
        if !(1..=Self::MAX_DEGREE).contains(&degree) {
            return None;
        }
        let g = node.low_bits() as u32;
        let mut tables = [[0u16; 256]; 10];
        // t^j mod g for j = 0..80, eight per table, then every byte by
        // linearity.
        let mut power = 1u32;
        for table in &mut tables {
            for k in 0..8 {
                table[1 << k] = power as u16;
                power <<= 1;
                if (power >> degree) & 1 == 1 {
                    power ^= g;
                }
            }
            for b in 1..256usize {
                let low = b & b.wrapping_neg();
                table[b] = table[b ^ low] ^ table[low];
            }
        }
        Some(PositionTables { tables })
    }

    /// `limbs mod nodeID`, most-significant limb first.
    #[inline]
    fn reduce(&self, limbs: &[u64]) -> u16 {
        let t = &self.tables;
        let mut r = 0u16;
        for limb in limbs.iter().rev() {
            let b = limb.to_le_bytes().map(usize::from);
            let [lo, hi] = r.to_le_bytes().map(usize::from);
            r = (t[0][b[0]] ^ t[1][b[1]] ^ t[2][b[2]] ^ t[3][b[3]])
                ^ (t[4][b[4]] ^ t[5][b[5]] ^ t[6][b[6]] ^ t[7][b[7]])
                ^ (t[8][lo] ^ t[9][hi]);
        }
        r
    }
}

impl std::fmt::Debug for PositionTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PositionTables")
    }
}

/// A stateless PolKA core node. Its entire forwarding state is one
/// polynomial — there is no route table, only the position tables that
/// polynomial expands to (what a switch's CRC unit is configured with).
#[derive(Debug, Clone)]
pub struct CoreNode {
    id: NodeId,
    /// `None` when the nodeID is wider than the tables cover; such a
    /// node divides.
    tables: Option<PositionTables>,
}

impl CoreNode {
    /// Instantiates the data-plane element for a node.
    pub fn new(id: NodeId) -> Self {
        let tables = PositionTables::new(id.poly());
        CoreNode { id, tables }
    }

    /// The node's identity.
    pub fn id(&self) -> &NodeId {
        &self.id
    }

    /// The forwarding primitive: `port = routeID mod nodeID`.
    ///
    /// Returns `None` when the remainder does not decode to a port label,
    /// which a real switch would treat as "not for me / punt".
    pub fn forward(&mut self, route: &RouteId) -> Option<PortId> {
        self.port(route)
    }

    /// [`CoreNode::forward`] on a shared node: the node has no state for
    /// forwarding to change, so threads forward through one copy.
    pub fn port(&self, route: &RouteId) -> Option<PortId> {
        match &self.tables {
            Some(tables) => Some(PortId(tables.reduce(route.0.limbs()))),
            None => port_by_division(route, &self.id),
        }
    }
}

/// Walks a packet hop-by-hop through `nodes` exactly as the emulated data
/// plane would, returning the port taken at each node. This is the
/// integration point used by the freeRtr emulation and the tests: it
/// proves the single label drives the whole path.
pub fn trace_route(route: &RouteId, nodes: &[NodeId]) -> Vec<(String, PortId)> {
    nodes
        .iter()
        .map(|n| {
            let port = port_by_division(route, n).unwrap_or(PortId(0));
            (n.name().to_string(), port)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeIdAllocator;
    use gf2poly::Poly;

    fn fig1_nodes() -> (NodeId, NodeId, NodeId) {
        (
            NodeId::new("s1", Poly::from_binary_str("11")),
            NodeId::new("s2", Poly::from_binary_str("111")),
            NodeId::new("s3", Poly::from_binary_str("1011")),
        )
    }

    #[test]
    fn fig1_worked_example() {
        // The paper's Fig 1: s1=t+1, s2=t^2+t+1, s3=t^3+t+1 with output
        // ports o1=1, o2=t (port 2), o3=t^2+t (port 6).
        let (s1, s2, s3) = fig1_nodes();
        let spec = RouteSpec::new(vec![
            (s1.clone(), PortId(1)),
            (s2.clone(), PortId(2)),
            (s3.clone(), PortId(6)),
        ]);
        let route = spec.compile().unwrap();
        let mut n1 = CoreNode::new(s1);
        let mut n2 = CoreNode::new(s2);
        let mut n3 = CoreNode::new(s3);
        assert_eq!(n1.forward(&route), Some(PortId(1)));
        assert_eq!(n2.forward(&route), Some(PortId(2)));
        assert_eq!(n3.forward(&route), Some(PortId(6)));
    }

    #[test]
    fn fig1_routeid_10000_gives_port2_at_s2() {
        // Direct statement from the paper: routeID=10000 -> port 2 at s2.
        let route = RouteId::from_poly(Poly::from_binary_str("10000"));
        let (_, s2, _) = fig1_nodes();
        let mut n2 = CoreNode::new(s2);
        assert_eq!(n2.forward(&route), Some(PortId(2)));
    }

    #[test]
    fn forward_matches_division() {
        let (s1, s2, s3) = fig1_nodes();
        let spec = RouteSpec::new(vec![
            (s1.clone(), PortId(1)),
            (s2.clone(), PortId(3)),
            (s3.clone(), PortId(5)),
        ]);
        let route = spec.compile().unwrap();
        for id in [s1, s2, s3] {
            let mut node = CoreNode::new(id.clone());
            assert_eq!(node.forward(&route), port_by_division(&route, &id));
        }
    }

    #[test]
    fn compile_rejects_oversized_port() {
        let (s1, _, _) = fig1_nodes(); // degree 1 -> only ports 0 and 1
        let spec = RouteSpec::new(vec![(s1, PortId(2))]);
        assert!(matches!(
            spec.compile(),
            Err(PolkaError::PortTooLarge { .. })
        ));
    }

    #[test]
    fn compile_rejects_duplicate_nodes() {
        let (_, s2, _) = fig1_nodes();
        let spec = RouteSpec::new(vec![(s2.clone(), PortId(1)), (s2, PortId(2))]);
        assert!(matches!(spec.compile(), Err(PolkaError::DuplicateNode(_))));
    }

    #[test]
    fn compile_rejects_empty_path() {
        assert!(matches!(
            RouteSpec::new(vec![]).compile(),
            Err(PolkaError::EmptyPath)
        ));
    }

    #[test]
    fn long_path_with_allocator() {
        // 12-hop path with degree-8 node IDs and realistic port numbers.
        let mut alloc = NodeIdAllocator::new(8);
        let hops: Vec<(NodeId, PortId)> = (0..12)
            .map(|i| {
                let node = alloc.assign(&format!("r{i}")).unwrap();
                (node, PortId((i * 17 % 200 + 1) as u16))
            })
            .collect();
        let spec = RouteSpec::new(hops.clone());
        let route = spec.compile().unwrap();
        for (node, port) in &hops {
            let mut core = CoreNode::new(node.clone());
            assert_eq!(core.forward(&route), Some(*port));
        }
        // Label is bounded by the modulus product: 12 nodes * degree 8.
        assert!(route.label_bits() <= 12 * 8);
    }

    #[test]
    fn trace_route_reports_every_hop() {
        let (s1, s2, s3) = fig1_nodes();
        let spec = RouteSpec::new(vec![
            (s1.clone(), PortId(1)),
            (s2.clone(), PortId(2)),
            (s3.clone(), PortId(6)),
        ]);
        let route = spec.compile().unwrap();
        let trace = trace_route(&route, &[s1, s2, s3]);
        assert_eq!(
            trace,
            vec![
                ("s1".to_string(), PortId(1)),
                ("s2".to_string(), PortId(2)),
                ("s3".to_string(), PortId(6)),
            ]
        );
    }

    #[test]
    fn off_path_node_reads_garbage_not_panic() {
        // A node not in the CRT system still computes a remainder; the
        // architecture relies on edge policy to keep packets on-path.
        let (s1, s2, _) = fig1_nodes();
        let spec = RouteSpec::new(vec![(s1, PortId(1))]);
        let route = spec.compile().unwrap();
        let mut other = CoreNode::new(s2);
        let _ = other.forward(&route); // must not panic
    }

    #[test]
    fn route_display_is_binary() {
        let route = RouteId::from_poly(Poly::from_binary_str("10000"));
        assert_eq!(route.to_string(), "10000");
        assert_eq!(route.label_bits(), 5);
    }
}
