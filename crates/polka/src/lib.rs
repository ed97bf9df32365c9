//! PolKA: Polynomial Key-based Architecture for source routing.
//!
//! PolKA (Dominicini et al., NetSoft 2020) replaces table-based and
//! port-switching source routing with a *residue number system* over
//! GF(2)\[t\]:
//!
//! * every core node is assigned an **irreducible polynomial** `nodeID`;
//! * a path is compiled by the controller into a single **routeID**
//!   polynomial via the Chinese Remainder Theorem such that
//!   `routeID mod nodeID_i = outputPort_i` for each hop `i`;
//! * a core node forwards by computing one polynomial remainder — the same
//!   circuit as a CRC check — and **never rewrites the packet header**.
//!
//! Because the route is a single immutable label, path migration and
//! failure recovery reduce to swapping the routeID at the ingress edge
//! (one policy-based-routing rewrite), which is what the paper's
//! experiments exercise.
//!
//! This crate provides:
//!
//! * [`NodeId`] / [`PortId`] and a deterministic [`NodeIdAllocator`]
//!   (distinct irreducible polynomials are pairwise coprime, as CRT needs);
//! * [`RouteSpec`] → [`RouteId`] compilation ([`RouteSpec::compile`]) and
//!   per-hop forwarding ([`CoreNode::forward`]: the routeID reduced by
//!   the nodeID through ten byte-position tables per 64-bit limb, the
//!   sliced CRC datapath, for nodeIDs of degree 1..=16; wider ones
//!   divide);
//! * an on-wire [`header::PolkaHeader`] codec;
//! * proof-of-transit ([`pot`]), an extension the PolKA literature
//!   describes.
//!
//! The port-switching baseline the paper compares against (one label
//! popped per hop, the header rewritten) is `dataplane::FlowLabel::Segments`,
//! run by the same forwarding plane as the PolKA label.

pub mod header;
pub mod ids;
pub mod pot;
pub mod route;

pub use ids::{NodeId, NodeIdAllocator, PortId};
pub use route::{CoreNode, RouteId, RouteSpec};

/// Errors from route compilation and forwarding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolkaError {
    /// A port label does not fit under the node's polynomial
    /// (`deg(port) >= deg(nodeID)`).
    PortTooLarge { node: String, port: u64 },
    /// The same node appears twice in one path; CRT needs distinct moduli.
    DuplicateNode(String),
    /// Route compilation failed in the underlying CRT.
    Crt(gf2poly::Gf2Error),
    /// An empty path cannot be compiled.
    EmptyPath,
    /// The allocator ran out of irreducible polynomials at this degree.
    AllocatorExhausted { degree: usize },
    /// Header bytes were malformed.
    BadHeader(&'static str),
}

impl std::fmt::Display for PolkaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolkaError::PortTooLarge { node, port } => {
                write!(f, "port {port} does not fit under nodeID of {node}")
            }
            PolkaError::DuplicateNode(n) => write!(f, "node {n} appears twice in path"),
            PolkaError::Crt(e) => write!(f, "CRT failure: {e}"),
            PolkaError::EmptyPath => write!(f, "cannot compile an empty path"),
            PolkaError::AllocatorExhausted { degree } => {
                write!(f, "no irreducible polynomials left at degree {degree}")
            }
            PolkaError::BadHeader(m) => write!(f, "malformed PolKA header: {m}"),
        }
    }
}

impl std::error::Error for PolkaError {}

impl From<gf2poly::Gf2Error> for PolkaError {
    fn from(e: gf2poly::Gf2Error) -> Self {
        PolkaError::Crt(e)
    }
}
