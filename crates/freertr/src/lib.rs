//! Emulation of the RARE/freeRtr control plane used by the paper's
//! testbed: PolKA tunnels, access lists, policy-based routing, and
//! router agents that apply configuration transactions.
//!
//! The paper configures its edge routers with freeRtr commands (Fig 10):
//! an `access-list` matching a flow 5-tuple + ToS, a `tunnel` interface
//! whose `domain-name` lists the explicit router path (internally
//! converted to a PolKA routeID), and a PBR rule binding the access list
//! to the tunnel. "The framework uses a message queue system … a service
//! receives these messages, applies the necessary commands to reconfigure
//! FreeRtr."
//!
//! This crate reproduces that stack in software:
//!
//! * [`prefix`] — IPv4 prefixes for ACL matching;
//! * [`packet`] — flow 5-tuple + ToS metadata and a wire codec;
//! * [`config`] — the configuration model: ACLs, tunnels, PBR
//!   ([`config::RouterConfig`]), plus the Fig 10 text dialect parser
//!   ([`config::parse_config`]) and emitter;
//! * [`resolve`] — the one node path → route spec compiler
//!   ([`resolve::path_spec`], which the packet plane's PolKA and
//!   segment-list labels are built from too) and tunnel → PolKA
//!   routeID compilation against a node-ID allocator and the netsim
//!   topology;
//! * [`agent`] — each router's running configuration behind one lock,
//!   changed by all-or-nothing transactions of typed config ops: the
//!   testbed's message-queue reconfiguration path, minus the queue.

pub mod agent;
pub mod config;
pub mod packet;
pub mod prefix;
pub mod resolve;

pub use config::{AclRule, PbrEntry, RouterConfig, TunnelCfg};
pub use packet::PacketMeta;
pub use prefix::Ipv4Prefix;

/// Errors from the control-plane emulation.
#[derive(Debug, Clone, PartialEq)]
pub enum FreertrError {
    /// Config text could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// Referenced entity (ACL, tunnel) does not exist.
    Unknown(String),
    /// Tunnel path could not be compiled to a route.
    Route(String),
}

impl std::fmt::Display for FreertrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreertrError::Parse { line, message } => {
                write!(f, "config parse error at line {line}: {message}")
            }
            FreertrError::Unknown(what) => write!(f, "unknown entity: {what}"),
            FreertrError::Route(m) => write!(f, "route compilation failed: {m}"),
        }
    }
}

impl std::error::Error for FreertrError {}
