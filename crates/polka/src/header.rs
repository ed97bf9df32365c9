//! On-wire encoding of the PolKA shim header.
//!
//! Mirrors the P4 deployment layout: a small fixed header carrying a
//! version, TTL, proof-of-transit field and the variable-length routeID.
//! The codec uses [`bytes`] so it composes with the freeRtr packet path.

use crate::{PolkaError, RouteId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gf2poly::Poly;

/// Protocol version emitted by this implementation.
pub const POLKA_VERSION: u8 = 1;

/// Maximum routeID length in limbs we accept from the wire (64 limbs =
/// 4096 bits, far beyond any realistic path).
pub const MAX_ROUTE_LIMBS: usize = 64;

/// The PolKA shim header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolkaHeader {
    /// Protocol version.
    pub version: u8,
    /// Hop budget, decremented by edge processing.
    pub ttl: u8,
    /// Proof-of-transit accumulator (see [`crate::pot`]).
    pub pot: u64,
    /// The route label.
    pub route: RouteId,
}

impl PolkaHeader {
    /// Creates a header with default version and TTL for a compiled route.
    pub fn new(route: RouteId) -> Self {
        PolkaHeader {
            version: POLKA_VERSION,
            ttl: 64,
            pot: 0,
            route,
        }
    }

    /// Serialized size in bytes of a header carrying `route`, without
    /// constructing one — the hot path reads this per packet per hop.
    pub fn wire_len_for(route: &RouteId) -> usize {
        // version(1) + ttl(1) + limb count(2) + pot(8) + limbs(8 each)
        12 + route.poly().limbs().len() * 8
    }

    /// Serialized size in bytes.
    pub fn wire_len(&self) -> usize {
        Self::wire_len_for(&self.route)
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_u8(self.version);
        buf.put_u8(self.ttl);
        let limbs = self.route.poly().limbs();
        buf.put_u16(limbs.len() as u16);
        buf.put_u64(self.pot);
        for &l in limbs {
            buf.put_u64(l);
        }
        buf.freeze()
    }

    /// Decodes a header, consuming bytes from the front of `buf`.
    pub fn decode(buf: &mut Bytes) -> Result<Self, PolkaError> {
        if buf.remaining() < 12 {
            return Err(PolkaError::BadHeader("truncated fixed header"));
        }
        let version = buf.get_u8();
        if version != POLKA_VERSION {
            return Err(PolkaError::BadHeader("unsupported version"));
        }
        let ttl = buf.get_u8();
        let n_limbs = buf.get_u16() as usize;
        if n_limbs > MAX_ROUTE_LIMBS {
            return Err(PolkaError::BadHeader("routeID too long"));
        }
        let pot = buf.get_u64();
        if buf.remaining() < n_limbs * 8 {
            return Err(PolkaError::BadHeader("truncated routeID"));
        }
        let mut limbs = Vec::with_capacity(n_limbs);
        for _ in 0..n_limbs {
            limbs.push(buf.get_u64());
        }
        Ok(PolkaHeader {
            version,
            ttl,
            pot,
            route: RouteId::from_poly(Poly::from_limbs(limbs)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, PortId, RouteSpec};

    fn sample_route() -> RouteId {
        let spec = RouteSpec::new(vec![
            (NodeId::new("a", Poly::from_binary_str("111")), PortId(2)),
            (NodeId::new("b", Poly::from_binary_str("1011")), PortId(5)),
        ]);
        spec.compile().unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let hdr = PolkaHeader::new(sample_route());
        let mut wire = hdr.encode();
        let back = PolkaHeader::decode(&mut wire).unwrap();
        assert_eq!(back, hdr);
        assert!(!wire.has_remaining());
    }

    #[test]
    fn roundtrip_preserves_pot_and_ttl() {
        let mut hdr = PolkaHeader::new(sample_route());
        hdr.ttl = 7;
        hdr.pot = 0xDEAD_BEEF_0BAD_F00D;
        let mut wire = hdr.encode();
        let back = PolkaHeader::decode(&mut wire).unwrap();
        assert_eq!(back.ttl, 7);
        assert_eq!(back.pot, 0xDEAD_BEEF_0BAD_F00D);
    }

    #[test]
    fn zero_route_encodes() {
        let hdr = PolkaHeader::new(RouteId::from_poly(Poly::zero()));
        let mut wire = hdr.encode();
        assert_eq!(wire.len(), 12);
        let back = PolkaHeader::decode(&mut wire).unwrap();
        assert!(back.route.poly().is_zero());
    }

    #[test]
    fn truncated_header_is_rejected() {
        let hdr = PolkaHeader::new(sample_route());
        let wire = hdr.encode();
        for cut in [0, 1, 5, 11, wire.len() - 1] {
            let mut short = wire.slice(..cut);
            assert!(PolkaHeader::decode(&mut short).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut hdr = PolkaHeader::new(sample_route());
        hdr.version = 9;
        let mut wire = hdr.encode();
        assert!(matches!(
            PolkaHeader::decode(&mut wire),
            Err(PolkaError::BadHeader("unsupported version"))
        ));
    }

    #[test]
    fn oversized_limb_count_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(POLKA_VERSION);
        buf.put_u8(64);
        buf.put_u16(MAX_ROUTE_LIMBS as u16 + 1);
        buf.put_u64(0);
        let mut wire = buf.freeze();
        assert!(matches!(
            PolkaHeader::decode(&mut wire),
            Err(PolkaError::BadHeader("routeID too long"))
        ));
    }

    #[test]
    fn wire_len_matches_encoding() {
        let hdr = PolkaHeader::new(sample_route());
        assert_eq!(hdr.encode().len(), hdr.wire_len());
    }
}
