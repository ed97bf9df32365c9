//! Arithmetic over the polynomial ring GF(2)\[t\].
//!
//! PolKA (Polynomial Key-based Architecture, Dominicini et al., NetSoft 2020)
//! encodes a source route as a single polynomial `routeID` over GF(2). Every
//! core node holds an irreducible polynomial `nodeID`, and forwarding is the
//! remainder `routeID mod nodeID`. The controller builds `routeID` from the
//! desired per-hop output ports with the polynomial Chinese Remainder Theorem.
//!
//! This crate provides the complete number system PolKA needs:
//!
//! * [`Poly`] — arbitrary-degree polynomials over GF(2), backed by 64-bit
//!   limbs (bit `i` of limb `j` is the coefficient of `t^(64*j+i)`),
//! * ring operations (`+`, `*`, carry-less, in-place variants),
//! * Euclidean division ([`Poly::divmod`]), [`Poly::gcd`] / [`Poly::egcd`],
//!   modular inverse and [`crt`],
//! * Rabin irreducibility testing and enumeration of irreducible
//!   polynomials for node-identifier assignment.
//!
//! The hot path for a PolKA switch is a single `mod` operation, mirroring
//! how hardware reuses the CRC circuit; that table-driven reduction lives
//! with the switch (`polka::CoreNode`), and [`Poly::rem_ref`] here is the
//! long division it is tested against.
//!
//! # Example: the paper's Figure 1
//!
//! ```
//! use gf2poly::{crt, Poly};
//!
//! let s1 = Poly::from_binary_str("11");   // t + 1
//! let s2 = Poly::from_binary_str("111");  // t^2 + t + 1
//! let s3 = Poly::from_binary_str("1011"); // t^3 + t + 1
//! let o1 = Poly::from_binary_str("1");    // port 1
//! let o2 = Poly::from_binary_str("10");   // port 2
//! let o3 = Poly::from_binary_str("110");  // port 6
//!
//! let route = crt(&[(o1, s1.clone()), (o2, s2.clone()), (o3, s3)]).unwrap();
//! assert_eq!(&route % &s2, Poly::from_binary_str("10")); // port label 2
//! ```

mod irreducible;
mod poly;

pub use irreducible::{irreducibles_of_degree, is_irreducible, nth_irreducible};
pub use poly::{crt, Poly};

/// Errors produced by GF(2)\[t\] arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gf2Error {
    /// Division (or reduction) by the zero polynomial.
    DivisionByZero,
    /// The element has no inverse modulo the given modulus
    /// (i.e. `gcd(a, m) != 1`).
    NotInvertible,
    /// CRT moduli are not pairwise coprime.
    ModuliNotCoprime,
    /// CRT was called with an empty system.
    EmptySystem,
}

impl std::fmt::Display for Gf2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Gf2Error::DivisionByZero => write!(f, "division by the zero polynomial"),
            Gf2Error::NotInvertible => write!(f, "element is not invertible modulo the modulus"),
            Gf2Error::ModuliNotCoprime => write!(f, "CRT moduli are not pairwise coprime"),
            Gf2Error::EmptySystem => write!(f, "CRT called with an empty residue system"),
        }
    }
}

impl std::error::Error for Gf2Error {}
