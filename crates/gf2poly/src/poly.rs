//! The [`Poly`] type: dense polynomials over GF(2) in 64-bit limbs.

use crate::Gf2Error;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, BitXor, Mul, Rem};

const LIMB_BITS: usize = 64;

/// A polynomial over GF(2).
///
/// Coefficients are stored little-endian: bit `i` of limb `j` is the
/// coefficient of `t^(64*j + i)`. The representation is kept normalized
/// (no trailing zero limbs), so equality is structural.
///
/// Addition is XOR, multiplication is carry-less; both match the
/// behaviour of the CRC circuits PolKA reuses in programmable hardware.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    limbs: Vec<u64>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { limbs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Poly { limbs: vec![1] }
    }

    /// The monomial `t`.
    pub fn t() -> Self {
        Poly { limbs: vec![2] }
    }

    /// The monomial `t^k`.
    pub fn monomial(k: usize) -> Self {
        let mut p = Poly::zero();
        p.set_coeff(k, true);
        p
    }

    /// Builds a polynomial from the exponents with non-zero coefficients.
    ///
    /// `Poly::from_coeffs(&[0, 1, 3])` is `t^3 + t + 1`.
    pub fn from_coeffs(exponents: &[usize]) -> Self {
        let mut p = Poly::zero();
        for &e in exponents {
            // Duplicate exponents cancel in GF(2); use XOR semantics.
            p.set_coeff(e, !p.coeff(e));
        }
        p
    }

    /// Builds a polynomial from a `u64` bit pattern (bit `i` = coefficient
    /// of `t^i`). `from_bits(0b111)` is `t^2 + t + 1`.
    pub fn from_bits(bits: u64) -> Self {
        let mut p = Poly { limbs: vec![bits] };
        p.normalize();
        p
    }

    /// Builds a polynomial from limbs (little-endian).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut p = Poly { limbs };
        p.normalize();
        p
    }

    /// Parses a binary string, most-significant coefficient first, as used
    /// throughout the paper ("10000" is `t^4`).
    ///
    /// # Panics
    /// Panics if the string contains characters other than `0`/`1`.
    pub fn from_binary_str(s: &str) -> Self {
        let mut p = Poly::zero();
        let n = s.len();
        for (i, c) in s.chars().enumerate() {
            match c {
                '1' => p.set_coeff(n - 1 - i, true),
                '0' => {}
                other => panic!("invalid binary digit {other:?} in {s:?}"),
            }
        }
        p
    }

    /// Renders the polynomial as a binary string ("10000" for `t^4`).
    /// The zero polynomial renders as "0".
    pub fn to_binary_str(&self) -> String {
        match self.degree() {
            None => "0".to_string(),
            Some(d) => (0..=d)
                .rev()
                .map(|i| if self.coeff(i) { '1' } else { '0' })
                .collect(),
        }
    }

    /// The low 64 bits of the coefficient vector. Ports in PolKA are small,
    /// so remainders almost always fit; degree ≥ 64 terms are discarded.
    pub fn low_bits(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// The raw limbs (little-endian, normalized).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// True for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True for the constant polynomial 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// The degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        let last = *self.limbs.last()?;
        Some((self.limbs.len() - 1) * LIMB_BITS + (63 - last.leading_zeros() as usize))
    }

    /// Number of non-zero coefficients.
    pub fn weight(&self) -> usize {
        self.limbs.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// The coefficient of `t^i`.
    pub fn coeff(&self, i: usize) -> bool {
        let (limb, bit) = (i / LIMB_BITS, i % LIMB_BITS);
        self.limbs.get(limb).is_some_and(|l| (l >> bit) & 1 == 1)
    }

    /// Sets the coefficient of `t^i`.
    pub fn set_coeff(&mut self, i: usize, value: bool) {
        let (limb, bit) = (i / LIMB_BITS, i % LIMB_BITS);
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1 << bit;
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1 << bit);
            self.normalize();
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// In-place addition (XOR).
    pub fn add_assign_ref(&mut self, rhs: &Poly) {
        if self.limbs.len() < rhs.limbs.len() {
            self.limbs.resize(rhs.limbs.len(), 0);
        }
        for (a, b) in self.limbs.iter_mut().zip(rhs.limbs.iter()) {
            *a ^= *b;
        }
        self.normalize();
    }

    /// Multiplies by `t^k` (left shift).
    pub fn shl(&self, k: usize) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        let (limb_shift, bit_shift) = (k / LIMB_BITS, k % LIMB_BITS);
        let mut out = vec![0u64; self.limbs.len() + limb_shift + 1];
        for (i, &l) in self.limbs.iter().enumerate() {
            out[i + limb_shift] |= l << bit_shift;
            if bit_shift != 0 {
                out[i + limb_shift + 1] |= l >> (LIMB_BITS - bit_shift);
            }
        }
        Poly::from_limbs(out)
    }

    /// Carry-less multiplication (schoolbook over limbs).
    pub fn mul_ref(&self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        let (short, long) = if self.limbs.len() <= rhs.limbs.len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut acc = vec![0u64; self.limbs.len() + rhs.limbs.len()];
        for (i, &sl) in short.limbs.iter().enumerate() {
            if sl == 0 {
                continue;
            }
            let mut bits = sl;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (j, &ll) in long.limbs.iter().enumerate() {
                    acc[i + j] ^= ll << bit;
                    if bit != 0 {
                        acc[i + j + 1] ^= ll >> (LIMB_BITS - bit);
                    }
                }
            }
        }
        Poly::from_limbs(acc)
    }

    /// The square of the polynomial. Squaring over GF(2) just spreads the
    /// bits (Frobenius), which is cheaper than a general multiply.
    pub fn square(&self) -> Poly {
        let mut out = vec![0u64; self.limbs.len() * 2];
        for (i, &l) in self.limbs.iter().enumerate() {
            let (lo, hi) = spread_bits(l);
            out[2 * i] = lo;
            out[2 * i + 1] = hi;
        }
        Poly::from_limbs(out)
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = q * divisor + r` and `deg r < deg divisor`.
    pub fn divmod(&self, divisor: &Poly) -> Result<(Poly, Poly), Gf2Error> {
        let ddeg = divisor.degree().ok_or(Gf2Error::DivisionByZero)?;
        let mut rem = self.clone();
        let mut quot = Poly::zero();
        while let Some(rdeg) = rem.degree() {
            if rdeg < ddeg {
                break;
            }
            let shift = rdeg - ddeg;
            quot.set_coeff(shift, true);
            let sub = divisor.shl(shift);
            rem.add_assign_ref(&sub);
        }
        Ok((quot, rem))
    }

    /// Remainder of Euclidean division. This is the PolKA forwarding
    /// operation: `port = routeID mod nodeID`.
    pub fn rem_ref(&self, divisor: &Poly) -> Result<Poly, Gf2Error> {
        Ok(self.divmod(divisor)?.1)
    }

    /// Greatest common divisor (monic by construction over GF(2)).
    pub fn gcd(&self, other: &Poly) -> Poly {
        let (mut a, mut b) = (self.clone(), other.clone());
        while !b.is_zero() {
            let r = a.rem_ref(&b).expect("b is non-zero");
            a = b;
            b = r;
        }
        a
    }

    /// Extended Euclid: returns `(g, s, t)` such that `s*self + t*other = g`.
    pub fn egcd(&self, other: &Poly) -> (Poly, Poly, Poly) {
        let (mut r0, mut r1) = (self.clone(), other.clone());
        let (mut s0, mut s1) = (Poly::one(), Poly::zero());
        let (mut t0, mut t1) = (Poly::zero(), Poly::one());
        while !r1.is_zero() {
            let (q, r) = r0.divmod(&r1).expect("r1 is non-zero");
            r0 = std::mem::replace(&mut r1, r);
            let s_next = &s0 + &q.mul_ref(&s1);
            s0 = std::mem::replace(&mut s1, s_next);
            let t_next = &t0 + &q.mul_ref(&t1);
            t0 = std::mem::replace(&mut t1, t_next);
        }
        (r0, s0, t0)
    }

    /// Inverse of `self` modulo `modulus`, if `gcd(self, modulus) == 1`.
    pub fn mod_inverse(&self, modulus: &Poly) -> Result<Poly, Gf2Error> {
        if modulus.is_zero() {
            return Err(Gf2Error::DivisionByZero);
        }
        let reduced = self.rem_ref(modulus)?;
        let (g, s, _) = reduced.egcd(modulus);
        if !g.is_one() {
            return Err(Gf2Error::NotInvertible);
        }
        s.rem_ref(modulus)
    }

    /// Modular exponentiation `self^(2^k) mod modulus` by repeated squaring;
    /// the Frobenius ladder used by the Rabin irreducibility test.
    pub fn frobenius_pow(&self, k: usize, modulus: &Poly) -> Result<Poly, Gf2Error> {
        let mut acc = self.rem_ref(modulus)?;
        for _ in 0..k {
            acc = acc.square().rem_ref(modulus)?;
        }
        Ok(acc)
    }

    /// Total-order comparison by degree then lexicographic coefficients;
    /// used to enumerate node identifiers deterministically.
    pub fn cmp_poly(&self, other: &Poly) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => self.limbs.iter().rev().cmp(other.limbs.iter().rev()),
            ord => ord,
        }
    }
}

/// Spreads the bits of `x` so bit `i` moves to bit `2*i`: the squaring map
/// for GF(2) polynomials packed in machine words.
fn spread_bits(x: u64) -> (u64, u64) {
    fn interleave_zeros(mut v: u64) -> u64 {
        // v holds 32 significant bits; spread them to 64.
        v &= 0xFFFF_FFFF;
        v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
        v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
        v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        v = (v | (v << 2)) & 0x3333_3333_3333_3333;
        v = (v | (v << 1)) & 0x5555_5555_5555_5555;
        v
    }
    (interleave_zeros(x), interleave_zeros(x >> 32))
}

impl Add<&Poly> for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        let mut out = self.clone();
        out.add_assign_ref(rhs);
        out
    }
}

impl AddAssign<&Poly> for Poly {
    fn add_assign(&mut self, rhs: &Poly) {
        self.add_assign_ref(rhs);
    }
}

impl BitXor<&Poly> for &Poly {
    type Output = Poly;
    /// XOR is addition in GF(2)\[t\]; both operators are provided because
    /// both idioms appear in the PolKA literature.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn bitxor(self, rhs: &Poly) -> Poly {
        self + rhs
    }
}

impl Mul<&Poly> for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        self.mul_ref(rhs)
    }
}

impl Rem<&Poly> for &Poly {
    type Output = Poly;
    /// # Panics
    /// Panics if `rhs` is the zero polynomial. Use [`Poly::rem_ref`] for a
    /// fallible version.
    fn rem(self, rhs: &Poly) -> Poly {
        self.rem_ref(rhs).expect("remainder by zero polynomial")
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Poly({})", self.to_binary_str())
    }
}

impl fmt::Display for Poly {
    /// Renders in the paper's algebraic notation, e.g. `t^3 + t + 1`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(d) = self.degree() else {
            return write!(f, "0");
        };
        let mut first = true;
        for i in (0..=d).rev() {
            if !self.coeff(i) {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match i {
                0 => write!(f, "1")?,
                1 => write!(f, "t")?,
                _ => write!(f, "t^{i}")?,
            }
        }
        Ok(())
    }
}

/// Polynomial Chinese Remainder Theorem.
///
/// Given residue/modulus pairs `(o_i, s_i)` with pairwise-coprime moduli,
/// returns the unique `routeID` of degree `< sum(deg s_i)` such that
/// `routeID ≡ o_i (mod s_i)` for all `i`. This is exactly how the PolKA
/// controller assembles a route identifier from per-hop output ports.
pub fn crt(system: &[(Poly, Poly)]) -> Result<Poly, Gf2Error> {
    if system.is_empty() {
        return Err(Gf2Error::EmptySystem);
    }
    let mut modulus_product = Poly::one();
    for (_, m) in system {
        if m.is_zero() {
            return Err(Gf2Error::DivisionByZero);
        }
        modulus_product = modulus_product.mul_ref(m);
    }
    let mut acc = Poly::zero();
    for (residue, m) in system {
        let (cofactor, rem_check) = modulus_product.divmod(m)?;
        debug_assert!(rem_check.is_zero());
        let inv = cofactor
            .mod_inverse(m)
            .map_err(|_| Gf2Error::ModuliNotCoprime)?;
        let term = residue.mul_ref(&cofactor).mul_ref(&inv);
        acc.add_assign_ref(&term);
    }
    acc.rem_ref(&modulus_product)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Poly {
        Poly::from_binary_str(s)
    }

    #[test]
    fn construction_and_rendering() {
        assert_eq!(p("1011").to_binary_str(), "1011");
        assert_eq!(Poly::zero().to_binary_str(), "0");
        assert_eq!(Poly::from_coeffs(&[3, 1, 0]), p("1011"));
        assert_eq!(Poly::from_bits(0b1011), p("1011"));
        assert_eq!(Poly::monomial(4), p("10000"));
        assert_eq!(format!("{}", p("1011")), "t^3 + t + 1");
        assert_eq!(format!("{}", p("10")), "t");
        assert_eq!(format!("{}", Poly::zero()), "0");
    }

    #[test]
    fn degree_and_weight() {
        assert_eq!(Poly::zero().degree(), None);
        assert_eq!(Poly::one().degree(), Some(0));
        assert_eq!(p("111").degree(), Some(2));
        assert_eq!(Poly::monomial(130).degree(), Some(130));
        assert_eq!(p("1011").weight(), 3);
    }

    #[test]
    fn duplicate_exponents_cancel() {
        assert_eq!(Poly::from_coeffs(&[2, 2]), Poly::zero());
        assert_eq!(Poly::from_coeffs(&[2, 2, 2]), Poly::monomial(2));
    }

    #[test]
    fn addition_is_xor() {
        assert_eq!(&p("1011") + &p("0110"), p("1101"));
        assert_eq!(&p("1011") + &p("1011"), Poly::zero());
    }

    #[test]
    fn multiplication_small_cases() {
        // (t+1)(t+1) = t^2 + 1 over GF(2)
        assert_eq!(p("11").mul_ref(&p("11")), p("101"));
        // (t^2+t+1)(t+1) = t^3 + 1
        assert_eq!(p("111").mul_ref(&p("11")), p("1001"));
        assert_eq!(p("111").mul_ref(&Poly::zero()), Poly::zero());
        assert_eq!(p("111").mul_ref(&Poly::one()), p("111"));
    }

    #[test]
    fn multiplication_across_limb_boundary() {
        let a = Poly::monomial(63);
        let b = Poly::monomial(5);
        assert_eq!(a.mul_ref(&b), Poly::monomial(68));
        let c = &Poly::monomial(63) + &Poly::one();
        let d = c.mul_ref(&c);
        assert_eq!(d, &Poly::monomial(126) + &Poly::one());
    }

    #[test]
    fn square_matches_mul() {
        let a = p("110101101");
        assert_eq!(a.square(), a.mul_ref(&a));
        let b = &Poly::monomial(97) + &p("1011");
        assert_eq!(b.square(), b.mul_ref(&b));
    }

    #[test]
    fn paper_fig1_mod_example() {
        // routeID = 10000 (t^4); node s2 = t^2+t+1 -> port label 2 (= t).
        let route = p("10000");
        let s2 = p("111");
        assert_eq!(route.rem_ref(&s2).unwrap(), p("10"));
        assert_eq!(route.rem_ref(&s2).unwrap().low_bits(), 2);
    }

    #[test]
    fn divmod_reconstructs() {
        let a = p("110101101011");
        let b = p("1011");
        let (q, r) = a.divmod(&b).unwrap();
        assert!(r.degree().unwrap_or(0) < b.degree().unwrap());
        assert_eq!(&q.mul_ref(&b) + &r, a);
    }

    #[test]
    fn division_by_zero_is_error() {
        assert_eq!(
            p("101").divmod(&Poly::zero()).unwrap_err(),
            Gf2Error::DivisionByZero
        );
    }

    #[test]
    fn gcd_of_coprime_is_one() {
        // t^2+t+1 and t^3+t+1 are distinct irreducibles.
        assert!(p("111").gcd(&p("1011")).is_one());
    }

    #[test]
    fn gcd_with_common_factor() {
        let f = p("111");
        let a = f.mul_ref(&p("11"));
        let b = f.mul_ref(&p("1011"));
        assert_eq!(a.gcd(&b), f);
    }

    #[test]
    fn egcd_bezout_identity() {
        let a = p("110101");
        let b = p("10011");
        let (g, s, t) = a.egcd(&b);
        let lhs = &s.mul_ref(&a) + &t.mul_ref(&b);
        assert_eq!(lhs, g);
    }

    #[test]
    fn mod_inverse_roundtrip() {
        let m = p("1011"); // irreducible, field GF(8)
        for bits in 1u64..8 {
            let a = Poly::from_bits(bits);
            let inv = a.mod_inverse(&m).unwrap();
            assert!(a.mul_ref(&inv).rem_ref(&m).unwrap().is_one());
        }
    }

    #[test]
    fn mod_inverse_of_non_coprime_fails() {
        let m = p("111").mul_ref(&p("11"));
        assert_eq!(
            p("11").mod_inverse(&m).unwrap_err(),
            Gf2Error::NotInvertible
        );
    }

    #[test]
    fn crt_fig1_route() {
        // Paper Fig 1: s1=t+1, s2=t^2+t+1, s3=t^3+t+1; o1=1, o2=t, o3=t^2+t.
        let system = [
            (p("1"), p("11")),
            (p("10"), p("111")),
            (p("110"), p("1011")),
        ];
        let route = crt(&system).unwrap();
        for (o, s) in &system {
            assert_eq!(&route % s, o.clone());
        }
        // routeID must fit under the modulus product (degree < 1+2+3).
        assert!(route.degree().unwrap() < 6);
    }

    #[test]
    fn crt_rejects_non_coprime_moduli() {
        let system = [(p("1"), p("111")), (p("10"), p("111"))];
        assert_eq!(crt(&system).unwrap_err(), Gf2Error::ModuliNotCoprime);
    }

    #[test]
    fn crt_rejects_empty_system() {
        assert_eq!(crt(&[]).unwrap_err(), Gf2Error::EmptySystem);
    }

    #[test]
    fn frobenius_pow_is_iterated_squaring() {
        let m = p("10011101"); // degree-7 modulus
        let x = Poly::t();
        let direct = x
            .square()
            .rem_ref(&m)
            .unwrap()
            .square()
            .rem_ref(&m)
            .unwrap();
        assert_eq!(x.frobenius_pow(2, &m).unwrap(), direct);
    }

    #[test]
    fn set_coeff_clears_and_normalizes() {
        let mut a = Poly::monomial(100);
        a.set_coeff(100, false);
        assert!(a.is_zero());
        assert_eq!(a.limbs().len(), 0);
    }

    #[test]
    fn cmp_orders_by_degree_then_lex() {
        assert_eq!(p("11").cmp_poly(&p("111")), Ordering::Less);
        assert_eq!(p("101").cmp_poly(&p("110")), Ordering::Less);
        assert_eq!(p("111").cmp_poly(&p("111")), Ordering::Equal);
    }
}
