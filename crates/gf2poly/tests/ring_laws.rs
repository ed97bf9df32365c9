//! Property tests: GF(2)[t] must behave like a commutative ring with
//! Euclidean division, and CRT must reconstruct residues exactly.

use gf2poly::{crt, irreducibles_of_degree, Poly};
use proptest::prelude::*;

fn arb_poly(max_limbs: usize) -> impl Strategy<Value = Poly> {
    prop::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(Poly::from_limbs)
}

fn arb_nonzero_poly(max_limbs: usize) -> impl Strategy<Value = Poly> {
    arb_poly(max_limbs).prop_filter("non-zero", |p| !p.is_zero())
}

proptest! {
    #[test]
    fn addition_commutes(a in arb_poly(4), b in arb_poly(4)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn addition_is_involution(a in arb_poly(4), b in arb_poly(4)) {
        // x + b + b == x : every element is its own additive inverse.
        prop_assert_eq!(&(&a + &b) + &b, a);
    }

    #[test]
    fn multiplication_commutes(a in arb_poly(3), b in arb_poly(3)) {
        prop_assert_eq!(a.mul_ref(&b), b.mul_ref(&a));
    }

    #[test]
    fn multiplication_associates(a in arb_poly(2), b in arb_poly(2), c in arb_poly(2)) {
        prop_assert_eq!(a.mul_ref(&b).mul_ref(&c), a.mul_ref(&b.mul_ref(&c)));
    }

    #[test]
    fn multiplication_distributes(a in arb_poly(2), b in arb_poly(2), c in arb_poly(2)) {
        let lhs = a.mul_ref(&(&b + &c));
        let rhs = &a.mul_ref(&b) + &a.mul_ref(&c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn one_is_multiplicative_identity(a in arb_poly(4)) {
        prop_assert_eq!(a.mul_ref(&Poly::one()), a.clone());
    }

    #[test]
    fn degree_of_product_is_sum(a in arb_nonzero_poly(3), b in arb_nonzero_poly(3)) {
        let prod = a.mul_ref(&b);
        prop_assert_eq!(
            prod.degree().unwrap(),
            a.degree().unwrap() + b.degree().unwrap()
        );
    }

    #[test]
    fn square_matches_self_multiplication(a in arb_poly(4)) {
        prop_assert_eq!(a.square(), a.mul_ref(&a));
    }

    #[test]
    fn divmod_invariant(a in arb_poly(4), b in arb_nonzero_poly(2)) {
        let (q, r) = a.divmod(&b).unwrap();
        // a = q*b + r, deg r < deg b
        prop_assert_eq!(&q.mul_ref(&b) + &r, a);
        if let Some(rd) = r.degree() {
            prop_assert!(rd < b.degree().unwrap());
        }
    }

    #[test]
    fn gcd_divides_both(a in arb_nonzero_poly(3), b in arb_nonzero_poly(3)) {
        let g = a.gcd(&b);
        prop_assert!(a.rem_ref(&g).unwrap().is_zero());
        prop_assert!(b.rem_ref(&g).unwrap().is_zero());
    }

    #[test]
    fn egcd_bezout(a in arb_poly(3), b in arb_poly(3)) {
        let (g, s, t) = a.egcd(&b);
        prop_assert_eq!(&s.mul_ref(&a) + &t.mul_ref(&b), g);
    }

    #[test]
    fn binary_string_roundtrip(a in arb_poly(3)) {
        prop_assert_eq!(Poly::from_binary_str(&a.to_binary_str()), a);
    }

    #[test]
    fn crt_reconstructs_residues(
        seed in 0usize..64,
        r1 in any::<u64>(), r2 in any::<u64>(), r3 in any::<u64>()
    ) {
        // Pick three distinct irreducible moduli deterministically from seed.
        let pool5 = irreducibles_of_degree(5);
        let pool6 = irreducibles_of_degree(6);
        let pool7 = irreducibles_of_degree(7);
        let m1 = pool5[seed % pool5.len()].clone();
        let m2 = pool6[seed % pool6.len()].clone();
        let m3 = pool7[seed % pool7.len()].clone();
        let o1 = Poly::from_bits(r1).rem_ref(&m1).unwrap();
        let o2 = Poly::from_bits(r2).rem_ref(&m2).unwrap();
        let o3 = Poly::from_bits(r3).rem_ref(&m3).unwrap();
        let route = crt(&[
            (o1.clone(), m1.clone()),
            (o2.clone(), m2.clone()),
            (o3.clone(), m3.clone()),
        ]).unwrap();
        prop_assert_eq!(&route % &m1, o1);
        prop_assert_eq!(&route % &m2, o2);
        prop_assert_eq!(&route % &m3, o3);
        // Uniqueness bound: deg(route) < deg(m1 m2 m3) = 18.
        prop_assert!(route.degree().unwrap_or(0) < 18);
    }

    #[test]
    fn mod_inverse_in_prime_field(bits in 1u64..255) {
        // GF(2^8) via the AES polynomial t^8+t^4+t^3+t+1.
        let m = Poly::from_bits(0b1_0001_1011);
        let a = Poly::from_bits(bits);
        let inv = a.mod_inverse(&m).unwrap();
        prop_assert!(a.mul_ref(&inv).rem_ref(&m).unwrap().is_one());
    }
}
