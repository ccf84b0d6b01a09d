//! Finite-field arithmetic GF(p^r).
//!
//! The boostFPP construction (Section 6 of the paper) composes a finite projective
//! plane of order `q` over a threshold system. Projective planes of order `q` are
//! known to exist for every prime power `q = p^r`; the classical construction
//! PG(2, q) works over the field GF(q). This module implements GF(p^r) from scratch:
//! prime fields directly, extension fields as polynomials over GF(p) modulo an
//! irreducible polynomial found by exhaustive search (plane orders are small, so the
//! search is instantaneous).

use std::fmt;

/// A finite field GF(p^r), holding the modulus polynomial and precomputed tables.
///
/// Elements are represented by [`GfElem`], which is an index into the field
/// (`0..q`), encoding the polynomial `c_0 + c_1 x + ... + c_{r-1} x^{r-1}` as the
/// base-`p` integer `c_0 + c_1 p + ... + c_{r-1} p^{r-1}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GfField {
    p: u64,
    r: u32,
    q: u64,
    /// Coefficients (length r+1, degree r, monic) of the irreducible modulus.
    /// Empty for prime fields (r == 1), where arithmetic is plain mod-p.
    modulus: Vec<u64>,
}

/// An element of a finite field, as an index in `0..q`.
///
/// Elements carry no reference to their field; all arithmetic goes through
/// [`GfField`] methods so that mixing fields is impossible to express accidentally
/// within this crate's APIs (constructions create one field and thread it through).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GfElem(pub u64);

impl fmt::Display for GfElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Errors produced when constructing a finite field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GfError {
    /// The requested order is not a prime power.
    NotPrimePower(u64),
}

impl fmt::Display for GfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GfError::NotPrimePower(q) => write!(f, "{q} is not a prime power"),
        }
    }
}

impl std::error::Error for GfError {}

impl GfField {
    /// Constructs GF(q) for a prime power `q`.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::NotPrimePower`] if `q` is not of the form `p^r`.
    ///
    /// # Examples
    ///
    /// ```
    /// use bqs_combinatorics::gf::GfField;
    /// let f9 = GfField::new(9).unwrap();
    /// assert_eq!(f9.order(), 9);
    /// assert!(GfField::new(6).is_err());
    /// ```
    pub fn new(q: u64) -> Result<Self, GfError> {
        let (p, r) = crate::primes::prime_power(q).ok_or(GfError::NotPrimePower(q))?;
        let modulus = if r == 1 {
            Vec::new()
        } else {
            find_irreducible(p, r)
        };
        Ok(GfField { p, r, q, modulus })
    }

    /// The order `q = p^r` of the field.
    #[must_use]
    pub fn order(&self) -> u64 {
        self.q
    }

    /// The characteristic `p`.
    #[must_use]
    pub fn characteristic(&self) -> u64 {
        self.p
    }

    /// The extension degree `r`.
    #[must_use]
    pub fn degree(&self) -> u32 {
        self.r
    }

    /// The additive identity.
    #[must_use]
    pub fn zero(&self) -> GfElem {
        GfElem(0)
    }

    /// The multiplicative identity.
    #[must_use]
    pub fn one(&self) -> GfElem {
        GfElem(1)
    }

    /// Iterates over all field elements in index order.
    pub fn elements(&self) -> impl Iterator<Item = GfElem> {
        (0..self.q).map(GfElem)
    }

    fn to_poly(&self, a: GfElem) -> Vec<u64> {
        let mut v = a.0;
        let mut coeffs = vec![0u64; self.r as usize];
        for c in coeffs.iter_mut() {
            *c = v % self.p;
            v /= self.p;
        }
        coeffs
    }

    fn elem_from_poly(&self, coeffs: &[u64]) -> GfElem {
        let mut acc = 0u64;
        for &c in coeffs.iter().rev() {
            acc = acc * self.p + (c % self.p);
        }
        GfElem(acc)
    }

    /// Field addition.
    #[must_use]
    pub fn add(&self, a: GfElem, b: GfElem) -> GfElem {
        if self.r == 1 {
            return GfElem((a.0 + b.0) % self.p);
        }
        let pa = self.to_poly(a);
        let pb = self.to_poly(b);
        let sum: Vec<u64> = pa.iter().zip(&pb).map(|(x, y)| (x + y) % self.p).collect();
        self.elem_from_poly(&sum)
    }

    /// Field negation.
    #[must_use]
    pub fn neg(&self, a: GfElem) -> GfElem {
        if self.r == 1 {
            return GfElem((self.p - a.0 % self.p) % self.p);
        }
        let pa = self.to_poly(a);
        let neg: Vec<u64> = pa.iter().map(|&x| (self.p - x) % self.p).collect();
        self.elem_from_poly(&neg)
    }

    /// Field subtraction.
    #[must_use]
    pub fn sub(&self, a: GfElem, b: GfElem) -> GfElem {
        self.add(a, self.neg(b))
    }

    /// Field multiplication.
    #[must_use]
    pub fn mul(&self, a: GfElem, b: GfElem) -> GfElem {
        if self.r == 1 {
            return GfElem((a.0 * b.0) % self.p);
        }
        let pa = self.to_poly(a);
        let pb = self.to_poly(b);
        let prod = poly_mul_mod(&pa, &pb, &self.modulus, self.p);
        self.elem_from_poly(&prod)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero.
    #[must_use]
    pub fn inv(&self, a: GfElem) -> GfElem {
        assert!(a.0 != 0, "attempted to invert zero in GF({})", self.q);
        // a^(q-2) = a^{-1} in GF(q)*.
        self.pow(a, self.q - 2)
    }

    /// Exponentiation by squaring.
    #[must_use]
    pub fn pow(&self, a: GfElem, mut e: u64) -> GfElem {
        let mut base = a;
        let mut acc = self.one();
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Field division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    #[must_use]
    pub fn div(&self, a: GfElem, b: GfElem) -> GfElem {
        self.mul(a, self.inv(b))
    }
}

/// Multiplies two polynomials over GF(p) and reduces modulo the monic `modulus`.
fn poly_mul_mod(a: &[u64], b: &[u64], modulus: &[u64], p: u64) -> Vec<u64> {
    let r = modulus.len() - 1;
    let mut prod = vec![0u64; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            prod[i + j] = (prod[i + j] + ai * bj) % p;
        }
    }
    // Reduce: modulus is monic of degree r, so x^r ≡ -(lower terms).
    for deg in (r..prod.len()).rev() {
        let coef = prod[deg];
        if coef == 0 {
            continue;
        }
        prod[deg] = 0;
        for (k, &m) in modulus.iter().enumerate().take(r) {
            let sub = (coef * m) % p;
            let idx = deg - r + k;
            prod[idx] = (prod[idx] + p - sub) % p;
        }
    }
    prod.truncate(r);
    prod.resize(r, 0);
    prod
}

/// Evaluates a polynomial (coefficients low-to-high) over GF(p) at `x`.
fn poly_eval(coeffs: &[u64], x: u64, p: u64) -> u64 {
    let mut acc = 0u64;
    for &c in coeffs.iter().rev() {
        acc = (acc * x + c) % p;
    }
    acc
}

/// Finds a monic irreducible polynomial of degree `r` over GF(p) by exhaustive search.
///
/// Irreducibility is checked by verifying the polynomial has no roots (sufficient for
/// degrees 2 and 3) and, for higher degrees, by trial division by all monic
/// polynomials of degree up to r/2. Plane orders are small so this is instantaneous.
fn find_irreducible(p: u64, r: u32) -> Vec<u64> {
    let r = r as usize;
    // Enumerate candidate lower coefficients c_0..c_{r-1}; leading coefficient is 1.
    let total = p.pow(r as u32);
    for idx in 0..total {
        let mut coeffs = vec![0u64; r + 1];
        let mut v = idx;
        for c in coeffs.iter_mut().take(r) {
            *c = v % p;
            v /= p;
        }
        coeffs[r] = 1;
        if is_irreducible(&coeffs, p) {
            return coeffs;
        }
    }
    unreachable!("an irreducible polynomial of every degree exists over GF(p)")
}

fn is_irreducible(coeffs: &[u64], p: u64) -> bool {
    let deg = coeffs.len() - 1;
    if coeffs[0] == 0 {
        return false; // divisible by x
    }
    // No roots in GF(p) rules out linear factors.
    for x in 0..p {
        if poly_eval(coeffs, x, p) == 0 {
            return false;
        }
    }
    if deg <= 3 {
        return true;
    }
    // Trial division by monic polynomials of degree 2..=deg/2.
    for d in 2..=deg / 2 {
        let total = p.pow(d as u32);
        for idx in 0..total {
            let mut div = vec![0u64; d + 1];
            let mut v = idx;
            for c in div.iter_mut().take(d) {
                *c = v % p;
                v /= p;
            }
            div[d] = 1;
            if poly_divides(&div, coeffs, p) {
                return false;
            }
        }
    }
    true
}

/// Returns true if monic polynomial `d` divides `a` over GF(p).
fn poly_divides(d: &[u64], a: &[u64], p: u64) -> bool {
    let mut rem: Vec<u64> = a.to_vec();
    let dd = d.len() - 1;
    while rem.len() > dd {
        let lead = *rem.last().unwrap() % p;
        let shift = rem.len() - 1 - dd;
        if lead != 0 {
            for k in 0..=dd {
                let sub = (lead * d[k]) % p;
                rem[shift + k] = (rem[shift + k] + p - sub) % p;
            }
        }
        rem.pop();
    }
    rem.iter().all(|&c| c % p == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_field_axioms(q: u64) {
        let f = GfField::new(q).unwrap();
        let elems: Vec<GfElem> = f.elements().collect();
        assert_eq!(elems.len() as u64, q);
        // Additive identity / inverse.
        for &a in &elems {
            assert_eq!(f.add(a, f.zero()), a);
            assert_eq!(f.add(a, f.neg(a)), f.zero());
            assert_eq!(f.mul(a, f.one()), a);
        }
        // Multiplicative inverse for nonzero elements.
        for &a in &elems {
            if a != f.zero() {
                assert_eq!(f.mul(a, f.inv(a)), f.one(), "q={q} a={a}");
            }
        }
        // Commutativity + associativity + distributivity on a sample (full for small q).
        for &a in &elems {
            for &b in &elems {
                assert_eq!(f.add(a, b), f.add(b, a));
                assert_eq!(f.mul(a, b), f.mul(b, a));
                for &c in &elems {
                    if q <= 9 {
                        assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
                        assert_eq!(f.add(a, f.add(b, c)), f.add(f.add(a, b), c));
                        assert_eq!(f.mul(a, f.mul(b, c)), f.mul(f.mul(a, b), c));
                    }
                }
            }
        }
        // The nonzero elements form a group of order q-1: Lagrange => a^(q-1) = 1.
        for &a in &elems {
            if a != f.zero() {
                assert_eq!(f.pow(a, q - 1), f.one());
            }
        }
    }

    #[test]
    fn prime_fields() {
        for q in [2, 3, 5, 7, 11, 13] {
            check_field_axioms(q);
        }
    }

    #[test]
    fn extension_fields() {
        for q in [4, 8, 9, 16, 25, 27] {
            check_field_axioms(q);
        }
    }

    #[test]
    fn non_prime_power_rejected() {
        assert!(GfField::new(6).is_err());
        assert!(GfField::new(12).is_err());
        assert!(GfField::new(1).is_err());
        assert!(GfField::new(0).is_err());
    }

    #[test]
    fn division_round_trips() {
        let f = GfField::new(16).unwrap();
        for a in f.elements() {
            for b in f.elements() {
                if b != f.zero() {
                    let c = f.div(a, b);
                    assert_eq!(f.mul(c, b), a);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invert zero")]
    fn inverting_zero_panics() {
        let f = GfField::new(7).unwrap();
        let _ = f.inv(f.zero());
    }

    #[test]
    fn field_metadata() {
        let f = GfField::new(27).unwrap();
        assert_eq!(f.order(), 27);
        assert_eq!(f.characteristic(), 3);
        assert_eq!(f.degree(), 3);
        let err = GfField::new(10).unwrap_err();
        assert_eq!(err.to_string(), "10 is not a prime power");
    }
}
