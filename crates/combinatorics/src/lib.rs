//! Combinatorial substrates for Byzantine quorum systems.
//!
//! This crate provides the from-scratch combinatorial machinery that the quorum
//! constructions and analyses of Malkhi, Reiter & Wool require:
//!
//! * [`binomial`](mod@binomial) — exact and floating-point binomial coefficients, binomial tail
//!   probabilities, the Chernoff bound used in Proposition 6.3, and the tail
//!   inequalities of Lemmas A.1 and A.2 of the paper.
//! * [`primes`] — primality and prime-power testing, needed to pick valid finite
//!   projective plane orders.
//! * [`gf`] — finite-field arithmetic GF(p^r), built on an irreducible polynomial
//!   found by exhaustive search; required to construct projective planes of
//!   prime-power order.
//! * [`projective`] — finite projective planes PG(2, q) represented as point/line
//!   incidence structures; the lines form the FPP quorum system of Section 6.
//! * [`subsets`] — k-subset and power-set iteration used by exact measure
//!   computations on explicit quorum systems.
//!
//! # Example
//!
//! ```
//! use bqs_combinatorics::{binomial::binomial, projective::ProjectivePlane};
//!
//! assert_eq!(binomial(5, 2), 10);
//! let plane = ProjectivePlane::new(3).unwrap();
//! assert_eq!(plane.num_points(), 13); // q^2 + q + 1
//! assert_eq!(plane.line(0).len(), 4); // q + 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod gf;
pub mod primes;
pub mod projective;
pub mod subsets;

pub use binomial::{binomial, binomial_f64, binomial_tail, chernoff_upper_tail, ln_binomial};
pub use gf::GfElem;
pub use gf::GfField;
pub use primes::{is_prime, prime_power};
pub use projective::ProjectivePlane;
pub use subsets::{KSubsets, PowerSet};
