//! # provsem-semiring
//!
//! The algebraic substrate of the *Provenance Semirings* reproduction
//! (Green, Karvounarakis, Tannen; PODS 2007): commutative semirings,
//! ω-continuous semirings, distributive lattices, semiring homomorphisms,
//! provenance polynomials ℕ\[X\] and formal power series ℕ∞\[\[X\]\].
//!
//! The sibling crates build on this one:
//!
//! * `provsem-core` — K-relations and the positive relational algebra
//!   (Definition 3.2), provenance-tracking evaluation (Theorem 4.3);
//! * `provsem-datalog` — datalog on K-relations, algebraic systems,
//!   All-Trees and Monomial-Coefficient (Sections 5–8);
//! * `provsem-incomplete`, `provsem-prob` — the incomplete / probabilistic
//!   database substrates (c-tables, event tables);
//! * `provsem-containment` — query containment (Section 9).
//!
//! ## Quick tour
//!
//! ```
//! use provsem_semiring::prelude::*;
//!
//! // Provenance polynomials: 2r² + rs, the provenance of (d,e) in Fig. 5(c).
//! let r = ProvenancePolynomial::var("r");
//! let s = ProvenancePolynomial::var("s");
//! let de = r.times(&r).repeat(2).plus(&r.times(&s));
//!
//! // Factorization (Theorem 4.3): evaluate at r=5, s=1 to recover the bag
//! // multiplicity 55 from Figure 3(b).
//! let v = Valuation::from_pairs([("r", Natural::from(5u64)), ("s", Natural::from(1u64))]);
//! assert_eq!(de.eval(&v), Natural::from(55u64));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod boolean;
pub mod circuit;
pub mod events;
pub mod fuzzy;
pub mod fxhash;
pub mod homomorphism;
pub mod monomial;
pub mod natural;
pub mod ninfinity;
pub mod polynomial;
pub mod posbool;
pub mod power_series;
pub mod properties;
pub mod ring;
pub mod security;
pub mod traits;
pub mod tropical;
pub mod variable;
pub mod why;

/// A convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use crate::boolean::Bool;
    pub use crate::circuit::{BoolCircuit, Circuit, CircuitEval, CircuitSession};
    pub use crate::events::{Event, WorldId};
    pub use crate::fuzzy::{Fuzzy, Viterbi};
    pub use crate::fxhash::{FxHashMap, FxHashSet};
    pub use crate::homomorphism::{
        BoolToSemiring, Compose, DropCoefficients, MapCoefficients, NatInfToBool, NaturalToBool,
        NaturalToNatInf, ToPosBool, ToWhySet, ToWitnesses,
    };
    pub use crate::monomial::{monomials_up_to_degree, Monomial};
    pub use crate::natural::Natural;
    pub use crate::ninfinity::NatInf;
    pub use crate::polynomial::{
        BoolPolynomial, EvalHom, NatInfPolynomial, Polynomial, ProvenancePolynomial, ZPolynomial,
    };
    pub use crate::posbool::{eval_posbool, PosBool};
    pub use crate::power_series::{solve_univariate, TruncatedSeries};
    pub use crate::ring::{
        CancellativePlus, DiffPair, Integers, LiftToDiff, Monus, NaturalToIntegers, Ring,
    };
    pub use crate::security::Clearance;
    pub use crate::traits::{
        CommutativeSemiring, DistributiveLattice, FiniteSemiring, FnHomomorphism, NaturallyOrdered,
        OmegaContinuous, PlusIdempotent, Portable, ProductWalk, Semiring, SemiringHomomorphism,
    };
    pub use crate::tropical::Tropical;
    pub use crate::variable::{Valuation, Variable};
    pub use crate::why::{WhySet, Witness};
}

pub use prelude::*;
