//! # provsem-datalog
//!
//! Datalog on K-relations — Sections 5–8 of *Provenance Semirings* (Green,
//! Karvounarakis, Tannen; PODS 2007):
//!
//! * datalog syntax, parser and grounding ([`ast`], [`parser`], [`fact`],
//!   [`grounding`]);
//! * the fixpoint semantics over ω-continuous semirings — the semi-naive
//!   differential evaluator ([`seminaive`]), whose rounds run compiled over
//!   interned ids in [`columnar`], the one join engine of production
//!   datalog: it also grounds every [`Grounding`] — plus exact evaluation
//!   for ℕ∞ and distributive lattices ([`exact`], Section 8);
//! * the reference oracle: naive Kleene iteration ([`naive`],
//!   Definition 5.5 / Theorem 5.6) over its own instantiation, found by
//!   scanning, so it shares no join code with the compiled engine;
//! * incremental maintenance of a materialized fixpoint under edb insert and
//!   delete batches ([`maintain`]), on the compiled evaluator's own tables;
//! * derivation trees and the **All-Trees** algorithm ([`all_trees`](mod@crate::all_trees),
//!   Figure 8), the **Monomial-Coefficient** algorithm
//!   ([`monomial_coefficient`](mod@crate::monomial_coefficient), Figure 9);
//! * algebraic systems and formal-power-series provenance
//!   ([`algebraic_system`], Definitions 5.5 and 6.1);
//! * provenance classification per Theorem 6.5 and the datalog factorization
//!   theorem ([`provenance`], Theorem 6.4).
//!
//! ```
//! use provsem_datalog::prelude::*;
//! use provsem_semiring::NatInf;
//!
//! // Figure 7: transitive closure with bag semantics.
//! let program = Program::transitive_closure("R", "Q");
//! let edb = edge_facts("R", &[
//!     ("a", "b", NatInf::Fin(2)), ("a", "c", NatInf::Fin(3)),
//!     ("c", "b", NatInf::Fin(2)), ("b", "d", NatInf::Fin(1)),
//!     ("d", "d", NatInf::Fin(1)),
//! ]);
//! let out = evaluate_natinf(&program, &edb);
//! assert_eq!(out.annotation(&Fact::new("Q", ["a", "b"])), NatInf::Fin(8));
//! assert_eq!(out.annotation(&Fact::new("Q", ["a", "d"])), NatInf::Inf);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algebraic_system;
pub mod all_trees;
pub mod ast;
pub mod columnar;
pub mod exact;
pub mod fact;
pub mod grounding;
pub mod maintain;
pub mod monomial_coefficient;
pub mod naive;
pub mod parser;
pub mod provenance;
pub mod seminaive;

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use crate::algebraic_system::{AlgebraicSystem, Equation};
    pub use crate::all_trees::{
        all_trees, all_trees_with_variables, default_edb_variables, evaluate_lattice_via_trees,
        minimal_trees, AllTreesResult, DerivationChild, DerivationTree, TreeProvenance,
    };
    pub use crate::ast::{Atom, DlVar, Program, Rule, Term};
    pub use crate::columnar::explain_fixpoint;
    pub use crate::exact::{evaluate_lattice, evaluate_natinf};
    pub use crate::fact::{edge_facts, Fact, FactStore};
    pub use crate::grounding::{Block, GroundRule, Grounding};
    pub use crate::maintain::{
        maintain_fixpoint, maintain_fixpoint_with, materialize_fixpoint, FixpointView,
    };
    pub use crate::monomial_coefficient::monomial_coefficient;
    pub use crate::naive::{
        evaluate_fixpoint, immediate_consequence, immediate_consequence_into, kleene_iterate,
        kleene_iterate_grounded, FixpointResult,
    };
    pub use crate::parser::{parse_program, parse_rule, ParseError};
    pub use crate::provenance::{
        classify_series, datalog_provenance, datalog_provenance_circuit,
        nonrecursive_provenance_is_polynomial, CircuitDatalogProvenance, DatalogProvenance,
        SeriesClass,
    };
    pub use crate::seminaive::{
        evaluate, evaluate_with_bound, evaluate_with_context, seminaive_idempotent,
        seminaive_idempotent_with, seminaive_iterate, seminaive_iterate_with, EvalStrategy,
        DEFAULT_FALLBACK_BOUND,
    };
}

pub use prelude::*;
