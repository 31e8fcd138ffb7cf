//! # provsem-core
//!
//! K-relations and the generalized positive relational algebra of
//! *Provenance Semirings* (Green, Karvounarakis, Tannen; PODS 2007),
//! Sections 3–4:
//!
//! * [`relation::KRelation`] — annotated relations `R : U-Tup → K` with
//!   finite support (Definition 3.1);
//! * the RA⁺ operators ∅, ∪, π, σ, ⋈, ρ on K-relations (Definition 3.2),
//!   both as methods ([`algebra`]) and as an expression AST ([`expr::RaExpr`]);
//! * the planned query engine ([`plan`]): logical plan → optimizer →
//!   positional physical operators, which `RaExpr::eval` routes through
//!   (the tree-walking interpreter survives as
//!   `RaExpr::eval_interpreted`);
//! * provenance-tracking evaluation and the factorization theorem
//!   ([`provenance`], Theorem 4.3);
//! * the paper's running examples ([`paper`]).
//!
//! ```
//! use provsem_core::prelude::*;
//! use provsem_semiring::prelude::*;
//!
//! // Figure 3: bag semantics. Build R with multiplicities 2, 5, 1 and run
//! // the Section 2 query; the tuple (d,e) comes out with multiplicity 55.
//! let db = paper::figure3_bag();
//! let out = paper::section2_query().eval(&db).unwrap();
//! assert_eq!(
//!     out.annotation(&Tuple::new([("a", "d"), ("c", "e")])),
//!     Natural::from(55u64)
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algebra;
pub mod column;
pub mod database;
pub mod expr;
pub mod kernels;
pub mod paper;
pub mod par;
pub mod plan;
pub mod predicate;
pub mod provenance;
pub mod relation;
pub mod schema;
pub mod snapshot;
pub mod tuple;
pub mod value;

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use crate::database::Database;
    pub use crate::expr::{paper_example_query, EvalError, RaExpr};
    pub use crate::paper;
    pub use crate::plan::{
        Catalog, DeltaBatch, ExecContext, MaterializedView, NamedRelation, Plan, QueryResult,
        RelationSource,
    };
    pub use crate::predicate::Predicate;
    pub use crate::provenance::{
        circuit_factorization_holds, circuit_provenance_of_query, circuit_provenance_size,
        factorization_holds, poly, provenance_of_query, provenance_size, specialize,
        specialize_circuit, specialize_circuit_with, specialize_with, tag_database,
        tag_database_circuit, tag_database_with_names, tag_relation, CircuitTagged, Tagged,
    };
    pub use crate::relation::KRelation;
    pub use crate::schema::{Attribute, Renaming, Schema};
    pub use crate::snapshot::{DbSnapshot, SharedDatabase};
    pub use crate::tuple::Tuple;
    pub use crate::value::{Value, ValueRef};
}

pub use prelude::*;
