//! The planned query engine: logical plan → optimizer → positional physical
//! operators.
//!
//! [`RaExpr::eval`](crate::expr::RaExpr::eval) routes through this module:
//! the expression is validated once against a [`Catalog`] (schemas inferred
//! for every node up front), rewritten by the optimizer (selection pushdown,
//! projection pushdown and join-input pruning, rename fusion,
//! cascaded-projection collapse, `∅` propagation — see
//! [`logical::optimize`]), and compiled to physical operators with
//! attributes resolved to column indices at plan time (the `physical`
//! module), which the columnar executor (the `batch` module) runs over
//! batches of typed column vectors. That is the one production path; the
//! tree-walking interpreter
//! [`RaExpr::eval_interpreted`](crate::expr::RaExpr::eval_interpreted) over
//! [`crate::algebra`] is the one reference oracle the differential suites
//! compare it against.
//!
//! Plans are independent of the annotation semiring: [`Plan::new`] needs
//! only schemas and cardinalities, and one plan can be executed over
//! databases annotated in *different* semirings — which is exactly the shape
//! of the paper's factorization theorem (run once over ℕ\[X\], specialize
//! everywhere) and is how
//! [`factorization_holds`](crate::provenance::factorization_holds) shares a
//! single plan between the direct and the provenance evaluation.
//!
//! ```
//! use provsem_core::plan::Plan;
//! use provsem_core::prelude::*;
//! use provsem_semiring::Natural;
//!
//! let db = paper::figure3_bag();
//! let plan = Plan::new(&paper::section2_query(), &db.catalog()).unwrap();
//! println!("{}", plan.explain()); // optimized operator tree
//! let out: KRelation<Natural> = plan.execute(&db);
//! assert_eq!(out.len(), 5);
//! ```

pub(crate) mod batch;
pub mod logical;
mod maintain;
pub(crate) mod physical;
mod result;

use crate::column;

use crate::database::Database;
use crate::expr::{EvalError, RaExpr};
use crate::relation::KRelation;
use crate::schema::Schema;
use provsem_semiring::Semiring;
use std::collections::BTreeMap;

pub use logical::LogicalPlan;
pub use maintain::{DeltaBatch, MaterializedView};
pub use result::{QueryResult, RowValues};

/// How a plan executes: the thread budget of the morsel-driven parallel
/// executor.
///
/// With `threads == 1` execution is serial. With more threads, scans are
/// split into contiguous morsels, hash joins and pre-join aggregations
/// hash-partition their inputs on the key (one worker per partition), and
/// partitions are merged in deterministic partition order — so the result
/// `KRelation` is identical to serial execution at every thread count (see
/// the README's "Parallel execution" section for the exact guarantee).
///
/// The default context reads the `PROVSEM_THREADS` environment variable
/// (cached on first use) and falls back to
/// [`std::thread::available_parallelism`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecContext {
    /// Number of worker threads (and hash partitions); at least 1.
    pub threads: usize,
}

impl ExecContext {
    /// One thread: the serial code path.
    pub fn serial() -> ExecContext {
        ExecContext { threads: 1 }
    }

    /// An explicit thread budget (clamped to at least 1).
    pub fn with_threads(threads: usize) -> ExecContext {
        ExecContext {
            threads: threads.max(1),
        }
    }

    /// The process-wide default: `PROVSEM_THREADS` if set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`]. The
    /// environment is read once and cached.
    pub fn from_env() -> ExecContext {
        static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        let threads = *THREADS.get_or_init(|| {
            std::env::var("PROVSEM_THREADS")
                .ok()
                .and_then(|value| value.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                })
        });
        ExecContext { threads }
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::from_env()
    }
}

/// The planner's view of a database: relation names mapped to schemas and
/// cardinalities. Plans are built against a catalog, never against the data
/// itself, which keeps them independent of the annotation semiring.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    relations: BTreeMap<String, (Schema, usize)>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers (or replaces) a relation.
    pub fn add(&mut self, name: impl Into<String>, schema: Schema, cardinality: usize) {
        self.relations.insert(name.into(), (schema, cardinality));
    }

    /// Builder-style [`Catalog::add`].
    pub fn with(mut self, name: impl Into<String>, schema: Schema, cardinality: usize) -> Self {
        self.add(name, schema, cardinality);
        self
    }

    /// Looks up a relation's schema and cardinality.
    pub fn get(&self, name: &str) -> Option<(&Schema, usize)> {
        self.relations
            .get(name)
            .map(|(schema, card)| (schema, *card))
    }
}

/// Anything a physical plan can read base relations from.
///
/// [`Database`] is the usual source; [`NamedRelation`] lets callers holding
/// a single relation (such as a c-table) evaluate queries without cloning it
/// into a temporary database.
pub trait RelationSource<K> {
    /// The catalog describing this source (used to build plans against it).
    fn catalog(&self) -> Catalog;

    /// Resolves a base relation by name.
    fn relation(&self, name: &str) -> Option<&KRelation<K>>;

    /// The [`BatchCache`](crate::column::BatchCache) attached to this
    /// source, plus the source's epoch, if it has one
    /// ([`DbSnapshot`](crate::snapshot::DbSnapshot) does). When present,
    /// scans read each relation version's columnar form through it, so its
    /// hit and miss counters count them.
    fn batch_cache(&self) -> Option<(&column::BatchCache<K>, u64)> {
        None
    }
}

impl<K: Semiring> RelationSource<K> for Database<K> {
    fn catalog(&self) -> Catalog {
        let mut catalog = Catalog::new();
        for (name, relation) in self.iter() {
            catalog.add(name.clone(), relation.schema().clone(), relation.len());
        }
        catalog
    }

    fn relation(&self, name: &str) -> Option<&KRelation<K>> {
        self.get(name)
    }
}

/// A single borrowed relation exposed under a name — the cheapest possible
/// [`RelationSource`].
#[derive(Clone, Copy, Debug)]
pub struct NamedRelation<'a, K: Semiring> {
    name: &'a str,
    relation: &'a KRelation<K>,
}

impl<'a, K: Semiring> NamedRelation<'a, K> {
    /// Wraps a relation reference under `name`.
    pub fn new(name: &'a str, relation: &'a KRelation<K>) -> Self {
        NamedRelation { name, relation }
    }
}

impl<K: Semiring> RelationSource<K> for NamedRelation<'_, K> {
    fn catalog(&self) -> Catalog {
        Catalog::new().with(
            self.name,
            self.relation.schema().clone(),
            self.relation.len(),
        )
    }

    fn relation(&self, name: &str) -> Option<&KRelation<K>> {
        (name == self.name).then_some(self.relation)
    }
}

/// A fully prepared query: the optimized logical plan plus its physical
/// compilation. Build once with [`Plan::new`], execute any number of times
/// (over sources annotated in any semiring) with [`Plan::execute`].
#[derive(Clone, Debug)]
pub struct Plan {
    logical: LogicalPlan,
    physical: physical::PhysOp,
    schema: Schema,
}

impl Plan {
    /// Validates `expr` against `catalog`, optimizes it, and compiles the
    /// physical operators. Errors are exactly those `RaExpr::eval` would
    /// report.
    pub fn new(expr: &RaExpr, catalog: &Catalog) -> Result<Plan, EvalError> {
        let validated = LogicalPlan::from_expr(expr, catalog)?;
        let optimized = logical::optimize(validated);
        let physical = physical::compile(&optimized);
        let schema = optimized.schema().clone();
        Ok(Plan {
            logical: optimized,
            physical,
            schema,
        })
    }

    /// The plan's output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The optimized logical plan.
    pub fn logical(&self) -> &LogicalPlan {
        &self.logical
    }

    /// Renders the optimized plan as an indented operator tree, one node per
    /// line, annotated with schemas, predicates, join keys and hash-join
    /// build sides.
    pub fn explain(&self) -> String {
        self.logical.render()
    }

    /// Renders the compiled *physical* operator tree. Unlike
    /// [`Plan::explain`] this shows the materialization points — `agg`
    /// nodes (pre-join aggregations inserted for duplicate-streaming join
    /// inputs) and hash-join build sides with their key columns — which is
    /// what the pre-join aggregation tests pin down. Rendered for the
    /// default [`ExecContext`], so with more than one thread the parallel
    /// operators also show their morsel/partition counts; for a
    /// snapshot-stable rendering pass an explicit context to
    /// [`Plan::explain_physical_with`].
    pub fn explain_physical(&self) -> String {
        self.explain_physical_with(&ExecContext::default())
    }

    /// Renders the physical operator tree for the given context: with
    /// `threads == 1` exactly the serial tree, otherwise each scan is
    /// annotated with the context's morsel budget and each hash join /
    /// pre-join aggregation with its hash-partition count. The counts are
    /// the *budget*, not runtime cardinalities: a scan smaller than the
    /// budget splits into fewer morsels at execution time. Each scan also
    /// shows the batch row budget (`[batch=4096]`).
    pub fn explain_physical_with(&self, ctx: &ExecContext) -> String {
        self.physical.render(ctx.threads)
    }

    /// Describes, per scan of the physical plan, how the executor will
    /// lay the relation out against a concrete source: row count, number of
    /// batches, the per-column encodings — `i64` (typed integers),
    /// `dict(n)` (dictionary-encoded strings with `n` distinct entries), or
    /// `val` (the mixed-type / dictionary-overflow fallback) — and, when
    /// the source carries a storage-layer batch cache, where the batches
    /// come from (`converted`, `cached`, or `patched(n)`).
    ///
    /// # Panics
    /// Panics under the same source/catalog-mismatch conditions as
    /// [`Plan::execute`].
    pub fn explain_batches<K: Semiring>(&self, source: &impl RelationSource<K>) -> String {
        physical::describe_scan_batches(&self.physical, source)
    }

    /// Executes the plan against a source under the default [`ExecContext`]
    /// (`PROVSEM_THREADS`, or all available cores; semirings that cannot
    /// cross threads run serially regardless).
    ///
    /// # Panics
    /// Panics if `source` is inconsistent with the catalog the plan was
    /// built against (a scanned relation missing or with a changed schema).
    pub fn execute<K: Semiring>(&self, source: &impl RelationSource<K>) -> KRelation<K> {
        self.execute_with(source, &ExecContext::default())
    }

    /// Executes the plan with an explicit thread budget. `threads == 1` is
    /// the serial path; any other budget produces the identical `KRelation`
    /// via the morsel-driven executor (deterministic partitioning and
    /// merge — see [`ExecContext`]). This is
    /// [`Plan::query_with`] followed by the API-edge
    /// [`QueryResult::into_relation`].
    pub fn execute_with<K: Semiring>(
        &self,
        source: &impl RelationSource<K>,
        ctx: &ExecContext,
    ) -> KRelation<K> {
        self.query_with(source, ctx).into_relation()
    }

    /// Executes the plan and returns the rows as the executor produced
    /// them — grouped columns sorted once, or the borrowed base relation
    /// for a bare scan — without building the tree of tuples a
    /// [`KRelation`] is. What a caller that only walks the rows (the query
    /// service) should use.
    ///
    /// # Panics
    /// As [`Plan::execute`].
    pub fn query_with<'a, K: Semiring>(
        &self,
        source: &'a impl RelationSource<K>,
        ctx: &ExecContext,
    ) -> QueryResult<'a, K> {
        batch::execute(&self.physical, &self.schema, source, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::paper_example_query;
    use crate::paper;
    use crate::predicate::Predicate;
    use crate::schema::Renaming;
    use crate::tuple::Tuple;
    use provsem_semiring::Natural;

    fn plan_for(expr: &RaExpr) -> Plan {
        Plan::new(expr, &paper::figure3_bag().catalog()).unwrap()
    }

    #[test]
    fn planned_execution_matches_interpreter_on_the_paper_query() {
        let db = paper::figure3_bag();
        let q = paper_example_query("R");
        let planned = q.eval(&db).unwrap();
        let interpreted = q.eval_interpreted(&db).unwrap();
        assert_eq!(planned, interpreted);
        assert_eq!(
            planned.annotation(&Tuple::new([("a", "d"), ("c", "e")])),
            Natural::from(55u64)
        );
    }

    #[test]
    fn one_plan_executes_over_multiple_semirings() {
        let db = paper::figure3_bag();
        let plan = plan_for(&paper_example_query("R"));
        let bag: KRelation<Natural> = plan.execute(&db);
        let boolean =
            plan.execute(&db.map_annotations(|n| provsem_semiring::Bool::from(!n.is_zero())));
        assert_eq!(bag.len(), 5);
        assert_eq!(boolean.len(), 5);
    }

    #[test]
    fn explain_shows_pushed_projections() {
        // The Section 2 query projects onto {a, c} at the top; pruning must
        // narrow the scans to the columns each join input needs.
        let plan = plan_for(&paper_example_query("R"));
        let explain = plan.explain();
        assert!(explain.contains("π {a, b}"), "explain:\n{explain}");
        assert!(explain.contains("⋈ on {b}"), "explain:\n{explain}");
    }

    #[test]
    fn selection_pushdown_through_rename_rewrites_attributes() {
        let q = RaExpr::relation("R")
            .rename(Renaming::new([("a", "x")]))
            .select(Predicate::eq_value("x", "a"));
        let plan = plan_for(&q);
        let explain = plan.explain();
        // The selection must sit below the rename, rewritten to attribute a.
        let select_line = explain
            .lines()
            .position(|l| l.contains("σ a=a"))
            .expect("pushed selection present");
        let rename_line = explain
            .lines()
            .position(|l| l.contains("ρ a→x"))
            .expect("rename present");
        assert!(rename_line < select_line, "explain:\n{explain}");
        let db = paper::figure3_bag();
        assert_eq!(q.eval(&db).unwrap(), q.eval_interpreted(&db).unwrap());
    }

    #[test]
    fn plan_errors_match_interpreter_errors() {
        let db = paper::figure3_bag();
        let catalog = db.catalog();
        for q in [
            RaExpr::relation("Missing"),
            RaExpr::relation("R").project(["z"]),
            RaExpr::relation("R").union(RaExpr::relation("R").project(["a"])),
            RaExpr::relation("R").rename(Renaming::new([("a", "b")])),
        ] {
            let planned = Plan::new(&q, &catalog).map(|_| ());
            let interpreted = q.eval_interpreted(&db).map(|_| ());
            assert_eq!(planned, interpreted, "query {q:?}");
        }
    }

    #[test]
    fn named_relation_source_evaluates_without_a_database() {
        let db = paper::figure3_bag();
        let relation = db.get("R").unwrap();
        let source = NamedRelation::new("R", relation);
        let plan = Plan::new(&paper_example_query("R"), &source.catalog()).unwrap();
        assert_eq!(
            plan.execute(&source),
            paper_example_query("R").eval(&db).unwrap()
        );
    }
}
