//! Provenance-tracking evaluation: abstract tagging and the factorization
//! theorem (Section 4 of the paper).
//!
//! Given a K-relation `R`, its *abstractly tagged* version `R̄` annotates
//! every support tuple with its own tuple id, viewed as an ℕ\[X\]-relation.
//! Theorem 4.3 states that for every RA⁺ query `q`,
//! `q(R) = Eval_v ∘ q(R̄)` where `v` maps each tuple id to the original
//! annotation. In other words: run the query **once** over provenance
//! polynomials, then specialize to any semiring by evaluation.

use crate::database::Database;
use crate::expr::{EvalError, RaExpr};
use crate::relation::KRelation;
use crate::tuple::Tuple;
use provsem_semiring::{
    Circuit, CircuitEval, CommutativeSemiring, Monomial, Natural, Polynomial, ProvenancePolynomial,
    Semiring, Valuation, Variable,
};

/// The result of abstractly tagging a K-relation or database: the
/// ℕ\[X\]-annotated instance together with the valuation `v : X → K` that maps
/// each fresh tuple id back to the original annotation.
#[derive(Clone, Debug)]
pub struct Tagged<K> {
    /// The abstractly tagged instance `R̄` (each tuple annotated by its id).
    pub database: Database<ProvenancePolynomial>,
    /// The valuation sending tuple ids to the original K annotations.
    pub valuation: Valuation<K>,
    /// Each relation's tuple ids, in tuple order.
    ids: TupleIds,
}

/// Per tagged relation, in database order: its name and its tuples' ids in
/// tuple order — the ids alone, so tagging copies no tuple; the tuples are
/// the tagged relation's own ([`id_index`]).
type TupleIds = Vec<(String, Vec<Variable>)>;

/// Which tuple each id refers to: every relation's ids paired with the
/// tagged relation's own iteration (both in tuple order).
fn id_index<'a, P: Semiring>(
    database: &'a Database<P>,
    ids: &'a TupleIds,
) -> impl Iterator<Item = (&'a Variable, &'a str, &'a Tuple)> + 'a {
    ids.iter().flat_map(move |(name, ids)| {
        let relation = database
            .get(name)
            .expect("every tagged relation is in the database");
        let tuples = relation.iter().map(|(tuple, _)| tuple);
        ids.iter()
            .zip(tuples)
            .map(move |(id, tuple)| (id, name.as_str(), tuple))
    })
}

impl<K> Tagged<K> {
    /// For reporting: which tuple each id refers to, as `(id, relation,
    /// tuple)` — relation by relation in database order, tuples in tuple
    /// order.
    pub fn id_index(&self) -> impl Iterator<Item = (&Variable, &str, &Tuple)> + '_ {
        id_index(&self.database, &self.ids)
    }
}

/// What tagging a single relation produces: the ℕ\[X\]-annotated relation,
/// the valuation sending the fresh ids back to the original annotations,
/// and the id → `(relation, tuple)` index.
pub type TaggedRelation<K> = (
    KRelation<ProvenancePolynomial>,
    Valuation<K>,
    Vec<(Variable, String, Tuple)>,
);

/// Tags one relation in one batch: ids `name_0, name_1, …` in tuple order,
/// their `leaves` made together by `leaves(name, n)` (for circuits, one
/// leaf range under one arena lock for the whole relation), the source's
/// annotations assigned to the ids as one valuation column
/// ([`Valuation::assign_indexed`]), and the tagged relation bulk-built from
/// the source's tuple order (a leaf is never zero), not searched per tuple.
///
/// Tagging changes annotations, not the support (Definition 3.1), so when
/// the source holds its own columnar conversion the tagged relation gets
/// the same column `Arc`s — the same dictionaries — with the leaves as the
/// annotation column, and its scans convert nothing. A source without one
/// (or with a commit-patched one) yields a tagged relation without one,
/// converted on its first scan.
fn tag_in_order<K: Semiring, P: Semiring>(
    name: &str,
    relation: &KRelation<K>,
    leaves: impl FnOnce(&str, usize) -> Vec<P>,
    valuation: &mut Valuation<K>,
) -> KRelation<P> {
    let leaves = leaves(name, relation.len());
    let form = relation
        .form()
        .and_then(|form| form.with_annotations(&leaves));
    let mut annotations = Vec::with_capacity(relation.len());
    let tagged = relation
        .iter()
        .zip(leaves)
        .map(|((tuple, annotation), leaf)| {
            annotations.push(annotation.clone());
            (tuple.clone(), leaf)
        });
    let tagged = KRelation::from_sorted_support(relation.schema().clone(), tagged);
    valuation.assign_indexed(name, annotations);
    if let Some(form) = form {
        tagged.seed_form(form);
    }
    tagged
}

/// Tags every relation of `db` through [`tag_in_order`].
fn tag_each<K: Semiring, P: Semiring>(
    db: &Database<K>,
    mut leaves: impl FnMut(&str, usize) -> Vec<P>,
) -> (Database<P>, Valuation<K>) {
    let mut database = Database::new();
    let mut valuation = Valuation::new();
    for (name, relation) in db.iter() {
        let tagged = tag_in_order(name, relation, &mut leaves, &mut valuation);
        database.insert(name.clone(), tagged);
    }
    (database, valuation)
}

/// The leaves of the expanded route: one ℕ\[X\] variable per id, each id
/// recorded in `ids`.
fn polynomial_leaves(
    ids: &mut TupleIds,
) -> impl FnMut(&str, usize) -> Vec<ProvenancePolynomial> + '_ {
    |name, n| {
        let relation_ids: Vec<Variable> = Variable::indexed_each(name, n).collect();
        let leaves = relation_ids.iter().cloned().map(ProvenancePolynomial::var);
        let leaves = leaves.collect();
        ids.push((name.to_string(), relation_ids));
        leaves
    }
}

/// Abstractly tags a single relation, generating ids `prefix_0, prefix_1, …`
/// for its support tuples (in tuple order, so ids are deterministic).
pub fn tag_relation<K: Semiring>(name: &str, relation: &KRelation<K>) -> TaggedRelation<K> {
    let mut valuation = Valuation::new();
    let mut ids = Vec::new();
    let tagged = tag_in_order(name, relation, polynomial_leaves(&mut ids), &mut valuation);
    let tuples = tagged.iter().map(|(tuple, _)| tuple.clone());
    let (_, ids) = ids.pop().expect("one relation tagged");
    let index = ids.into_iter().zip(tuples);
    let index = index
        .map(|(id, tuple)| (id, name.to_string(), tuple))
        .collect();
    (tagged, valuation, index)
}

/// Abstractly tags every relation of a database (Theorem 4.3's `R̄`,
/// extended to multi-relation instances). A source relation that holds its
/// columnar form ([`KRelation::batches`]) lends its columns to the tagged
/// one, whose scans then convert nothing.
pub fn tag_database<K: Semiring>(db: &Database<K>) -> Tagged<K> {
    let mut ids = Vec::new();
    let (database, valuation) = tag_each(db, polynomial_leaves(&mut ids));
    Tagged {
        database,
        valuation,
        ids,
    }
}

/// Tags a database with *caller-provided* variable names per tuple — used to
/// reproduce the paper's figures literally (`p`, `r`, `s` in Figure 5;
/// `m, n, p, r, s` in Figure 7). Names are asked for in tuple order.
pub fn tag_database_with_names<K: Semiring>(
    db: &Database<K>,
    names: &dyn Fn(&str, &Tuple) -> Variable,
) -> Tagged<K> {
    let mut database = Database::new();
    let mut valuation = Valuation::new();
    let mut ids = Vec::new();
    for (name, relation) in db.iter() {
        let mut tagged = KRelation::empty(relation.schema().clone());
        let mut relation_ids = Vec::with_capacity(relation.len());
        for (tuple, annotation) in relation.iter() {
            let id = names(name, tuple);
            tagged.insert(tuple.clone(), ProvenancePolynomial::var(id.clone()));
            valuation.assign(id.clone(), annotation.clone());
            relation_ids.push(id);
        }
        database.insert(name.clone(), tagged);
        ids.push((name.clone(), relation_ids));
    }
    Tagged {
        database,
        valuation,
        ids,
    }
}

/// Evaluates a provenance-polynomial-annotated relation into `K` using the
/// valuation — tuple-wise `Eval_v`, the right-hand side of Theorem 4.3.
pub fn specialize<K: CommutativeSemiring>(
    relation: &KRelation<ProvenancePolynomial>,
    valuation: &Valuation<K>,
) -> KRelation<K> {
    relation.map_annotations(|p| p.eval(valuation))
}

/// [`specialize`] with a thread budget: the output tuples are split into
/// contiguous chunks and each chunk's polynomials are evaluated by its own
/// scoped worker (tuple-wise `Eval_v` is embarrassingly parallel — every
/// annotation is specialized independently). Results are reassembled in
/// tuple order, so the output is identical to the serial call at every
/// thread count.
pub fn specialize_with<K>(
    relation: &KRelation<ProvenancePolynomial>,
    valuation: &Valuation<K>,
    ctx: &crate::plan::ExecContext,
) -> KRelation<K>
where
    K: CommutativeSemiring + Send + Sync,
{
    if ctx.threads <= 1 {
        return specialize(relation, valuation);
    }
    let pairs: Vec<(&Tuple, &ProvenancePolynomial)> = relation.iter().collect();
    let chunks = crate::par::chunked(pairs, ctx.threads);
    let specialized = crate::par::par_map_chunks(chunks, |_, chunk| {
        chunk
            .into_iter()
            .map(|(tuple, p)| (tuple.clone(), p.eval(valuation)))
            .collect::<Vec<_>>()
    });
    let mut out = KRelation::empty(relation.schema().clone());
    for chunk in specialized {
        for (tuple, k) in chunk {
            out.insert(tuple, k);
        }
    }
    out
}

/// Runs a query with provenance: evaluates `q` over the abstractly tagged
/// database, returning the ℕ\[X\]-annotated result (the "how-provenance" of
/// every output tuple). Evaluation goes through the planned engine
/// ([`crate::plan`]), like every `RaExpr::eval`.
pub fn provenance_of_query<K: Semiring>(
    query: &RaExpr,
    db: &Database<K>,
) -> Result<(KRelation<ProvenancePolynomial>, Valuation<K>), EvalError> {
    let tagged = tag_database(db);
    let result = query.eval(&tagged.database)?;
    Ok((result, tagged.valuation))
}

/// Checks the factorization theorem (Theorem 4.3) on a concrete query and
/// database: evaluates directly in K and via provenance + `Eval_v`, and
/// returns whether the two results agree. Used extensively by tests and by
/// the benchmark harness as a self-check.
pub fn factorization_holds<K: CommutativeSemiring>(
    query: &RaExpr,
    db: &Database<K>,
) -> Result<bool, EvalError> {
    // Plans are semiring-independent, so one plan serves both sides of the
    // theorem: the direct K evaluation and the ℕ[X] provenance evaluation
    // (the tagged database has the same schemas and supports as `db`).
    use crate::plan::{Plan, RelationSource};
    let plan = Plan::new(query, &db.catalog())?;
    let direct = plan.execute(db);
    let tagged = tag_database(db);
    let prov = plan.execute(&tagged.database);
    Ok(specialize(&prov, &tagged.valuation) == direct)
}

/// The total size (number of monomials summed over all output tuples) of a
/// provenance-annotated result; a useful measure of provenance overhead in
/// the benchmarks.
pub fn provenance_size(relation: &KRelation<ProvenancePolynomial>) -> usize {
    relation.iter().map(|(_, p)| p.num_terms()).sum()
}

/// The result of abstractly tagging a database in **circuit form**: each
/// base tuple is annotated with a [`Circuit`] leaf instead of an expanded
/// ℕ\[X\] polynomial. Same theorem (4.3), shared representation: query
/// evaluation interns `Plus`/`Times`/`Σ` nodes in O(1) and specialization is
/// one forward pass over the DAG in node-id order.
///
/// A relation `R`'s leaves are one leaf range of the arena
/// ([`Circuit::indexed_vars`]) and its ids one valuation column, so no name
/// is built: `R_i` is rendered when a circuit is printed or lowered, or
/// [`CircuitTagged::id_index`] is read. The names match [`tag_database`]
/// exactly, so the two routes are interchangeable (and differentially
/// comparable) valuation-for-valuation.
/// The handles belong to the tagging thread's current generation — scope
/// them with a `provsem_semiring::circuit::CircuitSession` — while their
/// nodes live in the process-wide arena, which only
/// `provsem_semiring::circuit::vacuum()` reclaims (at a quiescent point: it
/// stales every outstanding `CircuitTagged` on every thread).
#[derive(Clone, Debug)]
pub struct CircuitTagged<K> {
    /// The abstractly tagged instance `R̄`, annotated with circuit handles.
    pub database: Database<Circuit>,
    /// The valuation sending tuple ids to the original K annotations: one
    /// column per relation.
    pub valuation: Valuation<K>,
}

impl<K> CircuitTagged<K> {
    /// For reporting: which tuple each id refers to, as `(id, relation,
    /// tuple)` — relation by relation in database order, tuples in tuple
    /// order. The ids are named here, the `i`-th tuple of `R` being `R_i`.
    pub fn id_index(&self) -> impl Iterator<Item = (Variable, &str, &Tuple)> + '_ {
        self.database.iter().flat_map(|(name, relation)| {
            let tuples = relation.iter().enumerate();
            tuples.map(move |(i, (tuple, _))| (Variable::indexed(name, i), name.as_str(), tuple))
        })
    }
}

/// Abstractly tags every relation of a database with circuit leaves — the
/// circuit-form counterpart of [`tag_database`], sharing a source's columns
/// the same way. Each relation takes one arena lock for its leaf range.
pub fn tag_database_circuit<K: Semiring>(db: &Database<K>) -> CircuitTagged<K> {
    let (database, valuation) = tag_each(db, Circuit::indexed_vars);
    CircuitTagged {
        database,
        valuation,
    }
}

/// Evaluates a circuit-annotated relation into `K` — tuple-wise `Eval_v`
/// as **one forward pass over the shared DAG** ([`CircuitEval::eval_all`]):
/// a subcircuit reused by many output tuples is evaluated once (this is
/// where the circuit route beats specializing expanded polynomials tuple by
/// tuple).
pub fn specialize_circuit<K: CommutativeSemiring>(
    relation: &KRelation<Circuit>,
    valuation: &Valuation<K>,
) -> KRelation<K> {
    let roots: Vec<Circuit> = relation.iter().map(|(_, circuit)| *circuit).collect();
    let mut values = CircuitEval::new(valuation).eval_all(&roots).into_iter();
    relation.map_annotations(|_| values.next().expect("one value per tuple"))
}

/// [`specialize_circuit`] behind the signature of the other `*_with` entry
/// points. It runs the serial pass whatever the thread budget: `Eval_v` over
/// a shared DAG is one memoized walk, and workers that split the roots each
/// re-evaluate the core the roots share. When the Section 2 query over 28 k
/// tuples interned 262 k nodes, 2 workers took 29–35 ms and 4 took 45–48 ms
/// against 22–26 ms serial; it now interns 49 649 nodes, and the serial
/// pass, reading each tagged leaf from the valuation's column, takes
/// ≈ 3 ms (traced `fig5_ra` at seed 42, 2-core container).
pub fn specialize_circuit_with<K>(
    relation: &KRelation<Circuit>,
    valuation: &Valuation<K>,
    _ctx: &crate::plan::ExecContext,
) -> KRelation<K>
where
    K: CommutativeSemiring + Send + Sync,
{
    specialize_circuit(relation, valuation)
}

/// Runs a query with circuit provenance: evaluates `q` over the
/// circuit-tagged database — the circuit-form counterpart of
/// [`provenance_of_query`].
pub fn circuit_provenance_of_query<K: Semiring>(
    query: &RaExpr,
    db: &Database<K>,
) -> Result<(KRelation<Circuit>, Valuation<K>), EvalError> {
    let tagged = tag_database_circuit(db);
    let result = query.eval(&tagged.database)?;
    Ok((result, tagged.valuation))
}

/// Checks Theorem 4.3 along the circuit route: evaluating directly in K
/// agrees with evaluating over circuits and specializing via the memoized
/// `Eval_v`. One plan serves both evaluations, like
/// [`factorization_holds`].
pub fn circuit_factorization_holds<K: CommutativeSemiring>(
    query: &RaExpr,
    db: &Database<K>,
) -> Result<bool, EvalError> {
    use crate::plan::{Plan, RelationSource};
    let plan = Plan::new(query, &db.catalog())?;
    let direct = plan.execute(db);
    let tagged = tag_database_circuit(db);
    let prov = plan.execute(&tagged.database);
    Ok(specialize_circuit(&prov, &tagged.valuation) == direct)
}

/// The total number of distinct circuit nodes reachable from a
/// circuit-annotated result — the *with-sharing* counterpart of
/// [`provenance_size`] (which counts expanded monomials).
pub fn circuit_provenance_size(relation: &KRelation<Circuit>) -> usize {
    provsem_semiring::circuit::shared_node_count(relation.iter().map(|(_, c)| *c))
}

/// Builds a provenance polynomial from an explicit list of
/// `(coefficient, [variables])` terms; a convenience for writing expected
/// values in tests that mirror the paper's figures.
pub fn poly(terms: &[(u64, &[&str])]) -> ProvenancePolynomial {
    Polynomial::from_terms(
        terms
            .iter()
            .map(|(c, vars)| (Monomial::from_bag(vars.iter().copied()), Natural::from(*c))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::paper_example_query;
    use crate::schema::Schema;
    use crate::value::Value;
    use provsem_semiring::{Bool, NatInf, PosBool, Tropical, WhySet};

    fn nat(n: u64) -> Natural {
        Natural::from(n)
    }

    /// Figure 5(a): R tagged with ids p, r, s.
    fn figure5_db() -> Database<Natural> {
        let schema = Schema::new(["a", "b", "c"]);
        let r = KRelation::from_tuples(
            schema,
            [
                (Tuple::new([("a", "a"), ("b", "b"), ("c", "c")]), nat(2)),
                (Tuple::new([("a", "d"), ("b", "b"), ("c", "e")]), nat(5)),
                (Tuple::new([("a", "f"), ("b", "g"), ("c", "e")]), nat(1)),
            ],
        );
        Database::new().with("R", r)
    }

    fn paper_names(_rel: &str, t: &Tuple) -> Variable {
        match t.get_named("a").and_then(|v| v.as_str()) {
            Some("a") => Variable::new("p"),
            Some("d") => Variable::new("r"),
            Some("f") => Variable::new("s"),
            other => panic!("unexpected tuple {other:?}"),
        }
    }

    #[test]
    fn figure5c_provenance_polynomials() {
        // Figure 5(c): q(R̄) = {(a,c)↦2p², (a,e)↦pr, (d,c)↦pr, (d,e)↦2r²+rs,
        // (f,e)↦2s²+rs}.
        let db = figure5_db();
        let tagged = tag_database_with_names(&db, &paper_names);
        let q = paper_example_query("R");
        let out = q.eval(&tagged.database).unwrap();
        let at = |a: &str, c: &str| out.annotation(&Tuple::new([("a", a), ("c", c)]));
        assert_eq!(at("a", "c"), poly(&[(2, &["p", "p"])]));
        assert_eq!(at("a", "e"), poly(&[(1, &["p", "r"])]));
        assert_eq!(at("d", "c"), poly(&[(1, &["p", "r"])]));
        assert_eq!(at("d", "e"), poly(&[(2, &["r", "r"]), (1, &["r", "s"])]));
        assert_eq!(at("f", "e"), poly(&[(2, &["s", "s"]), (1, &["r", "s"])]));
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn theorem_4_3_factorization_into_bag_semantics() {
        let db = figure5_db();
        let q = paper_example_query("R");
        assert!(factorization_holds(&q, &db).unwrap());
    }

    #[test]
    fn theorem_4_3_factorization_into_other_semirings() {
        // The same provenance result specializes into 𝔹, PosBool, Tropical,
        // ℕ∞ — evaluating directly agrees with evaluating via ℕ[X].
        let db_nat = figure5_db();
        let q = paper_example_query("R");

        let db_bool: Database<Bool> = db_nat.map_annotations(|n| Bool::from(!n.is_zero()));
        assert!(factorization_holds(&q, &db_bool).unwrap());

        let db_ninf: Database<NatInf> = db_nat.map_annotations(|n| NatInf::Fin(n.value()));
        assert!(factorization_holds(&q, &db_ninf).unwrap());

        let db_trop: Database<Tropical> = db_nat.map_annotations(|n| Tropical::cost(n.value()));
        assert!(factorization_holds(&q, &db_trop).unwrap());

        let mut db_posbool: Database<PosBool> = Database::new();
        let schema = Schema::new(["a", "b", "c"]);
        let rel = KRelation::from_tuples(
            schema,
            [
                (
                    Tuple::new([("a", "a"), ("b", "b"), ("c", "c")]),
                    PosBool::var("b1"),
                ),
                (
                    Tuple::new([("a", "d"), ("b", "b"), ("c", "e")]),
                    PosBool::var("b2"),
                ),
                (
                    Tuple::new([("a", "f"), ("b", "g"), ("c", "e")]),
                    PosBool::var("b3"),
                ),
            ],
        );
        db_posbool.insert("R", rel);
        assert!(factorization_holds(&q, &db_posbool).unwrap());
    }

    #[test]
    fn specialization_reproduces_figure2_and_figure3_from_figure5() {
        // One provenance computation, two specializations: the c-table of
        // Figure 2(b) (via b1, b2, b3) and the bag result of Figure 3(b)
        // (via 2, 5, 1).
        let db = figure5_db();
        let tagged = tag_database_with_names(&db, &paper_names);
        let q = paper_example_query("R");
        let prov = q.eval(&tagged.database).unwrap();

        // Bag specialization.
        let v_bag = Valuation::from_pairs([("p", nat(2)), ("r", nat(5)), ("s", nat(1))]);
        let bag = specialize(&prov, &v_bag);
        assert_eq!(
            bag.annotation(&Tuple::new([("a", "d"), ("c", "e")])),
            nat(55)
        );
        assert_eq!(
            bag.annotation(&Tuple::new([("a", "f"), ("c", "e")])),
            nat(7)
        );

        // c-table specialization (Figure 2(b)).
        let v_ctable = Valuation::from_pairs([
            ("p", PosBool::var("b1")),
            ("r", PosBool::var("b2")),
            ("s", PosBool::var("b3")),
        ]);
        let ctable = specialize(&prov, &v_ctable);
        assert_eq!(
            ctable.annotation(&Tuple::new([("a", "a"), ("c", "c")])),
            PosBool::var("b1")
        );
        assert_eq!(
            ctable.annotation(&Tuple::new([("a", "a"), ("c", "e")])),
            PosBool::var("b1").times(&PosBool::var("b2"))
        );
        assert_eq!(
            ctable.annotation(&Tuple::new([("a", "d"), ("c", "e")])),
            PosBool::var("b2")
        );
        assert_eq!(
            ctable.annotation(&Tuple::new([("a", "f"), ("c", "e")])),
            PosBool::var("b3")
        );
    }

    #[test]
    fn why_provenance_from_polynomials_matches_figure5b() {
        let db = figure5_db();
        let tagged = tag_database_with_names(&db, &paper_names);
        let q = paper_example_query("R");
        let prov = q.eval(&tagged.database).unwrap();
        let why = prov.map_annotations(ProvenancePolynomial::why_provenance);
        assert_eq!(
            why.annotation(&Tuple::new([("a", "a"), ("c", "c")])),
            WhySet::var("p")
        );
        assert_eq!(
            why.annotation(&Tuple::new([("a", "d"), ("c", "e")])),
            WhySet::from_vars(["r", "s"])
        );
        assert_eq!(
            why.annotation(&Tuple::new([("a", "f"), ("c", "e")])),
            WhySet::from_vars(["r", "s"])
        );
    }

    #[test]
    fn automatic_tagging_generates_distinct_ids() {
        let db = figure5_db();
        let tagged = tag_database(&db);
        assert_eq!(tagged.id_index().count(), 3);
        let ids: std::collections::BTreeSet<_> = tagged.id_index().map(|(v, _, _)| v).collect();
        assert_eq!(ids.len(), 3);
        // The valuation maps each id back to the original annotation.
        for (id, rel, tuple) in tagged.id_index() {
            let original = db.get(rel).unwrap().annotation(tuple);
            assert_eq!(tagged.valuation.get(id), Some(&original));
        }
        // Caller-named ids are indexed in tuple order too.
        let named = tag_database_with_names(&db, &paper_names);
        let index: Vec<_> = named
            .id_index()
            .map(|(v, r, t)| (v.clone(), r, t))
            .collect();
        let tuples = db.get("R").unwrap().iter().map(|(t, _)| t);
        let expected: Vec<_> = tuples.map(|t| (paper_names("R", t), "R", t)).collect();
        assert_eq!(index, expected);
    }

    #[test]
    fn provenance_size_counts_monomials() {
        let db = figure5_db();
        let (prov, _) = provenance_of_query(&paper_example_query("R"), &db).unwrap();
        // 1 + 1 + 1 + 2 + 2 monomials across the five output tuples.
        assert_eq!(provenance_size(&prov), 7);
    }

    #[test]
    fn circuit_route_agrees_with_polynomial_route_on_figure5() {
        let db = figure5_db();
        let q = paper_example_query("R");
        let (poly_prov, poly_val) = provenance_of_query(&q, &db).unwrap();
        let (circ_prov, circ_val) = circuit_provenance_of_query(&q, &db).unwrap();
        // Same support, and tuple-wise the circuit lowers to the exact same
        // ℕ[X] polynomial (the tagging uses identical variable names).
        assert_eq!(circ_prov.len(), poly_prov.len());
        for (tuple, circuit) in circ_prov.iter() {
            assert_eq!(
                circuit.to_polynomial(),
                poly_prov.annotation(tuple),
                "{tuple}"
            );
        }
        // And both specializations reproduce the direct bag result.
        let via_poly = specialize(&poly_prov, &poly_val);
        let via_circ = specialize_circuit(&circ_prov, &circ_val);
        assert_eq!(via_poly, via_circ);
        assert!(circuit_factorization_holds(&q, &db).unwrap());
    }

    #[test]
    fn circuit_tagging_matches_polynomial_tagging_ids() {
        let db = figure5_db();
        let tagged = tag_database(&db);
        let circ = tag_database_circuit(&db);
        let poly_ids: Vec<_> = tagged
            .id_index()
            .map(|(id, r, t)| (id.clone(), r, t))
            .collect();
        let circ_ids: Vec<_> = circ.id_index().collect();
        assert_eq!(poly_ids, circ_ids);
        for (id, _, _) in circ.id_index() {
            assert_eq!(circ.valuation.get(&id), tagged.valuation.get(&id));
        }
    }

    #[test]
    fn tagging_a_relation_in_one_batch_matches_tagging_tuple_by_tuple() {
        let schema = Schema::new(["a", "b"]);
        let row =
            |i: i64| Tuple::from_values(&schema, [Value::int(i), Value::str(format!("s{i}"))]);
        let big = (0..1_001).map(|i| (row(i), nat(1 + i as u64 % 4)));
        let big = KRelation::from_tuples(schema.clone(), big);
        let small = KRelation::from_tuples(schema.clone(), (0..3).map(|i| (row(i), nat(9))));
        let db = Database::new().with("R", big).with("S", small);
        provsem_semiring::circuit::CircuitSession::run(|| {
            let circuits = tag_database_circuit(&db);
            let polynomials = tag_database(&db);
            assert_eq!(circuits.valuation.len(), 1_004);
            let mut index = circuits.id_index();
            for (name, relation) in db.iter() {
                let tagged = circuits
                    .database
                    .get(name)
                    .expect("every relation is tagged");
                assert_eq!(tagged.len(), relation.len());
                for (i, (tuple, k)) in relation.iter().enumerate() {
                    // Names in tuple order, as `Variable::indexed` spells them.
                    let id = Variable::indexed(name, i);
                    assert_eq!(circuits.valuation.get(&id), Some(k));
                    assert_eq!(polynomials.valuation.get(&id), Some(k));
                    assert!(tagged
                        .annotation(tuple)
                        .same_node(&Circuit::var(id.clone())));
                    let entry = index.next().expect("one index entry per tuple");
                    assert_eq!(entry, (id, name.as_str(), tuple));
                }
            }
            assert!(index.next().is_none());
            let named = polynomials.id_index().map(|(v, r, t)| (v.clone(), r, t));
            assert!(circuits.id_index().eq(named));
            // The single-relation route indexes the same ids.
            let (_, _, single) = tag_relation("S", db.get("S").expect("S"));
            let from_db = circuits.id_index().filter(|(_, name, _)| *name == "S");
            let from_db: Vec<_> = from_db
                .map(|(v, r, t)| (v, r.to_string(), t.clone()))
                .collect();
            assert_eq!(single, from_db);
        });
    }

    #[test]
    fn circuit_provenance_size_measures_sharing() {
        let db = figure5_db();
        let (prov, _) = circuit_provenance_of_query(&paper_example_query("R"), &db).unwrap();
        // A handful of shared nodes over the three tuple variables — far
        // fewer than one expansion per output tuple, and bounded by the
        // arena (which holds every node of both sides of each Plus/Times).
        let nodes = circuit_provenance_size(&prov);
        assert!(nodes >= 3, "at least the three variables: {nodes}");
        assert!(
            nodes <= provsem_semiring::circuit::arena_node_count(),
            "reachable nodes are a subset of the arena"
        );
    }
}
