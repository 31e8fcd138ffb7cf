//! Differential test: the hash-consed **circuit** provenance route agrees
//! with the expanded **polynomial** route.
//!
//! Random RA⁺ queries of bounded depth are run through three routes over
//! the same database:
//!
//! * **direct** — `q(R)` evaluated natively in K;
//! * **polynomial** — tag with ℕ\[X\] variables, evaluate, specialize
//!   tuple-wise via `Polynomial::eval` (Theorem 4.3, expanded form);
//! * **circuit** — tag with [`Circuit`] variables, evaluate (interning DAG
//!   nodes), specialize via one memoized [`CircuitEval`] pass.
//!
//! Circuit and polynomial routes must agree **exactly** — same `Result`,
//! same support, same annotations — over all five differential semirings
//! (𝔹, ℕ, tropical, why-provenance, PosBool); the tagging uses identical
//! variable names so the valuations line up. For the four genuine
//! (annihilating) semirings both provenance routes must additionally equal
//! the direct evaluation — Theorem 4.3 along both representations. The
//! degenerate why-provenance structure (`0 = 1`, no annihilation) is not a
//! semiring in the strict sense, so `Eval_v` is not a homomorphism into it
//! and only circuit-vs-polynomial agreement is asserted there.
//!
//! The random instances are a handful of tuples: below the executor's spawn
//! threshold. The **large instances** (≥ 400 rows per relation,
//! deterministic) pin the same two contracts at 1, 2 and 4 threads, where
//! grouping builds one n-ary `Σ` node per group and every exchange moves
//! circuit batches between worker threads.
//!
//! The file ends with the **sharing test**: a product-of-unions workload
//! whose expanded ℕ\[X\] provenance has `2ⁿ` monomials while the circuit
//! stays linear in `n` — the representation gap this engine exists for.

use proptest::prelude::*;
use provsem_core::prelude::*;
use provsem_core::provenance::{
    circuit_provenance_of_query, circuit_provenance_size, provenance_of_query, specialize,
    specialize_circuit,
};
use provsem_semiring::{
    circuit, Bool, Circuit, CommutativeSemiring, Natural, PosBool, Semiring, Tropical, Valuation,
    WhySet,
};

const CASES: u32 = 80;

const ATTRS: [&str; 5] = ["a", "b", "c", "d", "z"];
const VALUES: [&str; 4] = ["v0", "v1", "v2", "v3"];
const RELATIONS: [&str; 3] = ["R", "S", "T"];

type RawFact = (u8, u8, u8, u8, u64);

/// A deterministic byte cursor decoding random expressions from a recipe
/// (same scheme as the planner differential suite).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn next(&mut self) -> u8 {
        if self.bytes.is_empty() {
            return 0;
        }
        let b = self.bytes[self.pos % self.bytes.len()];
        self.pos += 1;
        b
    }
}

fn attr(c: &mut Cursor) -> &'static str {
    ATTRS[c.next() as usize % ATTRS.len()]
}

fn value(c: &mut Cursor) -> &'static str {
    VALUES[c.next() as usize % VALUES.len()]
}

fn subset_schema(c: &mut Cursor) -> Schema {
    let mask = c.next();
    Schema::new(
        ATTRS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, a)| *a),
    )
}

fn predicate(c: &mut Cursor, depth: u8) -> Predicate {
    match c.next() % if depth == 0 { 5 } else { 7 } {
        0 => Predicate::True,
        1 => Predicate::False,
        2 => Predicate::eq_value(attr(c), value(c)),
        3 => Predicate::ne_value(attr(c), value(c)),
        4 => Predicate::eq_attrs(attr(c), attr(c)),
        5 => predicate(c, depth - 1).and(predicate(c, depth - 1)),
        _ => predicate(c, depth - 1).or(predicate(c, depth - 1)),
    }
}

fn expr(c: &mut Cursor, depth: u8) -> RaExpr {
    let choice = if depth == 0 {
        c.next() % 2
    } else {
        c.next() % 8
    };
    match choice {
        0 => RaExpr::relation(RELATIONS[c.next() as usize % RELATIONS.len()]),
        1 => RaExpr::Empty(subset_schema(c)),
        2 => RaExpr::Project(subset_schema(c), Box::new(expr(c, depth - 1))),
        3 => expr(c, depth - 1).select(predicate(c, 2)),
        4 => expr(c, depth - 1).rename(Renaming::new([(attr(c), attr(c))])),
        5 => {
            let left = expr(c, depth - 1);
            left.clone().union(left)
        }
        _ => expr(c, depth - 1).join(expr(c, depth - 1)),
    }
}

/// `R(a, b, c)`, `S(b, c, d)`, `T(d)` populated from the raw facts.
fn build_db<K: Semiring>(facts: &[RawFact], annotate: impl Fn(usize, u64) -> K) -> Database<K> {
    let mut r = KRelation::empty(Schema::new(["a", "b", "c"]));
    let mut s = KRelation::empty(Schema::new(["b", "c", "d"]));
    let mut t = KRelation::empty(Schema::new(["d"]));
    for (i, (rel, x, y, z, w)) in facts.iter().enumerate() {
        let v = |n: &u8| VALUES[*n as usize % VALUES.len()];
        let k = annotate(i, *w);
        match rel % 3 {
            0 => r.insert(Tuple::new([("a", v(x)), ("b", v(y)), ("c", v(z))]), k),
            1 => s.insert(Tuple::new([("b", v(x)), ("c", v(y)), ("d", v(z))]), k),
            _ => t.insert(Tuple::new([("d", v(x))]), k),
        }
    }
    Database::new().with("R", r).with("S", s).with("T", t)
}

/// How the two provenance routes are compared for one semiring.
enum Contract {
    /// Specializations via `Eval_v` must agree with each other *and* with
    /// the native K evaluation (Theorem 4.3 along both representations).
    SpecializeAndDirect,
    /// `Eval_v` is only a homomorphism into genuine (annihilating)
    /// semirings; for the degenerate why-provenance structure (`0 = 1`)
    /// embedding a coefficient yields the zero element and the polynomial
    /// route collapses. There the routes are compared at the ℕ\[X\] level:
    /// same support, and each circuit annotation lowers to exactly the
    /// expanded polynomial.
    ExactPolynomials,
}

/// The differential contract between the circuit and polynomial routes.
fn assert_routes_agree<K: CommutativeSemiring>(
    query: &RaExpr,
    db: &Database<K>,
    contract: Contract,
) {
    // Fresh arena per case: also exercises the bulk reset under load.
    circuit::reset();
    let poly = provenance_of_query(query, db);
    let circ = circuit_provenance_of_query(query, db);
    match (poly, circ) {
        (Err(pe), Err(ce)) => assert_eq!(pe, ce, "errors differ on {query:?}"),
        (Ok((poly_prov, poly_val)), Ok((circ_prov, circ_val))) => match contract {
            Contract::SpecializeAndDirect => {
                let via_poly = specialize(&poly_prov, &poly_val);
                let via_circ = specialize_circuit(&circ_prov, &circ_val);
                assert_eq!(
                    via_poly, via_circ,
                    "circuit vs polynomial specialization differ on {query:?}"
                );
                let direct = query.eval(db).expect("provenance route evaluated");
                assert_eq!(via_circ, direct, "Theorem 4.3 (circuit) fails on {query:?}");
            }
            Contract::ExactPolynomials => {
                assert_eq!(
                    circ_prov.len(),
                    poly_prov.len(),
                    "support differs on {query:?}"
                );
                for (tuple, circuit) in circ_prov.iter() {
                    assert_eq!(
                        circuit.to_polynomial(),
                        poly_prov.annotation(tuple),
                        "ℕ[X] annotations differ at {tuple:?} on {query:?}"
                    );
                }
            }
        },
        (poly, circ) => panic!("one route failed: poly={poly:?} circ={circ:?} on {query:?}"),
    }
}

fn arb_recipe() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 8..48)
}

fn arb_facts() -> impl Strategy<Value = Vec<RawFact>> {
    prop::collection::vec((0u8..3, 0u8..4, 0u8..4, 0u8..4, 1u64..4), 0..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn boolean_routes_agree(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_routes_agree(&query, &build_db(&facts, |_, _| Bool::from(true)), Contract::SpecializeAndDirect);
    }

    #[test]
    fn natural_routes_agree(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_routes_agree(&query, &build_db(&facts, |_, w| Natural::from(w)), Contract::SpecializeAndDirect);
    }

    #[test]
    fn tropical_routes_agree(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_routes_agree(&query, &build_db(&facts, |_, w| Tropical::cost(w)), Contract::SpecializeAndDirect);
    }

    #[test]
    fn why_provenance_routes_agree(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        // Degenerate structure: circuit-vs-polynomial only (see module docs).
        assert_routes_agree(
            &query,
            &build_db(&facts, |i, _| WhySet::var(format!("t{i}"))),
            Contract::ExactPolynomials,
        );
    }

    #[test]
    fn posbool_routes_agree(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_routes_agree(
            &query,
            &build_db(&facts, |i, _| PosBool::var(format!("t{i}"))),
            Contract::SpecializeAndDirect,
        );
    }
}

// ---- large instances: exchanges, Σ nodes ------------------------------------

const LARGE_THREADS: [usize; 3] = [1, 2, 4];

/// `R(a, b, c)` and `S(b, c, d)`, 700 draws each over a domain of 9 (≈ 450
/// distinct rows; a row drawn twice sums), and `T(d)` over part of it.
fn large_db<K: Semiring>(annotate: impl Fn(usize, u64) -> K) -> Database<K> {
    let mut state = 0x5eed_u64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let mut label = |n: u64| format!("v{}", next(n));
    let mut r = KRelation::empty(Schema::new(["a", "b", "c"]));
    let mut s = KRelation::empty(Schema::new(["b", "c", "d"]));
    let mut t = KRelation::empty(Schema::new(["d"]));
    for i in 0..700 {
        r.insert(
            Tuple::new([("a", label(9)), ("b", label(9)), ("c", label(9))]),
            annotate(i, 1 + i as u64 % 3),
        );
        s.insert(
            Tuple::new([("b", label(9)), ("c", label(9)), ("d", label(9))]),
            annotate(700 + i, 1 + i as u64 % 4),
        );
    }
    for i in 0..6 {
        t.insert(Tuple::new([("d", format!("v{i}"))]), annotate(1400 + i, 2));
    }
    assert!(r.len() >= 400 && s.len() >= 400, "{} {}", r.len(), s.len());
    Database::new().with("R", r).with("S", s).with("T", t)
}

/// Shapes whose output rows each sum many alternatives: groups of products
/// (self-join and two-key join under a projection), groups fed from both
/// sides of a union — once by the same tuples, so every member repeats —
/// and a three-way join grouped down to one column.
fn large_queries() -> Vec<RaExpr> {
    let r = || RaExpr::relation("R");
    let s = || RaExpr::relation("S");
    vec![
        paper_example_query("R"),
        r().join(s()).project(["a", "d"]),
        r().select(Predicate::ne_value("c", "v0"))
            .project(["a"])
            .union(s().project(["d"]).rename(Renaming::new([("d", "a")]))),
        r().union(r()).project(["a", "b"]),
        r().join(s()).join(RaExpr::relation("T")).project(["b"]),
    ]
}

/// Runs `query` over circuit annotations at the given thread budget.
fn large_circuit_provenance<K: Semiring>(
    query: &RaExpr,
    db: &Database<K>,
    threads: usize,
) -> (KRelation<Circuit>, Valuation<K>) {
    circuit::reset();
    let ctx = ExecContext::with_threads(threads);
    let plan = Plan::new(query, &db.catalog()).expect("large queries are valid");
    let physical = plan.explain_physical_with(&ctx);
    // Every join and pre-join aggregation exchanges between workers.
    let exchanges = threads > 1 && physical.contains("hash-join");
    assert_eq!(physical.contains("partitions="), exchanges, "{physical}");
    let tagged = tag_database_circuit(db);
    (plan.execute_with(&tagged.database, &ctx), tagged.valuation)
}

/// Theorem 4.3 along the circuit route against the reference interpreter.
fn assert_large_instance_specializes_to_direct<K: CommutativeSemiring>(db: &Database<K>) {
    for query in large_queries() {
        let direct = query.eval_interpreted(db).expect("large queries are valid");
        assert!(!direct.is_empty(), "{query:?}");
        for threads in LARGE_THREADS {
            let (prov, valuation) = large_circuit_provenance(&query, db, threads);
            assert_eq!(
                specialize_circuit(&prov, &valuation),
                direct,
                "threads={threads} on {query:?}"
            );
        }
    }
}

#[test]
fn large_instances_specialize_to_direct_evaluation() {
    assert_large_instance_specializes_to_direct(&large_db(|_, w| Natural::from(w)));
    assert_large_instance_specializes_to_direct(&large_db(|_, _| Bool::from(true)));
    assert_large_instance_specializes_to_direct(&large_db(|_, w| Tropical::cost(w)));
}

#[test]
fn large_instances_lower_to_exactly_the_polynomial_route() {
    let db = large_db(|_, w| Natural::from(w));
    for query in large_queries() {
        let (poly_prov, _) = provenance_of_query(&query, &db).expect("large queries are valid");
        for threads in LARGE_THREADS {
            let (circ_prov, _) = large_circuit_provenance(&query, &db, threads);
            assert_eq!(circ_prov.len(), poly_prov.len(), "threads={threads}");
            for (tuple, circuit) in circ_prov.iter() {
                assert_eq!(
                    circuit.to_polynomial(),
                    poly_prov.annotation(tuple),
                    "threads={threads} at {tuple:?} on {query:?}"
                );
            }
        }
    }
}

/// A database of `n` two-way-derivable tuples: `Ai ∪ Bi` annotates the one
/// shared tuple with `xᵢ + yᵢ`, and joining all of them multiplies the sums.
fn product_of_unions(n: usize) -> (RaExpr, Database<Natural>) {
    let mut db = Database::new();
    let mut query: Option<RaExpr> = None;
    let schema = Schema::new(["k"]);
    let tuple = Tuple::new([("k", "0")]);
    for i in 0..n {
        let a = format!("A{i}");
        let b = format!("B{i}");
        db.insert(
            a.clone(),
            KRelation::from_tuples(schema.clone(), [(tuple.clone(), Natural::from(1u64))]),
        );
        db.insert(
            b.clone(),
            KRelation::from_tuples(schema.clone(), [(tuple.clone(), Natural::from(1u64))]),
        );
        let factor = RaExpr::relation(a).union(RaExpr::relation(b));
        query = Some(match query {
            None => factor,
            Some(q) => q.join(factor),
        });
    }
    (query.expect("n ≥ 1"), db)
}

/// The sharing test: on Π (xᵢ + yᵢ) the expanded ℕ\[X\] provenance has `2ⁿ`
/// monomials — materializing it for n = 34 would need hundreds of billions
/// of terms — while the circuit stays **linear in n**, and the memoized
/// specialization still recovers the exact bag count `2ⁿ`.
#[test]
fn circuit_stays_polynomial_where_expanded_polynomial_is_exponential() {
    circuit::reset();
    const N: usize = 34;
    let (query, db) = product_of_unions(N);
    let (prov, valuation) = circuit_provenance_of_query::<Natural>(&query, &db).unwrap();
    assert_eq!(prov.len(), 1, "one output tuple");
    let nodes = circuit_provenance_size(&prov);
    assert!(
        nodes <= 4 * N,
        "circuit must stay linear in n: {nodes} nodes for n = {N}"
    );
    let out = specialize_circuit(&prov, &valuation);
    assert_eq!(
        out.annotation(&Tuple::new([("k", "0")])),
        Natural::from(1u64 << N),
        "Eval_v over the shared DAG recovers the 2^n bag count"
    );
}

/// Cross-check the same workload at a size where the expanded polynomial is
/// still materializable: the circuit route and the polynomial route produce
/// identical ℕ\[X\] elements and identical specializations.
#[test]
fn sharing_workload_matches_polynomial_route_at_small_size() {
    circuit::reset();
    const N: usize = 10;
    let (query, db) = product_of_unions(N);
    let (circ_prov, circ_val) = circuit_provenance_of_query::<Natural>(&query, &db).unwrap();
    let (poly_prov, poly_val) = provenance_of_query(&query, &db).unwrap();
    let tuple = Tuple::new([("k", "0")]);
    assert_eq!(poly_prov.annotation(&tuple).num_terms(), 1 << N);
    assert_eq!(
        circ_prov.annotation(&tuple).to_polynomial(),
        poly_prov.annotation(&tuple)
    );
    assert_eq!(
        specialize_circuit(&circ_prov, &circ_val),
        specialize(&poly_prov, &poly_val)
    );
}

// --- tagging shares the source's columns --------------------------------------

use provsem_core::kernels::{relation_to_batches, Batch, Column};
use provsem_core::provenance::tag_database;

/// `R(a, b, c)` with 9 000 rows (three scan batches): `a` and `c` strings,
/// `b` an integer, so the form carries two dictionaries and an `i64`
/// column. `b` and `c` are keys, which keeps the Section 2 query's
/// expanded ℕ\[X\] provenance small (two monomials per output row).
fn three_batch_db() -> Database<Natural> {
    let schema = Schema::new(["a", "b", "c"]);
    let mut r = KRelation::empty(schema.clone());
    for i in 0..9_000i64 {
        let values = [
            Value::str(format!("v{}", i % 30)),
            Value::int(i),
            Value::str(format!("w{i}")),
        ];
        r.insert(
            Tuple::from_values(&schema, values),
            Natural::from(1 + i as u64 % 3),
        );
    }
    Database::new().with("R", r)
}

/// A copy of `db` whose relations hold no columnar form.
fn formless<K: Semiring>(db: &Database<K>) -> Database<K> {
    let mut out = Database::new();
    for (name, relation) in db.iter() {
        let pairs = relation.iter().map(|(t, k)| (t.clone(), k.clone()));
        out.insert(
            name.clone(),
            KRelation::from_sorted_support(relation.schema().clone(), pairs),
        );
    }
    out
}

/// The tagged relation's form is exactly a fresh conversion of the tagged
/// relation — columns, encodings, annotations — and its columns are the
/// source form's own (`Arc::ptr_eq` dictionaries).
fn assert_shares_columns<P: Semiring>(source: &[Batch<Natural>], tagged: &KRelation<P>) {
    let held = tagged.held_batches().expect("tagging carried the form");
    let fresh = relation_to_batches(tagged);
    assert_eq!(held.len(), fresh.len());
    assert_eq!(held.len(), source.len());
    assert!(held.len() >= 3, "{} batches", held.len());
    for ((held, fresh), source) in held.iter().zip(&fresh).zip(source) {
        assert_eq!(held.phys_rows(), fresh.phys_rows());
        assert_eq!(held.live_rows(), fresh.live_rows());
        assert_eq!(held.anns(), fresh.anns());
        for ((h, f), s) in held
            .columns()
            .iter()
            .zip(fresh.columns())
            .zip(source.columns())
        {
            assert_eq!(h.encoding(), f.encoding());
            assert!((0..h.len() as u32).all(|r| h.value_at(r) == f.value_at(r)));
            match (h, s) {
                (Column::Str { dict: dh, .. }, Column::Str { dict: ds, .. }) => {
                    assert!(std::sync::Arc::ptr_eq(dh, ds), "a dictionary was rebuilt")
                }
                (Column::I64(_), Column::I64(_)) => {}
                other => panic!("encodings differ: {other:?}"),
            }
        }
    }
    tagged.check_invariants();
}

/// The Section 2 query over `tagged` (holding the shared form) equals the
/// same query over a form-less rebuilt copy, at 1, 2 and 4 threads.
fn assert_query_unchanged<P: Semiring>(tagged: &Database<P>) {
    let plan = Plan::new(&paper::section2_query(), &tagged.catalog()).unwrap();
    let rebuilt = formless(tagged);
    for threads in LARGE_THREADS {
        let ctx = ExecContext::with_threads(threads);
        assert!(
            plan.execute_with(tagged, &ctx) == plan.execute_with(&rebuilt, &ctx),
            "threads={threads}"
        );
    }
}

#[test]
fn tagging_shares_the_sources_columns() {
    circuit::reset();
    let db = three_batch_db();
    // A source without a form: tagged relations get none (and tagging
    // converted nothing).
    let polynomials = tag_database(&db);
    let circuits = tag_database_circuit(&db);
    assert!(db.get("R").unwrap().held_batches().is_none());
    assert!(polynomials
        .database
        .get("R")
        .unwrap()
        .held_batches()
        .is_none());
    assert!(circuits.database.get("R").unwrap().held_batches().is_none());
    // One execution gives R its form; tagging now lends it out.
    let plan = Plan::new(&paper::section2_query(), &db.catalog()).unwrap();
    plan.execute(&db);
    let source = db
        .get("R")
        .unwrap()
        .held_batches()
        .expect("the scan kept R's form");
    let polynomials = tag_database(&db);
    let circuits = tag_database_circuit(&db);
    assert_shares_columns(&source, polynomials.database.get("R").unwrap());
    assert_shares_columns(&source, circuits.database.get("R").unwrap());
    assert_query_unchanged(&polynomials.database);
    assert_query_unchanged(&circuits.database);
    // Theorem 4.3 still holds along the shared columns.
    let direct = plan.execute(&db);
    let provenance = plan.execute(&circuits.database);
    assert_eq!(specialize_circuit(&provenance, &circuits.valuation), direct);
}
