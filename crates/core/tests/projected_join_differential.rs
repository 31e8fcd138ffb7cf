//! Differential test for the projected hash join: a π (with any ρ) directly
//! over a ⋈ that drops a join column is summed inside the join when its
//! kept columns are dictionary columns whose code grid is no larger than
//! the join's match count — one sum of products per output tuple, one
//! `Σᵢ aᵢ·bᵢ` circuit node — and runs as rows plus the root merge
//! otherwise.
//!
//! Every case runs `Plan::execute_with` at 1, 2 and 4 threads against
//! `RaExpr::eval_interpreted` over ℕ, ℤ, 𝔹 and the tropical semiring, and
//! over provenance circuits specialised back to ℕ (Theorem 4.3). The
//! circuits of the three budgets must be the **same nodes** (one session,
//! hash-consed): a budget that summed its partitions apart would leave a
//! `+` of partial sums instead. Where a case pins the path, the node count
//! says which one ran: summed, a result over base relations reaches its
//! variables and one node per output tuple; as rows, a `Times` node per
//! match on top.
//!
//! The cases: kept columns from one side and from both; a ρ between π and
//! ⋈; a kept key column, with nothing dropped at the join (rows — the
//! planner prunes every other column below it) and, of a two-column key,
//! beside a dropped one (summed); an `i64` and a `Val`-fallback kept column
//! (rows); a grid with more cells than matches (rows, decided after
//! matching); ℤ groups that cancel to zero (dropped); and the Section 2
//! query, whose two joins both sum over pre-join aggregations.

use provsem_core::prelude::*;
use provsem_semiring::circuit::{self, CircuitSession};
use provsem_semiring::{Bool, Circuit, Integers, Natural, Semiring, Tropical};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 3] = [1, 2, 4];

/// A relation before annotation: sorted attributes, and rows in that order
/// with a signed weight (its sign counts over ℤ only; a repeated row sums).
struct Raw {
    attrs: Vec<&'static str>,
    rows: Vec<(Vec<Value>, i64)>,
}

/// One attribute of a random relation: its name, a value maker, and the
/// number of values it draws from.
type Domain = (&'static str, fn(u64) -> Value, u64);

/// `rows` random rows over `domains`, with weights ±1..3.
fn random(rng: &mut StdRng, rows: usize, domains: &[Domain]) -> Raw {
    let mut drawn = Vec::with_capacity(rows);
    for _ in 0..rows {
        let values: Vec<Value> = domains
            .iter()
            .map(|(_, make, n)| make(rng.gen_range(0..*n)))
            .collect();
        let sign = if rng.gen_range(0..4) == 0 { -1 } else { 1 };
        drawn.push((values, sign * rng.gen_range(1i64..4)));
    }
    Raw {
        attrs: domains.iter().map(|(attr, _, _)| *attr).collect(),
        rows: drawn,
    }
}

fn text(i: u64) -> Value {
    Value::str(format!("s{i}"))
}

fn int(i: u64) -> Value {
    Value::int(i as i64)
}

/// Integers and strings in one column: no typed column holds it.
fn mixed(i: u64) -> Value {
    if i % 2 == 0 {
        Value::int(i as i64)
    } else {
        Value::str(format!("m{i}"))
    }
}

fn database<K: Semiring>(relations: &[(&str, &Raw)], annotate: impl Fn(i64) -> K) -> Database<K> {
    let mut db = Database::new();
    for (name, raw) in relations {
        let schema = Schema::new(raw.attrs.iter().copied());
        let mut relation = KRelation::empty(schema.clone());
        for (values, weight) in &raw.rows {
            let tuple = Tuple::from_values(&schema, values.iter().cloned());
            relation.insert(tuple, annotate(*weight));
        }
        db.insert(*name, relation);
    }
    db
}

/// Which path a case must take, told by the circuit's size.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Path {
    Summed,
    Rows,
    /// Not pinned: the plan aggregates below the join, or a group may have
    /// a single match, so the count tells nothing.
    Either,
}

/// Planned at every budget equals interpreted, for one semiring.
fn check_semiring<K: Semiring>(query: &RaExpr, db: &Database<K>) -> KRelation<K> {
    let expected = query
        .eval_interpreted(db)
        .expect("the case's query is valid");
    let plan = Plan::new(query, &db.catalog()).expect("the case's query plans");
    for threads in THREADS {
        let planned = plan.execute_with(db, &ExecContext::with_threads(threads));
        assert_eq!(planned, expected, "threads={threads} on {query:?}");
    }
    expected
}

/// Theorem 4.3 along the circuit route at every budget, the same nodes at
/// every budget, and the path the node count shows.
fn check_circuits(query: &RaExpr, db: &Database<Natural>, path: Path) {
    let expected = query
        .eval_interpreted(db)
        .expect("the case's query is valid");
    let plan = Plan::new(query, &db.catalog()).expect("the case's query plans");
    CircuitSession::run(|| {
        let tagged = tag_database_circuit(db);
        let mut serial: Option<KRelation<Circuit>> = None;
        for threads in THREADS {
            let prov = plan.execute_with(&tagged.database, &ExecContext::with_threads(threads));
            let specialized = specialize_circuit(&prov, &tagged.valuation);
            assert_eq!(specialized, expected, "threads={threads} on {query:?}");
            let Some(first) = &serial else {
                serial = Some(prov);
                continue;
            };
            assert_eq!(prov.len(), first.len());
            for ((tuple, a), (other, b)) in first.iter().zip(prov.iter()) {
                assert_eq!(tuple, other);
                assert!(a.same_node(b), "threads={threads}: {tuple} on {query:?}");
            }
        }
        let result = serial.expect("three budgets ran");
        let roots = result.len();
        let reached = circuit::shared_node_count(result.iter().map(|(_, c)| *c));
        let summed_at_most = roots + tagged.valuation.len();
        match path {
            Path::Summed => assert!(reached <= summed_at_most, "{reached} nodes on {query:?}"),
            Path::Rows => assert!(reached > summed_at_most, "{reached} nodes on {query:?}"),
            Path::Either => {}
        }
    });
}

/// One case over ℕ, ℤ, 𝔹, Tropical and circuits; returns the ℤ result.
fn check(query: &RaExpr, relations: &[(&str, &Raw)], path: Path) -> KRelation<Integers> {
    let naturals = database(relations, |w| Natural::from(w.unsigned_abs()));
    let expected = check_semiring(query, &naturals);
    assert!(
        !expected.is_empty(),
        "an empty case checks nothing: {query:?}"
    );
    check_semiring(query, &database(relations, |_| Bool::from(true)));
    check_semiring(
        query,
        &database(relations, |w| Tropical::cost(w.unsigned_abs())),
    );
    check_circuits(query, &naturals, path);
    check_semiring(query, &database(relations, Integers::new))
}

/// `R(a, b)` and `S(b, c)`: nothing to prune below the join, so no
/// aggregation either — about 20 matches per output tuple, each a product
/// of two tagged tuples.
fn pairs() -> (Raw, Raw) {
    let mut rng = StdRng::seed_from_u64(40);
    let r = random(&mut rng, 150, &[("a", text, 20), ("b", text, 5)]);
    let s = random(&mut rng, 150, &[("b", text, 5), ("c", text, 20)]);
    (r, s)
}

/// `R(a, b, d)` and `S(b, c, e)`: the planner prunes `d` and `e` below the
/// join, which then sums over pre-join aggregations.
fn pruned() -> (Raw, Raw) {
    let mut rng = StdRng::seed_from_u64(41);
    let r = random(
        &mut rng,
        300,
        &[("a", text, 6), ("b", text, 5), ("d", text, 60)],
    );
    let s = random(
        &mut rng,
        300,
        &[("b", text, 5), ("c", text, 7), ("e", text, 60)],
    );
    (r, s)
}

fn r() -> RaExpr {
    RaExpr::relation("R")
}

fn s() -> RaExpr {
    RaExpr::relation("S")
}

#[test]
fn kept_columns_from_one_side() {
    let mut rng = StdRng::seed_from_u64(42);
    let r_raw = random(&mut rng, 250, &[("a", text, 40), ("b", text, 5)]);
    let keys = random(&mut rng, 20, &[("b", text, 5)]);
    let query = r().join(s()).project(["a"]);
    check(&query, &[("R", &r_raw), ("S", &keys)], Path::Summed);
    let (r_raw, s_raw) = pruned();
    let query = r().join(s()).project(["a", "d"]);
    check(&query, &[("R", &r_raw), ("S", &s_raw)], Path::Either);
    let query = r().join(s()).project(["e"]);
    check(&query, &[("R", &r_raw), ("S", &s_raw)], Path::Either);
}

#[test]
fn kept_columns_from_both_sides() {
    let (r_raw, s_raw) = pairs();
    let query = r().join(s()).project(["a", "c"]);
    check(&query, &[("R", &r_raw), ("S", &s_raw)], Path::Summed);
    let (r_raw, s_raw) = pruned();
    let query = r().join(s()).project(["c", "d", "a"]);
    check(&query, &[("R", &r_raw), ("S", &s_raw)], Path::Either);
}

#[test]
fn a_renaming_between_projection_and_join() {
    let (r_raw, s_raw) = pairs();
    let renamed = r()
        .join(s())
        .rename(Renaming::new([("a", "z"), ("c", "f")]));
    let query = renamed.project(["z", "f"]);
    check(&query, &[("R", &r_raw), ("S", &s_raw)], Path::Summed);
}

#[test]
fn a_kept_key_column() {
    let (r_raw, s_raw) = pairs();
    // The planner prunes `a` below the join, so keeping the key `b` drops
    // nothing at the join: its rows.
    let query = r().join(s()).project(["b", "c"]);
    check(&query, &[("R", &r_raw), ("S", &s_raw)], Path::Either);
    // Renaming alone drops nothing either.
    let query = r().join(s()).rename(Renaming::new([("a", "z")]));
    check(&query, &[("R", &r_raw), ("S", &s_raw)], Path::Either);
    // Keeping every join column, key included.
    let query = r().join(s()).project(["a", "b", "c"]);
    check(&query, &[("R", &r_raw), ("S", &s_raw)], Path::Either);
    // A two-column key, one column kept and one dropped: summed.
    let mut rng = StdRng::seed_from_u64(46);
    let r_raw = random(
        &mut rng,
        200,
        &[("a", text, 10), ("b", text, 3), ("d", text, 4)],
    );
    let s_raw = random(
        &mut rng,
        200,
        &[("b", text, 3), ("c", text, 10), ("d", text, 4)],
    );
    let query = r().join(s()).project(["a", "b", "c"]);
    check(&query, &[("R", &r_raw), ("S", &s_raw)], Path::Summed);
}

#[test]
fn integer_and_value_fallback_kept_columns_take_the_rows() {
    let mut rng = StdRng::seed_from_u64(43);
    let r_int = random(&mut rng, 150, &[("a", int, 20), ("b", text, 5)]);
    let r_val = random(&mut rng, 150, &[("a", mixed, 20), ("b", text, 5)]);
    let (_, s_raw) = pairs();
    let query = r().join(s()).project(["a", "c"]);
    check(&query, &[("R", &r_int), ("S", &s_raw)], Path::Rows);
    check(&query, &[("R", &r_val), ("S", &s_raw)], Path::Rows);
    // An integer join key does not matter: the kept columns do.
    let r_key = random(&mut rng, 150, &[("a", text, 20), ("b", int, 5)]);
    let s_key = random(&mut rng, 150, &[("b", int, 5), ("c", text, 20)]);
    check(&query, &[("R", &r_key), ("S", &s_key)], Path::Summed);
}

#[test]
fn a_grid_with_more_cells_than_matches_takes_the_rows() {
    // 200 × 200 cells against a few hundred matches.
    let mut rng = StdRng::seed_from_u64(44);
    let r_raw = random(&mut rng, 200, &[("a", text, 200), ("b", text, 120)]);
    let s_raw = random(&mut rng, 200, &[("b", text, 120), ("c", text, 200)]);
    let query = r().join(s()).project(["a", "c"]);
    check(&query, &[("R", &r_raw), ("S", &s_raw)], Path::Either);
}

#[test]
fn integer_groups_cancelling_to_zero_are_dropped() {
    // (s0, s0) sums +1 and −1 over 60 keys; (s1, s0) sums 60 ones.
    let r_raw = Raw {
        attrs: vec!["a", "b"],
        rows: (0..60)
            .flat_map(|b| {
                let sign = if b % 2 == 0 { 1 } else { -1 };
                [(vec![text(0), text(b)], sign), (vec![text(1), text(b)], 1)]
            })
            .collect(),
    };
    let s_raw = Raw {
        attrs: vec!["b", "c"],
        rows: (0..60).map(|b| (vec![text(b), text(0)], 1)).collect(),
    };
    let query = r().join(s()).project(["a", "c"]);
    let integers = check(&query, &[("R", &r_raw), ("S", &s_raw)], Path::Summed);
    let only = Tuple::new([("a", "s1"), ("c", "s0")]);
    assert_eq!(integers.len(), 1, "{integers:?}");
    assert_eq!(integers.annotation(&only), Integers::new(60));
}

#[test]
fn the_section2_query_sums_both_joins() {
    let mut rng = StdRng::seed_from_u64(45);
    let r_raw = random(
        &mut rng,
        900,
        &[("a", text, 12), ("b", text, 8), ("c", text, 12)],
    );
    check(&paper_example_query("R"), &[("R", &r_raw)], Path::Either);
}
