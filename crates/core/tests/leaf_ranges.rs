//! Tuple ids as leaf ranges: tagging a relation `R` for the circuit route
//! reserves one range of consecutive leaves, named `R_0, R_1, …` only when
//! a circuit is printed or lowered, and specialisation reads each leaf's
//! value from the valuation's column for `R` by position.
//!
//! * Theorem 4.3 along both routes: on random three-relation databases the
//!   circuit route, the ℕ\[X\] route and direct evaluation agree over ℕ, 𝔹,
//!   Tropical and PosBool, at 1, 2 and 4 threads, and every circuit lowers
//!   to the ℕ\[X\] route's polynomial, variable names included.
//! * `Eval_v` depends only on names: a leaf made by `Circuit::var("R_3")`
//!   before `R` was tagged and the tagged leaf `R_3` are two nodes with one
//!   value under every valuation; after tagging, `Circuit::var("R_3")` finds
//!   the tagged leaf.
//! * Tagging the same relation name again yields the same leaves; a longer
//!   relation extends them.
//! * `vacuum` empties the range table, and a handle from before it panics
//!   as stale.
//! * The arena (leaf invariants included) holds the same node ids at every
//!   thread budget.
//!
//! An integration binary of its own, and every test holds one lock:
//! `circuit::vacuum` resets the process-wide arena, which would stale the
//! handles of tests running on sibling threads.

use provsem_core::prelude::*;
use provsem_semiring::circuit::{self, CircuitSession};
use provsem_semiring::{
    Bool, Circuit, CircuitEval, CommutativeSemiring, Natural, PosBool, Semiring, Tropical,
    Valuation, Variable,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ARENA: Mutex<()> = Mutex::new(());

/// Runs alone among this file's tests, from an empty arena.
fn exclusive() -> MutexGuard<'static, ()> {
    let guard = ARENA.lock().unwrap_or_else(PoisonError::into_inner);
    circuit::vacuum();
    guard
}

fn nat(n: u64) -> Natural {
    Natural::from(n)
}

/// `R(a, b, c)`, `S(c, d)` and `t_x(a)` — a name that itself holds a `_` —
/// over a small domain, multiplicities 1–3.
fn random_db(seed: u64, rows: usize) -> Database<Natural> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut relation = |attrs: &[&str], n: usize| {
        let schema = Schema::new(attrs.iter().copied());
        let mut relation = KRelation::empty(schema.clone());
        for _ in 0..n {
            let row = attrs
                .iter()
                .map(|_| Value::str(format!("v{}", rng.gen_range(0..4u64))));
            let row: Vec<Value> = row.collect();
            relation.insert(
                Tuple::from_values(&schema, row),
                nat(rng.gen_range(1..4u64)),
            );
        }
        relation
    };
    let r = relation(&["a", "b", "c"], rows);
    let s = relation(&["c", "d"], rows / 2);
    let t = relation(&["a"], rows / 4);
    Database::new().with("R", r).with("S", s).with("t_x", t)
}

/// The position in [`queries`] of `R ⋈ S ⋈ t_x`, whose output no
/// projection sums.
const UNSUMMED_JOIN: usize = 2;

fn queries() -> Vec<RaExpr> {
    let r = || RaExpr::relation("R");
    let s = || RaExpr::relation("S");
    let t = || RaExpr::relation("t_x");
    vec![
        paper_example_query("R"),
        r().project(["a", "c"]).join(s()).project(["a", "d"]),
        r().join(s()).join(t()),
        r().project(["a"])
            .union(t())
            .select(Predicate::ne_value("a", "v0")),
        s().project(["c"]).join(r().project(["c", "a"]).join(t())),
    ]
}

/// The circuit route's result of `query` at `threads`.
fn circuit_result(
    query: &RaExpr,
    tagged: &CircuitTagged<Natural>,
    threads: usize,
) -> KRelation<Circuit> {
    let plan = Plan::new(query, &tagged.database.catalog()).expect("query plans");
    plan.execute_with(&tagged.database, &ExecContext::with_threads(threads))
}

/// Specialises `result` into `K` along both routes: the circuit route
/// under the circuit tagging of `db`, the ℕ\[X\] route under its polynomial
/// tagging; both must equal the direct evaluation.
fn specialises_to_direct<K: CommutativeSemiring>(
    query: &RaExpr,
    db: &Database<K>,
    leaves: &Database<Circuit>,
    result: &KRelation<Circuit>,
    polynomials: &KRelation<provsem_semiring::ProvenancePolynomial>,
) {
    let direct = query.eval(db).expect("query evaluates");
    let tagged = tag_database_circuit(db);
    for (name, relation) in tagged.database.iter() {
        let before = leaves.get(name).expect("same relations");
        let mut same = relation.iter().zip(before.iter());
        assert!(
            same.all(|((_, a), (_, b))| a.same_node(b)),
            "re-tagging {name} changed its leaves"
        );
    }
    assert_eq!(
        specialize_circuit(result, &tagged.valuation),
        direct,
        "{query:?}"
    );
    let valuation = tag_database(db).valuation;
    assert_eq!(specialize(polynomials, &valuation), direct, "{query:?}");
}

#[test]
fn theorem_4_3_holds_along_both_routes_and_lowering_keeps_the_names() {
    let _arena = exclusive();
    for seed in 0..4 {
        let db = random_db(seed, 40);
        let polynomial = tag_database(&db);
        let _session = CircuitSession::begin();
        let tagged = tag_database_circuit(&db);
        for query in queries() {
            let polynomials = query.eval(&polynomial.database).expect("query evaluates");
            let serial = circuit_result(&query, &tagged, 1);
            assert_eq!(serial.len(), polynomials.len(), "{query:?}");
            for (tuple, circuit) in serial.iter() {
                assert_eq!(
                    circuit.to_polynomial(),
                    polynomials.annotation(tuple),
                    "{tuple}"
                );
            }
            for threads in [2, 4] {
                let parallel = circuit_result(&query, &tagged, threads);
                let mut same = parallel.iter().zip(serial.iter());
                assert!(same.all(|((s, a), (t, b))| s == t && a.same_node(b)));
            }
            let leaves = &tagged.database;
            let bools = db.map_annotations(|n| Bool::from(!n.is_zero()));
            let costs = db.map_annotations(|n| Tropical::cost(n.value()));
            let worlds = db.map_annotations(|n| PosBool::var(format!("w{}", n.value())));
            specialises_to_direct(&query, &db, leaves, &serial, &polynomials);
            specialises_to_direct(&query, &bools, leaves, &serial, &polynomials);
            specialises_to_direct(&query, &costs, leaves, &serial, &polynomials);
            specialises_to_direct(&query, &worlds, leaves, &serial, &polynomials);
        }
        assert!(circuit::check_arena_invariants() > 2);
    }
}

#[test]
fn tagged_leaves_are_consecutive_nodes_named_on_demand() {
    let _arena = exclusive();
    let db = random_db(7, 40);
    let tagged = tag_database_circuit(&db);
    let mut index = tagged.id_index();
    for (name, relation) in tagged.database.iter() {
        let leaves: Vec<Circuit> = relation.iter().map(|(_, leaf)| *leaf).collect();
        assert!(leaves
            .windows(2)
            .all(|w| w[0].node_id() + 1 == w[1].node_id()));
        for (i, (tuple, leaf)) in relation.iter().enumerate() {
            let id = Variable::indexed(name, i);
            assert_eq!(format!("{leaf:?}"), id.name());
            assert_eq!(index.next(), Some((id.clone(), name.as_str(), tuple)));
            let original = db.get(name).expect("same relations").annotation(tuple);
            assert_eq!(tagged.valuation.get(&id), Some(&original));
        }
    }
    assert!(index.next().is_none());
    assert_eq!(tagged.valuation.len(), tagged.id_index().count());
    // The id index names exactly what the ℕ[X] route's holds.
    let named = tag_database(&db);
    let named = named.id_index().map(|(id, r, t)| (id.clone(), r, t));
    assert!(tagged.id_index().eq(named));
    circuit::check_arena_invariants();
}

#[test]
fn a_named_leaf_made_before_tagging_is_the_same_variable() {
    let _arena = exclusive();
    let db = random_db(3, 40);
    let early = Circuit::var("R_3");
    let beyond = Circuit::var("R_500");
    let tagged = tag_database_circuit(&db);
    let r = tagged.database.get("R").expect("R");
    let leaf = r
        .iter()
        .nth(3)
        .map(|(_, leaf)| *leaf)
        .expect("R has four rows");
    // Two nodes, one variable.
    assert!(!early.same_node(&leaf));
    assert_eq!(early.to_polynomial(), leaf.to_polynomial());
    assert_eq!(early, leaf);
    // Named lookup now finds the tagged leaf; names outside the range or
    // not of the indexed form keep their own leaves.
    assert!(Circuit::var("R_3").same_node(&leaf));
    assert!(Circuit::var(Variable::indexed("R", 3)).same_node(&leaf));
    assert!(Circuit::var("R_500").same_node(&beyond));
    assert!(!Circuit::var("R_03").same_node(&leaf));
    // Eval_v reads names: the tagged valuation's column, a valuation by
    // name, and one mixing both give the two leaves one value — inside
    // products and sums too.
    let other = Circuit::var("S_1");
    let shapes = |x: Circuit| [x, x.times(&other), x.plus(&other).times(&x)];
    let by_name = Valuation::from_pairs([("R_3", nat(7)), ("S_1", nat(2)), ("R_500", nat(5))]);
    let mut mixed = tagged.valuation.clone();
    mixed.assign(Variable::new("R_500"), nat(11));
    for valuation in [&tagged.valuation, &by_name, &mixed] {
        let (early, tagged) = (shapes(early), shapes(leaf));
        assert_eq!(
            CircuitEval::new(valuation).eval_all(&early),
            CircuitEval::new(valuation).eval_all(&tagged)
        );
        for (circuit, lowered) in early.iter().zip(&tagged) {
            let value = circuit.eval(valuation);
            assert_eq!(value, circuit.to_polynomial().eval(valuation));
            assert_eq!(value, lowered.to_polynomial().eval(valuation));
        }
    }
    assert_eq!(beyond.eval(&mixed), nat(11));
    assert_eq!(leaf.eval(&by_name), nat(7));
    circuit::check_arena_invariants();
}

#[test]
fn tagging_a_relation_again_yields_the_same_leaves() {
    let _arena = exclusive();
    let small = random_db(5, 20);
    let large = random_db(6, 60);
    let first = tag_database_circuit(&small);
    let nodes = circuit::arena_node_count();
    let again = tag_database_circuit(&small);
    assert_eq!(circuit::arena_node_count(), nodes, "re-tagging made nodes");
    let leaves = |tagged: &CircuitTagged<Natural>, name: &str| -> Vec<Circuit> {
        let relation = tagged.database.get(name).expect("tagged");
        relation.iter().map(|(_, leaf)| *leaf).collect()
    };
    for name in ["R", "S", "t_x"] {
        let (a, b) = (leaves(&first, name), leaves(&again, name));
        assert!(a.iter().zip(&b).all(|(a, b)| a.same_node(b)), "{name}");
        // A longer relation keeps the leaves it shares and extends them.
        let longer = tag_database_circuit(&large);
        let c = leaves(&longer, name);
        assert!(c.len() >= a.len());
        assert!(a.iter().zip(&c).all(|(a, c)| a.same_node(c)), "{name}");
        let names: Vec<String> = c.iter().map(|leaf| format!("{leaf:?}")).collect();
        let expected: Vec<String> = (0..c.len()).map(|i| format!("{name}_{i}")).collect();
        assert_eq!(names, expected);
        assert_eq!(Circuit::indexed_vars(name, c.len()).len(), c.len());
    }
    assert!(leaves(&first, "R").len() < large.get("R").expect("R").len());
    // Fresh leaves only for the rows past the small relations.
    let rows = |db: &Database<Natural>| db.iter().map(|(_, r)| r.len()).sum::<usize>();
    assert_eq!(
        circuit::arena_node_count(),
        nodes + rows(&large) - rows(&small)
    );
    circuit::check_arena_invariants();
}

#[test]
fn vacuum_empties_the_range_table_and_stales_old_handles() {
    let _arena = exclusive();
    let db = random_db(9, 40);
    let old = tag_database_circuit(&db);
    let old_leaf = *old
        .database
        .get("R")
        .expect("R")
        .iter()
        .next()
        .expect("a row")
        .1;
    let named = Circuit::var("R_1");
    circuit::vacuum();
    assert_eq!(circuit::arena_node_count(), 2);
    assert_eq!(circuit::check_arena_invariants(), 2);
    // `R_1` is no range's any more: a fresh named leaf, right above the
    // constants.
    let fresh = Circuit::var("R_1");
    assert_eq!(fresh.node_id(), 2);
    let retagged = tag_database_circuit(&db);
    let first = retagged.database.iter().next().expect("a relation").1;
    assert_eq!(first.iter().next().expect("a row").1.node_id(), 3);
    let r_1 = *retagged
        .database
        .get("R")
        .expect("R")
        .iter()
        .nth(1)
        .expect("two rows")
        .1;
    assert!(Circuit::var("R_1").same_node(&r_1));
    for stale in [old_leaf, named] {
        let err = std::panic::catch_unwind(|| stale.to_polynomial())
            .expect_err("a handle from before the vacuum is stale");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("stale circuit handle"), "{message}");
    }
    circuit::check_arena_invariants();
}

#[test]
fn the_arena_holds_the_same_node_ids_at_every_thread_budget() {
    let _arena = exclusive();
    let db = random_db(11, 200);
    let mut runs = Vec::new();
    for threads in [1, 2, 4] {
        circuit::vacuum();
        let tagged = tag_database_circuit(&db);
        let leaves: Vec<usize> = (tagged.database.iter())
            .flat_map(|(_, relation)| relation.iter().map(|(_, leaf)| leaf.node_id()))
            .collect();
        // A join whose output is not summed interns its products one
        // partition at a time, so which of its tuples gets which id depends
        // on the partitioning; the nodes are the same.
        let ids: Vec<Vec<usize>> = queries()
            .iter()
            .enumerate()
            .map(|(i, query)| {
                let result = circuit_result(query, &tagged, threads);
                let mut ids: Vec<usize> = result.iter().map(|(_, c)| c.node_id()).collect();
                if i == UNSUMMED_JOIN {
                    ids.sort_unstable();
                }
                ids
            })
            .collect();
        runs.push((leaves, ids, circuit::check_arena_invariants()));
    }
    assert_eq!(runs[0], runs[1], "1 and 2 threads");
    assert_eq!(runs[0], runs[2], "1 and 4 threads");
}
