//! Differential test: maintained datalog fixpoints equal recomputation.
//!
//! Random recursive programs over random edge databases are materialized
//! with [`materialize_fixpoint`] and then hit with random insert/delete
//! batches; after every batch the maintained view must equal a from-scratch
//! [`kleene_iterate`] over the updated edb — support *and* annotations.
//! Deletion batches deliberately break derivations (deleting a fact's only
//! support must remove it; deleting one of several must keep it with the
//! reduced annotation), pinning the absence of over-retention. Every case
//! runs the maintenance on the calling thread ([`maintain_fixpoint`]) and at
//! 2 and 4 threads ([`maintain_fixpoint_with`]); the views must agree
//! exactly.
//!
//! Semiring choice: ℤ path-counting diverges on cyclic instances, so the
//! random ℤ cases use the *linear* transitive-closure shape over DAG edges
//! (node indices only increase), while the idempotent 𝔹/lattice cases roam
//! freely over cyclic graphs and nonlinear rules.

use proptest::prelude::*;
use provsem_core::plan::ExecContext;
use provsem_datalog::prelude::*;
use provsem_semiring::{Bool, Integers, Ring, Semiring, Tropical};

const CASES: u32 = 64;

/// A raw edge draw: `(src node, dst node, weight)`. Node ids are folded
/// into a small domain; for DAG instances the edge is oriented low → high.
type RawEdge = (u8, u8, u8);

fn node(n: u8, domain: u8) -> String {
    format!("n{}", n % domain)
}

/// Edges as facts, oriented src < dst (a DAG, so ℤ path counting converges).
fn dag_edges(edges: &[RawEdge], domain: u8) -> Vec<(String, String, u8)> {
    edges
        .iter()
        .filter_map(|(a, b, w)| {
            let (a, b) = (a % domain, b % domain);
            match a.cmp(&b) {
                std::cmp::Ordering::Less => Some((node(a, domain), node(b, domain), *w)),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some((node(b, domain), node(a, domain), *w)),
            }
        })
        .collect()
}

fn store<K: Semiring>(edges: &[(String, String, u8)], annotate: impl Fn(u8) -> K) -> FactStore<K> {
    let mut edb = FactStore::new();
    for (a, b, w) in edges {
        edb.insert(Fact::new("R", [a.as_str(), b.as_str()]), annotate(*w));
    }
    edb
}

/// The recursive program shapes the random cases draw from. All define `Q`
/// from edb `R`; `two_hop` adds a second stratum `P` consuming `Q`.
fn program(shape: u8, nonlinear_ok: bool) -> Program {
    match shape % if nonlinear_ok { 4 } else { 2 } {
        0 => Program::linear_transitive_closure("R", "Q"),
        1 => parse_program(
            "Q(x, y) :- R(x, y).\nQ(x, z) :- Q(x, y), R(y, z).\nP(x) :- Q(x, y), R(y, x2).",
        )
        .unwrap(),
        2 => Program::transitive_closure("R", "Q"),
        _ => {
            parse_program("Q(x, y) :- R(x, y).\nQ(x, y) :- Q(y, x).\nQ(x, z) :- Q(x, y), Q(y, z).")
                .unwrap()
        }
    }
}

/// The differential contract for one case: the maintained view (calling
/// thread, 2 and 4 threads) equals from-scratch naive evaluation after
/// every batch.
fn check_maintain_agreement<K: Semiring + Send + Sync>(
    program: &Program,
    edb: &FactStore<K>,
    batches: &[FactStore<K>],
) {
    let mut view = materialize_fixpoint(program, edb, 64);
    let mut view2 = materialize_fixpoint(program, edb, 64);
    let mut view4 = materialize_fixpoint(program, edb, 64);
    let mut current = edb.clone();
    assert!(view.converged(), "materialization did not converge");
    for batch in batches {
        maintain_fixpoint(&mut view, batch);
        maintain_fixpoint_with(&mut view2, batch, &ExecContext::with_threads(2));
        maintain_fixpoint_with(&mut view4, batch, &ExecContext::with_threads(4));
        for (fact, k) in batch.facts() {
            current.insert(fact, k.clone());
        }
        let scratch = kleene_iterate(program, &current, 64);
        assert!(view.converged() && scratch.converged, "non-convergence");
        assert_eq!(
            view.result(),
            &scratch.idb,
            "maintained view != from-scratch fixpoint"
        );
        assert_eq!(view2.result(), view.result(), "2-thread maintained view");
        assert_eq!(view4.result(), view.result(), "4-thread maintained view");
        assert_eq!(view.edb(), &current, "maintained edb drifted");
    }
}

/// Splits raw ops into batches of ≤4: delete-biased kinds cancel the i-th
/// *current* edb fact exactly (wrapping), the rest insert fresh DAG edges.
/// The evolving edb is tracked op by op, so deletions always hit real facts
/// with their full current annotation — genuinely breaking derivations.
fn ring_batches<K: Semiring + Ring>(
    edb: &FactStore<K>,
    ops: &[(u8, RawEdge)],
    domain: u8,
) -> Vec<FactStore<K>> {
    let mut current = edb.clone();
    let mut batches = Vec::new();
    for chunk in ops.chunks(4) {
        let mut batch: FactStore<K> = FactStore::new();
        for (kind, edge) in chunk {
            let existing: Vec<(Fact, K)> = current.facts().map(|(f, k)| (f, k.clone())).collect();
            if kind % 8 < 3 && !existing.is_empty() {
                // Delete: full cancellation of one current fact.
                let (fact, k) = &existing[edge.0 as usize % existing.len()];
                batch.insert(fact.clone(), k.neg());
                current.insert(fact.clone(), k.neg());
            } else {
                for (a, b, w) in dag_edges(&[*edge], domain) {
                    let k = K::one().repeat(1 + u64::from(w % 3));
                    batch.insert(Fact::new("R", [a.as_str(), b.as_str()]), k.clone());
                    current.insert(Fact::new("R", [a.as_str(), b.as_str()]), k);
                }
            }
        }
        batches.push(batch);
    }
    batches
}

fn arb_edges() -> impl Strategy<Value = Vec<RawEdge>> {
    prop::collection::vec((0u8..8, 0u8..8, 0u8..3), 0..10)
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, RawEdge)>> {
    prop::collection::vec((0u8..=255, (0u8..8, 0u8..8, 0u8..3)), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// ℤ path counting on DAGs: linear-recursive programs, exact counts,
    /// deletions as additive inverses.
    #[test]
    fn integers_dag_maintain_agreement(
        shape in 0u8..2, edges in arb_edges(), ops in arb_ops()
    ) {
        let program = program(shape, false);
        let edb = store(&dag_edges(&edges, 6), |w| Integers::new(1 + i64::from(w % 3)));
        let batches = ring_batches(&edb, &ops, 6);
        check_maintain_agreement(&program, &edb, &batches);
    }

    /// 𝔹 over arbitrary (cyclic) graphs and nonlinear/recursive shapes:
    /// deletions must retract facts whose every derivation is broken, even
    /// through cycles (the classic DRed counterexample territory).
    #[test]
    fn boolean_cyclic_maintain_agreement(
        shape in 0u8..4, edges in arb_edges(), ops in arb_ops()
    ) {
        let program = program(shape, true);
        let edges: Vec<_> = edges
            .iter()
            .map(|(a, b, _)| (node(*a, 5), node(*b, 5), 0u8))
            .collect();
        let edb = store(&edges, |_| Bool::from(true));
        let batches = insert_batches_bool(&ops);
        check_maintain_agreement(&program, &edb, &batches);
    }

    /// Tropical shortest paths: deletions can *lengthen* the optimum, which
    /// pure increment-merging maintenance gets wrong — rederivation must
    /// find the new optimum.
    #[test]
    fn tropical_maintain_agreement(edges in arb_edges(), ops in arb_ops()) {
        let program = Program::linear_transitive_closure("R", "Q");
        let edges: Vec<_> = edges
            .iter()
            .map(|(a, b, w)| (node(*a, 5), node(*b, 5), *w))
            .collect();
        let edb = store(&edges, |w| Tropical::cost(u64::from(w)));
        let mut current = edb.clone();
        let mut batches = Vec::new();
        for chunk in ops.chunks(4) {
            let mut batch: FactStore<Tropical> = FactStore::new();
            for (kind, edge) in chunk {
                let existing: Vec<Fact> = current.facts().map(|(f, _)| f).collect();
                // The tropical semiring has no additive inverses, so the
                // batches are insert-only: either a cheaper parallel route
                // for an existing edge (tropical `+` is min) or a fresh
                // edge. Optima still shift through the whole closure.
                let (fact, k) = if kind % 2 == 0 && !existing.is_empty() {
                    let fact = existing[edge.0 as usize % existing.len()].clone();
                    (fact, Tropical::cost(0))
                } else {
                    (
                        Fact::new("R", [node(edge.0, 5), node(edge.1, 5)]),
                        Tropical::cost(u64::from(edge.2)),
                    )
                };
                batch.insert(fact.clone(), k);
                current.insert(fact, k);
            }
            batches.push(batch);
        }
        check_maintain_agreement(&program, &edb, &batches);
    }
}

/// 𝔹 has no additive inverses, so the cyclic stress batches are
/// insert-only (every delete draw becomes another edge insert); true
/// deletions — the ring-only capability — are exercised by the ℤ suite and
/// the explicit unit tests below.
fn insert_batches_bool(ops: &[(u8, RawEdge)]) -> Vec<FactStore<Bool>> {
    ops.chunks(4)
        .map(|chunk| {
            let mut batch = FactStore::new();
            for (_, edge) in chunk {
                batch.insert(
                    Fact::new("R", [node(edge.0, 5), node(edge.1, 5)]),
                    Bool::from(true),
                );
            }
            batch
        })
        .collect()
}

/// Deletions that break derivations through a *shared* subgoal: the classic
/// over-retention trap. `Q(a,c)` is derivable through `b1` and `b2`;
/// deleting the `b1` route must keep it, deleting both must remove it —
/// and the intermediate `Q(a,b1)` must go the moment its only support does.
#[test]
fn shared_subgoal_deletions_do_not_over_retain() {
    let program = Program::linear_transitive_closure("R", "Q");
    let edb = edge_facts(
        "R",
        &[
            ("a", "b1", Integers::new(1)),
            ("a", "b2", Integers::new(1)),
            ("b1", "c", Integers::new(1)),
            ("b2", "c", Integers::new(1)),
            ("c", "d", Integers::new(1)),
        ],
    );
    let mut view = materialize_fixpoint(&program, &edb, 64);
    assert_eq!(
        view.result().annotation(&Fact::new("Q", ["a", "d"])),
        Integers::new(2)
    );

    let mut delta = FactStore::new();
    delta.insert(Fact::new("R", ["a", "b1"]), Integers::new(1).neg());
    maintain_fixpoint(&mut view, &delta);
    assert!(!view.result().contains(&Fact::new("Q", ["a", "b1"])));
    assert_eq!(
        view.result().annotation(&Fact::new("Q", ["a", "d"])),
        Integers::new(1),
        "one route through b2 must survive"
    );

    let mut delta = FactStore::new();
    delta.insert(Fact::new("R", ["a", "b2"]), Integers::new(1).neg());
    maintain_fixpoint(&mut view, &delta);
    for gone in [["a", "b2"], ["a", "c"], ["a", "d"]] {
        assert!(
            !view.result().contains(&Fact::new("Q", gone)),
            "over-retained Q({gone:?})"
        );
    }
    assert_eq!(
        view.result().annotation(&Fact::new("Q", ["b1", "d"])),
        Integers::new(1),
        "paths not through the deleted edges must be untouched"
    );
    assert!(view.converged());
}

/// A delete immediately un-done by a re-insert in a later batch must restore
/// the original fixpoint exactly (state round-trip).
#[test]
fn delete_then_reinsert_round_trips() {
    let program = Program::linear_transitive_closure("R", "Q");
    let edb = edge_facts(
        "R",
        &[("a", "b", Integers::new(2)), ("b", "c", Integers::new(3))],
    );
    let mut view = materialize_fixpoint(&program, &edb, 64);
    let original = view.result().clone();

    let mut delete = FactStore::new();
    delete.insert(Fact::new("R", ["b", "c"]), Integers::new(3).neg());
    maintain_fixpoint(&mut view, &delete);
    assert!(!view.result().contains(&Fact::new("Q", ["a", "c"])));

    let mut reinsert = FactStore::new();
    reinsert.insert(Fact::new("R", ["b", "c"]), Integers::new(3));
    maintain_fixpoint(&mut view, &reinsert);
    assert_eq!(view.result(), &original);
    assert_eq!(view.edb(), &edb);
}
