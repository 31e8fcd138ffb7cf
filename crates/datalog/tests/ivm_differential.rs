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
use provsem_core::Value;
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
        assert!(view2.converged() && view4.converged());
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

/// A fact whose numeric arguments are integer constants and whose others
/// are strings.
fn fact(predicate: &str, args: &[&str]) -> Fact {
    let value = |a: &&str| a.parse::<i64>().map_or_else(|_| Value::str(a), Value::Int);
    Fact::new(predicate, args.iter().map(value).collect::<Vec<_>>())
}

/// A ℤ fact store: each entry adds its weight (negative: deletes).
fn z_store(entries: &[(&str, &[&str], i64)]) -> FactStore<Integers> {
    let mut store = FactStore::new();
    for (predicate, args, w) in entries {
        store.insert(fact(predicate, args), Integers::new(*w));
    }
    store
}

/// Runs the fixed cases through the differential contract: materialized
/// over `edb`, maintained at 1, 2 and 4 threads batch by batch, compared
/// with `kleene_iterate` and the updated edb after every batch.
fn check_fixed(program: &str, edb: &[(&str, &[&str], i64)], batches: &[&[(&str, &[&str], i64)]]) {
    let program = parse_program(program).unwrap();
    let batches: Vec<_> = batches.iter().map(|b| z_store(b)).collect();
    check_maintain_agreement(&program, &z_store(edb), &batches);
}

/// Constants in a rule body (`'c'`, `'d'`) and in a head (`'hub'`, `7`):
/// deltas must match the compiled constant ids, and heads must carry them.
#[test]
fn constants_in_bodies_and_heads_are_maintained() {
    check_fixed(
        "Q(x, y) :- R(x, y).\n\
         Q(x, z) :- Q(x, y), R(y, z).\n\
         Hub(x) :- Q(x, 'c').\n\
         Pair('hub', x, 7) :- Hub(x), R(x, 'd').",
        &[
            ("R", &["a", "b"], 1),
            ("R", &["b", "c"], 1),
            ("R", &["c", "d"], 2),
            ("R", &["e", "c"], 1),
            ("R", &["a", "d"], 1),
        ],
        &[
            &[("R", &["b", "c"], -1)],
            &[("R", &["b", "c"], 1), ("R", &["b", "d"], 3)],
            &[("R", &["e", "c"], -1), ("R", &["a", "d"], -1)],
        ],
    );
}

/// Deltas on base predicates no rule reads — an unread name, and a read
/// name at an unread arity — change the edb and nothing else, in batches of
/// their own and beside a delta the rules do read.
#[test]
fn deltas_no_rule_reads_only_change_the_edb() {
    check_fixed(
        "Q(x, y) :- R(x, y).\nQ(x, z) :- Q(x, y), R(y, z).",
        &[
            ("R", &["a", "b"], 1),
            ("R", &["b", "c"], 1),
            ("Log", &["a"], 1),
        ],
        &[
            &[("Log", &["z"], 1), ("Log", &["a"], -1)],
            &[("R", &["a", "b", "c"], 2)],
            &[
                ("R", &["c", "d"], 1),
                ("Log", &["q"], 4),
                ("R", &["x", "y", "z"], 1),
            ],
            &[("R", &["a", "b", "c"], -2)],
        ],
    );
}

/// Deltas that bring constants no earlier fact or rule mentions, strings
/// and integers, so the interner grows while the view lives — then delete
/// and re-add them.
#[test]
fn deltas_with_unseen_constants_grow_the_interner() {
    check_fixed(
        "Q(x, y) :- R(x, y).\n\
         Q(x, z) :- Q(x, y), R(y, z).\n\
         Ends(x) :- Q('a', x).",
        &[("R", &["a", "b"], 1), ("R", &["b", "c"], 1)],
        &[
            &[("R", &["c", "new1"], 1), ("R", &["new1", "99"], 2)],
            &[("R", &["99", "new2"], 1), ("R", &["new3", "a"], 1)],
            &[("R", &["c", "new1"], -1), ("R", &["new3", "a"], -1)],
            &[("R", &["c", "new1"], 1), ("R", &["new4", "new5"], 1)],
        ],
    );
}

/// One predicate name at two arities, edb (`R/1`, `R/2`) and idb (`P/1`,
/// `P/2`): separate tables, each maintained from its own rows.
#[test]
fn a_predicate_at_two_arities_is_two_relations() {
    check_fixed(
        "P(x) :- R(x, y).\n\
         P(x, z) :- R(x, y), R(y, z).\n\
         S(x) :- R(x), P(x, y).\n\
         T(x) :- P(x), R(x).",
        &[
            ("R", &["a", "b"], 1),
            ("R", &["b", "c"], 1),
            ("R", &["a"], 1),
            ("R", &["b"], 2),
        ],
        &[
            &[("R", &["a"], -1), ("R", &["c"], 1)],
            &[("R", &["c", "a"], 1), ("R", &["a", "b"], -1)],
            &[("R", &["a"], 1), ("R", &["b"], -2), ("R", &["a", "b"], 1)],
        ],
    );
}

/// A delete leaves the edb row and the idb rows it supported in their
/// tables at zero (tombstones); the next batch revives them in the same
/// closure that tombstones others, and a third revives those.
#[test]
fn tombstoned_rows_revive_inside_one_closure() {
    check_fixed(
        "Q(x, y) :- R(x, y).\nQ(x, z) :- Q(x, y), R(y, z).",
        &[
            ("R", &["a", "b"], 1),
            ("R", &["b", "c"], 2),
            ("R", &["c", "d"], 1),
        ],
        &[
            &[("R", &["b", "c"], -2)],
            &[("R", &["b", "c"], 2), ("R", &["c", "d"], -1)],
            &[("R", &["c", "d"], 1)],
            &[
                ("R", &["b", "c"], -2),
                ("R", &["b", "c2"], 1),
                ("R", &["c2", "c"], 2),
            ],
        ],
    );
}

/// Linear transitive closure over a 12 × 64 layered DAG (each node has two
/// random out-edges into the next layer: ≈ 1 400 edges, ≈ 80 000 idb facts).
/// One first-layer and one last-layer edge are inserted and deleted again;
/// after every step the view equals `seminaive_iterate` on the updated edb,
/// and after each pair the materialized result. Release builds only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn layered_dag_edges_are_maintained_at_scale() {
    const LAYERS: usize = 12;
    const WIDTH: usize = 64;
    let node = |l: usize, i: usize| format!("l{l}_{i}");
    // SplitMix64, so the instance is fixed.
    let mut state = 0u64;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut edb = FactStore::new();
    for l in 0..LAYERS - 1 {
        for i in 0..WIDTH {
            for _ in 0..2 {
                let j = (next() % WIDTH as u64) as usize;
                edb.set(
                    Fact::new("R", [node(l, i), node(l + 1, j)]),
                    Integers::new(1),
                );
            }
        }
    }
    let program = Program::linear_transitive_closure("R", "Q");
    let mut view = materialize_fixpoint(&program, &edb, 64);
    let materialized = view.result().clone();
    assert!(view.converged() && materialized.len() > 50_000);
    for layer in [0, LAYERS - 2] {
        let edge = (0..WIDTH)
            .map(|j| Fact::new("R", [node(layer, 0), node(layer + 1, j)]))
            .find(|f| !edb.contains(f))
            .expect("a node without an edge to every node of the next layer");
        for w in [1, -1] {
            let mut delta = FactStore::new();
            delta.insert(edge.clone(), Integers::new(w));
            maintain_fixpoint(&mut view, &delta);
            let scratch = seminaive_iterate(&program, view.edb(), 64);
            assert!(view.converged() && scratch.converged);
            assert_eq!(view.result(), &scratch.idb, "layer {layer}, weight {w}");
        }
        assert_eq!(view.edb(), &edb);
        assert_eq!(view.result(), &materialized, "layer {layer}");
    }
}

/// Churn through constants no batch reuses: each pair of batches hangs two
/// fresh edges off a chain and deletes them again. The tables drop their
/// zero rows whenever they have doubled, many times over here; every view
/// must still agree with `kleene_iterate` after every batch.
#[test]
fn churn_through_fresh_constants_compacts_the_tables() {
    let store = |rows: &[[String; 2]], w: i64| {
        let mut store = FactStore::new();
        for [src, dst] in rows {
            store.insert(Fact::new("R", [src.as_str(), dst]), Integers::new(w));
        }
        store
    };
    let node = |k: usize| format!("a{k}");
    let chain: Vec<[String; 2]> = (0..9).map(|k| [node(k), node(k + 1)]).collect();
    let mut batches = Vec::new();
    for k in 0..30 {
        let (f, g) = (format!("f{k}"), format!("g{k}"));
        let edges = [[node(k % 10), f.clone()], [f, g]];
        let w = 1 + k as i64 % 2;
        batches.push(store(&edges, w));
        batches.push(store(&edges, -w));
    }
    let program = Program::linear_transitive_closure("R", "Q");
    check_maintain_agreement(&program, &store(&chain, 1), &batches);
}
