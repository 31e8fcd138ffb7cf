//! Differential test: the numbered instantiation ([`Grounding`]) and the
//! exact ℕ∞ evaluation read from its blocks, against brute force.
//!
//! * The compiled engine's instantiation equals the Kleene oracle's, which
//!   grounds by scanning (`naive::instantiate_by_scanning`): the same
//!   derivable facts and the same ground rules — rule index, head and body
//!   order.
//! * `evaluate_natinf` gives a fact a finite value exactly when the Kleene
//!   iteration has stopped moving on it and is not ∞: with n derivable idb
//!   facts and B = 4(n + 1), `kleene_iterate` at rounds B and 2B agree on it.
//!   A fact that reaches a cycle has a derivation tree of every depth range
//!   of length ≥ 3n + 3, so its Kleene value still grows between B and 2B
//!   (or has saturated to ∞); every other fact is fixed after n rounds. A
//!   finite value must equal the Kleene value.
//! * The blocks are the strongly connected components of the idb graph in
//!   dependency order: every idb body fact lies in its head's block or an
//!   earlier one, two facts share a block iff each reaches the other, a
//!   block is `cyclic` iff some member reaches itself, and
//!   `blocks_reaching` marks exactly the blocks with a member that reaches
//!   a fact on a cycle — all checked against reachability computed by
//!   depth-first search from every fact.
//!
//! All three run on `common`'s random programs and edbs, and again on the same
//! programs given base rules for `P` and `Q` over denser edbs — most bare
//! random programs derive nothing, the seeded ones reach cycles in about half
//! of the cases. A release-only scale case runs the exact evaluation on a
//! 6 × 24 layered DAG and compares it with the compiled semi-naive loop.

mod common;

use common::{arb_edb, arb_program, build_edb, build_program, RawFact};
use proptest::prelude::*;
use provsem_datalog::naive::instantiate_by_scanning;
use provsem_datalog::prelude::*;
use provsem_semiring::NatInf;

const CASES: u32 = 120;

/// `reach[u][v]`: is there a path of at least one idb edge from `u` to `v`?
/// Edges are read from the ground rules' facts, not from the grounding's ids.
fn brute_force_reachability(g: &Grounding) -> Vec<Vec<bool>> {
    let n = g.facts().len();
    let mut edges = vec![Vec::new(); n];
    for rule in g.rules() {
        let head = g.id(&rule.head).expect("head is derivable");
        for body in &rule.body {
            let b = g.id(body).expect("body fact is derivable");
            if g.is_idb(b) {
                edges[head].push(b);
            }
        }
    }
    (0..n)
        .map(|start| {
            let mut seen = vec![false; n];
            let mut stack: Vec<usize> = edges[start].clone();
            while let Some(v) = stack.pop() {
                if !std::mem::replace(&mut seen[v], true) {
                    stack.extend(&edges[v]);
                }
            }
            seen
        })
        .collect()
}

fn assert_block_invariants(program: &Program, g: &Grounding) {
    let reach = brute_force_reachability(g);
    let idb: Vec<usize> = g.idb_ids().collect();
    let mut members: Vec<usize> = g.blocks().iter().flat_map(|b| b.facts.clone()).collect();
    members.sort_unstable();
    assert_eq!(
        members, idb,
        "every idb fact in exactly one block:\n{program}"
    );
    for (index, block) in g.blocks().iter().enumerate() {
        for &f in &block.facts {
            assert_eq!(g.block_of(f), Some(index));
            for &r in g.rules_of(f) {
                assert_eq!(g.rules()[r].head, g.facts()[f]);
                for &b in g.body_ids(r).iter().filter(|&&b| g.is_idb(b)) {
                    let body_block = g.block_of(b).expect("idb fact has a block");
                    assert!(
                        body_block <= index,
                        "block {index} reads a later block:\n{program}"
                    );
                }
            }
        }
        let cyclic = block.facts.iter().any(|&f| reach[f][f]);
        assert_eq!(block.cyclic, cyclic, "block {index}:\n{program}");
    }
    for &u in &idb {
        for &v in &idb {
            let same = u == v || (reach[u][v] && reach[v][u]);
            assert_eq!(g.block_of(u) == g.block_of(v), same, "{u} {v}:\n{program}");
        }
    }
    // A block reaches a cyclic block iff one of its facts is on a cycle or
    // reaches a fact that is.
    let reaches_cycle = g.blocks_reaching(|_, block| block.cyclic);
    for (index, block) in g.blocks().iter().enumerate() {
        let on_cycle = |f: usize| reach[f][f];
        let brute = (block.facts.iter())
            .any(|&f| on_cycle(f) || idb.iter().any(|&v| reach[f][v] && on_cycle(v)));
        assert_eq!(reaches_cycle[index], brute, "block {index}:\n{program}");
    }
}

fn assert_natinf_matches_kleene(program: &Program, edb: &FactStore<NatInf>, g: &Grounding) {
    let bound = 4 * (g.idb_ids().count() + 1);
    let early = kleene_iterate_grounded(program, g, edb, bound).idb;
    let late = kleene_iterate_grounded(program, g, edb, 2 * bound).idb;
    let exact = evaluate_natinf(program, edb);
    let support: Vec<Fact> = g.idb_ids().map(|f| g.facts()[f].clone()).collect();
    assert_eq!(exact.len(), support.len(), "{program}");
    assert_eq!(late.len(), support.len(), "{program}");
    for fact in &support {
        let (value, before, after) = (
            exact.annotation(fact),
            early.annotation(fact),
            late.annotation(fact),
        );
        let settled = before == after && !after.is_infinite();
        assert_eq!(
            !value.is_infinite(),
            settled,
            "{fact}: {value:?} vs Kleene {before:?} → {after:?}\n{program}"
        );
        if settled {
            assert_eq!(value, after, "{fact}:\n{program}");
        }
    }
}

/// Like [`arb_edb`], but 8–20 facts over three nodes, so that random rule
/// bodies join and recursive programs reach cycles.
fn dense_edb() -> impl Strategy<Value = Vec<RawFact>> {
    prop::collection::vec((0u8..2, 0u8..3, 0u8..3, 1u64..4), 8..21)
}

/// The grounding's facts and rules against the oracle's instantiation: its
/// facts are the edb facts of edb predicates and the heads of its rules.
fn assert_instantiations_agree(program: &Program, edb: &FactStore<NatInf>, g: &Grounding) {
    let scanned = instantiate_by_scanning(program, edb);
    assert_eq!(g.rules(), scanned.as_slice(), "{program}");
    let idb = program.idb_predicates();
    let mut facts: Vec<Fact> = (edb.facts().map(|(f, _)| f))
        .filter(|f| !idb.contains(&f.predicate))
        .chain(scanned.into_iter().map(|r| r.head))
        .collect();
    facts.sort();
    facts.dedup();
    assert_eq!(g.facts(), facts.as_slice(), "{program}");
}

/// Checks every property on one case. With `seeded`, the program also gets
/// the base rules `P(x, y) :- R(x, y)` and `Q(x, y) :- S(x, y)`, so its
/// random rules have idb facts to recurse on.
fn check(raw_program: &[common::RawRule], raw_edb: &[RawFact], seeded: bool) {
    let mut program = build_program(raw_program);
    if seeded {
        let base = parse_program("P(x, y) :- R(x, y).\nQ(x, y) :- S(x, y).").unwrap();
        program = Program::new(base.rules.into_iter().chain(program.rules).collect());
    }
    let edb = build_edb(raw_edb, |_, w| NatInf::Fin(w));
    let g = Grounding::new(&program, &edb);
    assert_instantiations_agree(&program, &edb, &g);
    assert_block_invariants(&program, &g);
    assert_natinf_matches_kleene(&program, &edb, &g);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn natinf_and_blocks_agree_with_brute_force(raw_program in arb_program(), raw_edb in arb_edb()) {
        check(&raw_program, &raw_edb, false);
    }

    #[test]
    fn natinf_and_blocks_agree_on_seeded_programs_over_dense_edbs(
        raw_program in arb_program(),
        raw_edb in dense_edb(),
    ) {
        check(&raw_program, &raw_edb, true);
    }
}

/// A `layers × width` layered DAG `R`: each node links to about half of the
/// next layer, chosen by the top bit of a multiplicative hash of the edge.
fn layered_dag(layers: usize, width: usize) -> FactStore<NatInf> {
    let mut store = FactStore::new();
    for layer in 0..layers - 1 {
        for i in 0..width {
            for j in 0..width {
                let edge = ((layer * width + i) * width + j) as u64 + 1;
                if edge.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1 {
                    store.insert(
                        Fact::new(
                            "R",
                            [format!("l{layer}_{i}"), format!("l{}_{j}", layer + 1)],
                        ),
                        NatInf::Fin(1),
                    );
                }
            }
        }
    }
    store
}

/// Linear TC over a 6 × 24 layered DAG: thousands of facts, tens of
/// thousands of ground rules. Optimized builds only (CI's release
/// `provsem-datalog` step runs it); there is no timing assertion.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn natinf_on_a_six_by_twenty_four_dag_matches_the_compiled_loop() {
    let program = Program::linear_transitive_closure("R", "Q");
    let edb = layered_dag(6, 24);
    let compiled = seminaive_iterate(&program, &edb, 256);
    assert!(compiled.converged);
    assert!(compiled.idb.len() > 5_000, "{}", compiled.idb.len());
    assert_eq!(evaluate_natinf(&program, &edb), compiled.idb);
}
