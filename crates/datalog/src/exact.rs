//! Exact datalog evaluation over ℕ∞ (bag semantics with infinite
//! multiplicities) and over distributive lattices.
//!
//! The Kleene iteration of [`crate::naive`] does not terminate when some
//! tuple has infinitely many derivation trees (the paper's Figure 7: `u`,
//! `v`, `w` "grow unboundedly"). Section 7 shows how unbounded growth can be
//! detected; this module implements the detection analytically, in one pass
//! over the blocks of the instantiation ([`crate::grounding::Grounding`]):
//!
//! * a derivable idb fact has infinitely many derivation trees **iff** it can
//!   reach a cycle of the instantiation's dependency graph — its block is
//!   cyclic, or one of its rules reads such a fact;
//! * such facts get annotation ∞ (their sum of infinitely many ≥ 1 products
//!   is ∞ in ℕ∞);
//! * every other block is a single fact whose exact multiplicity is the sum
//!   of its rules' products over facts of earlier blocks.
//!
//! For K a distributive lattice (Section 8) no ∞ handling is needed: the
//! Kleene iteration itself converges, and [`evaluate_lattice`] simply runs it
//! to the fixed point.

use crate::ast::Program;
use crate::fact::FactStore;
use crate::grounding::Grounding;
use provsem_semiring::{DistributiveLattice, NatInf, Semiring};

/// Exact datalog evaluation over ℕ∞ (Definition 5.1 / Theorem 5.6 semantics
/// with bag multiplicities).
pub fn evaluate_natinf(program: &Program, edb: &FactStore<NatInf>) -> FactStore<NatInf> {
    let g = Grounding::new(program, edb);
    let infinite = g.blocks_reaching(|_, block| block.cyclic);
    // Per fact id: the edb annotation; an idb fact's value is set when its
    // block is done, before any later block reads it.
    let mut value: Vec<NatInf> = g.facts().iter().map(|f| edb.annotation(f)).collect();
    let mut result: FactStore<NatInf> = FactStore::new();
    for (block, &infinite) in g.blocks().iter().zip(&infinite) {
        for &f in &block.facts {
            // Infinitely many derivation trees, each with a non-zero (≥ 1)
            // product: the countable sum is ∞. Otherwise `f` is alone in its
            // block and its rules read only earlier blocks.
            value[f] = if infinite {
                NatInf::Inf
            } else {
                g.rules_of(f).iter().fold(NatInf::Fin(0), |total, &r| {
                    let product = g
                        .body_ids(r)
                        .iter()
                        .fold(NatInf::Fin(1), |p, &b| p.times(&value[b]));
                    total.plus(&product)
                })
            };
            result.set(g.facts()[f].clone(), value[f]);
        }
    }
    result
}

/// Datalog evaluation for a distributive lattice K (Section 8 of the paper):
/// the Kleene iteration converges, and we run it until it does.
///
/// Lattice `+` is idempotent, so this runs the semi-naive delta rewrite
/// ([`crate::seminaive::seminaive_idempotent`]) — exact for this class, and
/// it skips both the up-front grounding and the per-round re-derivations of
/// the naive loop.
///
/// `max_rounds` is a safety bound (the number of *distinct annotation values*
/// reachable is finite for the lattices used in practice — PosBool over the
/// input variables, P(Ω), 𝔹, fuzzy over the input values — so convergence is
/// guaranteed well before any reasonable bound). Returns `None` only if the
/// bound is exceeded.
pub fn evaluate_lattice<K: DistributiveLattice>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
) -> Option<FactStore<K>> {
    let result = crate::seminaive::seminaive_idempotent(program, edb, max_rounds);
    if result.converged {
        Some(result.idb)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::{edge_facts, Fact};
    use provsem_semiring::{Bool, Event, PosBool, Semiring};
    use std::collections::BTreeSet;

    fn figure7_edb() -> FactStore<NatInf> {
        edge_facts(
            "R",
            &[
                ("a", "b", NatInf::Fin(2)),
                ("a", "c", NatInf::Fin(3)),
                ("c", "b", NatInf::Fin(2)),
                ("b", "d", NatInf::Fin(1)),
                ("d", "d", NatInf::Fin(1)),
            ],
        )
    }

    #[test]
    fn figure7_exact_ninfinity_answers() {
        // Figure 7(b): Q ⊇ {(a,b)↦8, (a,c)↦3, (c,b)↦2, (b,d)↦∞, (d,d)↦∞,
        // (a,d)↦∞}. The tuple (c,d) (reachable via c→b→d) is derivable as
        // well but omitted from the paper's figure; it gets ∞ like every
        // tuple whose derivations pass through the d→d self-loop.
        let program = Program::transitive_closure("R", "Q");
        let out = evaluate_natinf(&program, &figure7_edb());
        let q = |a: &str, b: &str| out.annotation(&Fact::new("Q", [a, b]));
        assert_eq!(q("a", "b"), NatInf::Fin(8));
        assert_eq!(q("a", "c"), NatInf::Fin(3));
        assert_eq!(q("c", "b"), NatInf::Fin(2));
        assert_eq!(q("b", "d"), NatInf::Inf);
        assert_eq!(q("d", "d"), NatInf::Inf);
        assert_eq!(q("a", "d"), NatInf::Inf);
        assert_eq!(q("c", "d"), NatInf::Inf);
        assert_eq!(out.facts_of("Q").count(), 7);
    }

    #[test]
    fn acyclic_graph_has_all_finite_multiplicities() {
        // A DAG: path counting. a→b (2 ways), b→c (3 ways), a→c direct (1).
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", NatInf::Fin(2)),
                ("b", "c", NatInf::Fin(3)),
                ("a", "c", NatInf::Fin(1)),
            ],
        );
        let out = evaluate_natinf(&program, &edb);
        // Q(a,c) = direct 1 + via b: 2·3 = 7.
        assert_eq!(out.annotation(&Fact::new("Q", ["a", "c"])), NatInf::Fin(7));
        assert_eq!(out.annotation(&Fact::new("Q", ["a", "b"])), NatInf::Fin(2));
        assert!(out.facts().all(|(_, k)| !k.is_infinite()));
    }

    #[test]
    fn exact_agrees_with_bounded_iteration_on_acyclic_instances() {
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", NatInf::Fin(1)),
                ("b", "c", NatInf::Fin(2)),
                ("c", "d", NatInf::Fin(1)),
                ("a", "d", NatInf::Fin(5)),
            ],
        );
        let exact = evaluate_natinf(&program, &edb);
        let iterated = crate::naive::kleene_iterate(&program, &edb, 32);
        assert!(iterated.converged);
        for (fact, ann) in exact.facts() {
            assert_eq!(iterated.idb.annotation(&fact), *ann, "{fact}");
        }
        assert_eq!(exact.len(), iterated.idb.len());
    }

    #[test]
    fn cycle_with_nonunit_rules_still_infinite() {
        // Two-node cycle a→b→a: every reachability fact has infinitely many
        // derivations under the quadratic TC program.
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[("a", "b", NatInf::Fin(1)), ("b", "a", NatInf::Fin(1))],
        );
        let out = evaluate_natinf(&program, &edb);
        for (fact, ann) in out.facts_of("Q") {
            assert_eq!(*ann, NatInf::Inf, "{fact}");
        }
        assert_eq!(out.facts_of("Q").count(), 4);
    }

    #[test]
    fn linear_tc_on_a_dag_counts_paths() {
        // Diamond: a→b, a→c, b→d, c→d; two paths a→d.
        let program = Program::linear_transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", NatInf::Fin(1)),
                ("a", "c", NatInf::Fin(1)),
                ("b", "d", NatInf::Fin(1)),
                ("c", "d", NatInf::Fin(1)),
            ],
        );
        let out = evaluate_natinf(&program, &edb);
        assert_eq!(out.annotation(&Fact::new("Q", ["a", "d"])), NatInf::Fin(2));
    }

    #[test]
    fn sanity_check_prop54_boolean_support() {
        // Proposition 5.4: the 𝔹 answer's support equals the standard datalog
        // answer — and also equals the support of the ℕ∞ answer.
        let program = Program::transitive_closure("R", "Q");
        let edb_nat = figure7_edb();
        let edb_bool = edb_nat.map_annotations(|k| Bool::from(!k.is_zero()));
        let bool_out = evaluate_lattice(&program, &edb_bool, 64).unwrap();
        let nat_out = evaluate_natinf(&program, &edb_nat);
        let bool_support: BTreeSet<Fact> = bool_out.facts().map(|(f, _)| f).collect();
        let nat_support: BTreeSet<Fact> = nat_out.facts().map(|(f, _)| f).collect();
        assert_eq!(bool_support, nat_support);
    }

    #[test]
    fn lattice_evaluation_on_ctables_transitive_closure() {
        // Datalog on boolean c-tables (Section 8: "This is new for incomplete
        // databases"): a cyclic graph whose edges are optional.
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", PosBool::var("e1")),
                ("b", "a", PosBool::var("e2")),
            ],
        );
        let out = evaluate_lattice(&program, &edb, 64).unwrap();
        // Despite infinitely many derivation trees, the PosBool annotation is
        // the finite expression e1 ∧ e2 (idempotence collapses the pumping).
        assert_eq!(
            out.annotation(&Fact::new("Q", ["a", "a"])),
            PosBool::var("e1").times(&PosBool::var("e2"))
        );
        assert_eq!(
            out.annotation(&Fact::new("Q", ["a", "b"])),
            PosBool::var("e1")
        );
    }

    #[test]
    fn lattice_evaluation_on_event_tables() {
        // Datalog on event tables (generalizing probabilistic datalog): the
        // event of Q(a,c) is the intersection of the two edge events.
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", Event::of_worlds([0, 1])),
                ("b", "c", Event::of_worlds([1, 2])),
            ],
        );
        let out = evaluate_lattice(&program, &edb, 64).unwrap();
        assert_eq!(
            out.annotation(&Fact::new("Q", ["a", "c"])),
            Event::of_worlds([1])
        );
    }

    #[test]
    fn infinite_fact_classification_matches_figure7() {
        let program = Program::transitive_closure("R", "Q");
        let g = Grounding::new(&program, &figure7_edb());
        let reaches = g.blocks_reaching(|_, block| block.cyclic);
        let infinite = |a: &str, b: &str| {
            let id = g.id(&Fact::new("Q", [a, b])).unwrap();
            reaches[g.block_of(id).unwrap()]
        };
        assert!(infinite("d", "d"));
        assert!(infinite("b", "d"));
        assert!(infinite("a", "d"));
        assert!(!infinite("a", "b"));
    }
}
