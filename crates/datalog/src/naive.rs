//! Fixpoint (Kleene) evaluation of datalog on K-relations.
//!
//! Definition 5.5 / Theorem 5.6 of the paper: the K-annotation of the idb
//! facts is the least fixed point of the polynomial system
//! `Q̄ = T_q(R, Q̄)`, computed as `sup_m f^m(0, …, 0)`. This module implements
//! that iteration directly over the grounded instantiation. The iteration
//! converges for lattices and other "stabilizing" inputs; for ℕ∞ instances
//! with infinitely many derivations it grows forever — exact ℕ∞ answers are
//! produced by [`crate::exact`], and this module's bounded iteration is the
//! building block and the ablation baseline.
//!
//! # The oracle grounds by scanning
//!
//! [`kleene_iterate`] is the reference every compiled entry point is tested
//! against, so it shares none of their code: it builds its own
//! instantiation ([`instantiate_by_scanning`]) the literal way. A naive set
//! fixpoint grounds every rule over the facts known so far and adds the
//! heads, until no head is new; its last pass is the instantiation. Each
//! body atom is matched by scanning every fact of its predicate, so there
//! is no index, no join plan and no interned id that a bug could share
//! with [`crate::columnar`], which grounds [`Grounding`] and runs every
//! semi-naive round. Only the edb facts of edb predicates seed the
//! fixpoint: an idb factor is read from the iteration alone, as in `Tᵐ(0)`.
//! The scans make the oracle quadratic per join where the compiled engine
//! probes; it is meant for the small inputs of the differential suites.

use crate::ast::{Atom, DlVar, Program, Term};
use crate::fact::{Fact, FactStore};
use crate::grounding::{GroundRule, Grounding};
use provsem_core::Value;
use provsem_semiring::{Bool, OmegaContinuous, Semiring};
use std::collections::{BTreeMap, BTreeSet};

/// The outcome of a bounded fixpoint iteration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixpointResult<K: Semiring> {
    /// Annotations of the idb facts after the last iteration performed.
    pub idb: FactStore<K>,
    /// Number of iterations actually performed.
    pub iterations: usize,
    /// Whether the iteration reached a fixed point (`true`) or stopped at the
    /// iteration bound while still changing (`false`).
    pub converged: bool,
}

/// One application of the immediate-consequence operator `T_q` on
/// annotations: for every ground rule, multiply the annotations of its body
/// facts (taking edb facts from `edb` and idb facts from `current`) and sum
/// the contributions per head fact.
pub fn immediate_consequence<K: Semiring>(
    ground_rules: &[GroundRule],
    idb_predicates: &BTreeSet<String>,
    edb: &FactStore<K>,
    current: &FactStore<K>,
) -> FactStore<K> {
    let mut next = FactStore::new();
    immediate_consequence_into(ground_rules, idb_predicates, edb, current, &mut next);
    next
}

/// Like [`immediate_consequence`] but writing into a caller-provided store
/// (cleared first), so the Kleene loop can ping-pong between two buffers
/// instead of allocating a fresh `FactStore` every round — including the
/// rounds where nothing changes any more.
pub fn immediate_consequence_into<K: Semiring>(
    ground_rules: &[GroundRule],
    idb_predicates: &BTreeSet<String>,
    edb: &FactStore<K>,
    current: &FactStore<K>,
    next: &mut FactStore<K>,
) {
    next.clear();
    for rule in ground_rules {
        let mut product = K::one();
        let mut zero = false;
        for body_fact in &rule.body {
            let ann = if idb_predicates.contains(&body_fact.predicate) {
                current.annotation(body_fact)
            } else {
                edb.annotation(body_fact)
            };
            if ann.is_zero() {
                zero = true;
                break;
            }
            product.times_assign(&ann);
        }
        if !zero {
            next.insert(rule.head.clone(), product);
        }
    }
}

/// A variable valuation built while matching a rule body.
type Binding = BTreeMap<DlVar, Value>;

/// The atom with its variables replaced by their values; `None` if some
/// variable is unbound.
fn ground_atom(atom: &Atom, binding: &Binding) -> Option<Fact> {
    let mut values = Vec::with_capacity(atom.terms.len());
    for term in &atom.terms {
        match term {
            Term::Const(v) => values.push(v.clone()),
            Term::Var(x) => values.push(binding.get(x)?.clone()),
        }
    }
    Some(Fact {
        predicate: atom.predicate.clone(),
        values,
    })
}

/// Tries to extend `binding` so that `atom` matches the fact of its
/// predicate with arguments `values`; returns the extended binding or
/// `None` on mismatch.
fn match_atom(atom: &Atom, values: &[Value], binding: &Binding) -> Option<Binding> {
    if atom.terms.len() != values.len() {
        return None;
    }
    // Most candidates of a scan clash with a constant or an earlier binding:
    // reject those before copying the binding.
    let clash = atom
        .terms
        .iter()
        .zip(values)
        .any(|(term, value)| match term {
            Term::Const(c) => c != value,
            Term::Var(x) => binding.get(x).is_some_and(|bound| bound != value),
        });
    if clash {
        return None;
    }
    let mut extended = binding.clone();
    for (term, value) in atom.terms.iter().zip(values) {
        let Term::Var(x) = term else {
            continue;
        };
        match extended.get(x) {
            // A variable repeated within the atom must meet one value.
            Some(bound) if bound != value => return None,
            Some(_) => {}
            None => {
                extended.insert(x.clone(), value.clone());
            }
        }
    }
    Some(extended)
}

/// Calls `emit` with every extension of `binding` that matches `body`
/// over `facts`, each atom scanned against every fact of its predicate.
fn each_binding(
    body: &[Atom],
    facts: &FactStore<Bool>,
    binding: &Binding,
    emit: &mut dyn FnMut(&Binding),
) {
    let Some((atom, rest)) = body.split_first() else {
        return emit(binding);
    };
    for (values, _) in facts.rows_of(&atom.predicate) {
        if let Some(extended) = match_atom(atom, values, binding) {
            each_binding(rest, facts, &extended, emit);
        }
    }
}

/// The Kleene oracle's instantiation of `program` over `edb`, sorted: every
/// ground rule whose body facts are all derivable, found by scanning (see
/// the module docs). It equals [`Grounding::rules`], which the compiled
/// engine builds; the grounding differential suite compares the two, which
/// is why it is public.
#[doc(hidden)]
pub fn instantiate_by_scanning<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
) -> Vec<GroundRule> {
    let idb = program.idb_predicates();
    let mut facts = FactStore::new();
    for (fact, _) in edb.facts().filter(|(f, _)| !idb.contains(&f.predicate)) {
        facts.insert(fact, Bool::from(true));
    }
    loop {
        let mut rules = Vec::new();
        for (rule_index, rule) in program.rules.iter().enumerate() {
            each_binding(&rule.body, &facts, &Binding::new(), &mut |binding| {
                if let Some(head) = ground_atom(&rule.head, binding) {
                    let body = rule.body.iter().map(|a| ground_atom(a, binding));
                    rules.push(GroundRule {
                        rule_index,
                        head,
                        body: body
                            .collect::<Option<_>>()
                            .expect("a matched body is ground"),
                    });
                }
            });
        }
        let new: Vec<Fact> = (rules.iter().map(|r| &r.head))
            .filter(|head| !facts.contains(head))
            .cloned()
            .collect();
        if new.is_empty() {
            rules.sort_unstable();
            return rules;
        }
        for fact in new {
            facts.insert(fact, Bool::from(true));
        }
    }
}

/// Runs the Kleene iteration `Q₀ = 0, Q_{m+1} = T_q(R, Q_m)` for at most
/// `max_iterations` steps, stopping early at a fixed point, over the
/// instantiation [`instantiate_by_scanning`] builds.
pub fn kleene_iterate<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    max_iterations: usize,
) -> FixpointResult<K> {
    let rules = instantiate_by_scanning(program, edb);
    kleene_iterate_instantiated(program, &rules, edb, max_iterations)
}

/// [`kleene_iterate`] over `rules`, an instantiation
/// [`instantiate_by_scanning`] built for `program` over `edb`'s support, so
/// a differential suite grounds a case once and sweeps the round bounds.
/// Like `kleene_iterate`, it shares nothing with [`crate::columnar`].
#[doc(hidden)]
pub fn kleene_iterate_instantiated<K: Semiring>(
    program: &Program,
    rules: &[GroundRule],
    edb: &FactStore<K>,
    max_iterations: usize,
) -> FixpointResult<K> {
    kleene_iterate_grounded_by(program, rules, edb, max_iterations, |next, current| {
        next == current
    })
}

/// Like [`kleene_iterate`] but over a pre-computed [`Grounding`] (so
/// callers sweeping iteration counts do not re-ground every time).
pub fn kleene_iterate_grounded<K: Semiring>(
    program: &Program,
    grounding: &Grounding,
    edb: &FactStore<K>,
    max_iterations: usize,
) -> FixpointResult<K> {
    let rules = grounding.rules();
    kleene_iterate_grounded_by(program, rules, edb, max_iterations, |next, current| {
        next == current
    })
}

/// The shared Kleene driver, parameterized by the fixpoint test so callers
/// with expensive semantic equality can substitute a cheaper sound check —
/// the circuit provenance evaluation compares node ids
/// (`crate::provenance::datalog_provenance_circuit`) instead of `==`, which
/// for circuits would expand polynomials.
pub(crate) fn kleene_iterate_grounded_by<K: Semiring>(
    program: &Program,
    ground_rules: &[GroundRule],
    edb: &FactStore<K>,
    max_iterations: usize,
    reached_fixpoint: impl Fn(&FactStore<K>, &FactStore<K>) -> bool,
) -> FixpointResult<K> {
    let idb_predicates = program.idb_predicates();
    // When no rule consumes an idb fact, `T` is a constant function: one
    // application reaches the fixpoint, and re-applying it (as the loop
    // below otherwise must, to observe `next == current`) is pure waste.
    // Deliberately a *syntactic* check (on the program, not the grounded
    // instantiation) so the `converged` flag agrees with the semi-naive
    // evaluator at every round bound — see `crate::seminaive`'s docs.
    let recursive = program
        .rules
        .iter()
        .any(|r| r.body.iter().any(|a| idb_predicates.contains(&a.predicate)));
    let mut current: FactStore<K> = FactStore::new();
    let mut next: FactStore<K> = FactStore::new();
    let mut iterations = 0;
    let mut converged = false;
    while iterations < max_iterations {
        immediate_consequence_into(ground_rules, &idb_predicates, edb, &current, &mut next);
        iterations += 1;
        if !recursive {
            std::mem::swap(&mut current, &mut next);
            converged = true;
            break;
        }
        if reached_fixpoint(&next, &current) {
            converged = true;
            break;
        }
        std::mem::swap(&mut current, &mut next);
    }
    FixpointResult {
        idb: current,
        iterations,
        converged,
    }
}

/// Evaluates a datalog program over an ω-continuous semiring by iterating to
/// a fixed point, using the semiring's own convergence bound when it has one
/// and `fallback_bound` otherwise. Returns `None` when the iteration did not
/// converge within the bound (which for ℕ∞ signals the presence of tuples
/// with infinitely many derivations — use [`crate::exact::evaluate_natinf`]).
pub fn evaluate_fixpoint<K: OmegaContinuous>(
    program: &Program,
    edb: &FactStore<K>,
    fallback_bound: usize,
) -> Option<FactStore<K>> {
    let grounding = Grounding::new(program, edb);
    let bound = K::convergence_bound(grounding.idb_ids().count())
        .unwrap_or(fallback_bound)
        .max(2);
    let result = kleene_iterate_grounded(program, &grounding, edb, bound);
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
    use crate::seminaive::seminaive_idempotent;
    use provsem_semiring::{Bool, NatInf, Natural, PosBool, Tropical};

    fn nat(n: u64) -> Natural {
        Natural::from(n)
    }

    #[test]
    fn figure6_conjunctive_query_bag_semantics() {
        // Figure 6(c): Q(a,a)↦4, Q(a,b)↦18, Q(b,b)↦16.
        let program = Program::figure6_query();
        let edb = edge_facts(
            "R",
            &[("a", "a", nat(2)), ("a", "b", nat(3)), ("b", "b", nat(4))],
        );
        let result = kleene_iterate(&program, &edb, 10);
        assert!(result.converged);
        assert_eq!(result.idb.annotation(&Fact::new("Q", ["a", "a"])), nat(4));
        assert_eq!(result.idb.annotation(&Fact::new("Q", ["a", "b"])), nat(18));
        assert_eq!(result.idb.annotation(&Fact::new("Q", ["b", "b"])), nat(16));
        assert_eq!(result.idb.facts_of("Q").count(), 3);
    }

    #[test]
    fn figure7_two_iterations_match_the_paper() {
        // The paper: "Calculating its solution we get after two fixed point
        // iterations x = 8, y = 3, z = 2, u = 2, v = 2, w = 2."
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", NatInf::Fin(2)),
                ("a", "c", NatInf::Fin(3)),
                ("c", "b", NatInf::Fin(2)),
                ("b", "d", NatInf::Fin(1)),
                ("d", "d", NatInf::Fin(1)),
            ],
        );
        let result = kleene_iterate(&program, &edb, 2);
        let q = |a: &str, b: &str| result.idb.annotation(&Fact::new("Q", [a, b]));
        assert_eq!(q("a", "b"), NatInf::Fin(8)); // x
        assert_eq!(q("a", "c"), NatInf::Fin(3)); // y
        assert_eq!(q("c", "b"), NatInf::Fin(2)); // z
        assert_eq!(q("b", "d"), NatInf::Fin(2)); // u
        assert_eq!(q("d", "d"), NatInf::Fin(2)); // v
        assert_eq!(q("a", "d"), NatInf::Fin(2)); // w
        assert!(!result.converged);
    }

    #[test]
    fn figure7_iteration_does_not_converge_but_stable_entries_stay() {
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", NatInf::Fin(2)),
                ("a", "c", NatInf::Fin(3)),
                ("c", "b", NatInf::Fin(2)),
                ("b", "d", NatInf::Fin(1)),
                ("d", "d", NatInf::Fin(1)),
            ],
        );
        let r5 = kleene_iterate(&program, &edb, 5);
        let r8 = kleene_iterate(&program, &edb, 8);
        assert!(!r5.converged && !r8.converged);
        // x, y, z have stabilized; u, v, w keep growing.
        let q5 = |a: &str, b: &str| r5.idb.annotation(&Fact::new("Q", [a, b]));
        let q8 = |a: &str, b: &str| r8.idb.annotation(&Fact::new("Q", [a, b]));
        assert_eq!(q5("a", "b"), q8("a", "b"));
        assert_eq!(q5("a", "c"), q8("a", "c"));
        assert_eq!(q5("c", "b"), q8("c", "b"));
        assert!(q5("d", "d") < q8("d", "d"));
        assert!(q5("a", "d") < q8("a", "d"));
    }

    #[test]
    fn boolean_transitive_closure_converges() {
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", Bool::from(true)),
                ("b", "c", Bool::from(true)),
                ("c", "d", Bool::from(true)),
            ],
        );
        let out = evaluate_fixpoint(&program, &edb, 64).expect("𝔹 evaluation converges");
        assert_eq!(
            out.annotation(&Fact::new("Q", ["a", "d"])),
            Bool::from(true)
        );
        assert_eq!(
            out.annotation(&Fact::new("Q", ["d", "a"])),
            Bool::from(false)
        );
        assert_eq!(out.facts_of("Q").count(), 6);
    }

    #[test]
    fn tropical_transitive_closure_computes_shortest_paths() {
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", Tropical::cost(1)),
                ("b", "c", Tropical::cost(2)),
                ("a", "c", Tropical::cost(5)),
                ("c", "c", Tropical::cost(0)),
            ],
        );
        let out = evaluate_fixpoint(&program, &edb, 64).expect("tropical evaluation converges");
        // Shortest a→c path costs 3 (< the direct edge 5).
        assert_eq!(
            out.annotation(&Fact::new("Q", ["a", "c"])),
            Tropical::cost(3)
        );
        assert_eq!(
            out.annotation(&Fact::new("Q", ["a", "b"])),
            Tropical::cost(1)
        );
    }

    #[test]
    fn posbool_transitive_closure_converges_despite_cycles() {
        // Datalog on c-tables (Section 8): PosBool annotations stabilize even
        // though the graph has a cycle.
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", PosBool::var("e1")),
                ("b", "a", PosBool::var("e2")),
                ("b", "c", PosBool::var("e3")),
            ],
        );
        let out = evaluate_fixpoint(&program, &edb, 64).expect("PosBool evaluation converges");
        assert_eq!(
            out.annotation(&Fact::new("Q", ["a", "c"])),
            PosBool::var("e1").times(&PosBool::var("e3"))
        );
        // a→a requires both e1 and e2.
        assert_eq!(
            out.annotation(&Fact::new("Q", ["a", "a"])),
            PosBool::var("e1").times(&PosBool::var("e2"))
        );
    }

    #[test]
    fn seminaive_agrees_with_naive_on_idempotent_semirings() {
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", Bool::from(true)),
                ("b", "c", Bool::from(true)),
                ("c", "a", Bool::from(true)),
                ("c", "d", Bool::from(true)),
            ],
        );
        let naive = evaluate_fixpoint(&program, &edb, 64).unwrap();
        let semi = seminaive_idempotent(&program, &edb, 64);
        assert!(semi.converged);
        for (fact, ann) in naive.facts() {
            assert_eq!(semi.idb.annotation(&fact), *ann, "{fact}");
        }
        assert_eq!(naive.len(), semi.idb.len());
    }

    #[test]
    fn seminaive_tropical_shortest_paths() {
        let program = Program::linear_transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", Tropical::cost(4)),
                ("b", "c", Tropical::cost(1)),
                ("a", "c", Tropical::cost(10)),
            ],
        );
        let semi = seminaive_idempotent(&program, &edb, 64);
        assert!(semi.converged);
        assert_eq!(
            semi.idb.annotation(&Fact::new("Q", ["a", "c"])),
            Tropical::cost(5)
        );
    }

    #[test]
    fn immediate_consequence_of_empty_program_is_empty() {
        let program = Program::new(vec![]);
        let edb: FactStore<Natural> = edge_facts("R", &[("a", "b", nat(1))]);
        let result = kleene_iterate(&program, &edb, 4);
        assert!(result.converged);
        assert!(result.idb.is_empty());
    }

    #[test]
    fn nonrecursive_instantiation_converges_after_one_application() {
        // `T` is constant when no ground rule consumes an idb fact, so the
        // loop must not burn a second application just to observe the
        // fixpoint. Pins down the early exit.
        let program = Program::figure6_query();
        let edb = edge_facts(
            "R",
            &[("a", "a", nat(2)), ("a", "b", nat(3)), ("b", "b", nat(4))],
        );
        let result = kleene_iterate(&program, &edb, 10);
        assert!(result.converged);
        assert_eq!(result.iterations, 1);
        assert_eq!(result.idb.annotation(&Fact::new("Q", ["a", "b"])), nat(18));
        // A recursive instantiation still needs the detecting application.
        let tc = Program::transitive_closure("R", "Q");
        let chain = edge_facts("R", &[("a", "b", nat(1)), ("b", "c", nat(1))]);
        let tc_result = kleene_iterate(&tc, &chain, 10);
        assert!(tc_result.converged);
        assert!(tc_result.iterations > 1);
    }

    #[test]
    fn immediate_consequence_into_reuses_and_clears_the_buffer() {
        let program = Program::figure6_query();
        let edb = edge_facts("R", &[("a", "b", nat(3)), ("b", "c", nat(2))]);
        let grounding = Grounding::new(&program, &edb);
        let ground = grounding.rules();
        let idb = program.idb_predicates();
        let current: FactStore<Natural> = FactStore::new();
        // Pre-populate the buffer with garbage — including a predicate the
        // program never derives: it must be cleared and must not make the
        // refilled buffer compare unequal to a fresh computation.
        let mut buffer = edge_facts("Q", &[("z", "z", nat(9))]);
        buffer.insert(Fact::new("Zombie", ["w"]), nat(1));
        immediate_consequence_into(ground, &idb, &edb, &current, &mut buffer);
        assert_eq!(buffer, immediate_consequence(ground, &idb, &edb, &current));
        assert!(!buffer.contains(&Fact::new("Q", ["z", "z"])));
        assert!(!buffer.contains(&Fact::new("Zombie", ["w"])));
        assert_eq!(buffer.annotation(&Fact::new("Q", ["a", "c"])), nat(6));
    }
}
