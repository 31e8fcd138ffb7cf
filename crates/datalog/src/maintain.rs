//! Incremental maintenance of datalog fixpoints under edb insert/delete
//! batches.
//!
//! A [`FixpointView`] is a materialized least fixpoint (computed by
//! [`crate::seminaive::seminaive_iterate`]) that retains what maintenance
//! needs — the append-only [`FactIndex`] over every fact ever seen and the
//! accumulated idb [`FactStore`] — so it can *absorb* a base-fact delta
//! instead of recomputing from scratch. Deltas are plain annotated fact
//! stores added into the edb with semiring `+`; over a ring
//! ([`provsem_semiring::Ring`] — ℤ, ℤ\[X\], `DiffPair<K>`) negative
//! annotations are first-class deletions, so one batch can mix inserts and
//! deletes.
//!
//! # Algorithm (delete-and-rederive, specialized to recomputation)
//!
//! [`maintain_fixpoint`] runs a DRed-style three-phase update:
//!
//! 1. **Apply** the delta to the edb and the join index.
//! 2. **Affected closure**: starting from the changed edb facts, repeatedly
//!    join each changed fact through every rule-body position it can occupy
//!    (one suffix join plan per body atom, probing the index for the rest
//!    of the body) and collect the ground heads; newly discovered heads
//!    join the index and the frontier. The closure is everything whose
//!    derivations can mention a changed fact.
//! 3. **Rederive**: zero every affected idb fact and Kleene-iterate
//!    head recomputation over the affected set until nothing changes — each
//!    sweep through the fixpoint's own compiled head-seeded plans
//!    (`Compiled::sweep` in [`crate::columnar`]), over id tables loaded from
//!    the view's edb and idb at the start of the sweep. Facts
//!    whose derivations all vanished stay at zero — deletions do not
//!    over-retain — and unaffected facts keep their annotations, which are
//!    still correct because *no* derivation of an unaffected fact mentions
//!    a changed fact (otherwise the closure would have reached it).
//!
//! The result is pinned against from-scratch [`seminaive_iterate`] on the
//! updated edb by `tests/ivm_differential.rs`.
//!
//! # Worked example
//!
//! Path counting under bag semantics: deleting the only bridge edge must
//! zero every downstream count.
//!
//! ```
//! use provsem_datalog::prelude::*;
//! use provsem_semiring::{Integers, Ring};
//!
//! let program = Program::transitive_closure("R", "Q");
//! let edb = edge_facts("R", &[
//!     ("a", "b", Integers::new(1)),
//!     ("b", "c", Integers::new(1)),
//! ]);
//! let mut view = materialize_fixpoint(&program, &edb, 16);
//! assert_eq!(view.result().annotation(&Fact::new("Q", ["a", "c"])), Integers::new(1));
//!
//! // Delete b→c: both Q(b,c) and the two-hop Q(a,c) disappear.
//! let mut delta = FactStore::new();
//! delta.insert(Fact::new("R", ["b", "c"]), Integers::new(1).neg());
//! maintain_fixpoint(&mut view, &delta);
//! assert!(view.converged());
//! assert!(!view.result().contains(&Fact::new("Q", ["a", "c"])));
//! assert!(!view.result().contains(&Fact::new("Q", ["b", "c"])));
//! assert_eq!(view.result().annotation(&Fact::new("Q", ["a", "b"])), Integers::new(1));
//! ```

use crate::ast::{Atom, Program, Rule};
use crate::columnar::{Caller, Compiled, FanOut, Workers};
use crate::fact::{Fact, FactIndex, FactStore};
use crate::grounding::{ground_atom, match_atom, Binding, JoinPlan};
use crate::seminaive::seminaive_iterate;
use provsem_core::plan::ExecContext;
use provsem_semiring::Semiring;
use std::collections::BTreeSet;

/// A materialized datalog least fixpoint with the retained state needed to
/// absorb edb deltas: the program, the updated edb, the accumulated idb
/// annotations, and the append-only join index over every fact ever seen.
///
/// Build one with [`materialize_fixpoint`]; update it with
/// [`maintain_fixpoint`] / [`maintain_fixpoint_with`]. The maintained idb
/// only equals the from-scratch fixpoint while [`FixpointView::converged`]
/// holds — a view that ran out of rounds is reported as such, exactly like
/// [`crate::naive::FixpointResult::converged`].
pub struct FixpointView<K> {
    program: Program,
    edb: FactStore<K>,
    idb: FactStore<K>,
    index: FactIndex,
    max_rounds: usize,
    converged: bool,
}

impl<K: Semiring> FixpointView<K> {
    /// The maintained idb fixpoint.
    pub fn result(&self) -> &FactStore<K> {
        &self.idb
    }

    /// The maintained edb (base facts with every absorbed delta applied).
    pub fn edb(&self) -> &FactStore<K> {
        &self.edb
    }

    /// Did the last (re)computation reach a fixpoint within the round bound?
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Consumes the view, returning the idb fixpoint.
    pub fn into_result(self) -> FactStore<K> {
        self.idb
    }
}

/// Evaluates `program` over `edb` semi-naively (bounded by `max_rounds`,
/// like [`seminaive_iterate`]) and retains the evaluation state as a
/// [`FixpointView`] ready for incremental maintenance.
pub fn materialize_fixpoint<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
) -> FixpointView<K> {
    let result = seminaive_iterate(program, edb, max_rounds);
    let mut index = edb.join_index();
    for (fact, _) in result.idb.facts() {
        index.add_fact(fact);
    }
    FixpointView {
        program: program.clone(),
        edb: edb.clone(),
        idb: result.idb,
        index,
        max_rounds,
        converged: result.converged,
    }
}

/// One affected-closure form: a body atom a changed fact can occupy, the
/// owning rule, and the join plan for the rest of that rule's body.
struct ClosureForm<'a> {
    rule: &'a Rule,
    atom: &'a Atom,
    plan: JoinPlan<'a>,
}

/// Suffix plans for **every** body position of every rule — unlike the
/// semi-naive delta forms, which only cover idb positions, maintenance must
/// chase changes entering through edb atoms too.
fn closure_forms(program: &Program) -> Vec<ClosureForm<'_>> {
    program
        .rules
        .iter()
        .flat_map(|rule| {
            rule.body
                .iter()
                .enumerate()
                .map(move |(pos, atom)| ClosureForm {
                    rule,
                    atom,
                    plan: JoinPlan::suffix(&rule.body, pos),
                })
        })
        .collect()
}

/// Phase 2: the set of idb facts whose derivations can mention a changed
/// fact, found by chasing changed facts through the closure forms until no
/// new head appears. Newly discovered heads join the index immediately, so
/// later frontier rounds can bind them in other rule bodies.
fn affected_closure<K: Semiring>(
    forms: &[ClosureForm<'_>],
    view: &mut FixpointView<K>,
    seed: Vec<Fact>,
) -> BTreeSet<Fact> {
    let mut affected: BTreeSet<Fact> = BTreeSet::new();
    let mut frontier = seed;
    while !frontier.is_empty() {
        let mut discovered: Vec<Fact> = Vec::new();
        for fact in &frontier {
            for form in forms.iter().filter(|f| f.atom.predicate == fact.predicate) {
                let Some(seed) = match_atom(form.atom, fact, &Binding::new()) else {
                    continue;
                };
                form.plan.join(&view.index, seed, &mut |binding| {
                    if let Some(head) = ground_atom(&form.rule.head, &binding) {
                        if affected.insert(head.clone()) {
                            discovered.push(head);
                        }
                    }
                });
            }
        }
        for head in &discovered {
            view.index.add_fact(head.clone());
        }
        frontier = discovered;
    }
    affected
}

/// Phase 1: fold the delta into the edb and the index; returns the changed
/// facts (the closure seed). Panics if the delta names a derived predicate —
/// idb facts are maintained, not edited.
fn apply_delta<K: Semiring>(
    view: &mut FixpointView<K>,
    delta: &FactStore<K>,
    idb_predicates: &BTreeSet<String>,
) -> Vec<Fact> {
    let mut changed = Vec::new();
    for (fact, k) in delta.facts() {
        assert!(
            !idb_predicates.contains(&fact.predicate),
            "maintain_fixpoint: delta names the derived predicate {} — \
             base deltas may only touch edb predicates",
            fact.predicate
        );
        view.edb.insert(fact.clone(), k.clone());
        view.index.add_fact(fact.clone());
        changed.push(fact);
    }
    changed
}

/// Phase 3 (shared tail): zero the affected idb facts and Kleene-iterate
/// their recomputation until a fixpoint (or the view's round bound), using
/// `pass` to map one recomputation sweep over the affected facts.
fn rederive<K: Semiring>(
    view: &mut FixpointView<K>,
    affected: BTreeSet<Fact>,
    mut pass: impl FnMut(&FixpointView<K>, &[Fact]) -> Vec<(Fact, K)>,
) {
    for fact in &affected {
        view.idb.set(fact.clone(), K::zero());
    }
    let affected: Vec<Fact> = affected.into_iter().collect();
    view.converged = true;
    if affected.is_empty() {
        return;
    }
    let mut rounds = 0;
    loop {
        if rounds >= view.max_rounds {
            view.converged = false;
            return;
        }
        rounds += 1;
        let changes = pass(view, &affected);
        if changes.is_empty() {
            return;
        }
        for (fact, k) in changes {
            view.idb.set(fact, k);
        }
    }
}

/// Absorbs an edb delta into the view: applies it to the base facts,
/// computes the affected closure, and rederives exactly the affected idb
/// facts (see the module docs). After this,
/// `view.result() == seminaive_iterate(program, updated_edb, …).idb`
/// whenever the view [`converged`](FixpointView::converged). Runs on the
/// calling thread, so `K` need not be `Send`.
///
/// Annotations in `delta` are *added* (semiring `+`) to the edb; supply
/// additive inverses ([`provsem_semiring::Ring::neg`]) to delete.
pub fn maintain_fixpoint<K: Semiring>(view: &mut FixpointView<K>, delta: &FactStore<K>) {
    maintain(view, delta, &Caller);
}

/// [`maintain_fixpoint`] with a thread budget: each rederivation sweep runs
/// data-parallel over contiguous chunks of the (sorted) affected facts,
/// concatenated back in chunk order — the exact serial change list, so the
/// maintained view is byte-identical at every thread count. The closure
/// phase mutates the index and stays on the coordinator.
pub fn maintain_fixpoint_with<K>(
    view: &mut FixpointView<K>,
    delta: &FactStore<K>,
    ctx: &ExecContext,
) where
    K: Semiring + Send + Sync,
{
    maintain(view, delta, &Workers(ctx.threads));
}

fn maintain<K: Semiring>(view: &mut FixpointView<K>, delta: &FactStore<K>, fan: &impl FanOut<K>) {
    let idb_predicates = view.program.idb_predicates();
    let changed = apply_delta(view, delta, &idb_predicates);

    // The forms borrow `view.program`, so clone the program handle out —
    // `Program` is small (rule ASTs) next to the stores.
    let program = view.program.clone();
    let forms = closure_forms(&program);
    for form in &forms {
        form.plan.register(&mut view.index);
    }
    let affected = affected_closure(&forms, view, changed);

    let mut engine = Compiled::new(&program);
    rederive(view, affected, |view, affected| {
        engine.sweep(&view.edb, &view.idb, affected, fan)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::edge_facts;
    use provsem_semiring::{Integers, Ring};

    fn z(n: i64) -> Integers {
        Integers::new(n)
    }

    // Linear transitive closure counts each *path* once in ℤ (the nonlinear
    // variant would count binary bracketings), keeping the expected
    // annotations readable.
    fn tc_view(edges: &[(&str, &str, i64)]) -> FixpointView<Integers> {
        let program = Program::linear_transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &edges
                .iter()
                .map(|(s, d, w)| (*s, *d, z(*w)))
                .collect::<Vec<_>>(),
        );
        materialize_fixpoint(&program, &edb, 64)
    }

    #[test]
    fn deleting_a_bridge_edge_zeroes_downstream_path_counts() {
        // a→b→c→d, path counting in ℤ. Deleting b→c must remove every path
        // that crossed the bridge and keep the a→b and c→d segments.
        let mut view = tc_view(&[("a", "b", 1), ("b", "c", 1), ("c", "d", 1)]);
        assert!(view.converged());
        assert_eq!(view.result().annotation(&Fact::new("Q", ["a", "d"])), z(1));

        let mut delta = FactStore::new();
        delta.insert(Fact::new("R", ["b", "c"]), z(1).neg());
        maintain_fixpoint(&mut view, &delta);
        assert!(view.converged());
        for gone in [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]] {
            assert!(
                !view.result().contains(&Fact::new("Q", gone)),
                "over-retained Q({gone:?})"
            );
        }
        assert_eq!(view.result().annotation(&Fact::new("Q", ["a", "b"])), z(1));
        assert_eq!(view.result().annotation(&Fact::new("Q", ["c", "d"])), z(1));
    }

    #[test]
    fn deleting_one_of_two_derivations_decrements_the_count() {
        // Two parallel 2-hop routes a→b→d and a→c→d: Q(a,d) counts 2 paths.
        let mut view = tc_view(&[("a", "b", 1), ("b", "d", 1), ("a", "c", 1), ("c", "d", 1)]);
        assert_eq!(view.result().annotation(&Fact::new("Q", ["a", "d"])), z(2));

        // Delete one support: the count drops to 1, the fact stays.
        let mut delta = FactStore::new();
        delta.insert(Fact::new("R", ["a", "b"]), z(1).neg());
        maintain_fixpoint(&mut view, &delta);
        assert_eq!(view.result().annotation(&Fact::new("Q", ["a", "d"])), z(1));

        // Delete the other: the fact is gone.
        let mut delta = FactStore::new();
        delta.insert(Fact::new("R", ["a", "c"]), z(1).neg());
        maintain_fixpoint(&mut view, &delta);
        assert!(!view.result().contains(&Fact::new("Q", ["a", "d"])));
        assert!(view.converged());
    }

    #[test]
    fn inserts_reach_new_recursive_derivations() {
        // Start with two disconnected edges; inserting the bridge creates
        // the transitive paths — including ones joining two batch-inserted
        // facts with pre-existing ones.
        let mut view = tc_view(&[("a", "b", 1), ("d", "e", 1)]);
        assert!(!view.result().contains(&Fact::new("Q", ["a", "e"])));

        let mut delta = FactStore::new();
        delta.insert(Fact::new("R", ["b", "c"]), z(1));
        delta.insert(Fact::new("R", ["c", "d"]), z(1));
        maintain_fixpoint(&mut view, &delta);
        let expected = seminaive_iterate(
            &Program::linear_transitive_closure("R", "Q"),
            view.edb(),
            64,
        );
        assert!(view.converged() && expected.converged);
        assert_eq!(view.result(), &expected.idb);
        assert_eq!(view.result().annotation(&Fact::new("Q", ["a", "e"])), z(1));
    }

    #[test]
    #[should_panic(expected = "base deltas may only touch edb predicates")]
    fn deltas_on_derived_predicates_are_rejected() {
        let mut view = tc_view(&[("a", "b", 1)]);
        let mut delta = FactStore::new();
        delta.insert(Fact::new("Q", ["a", "b"]), z(1));
        maintain_fixpoint(&mut view, &delta);
    }
}
