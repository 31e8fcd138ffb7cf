//! Incremental maintenance of datalog fixpoints under edb insert/delete
//! batches.
//!
//! A [`FixpointView`] is a materialized least fixpoint that keeps the state
//! the compiled fixpoint ([`crate::columnar`]) built: the interner and the
//! id tables, edb and idb, with their key indexes — and beside them the edb
//! and idb as [`FactStore`]s for [`FixpointView::edb`] and
//! [`FixpointView::result`]. It *absorbs* a base-fact delta instead of
//! recomputing from scratch. Deltas are plain annotated fact stores added
//! into the edb with semiring `+`; over a ring ([`provsem_semiring::Ring`]
//! — ℤ, ℤ\[X\], `DiffPair<K>`) negative annotations are first-class
//! deletions, so one batch can mix inserts and deletes.
//!
//! # Algorithm (delete-and-rederive, specialized to recomputation)
//!
//! [`maintain_fixpoint`] compiles the program's forms again (O(rules); the
//! forms borrow the program, the tables do not) together with one `Δ` form
//! per edb body atom, and runs a DRed-style three-phase update on the held
//! tables — nothing is reloaded:
//!
//! 1. **Apply** the delta: add it into the edb tables (a deleted row keeps
//!    its place at zero) and into the edb store.
//! 2. **Affected closure**: from the rows the delta touched, run every `Δ`
//!    form — edb and idb body positions alike — annotation-blind, and
//!    again from the heads found, until no new head appears. A head its
//!    table lacks is appended at zero, so later rounds join through it.
//!    The closure is everything whose derivations can read a changed row.
//! 3. **Rederive**: zero every affected idb row and Kleene-iterate over
//!    them until no row moves (or the view's round bound runs out): round 1
//!    recomputes every affected row through the head-seeded plans, and the
//!    later rounds are the fixpoint's own exact differential rounds, which
//!    add the increments of the rows that moved (a row recomputed from zero
//!    moved by its whole total). A rule whose body cannot ground its head
//!    never fires, in round 1 as in the fixpoint. Facts whose derivations all
//!    vanished stay at zero — deletions do not over-retain — and unaffected
//!    facts keep their annotations, which are still correct because *no*
//!    derivation of an unaffected fact reads a changed row (otherwise the
//!    closure would have reached it). The rows that moved are written back
//!    into the result store.
//!
//! A deleted row stays in its table at zero until the table has doubled
//! since it last dropped its zero rows; then it drops them (amortized O(1)
//! per appended row), so churn through fresh constants does not leave the
//! probes walking a tombstone for every fact the view ever held.
//!
//! The work is the closure's joins and the rounds of step 3, plus
//! O(|Δ| + |changed heads|) store updates. The result is pinned against
//! from-scratch [`kleene_iterate`](crate::naive::kleene_iterate) on the
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

use crate::ast::Program;
use crate::columnar::{self, Caller, FanOut, IdTables, Workers};
use crate::fact::FactStore;
use provsem_core::plan::ExecContext;
use provsem_semiring::Semiring;

/// A materialized datalog least fixpoint with the state needed to absorb
/// edb deltas: the program, the compiled fixpoint's id tables, and the
/// updated edb and accumulated idb as fact stores.
///
/// Build one with [`materialize_fixpoint`]; update it with
/// [`maintain_fixpoint`] / [`maintain_fixpoint_with`]. The maintained idb
/// only equals the from-scratch fixpoint while [`FixpointView::converged`]
/// holds — a view that ran out of rounds is reported as such, exactly like
/// [`crate::naive::FixpointResult::converged`].
pub struct FixpointView<K> {
    program: Program,
    tables: IdTables<K>,
    edb: FactStore<K>,
    idb: FactStore<K>,
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
/// like [`seminaive_iterate`](crate::seminaive::seminaive_iterate), on the
/// calling thread) and keeps the evaluation's tables as a [`FixpointView`]
/// ready for incremental maintenance.
pub fn materialize_fixpoint<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
) -> FixpointView<K> {
    let (result, tables) = columnar::materialize(program, edb, max_rounds);
    FixpointView {
        program: program.clone(),
        tables,
        edb: edb.clone(),
        idb: result.idb,
        max_rounds,
        converged: result.converged,
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
///
/// # Panics
/// Panics if `delta` names a derived (idb) predicate — idb facts are
/// maintained, not edited.
pub fn maintain_fixpoint<K: Semiring>(view: &mut FixpointView<K>, delta: &FactStore<K>) {
    maintain(view, delta, &Caller);
}

/// [`maintain_fixpoint`] with a thread budget: each closure round's joins
/// and each rederivation round's recomputations run data-parallel over
/// contiguous chunks of their work, combined back in chunk order — the
/// exact serial outcome, so the maintained view is byte-identical at every
/// thread count.
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
    for predicate in delta.predicates() {
        assert!(
            !idb_predicates.contains(predicate),
            "maintain_fixpoint: delta names the derived predicate {predicate} — \
             base deltas may only touch edb predicates",
        );
    }
    for (fact, k) in delta.facts() {
        view.edb.insert(fact, k.clone());
    }
    let (changed, converged) =
        columnar::maintain(&view.program, &mut view.tables, delta, view.max_rounds, fan);
    for (fact, k) in changed {
        view.idb.set(fact, k);
    }
    view.converged = converged;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::{edge_facts, Fact};
    use crate::seminaive::seminaive_iterate;
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
