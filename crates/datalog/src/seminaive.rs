//! Semi-naive (differential) datalog evaluation.
//!
//! The naive Kleene iteration of [`crate::naive`] pre-instantiates every
//! ground rule and re-multiplies all of them on every round, even though
//! most annotations stop changing after a few rounds. This module evaluates
//! the same least-fixpoint semantics (Definition 5.5 / Theorem 5.6 of the
//! paper) *differentially*: it keeps, per predicate, the **delta** of the
//! facts whose annotation changed in the previous round, rewrites each rule
//! into its **differential forms** — one per idb body atom, with that atom
//! bound to a delta fact and the rest of the body bound via hash-index
//! probes — and touches only the part of the instantiation the deltas
//! reach. No up-front full grounding is ever materialized.
//!
//! This file holds the public entry points; the rule forms are compiled,
//! and the rounds run, in one place: the evaluator over interned ids of
//! [`crate::columnar`]. The naive iteration
//! ([`crate::naive::kleene_iterate`]) stays as the reference oracle the
//! differential suites compare every entry point against.
//!
//! # Soundness: one exact loop for every semiring
//!
//! Every entry point — [`seminaive_iterate`], [`seminaive_idempotent`] and
//! their `_with` twins — runs the same loop. Each round joins the rows
//! whose annotation moved last round through the differential forms, and
//! each moved row carries its **increment** `δ` (its annotation is
//! `old + δ`). The form seeded at body position `i` multiplies `δᵢ` with the
//! current annotations of the atoms before `i` and the previous ones of
//! the atoms after `i`. Distributivity and commutativity alone give
//!
//! ```text
//! Π(oldⱼ + δⱼ) = Π oldⱼ + Σᵢ (Π_{j<i} newⱼ) · δᵢ · (Π_{j>i} oldⱼ)
//! ```
//!
//! per derivation, so the summed increments satisfy
//! `Tᵐ⁺¹(0) = Tᵐ(0) + Σ increments` in **every** semiring: merging them
//! with `+` needs no subtraction (ℕ and ℕ\[X\] have none) and never counts a
//! derivation twice, and an unaffected head keeps its value because no
//! increment reaches it. A row whose increment is absorbed (ℕ∞'s
//! `∞ + x = ∞`, an idempotent `a + a = a`) stays out of the next delta, so
//! the loop stops exactly when `Tᵐ⁺¹(0) = Tᵐ(0)`. The result after `m`
//! rounds equals the naive `Tᵐ(0)` **round for round, for every semiring**
//! — which is what the differential test suites pin down.
//!
//! # Threads and `!Send` annotations
//!
//! The context-free functions ([`evaluate`], [`evaluate_with_bound`],
//! [`seminaive_iterate`], [`seminaive_idempotent`]) ask only `K: Semiring`
//! and run every round on the calling thread, so annotations that cannot
//! cross threads (circuit handles) evaluate through them. The `_with`
//! functions take an [`ExecContext`] thread budget, require
//! `K: Send + Sync` because the workers share the id tables by reference,
//! and return the identical [`FixpointResult`] at every thread count: a
//! round's work items are split into contiguous chunks and the per-chunk
//! results combined in chunk order.
//!
//! # Convergence-flag semantics
//!
//! [`FixpointResult::converged`] means the same thing as for the naive
//! iteration — a fixpoint was reached within the round bound — but the
//! iteration counts may differ: the naive loop needs one extra application
//! of `T` to *observe* a fixpoint, while the semi-naive loop observes an
//! empty delta for free. Compare annotations and `converged`, not
//! `iterations`, with the oracle.
//!
//! # Worked example (Figure 6)
//!
//! The conjunctive query `Q(x,y) :- R(x,z), R(z,y)` of Figure 6 under bag
//! semantics, evaluated semi-naively: round 1 joins `R ⋈ R` through the
//! index (no idb atom in the body, so nothing is ever re-derived), and no
//! rule consumes `Q`, so the delta is empty at once:
//!
//! ```
//! use provsem_datalog::prelude::*;
//! use provsem_semiring::Natural;
//!
//! let program = Program::figure6_query();
//! let edb = edge_facts("R", &[
//!     ("a", "a", Natural::from(2u64)),
//!     ("a", "b", Natural::from(3u64)),
//!     ("b", "b", Natural::from(4u64)),
//! ]);
//! let out = evaluate(&program, &edb, EvalStrategy::SemiNaive).expect("converges");
//! // Figure 6(c): Q(a,a) ↦ 2·2 = 4, Q(a,b) ↦ 2·3 + 3·4 = 18, Q(b,b) ↦ 16.
//! assert_eq!(out.annotation(&Fact::new("Q", ["a", "a"])), Natural::from(4u64));
//! assert_eq!(out.annotation(&Fact::new("Q", ["a", "b"])), Natural::from(18u64));
//! assert_eq!(out.annotation(&Fact::new("Q", ["b", "b"])), Natural::from(16u64));
//! ```

use crate::ast::Program;
use crate::columnar::{self, Caller, Workers};
use crate::fact::FactStore;
use provsem_core::plan::ExecContext;
use provsem_semiring::{PlusIdempotent, Semiring};

pub use crate::naive::FixpointResult;

/// How [`evaluate`] / [`evaluate_with_bound`] compute the datalog fixpoint.
/// Production has one strategy; the naive Kleene iteration is the oracle
/// ([`crate::naive::kleene_iterate`]), which tests and ablations call
/// directly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalStrategy {
    /// Differential evaluation: per-predicate delta stores, one differential
    /// form per idb body atom, index-probed joins, and no up-front
    /// grounding ([`seminaive_iterate`]). Sound for every semiring (see the
    /// module docs); round-for-round equal to the naive iteration.
    SemiNaive,
}

/// The round bound used by [`evaluate`] when the semiring has no intrinsic
/// convergence bound. Matches the deepest workloads in the benchmark suite
/// with two orders of magnitude to spare; instances that still change after
/// this many rounds (ℕ∞ with infinitely many derivations) are reported as
/// non-converged (`None`).
pub const DEFAULT_FALLBACK_BOUND: usize = 256;

/// Evaluates a datalog program to its least fixpoint under the chosen
/// [`EvalStrategy`] — the single entry point the benches and downstream
/// crates call. The loop detects convergence on its own, so this works
/// for any semiring; [`DEFAULT_FALLBACK_BOUND`] is only the safety net for
/// instances that never converge. Returns `None` when the iteration did not
/// converge within the bound (for ℕ∞ this signals tuples with infinitely
/// many derivations — use [`crate::exact::evaluate_natinf`]).
///
/// **ℕ caveat**: ℕ is not ω-continuous, and on a non-converging (cyclic)
/// instance its annotations grow without bound — the `u64` payload
/// overflows (a panic in debug profiles) well before the fallback bound is
/// reached. Evaluate such instances over ℕ∞ instead, whose payloads
/// saturate to ∞, or use [`evaluate_with_bound`] with a small round bound.
pub fn evaluate<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    strategy: EvalStrategy,
) -> Option<FactStore<K>> {
    let result = evaluate_with_bound(program, edb, strategy, DEFAULT_FALLBACK_BOUND);
    result.converged.then_some(result.idb)
}

/// Like [`evaluate`] but for any semiring and an explicit round bound,
/// returning the full [`FixpointResult`]: the idb annotations after the
/// same number of rounds as the naive iteration (`Tᵐ(0)`), converged or
/// not.
pub fn evaluate_with_bound<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    strategy: EvalStrategy,
    max_rounds: usize,
) -> FixpointResult<K> {
    match strategy {
        EvalStrategy::SemiNaive => seminaive_iterate(program, edb, max_rounds),
    }
}

/// Like [`evaluate_with_bound`], but with an explicit
/// [`ExecContext`] thread budget: the delta-rule application runs
/// data-parallel ([`seminaive_iterate_with`]), round for round identical
/// to the serial loop. `ctx.threads == 1` is exactly
/// [`evaluate_with_bound`].
pub fn evaluate_with_context<K>(
    program: &Program,
    edb: &FactStore<K>,
    strategy: EvalStrategy,
    max_rounds: usize,
    ctx: &ExecContext,
) -> FixpointResult<K>
where
    K: Semiring + Send + Sync,
{
    match strategy {
        EvalStrategy::SemiNaive => seminaive_iterate_with(program, edb, max_rounds, ctx),
    }
}

/// Semi-naive evaluation for every semiring: deltas (the facts whose
/// annotation changed last round) seed the differential forms with their
/// increments, and each head's summed increments are added into it with
/// `+`. Produces exactly the naive `Tᵐ(0)` after `m` rounds for every
/// semiring — see the module docs for why no subtraction is needed. Runs on
/// the calling thread, so `K` need not be `Send`.
pub fn seminaive_iterate<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
) -> FixpointResult<K> {
    columnar::iterate(program, edb, max_rounds, &Caller)
}

/// [`seminaive_iterate`] with a thread budget: each round's increments are
/// joined data-parallel over scoped worker threads, one accumulator per
/// contiguous chunk of the differential work items.
///
/// The [`FixpointResult`] is identical at every thread count: a round is a
/// pure function of the previous round's state (the tables are only read
/// during a round), and the per-chunk sums are combined in chunk order.
/// Requires `K: Send + Sync` because the workers share the tables by
/// reference; annotations that are not (circuit handles) use
/// [`seminaive_iterate`].
pub fn seminaive_iterate_with<K>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
    ctx: &ExecContext,
) -> FixpointResult<K>
where
    K: Semiring + Send + Sync,
{
    columnar::iterate(program, edb, max_rounds, &Workers(ctx.threads))
}

/// Semi-naive evaluation for `+`-idempotent semirings: the classical delta
/// rewrite, whose increments are merged into the relations with `+`. It
/// runs the one exact loop of [`seminaive_iterate`] (see the module docs),
/// so it equals the naive `Tᵐ(0)` round for round; the [`PlusIdempotent`]
/// bound is kept for the callers that ask for this entry point by name.
pub fn seminaive_idempotent<K>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
) -> FixpointResult<K>
where
    K: Semiring + PlusIdempotent,
{
    columnar::iterate(program, edb, max_rounds, &Caller)
}

/// [`seminaive_idempotent`] with a thread budget: [`seminaive_iterate_with`]
/// — each round's increments are produced in parallel over contiguous
/// chunks of the differential work items, one accumulator per worker, and
/// the accumulators are summed in chunk order, so the merged relations (and
/// the delta) are identical at every thread count.
pub fn seminaive_idempotent_with<K>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
    ctx: &ExecContext,
) -> FixpointResult<K>
where
    K: Semiring + PlusIdempotent + Send + Sync,
{
    columnar::iterate(program, edb, max_rounds, &Workers(ctx.threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::{edge_facts, Fact};
    use crate::naive::kleene_iterate;
    use provsem_semiring::{Bool, NatInf, Natural, PosBool, Tropical};

    fn nat(n: u64) -> Natural {
        Natural::from(n)
    }

    #[test]
    fn figure6_bag_semantics_via_strategy_entry_point() {
        let program = Program::figure6_query();
        let edb = edge_facts(
            "R",
            &[("a", "a", nat(2)), ("a", "b", nat(3)), ("b", "b", nat(4))],
        );
        let semi = evaluate(&program, &edb, EvalStrategy::SemiNaive).expect("converges");
        let naive = kleene_iterate(&program, &edb, DEFAULT_FALLBACK_BOUND);
        assert!(naive.converged);
        let naive = naive.idb;
        assert_eq!(semi.annotation(&Fact::new("Q", ["a", "b"])), nat(18));
        for (fact, ann) in naive.facts() {
            assert_eq!(semi.annotation(&fact), *ann, "{fact}");
        }
        assert_eq!(semi.len(), naive.len());
    }

    #[test]
    fn round_for_round_equality_with_naive_on_nonconverging_natinf() {
        // Figure 7 over ℕ∞ never converges; the general semi-naive path must
        // still produce Tᵐ(0) for every m.
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
        for rounds in 1..8 {
            let naive = kleene_iterate(&program, &edb, rounds);
            let semi = evaluate_with_bound(&program, &edb, EvalStrategy::SemiNaive, rounds);
            assert_eq!(naive.converged, semi.converged, "rounds={rounds}");
            assert_eq!(naive.idb, semi.idb, "rounds={rounds}");
        }
    }

    #[test]
    fn idempotent_path_agrees_with_general_path_on_lattices() {
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", PosBool::var("e1")),
                ("b", "c", PosBool::var("e2")),
                ("c", "a", PosBool::var("e3")),
            ],
        );
        let general = seminaive_iterate(&program, &edb, 64);
        let fast = seminaive_idempotent(&program, &edb, 64);
        assert!(general.converged && fast.converged);
        assert_eq!(general.idb, fast.idb);
    }

    #[test]
    fn tropical_shortest_paths_via_idempotent_path() {
        let program = Program::linear_transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", Tropical::cost(4)),
                ("b", "c", Tropical::cost(1)),
                ("a", "c", Tropical::cost(10)),
            ],
        );
        let out = seminaive_idempotent(&program, &edb, 64);
        assert!(out.converged);
        assert_eq!(
            out.idb.annotation(&Fact::new("Q", ["a", "c"])),
            Tropical::cost(5)
        );
    }

    #[test]
    fn program_facts_and_constants_participate() {
        // A program-text fact seeds the idb; a constant in a body restricts
        // the index probe.
        let program =
            crate::parser::parse_program("E('x', 'y').\nP(a, b) :- E(a, b).\nPx(b) :- P('x', b).")
                .unwrap();
        let edb: FactStore<Bool> = FactStore::new();
        let out = seminaive_iterate(&program, &edb, 16);
        assert!(out.converged);
        assert_eq!(
            out.idb.annotation(&Fact::new("Px", ["y"])),
            Bool::from(true)
        );
        assert_eq!(
            out.idb.annotation(&Fact::new("P", ["x", "y"])),
            Bool::from(true)
        );
    }

    #[test]
    fn zero_round_bound_reports_nonconverged_empty_result() {
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts("R", &[("a", "b", Bool::from(true))]);
        let naive = kleene_iterate(&program, &edb, 0);
        let semi = evaluate_with_bound(&program, &edb, EvalStrategy::SemiNaive, 0);
        for out in [naive, semi] {
            assert!(!out.converged);
            assert!(out.idb.is_empty());
            assert_eq!(out.iterations, 0);
        }
    }

    #[test]
    fn mutual_recursion_converges_to_the_same_fixpoint() {
        // P and Q feed each other; the loop agrees with the oracle.
        let program = crate::parser::parse_program(
            "P(x, y) :- R(x, y).\nQ(x, y) :- P(x, y).\nP(x, y) :- Q(y, x).",
        )
        .unwrap();
        let edb = edge_facts(
            "R",
            &[("a", "b", Bool::from(true)), ("b", "c", Bool::from(true))],
        );
        let naive = kleene_iterate(&program, &edb, DEFAULT_FALLBACK_BOUND);
        let semi = evaluate(&program, &edb, EvalStrategy::SemiNaive).unwrap();
        assert!(naive.converged);
        assert_eq!(naive.idb, semi);
        assert_eq!(
            semi.annotation(&Fact::new("P", ["b", "a"])),
            Bool::from(true)
        );
    }
}
