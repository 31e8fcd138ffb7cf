//! Semi-naive (differential) datalog evaluation with indexed joins.
//!
//! The naive Kleene iteration of [`crate::naive`] pre-instantiates every
//! ground rule and re-multiplies all of them on every round, even though
//! most annotations stop changing after a few rounds. This module evaluates
//! the same least-fixpoint semantics (Definition 5.5 / Theorem 5.6 of the
//! paper) *differentially*: it maintains per-predicate **delta stores** of
//! the facts whose annotation changed in the previous round, rewrites each
//! rule into its **differential forms** — one per idb body atom, with that
//! atom bound to a delta fact and the rest of the body bound via hash-index
//! probes ([`FactIndex`]) — and touches only the part of the instantiation
//! the deltas reach. No up-front full grounding is ever materialized.
//!
//! # Soundness conditions (which path computes what)
//!
//! * [`seminaive_idempotent`] — the classical delta rewrite: each round joins
//!   the deltas into *increments* and merges them into the accumulator with
//!   semiring `+`. This is **exact for `+`-idempotent (naturally ordered)
//!   semirings** — 𝔹, PosBool, Why(X), witnesses, the tropical, fuzzy,
//!   Viterbi and security semirings, and every distributive lattice — where
//!   re-deriving a fact cannot inflate its annotation (`a + a = a` absorbs
//!   stale increments). For non-idempotent semirings such as ℕ or ℕ\[X\] the
//!   increments would double-count, so the function is restricted by the
//!   [`provsem_semiring::PlusIdempotent`] bound.
//! * [`seminaive_iterate`] — the fallback for **general ω-continuous
//!   semirings**: deltas still drive the work (they are the
//!   full-minus-previous difference of each round), but instead of merging
//!   increments it recomputes the *affected heads* — the heads reachable
//!   from a delta fact through one differential form — from scratch. An
//!   unaffected head keeps its value because none of its rule bodies
//!   changed, so the result after `m` rounds equals the naive `Tᵐ(0)`
//!   **round for round, for every semiring** — which is what the
//!   differential test suite pins down.
//!
//! # Convergence-flag semantics
//!
//! [`FixpointResult::converged`] means the same thing as for the naive
//! iteration — a fixpoint was reached within the round bound — but the
//! iteration counts may differ: the naive loop needs one extra application
//! of `T` to *observe* a fixpoint, while the semi-naive loop observes an
//! empty delta for free. Compare annotations and `converged`, not
//! `iterations`, across strategies.
//!
//! # Worked example (Figure 6)
//!
//! The conjunctive query `Q(x,y) :- R(x,z), R(z,y)` of Figure 6 under bag
//! semantics, evaluated semi-naively: round 1 joins `R ⋈ R` through the
//! index (no idb atom in the body, so nothing is ever re-derived) and round
//! 2 observes an empty delta because no rule consumes `Q`:
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

use crate::ast::{Atom, Program, Rule, Term};
use crate::fact::{Fact, FactIndex, FactStore};
use crate::grounding::{ground_atom, match_atom, Binding, JoinPlan};
use provsem_core::par;
use provsem_core::plan::{ExecContext, ExecMode};
use provsem_semiring::fxhash::FxHashMap;
use provsem_semiring::{PlusIdempotent, Semiring};
use std::collections::BTreeSet;

pub use crate::naive::FixpointResult;

/// How [`evaluate`] / [`evaluate_with_bound`] compute the datalog fixpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalStrategy {
    /// Ground the whole instantiation up front and re-apply the
    /// immediate-consequence operator to every ground rule each round
    /// ([`crate::naive::kleene_iterate`]). The ablation baseline.
    Naive,
    /// Differential evaluation: per-predicate delta stores, one differential
    /// form per idb body atom, index-probed joins, and no up-front
    /// grounding ([`seminaive_iterate`]). Sound for every semiring (see the
    /// module docs); round-for-round equal to `Naive`.
    SemiNaive,
}

/// The round bound used by [`evaluate`] when the semiring has no intrinsic
/// convergence bound. Matches the deepest workloads in the benchmark suite
/// with two orders of magnitude to spare; instances that still change after
/// this many rounds (ℕ∞ with infinitely many derivations) are reported as
/// non-converged (`None`).
pub const DEFAULT_FALLBACK_BOUND: usize = 256;

/// Evaluates a datalog program to its least fixpoint under the chosen
/// [`EvalStrategy`] — the single entry point the benches and downstream crates
/// switch on. Both strategies detect convergence on their own, so this works
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
/// returning the full [`FixpointResult`]. Both strategies produce the same
/// idb annotations after the same number of rounds (`Tᵐ(0)`), converged or
/// not.
pub fn evaluate_with_bound<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    strategy: EvalStrategy,
    max_rounds: usize,
) -> FixpointResult<K> {
    match strategy {
        EvalStrategy::Naive => crate::naive::kleene_iterate(program, edb, max_rounds),
        EvalStrategy::SemiNaive => seminaive_iterate(program, edb, max_rounds),
    }
}

/// Like [`evaluate_with_bound`], but with an explicit
/// [`ExecContext`] thread budget: the semi-naive strategy runs its
/// delta-rule application data-parallel ([`seminaive_iterate_with`]), round
/// for round identical to the serial loop. The naive ablation baseline
/// stays serial by design (it exists to measure the unoptimized cost).
/// `ctx.threads == 1` is exactly [`evaluate_with_bound`].
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
        EvalStrategy::Naive => crate::naive::kleene_iterate(program, edb, max_rounds),
        EvalStrategy::SemiNaive => seminaive_iterate_with(program, edb, max_rounds, ctx),
    }
}

/// The differential forms and join plans of one rule. The row loops
/// register every plan's probe masks up front ([`register_forms`]) so
/// joining needs only `&FactIndex`; the compiled loops of
/// [`crate::columnar`] compile the same plans against their id tables.
pub(crate) struct RuleForms<'a> {
    pub(crate) rule: &'a Rule,
    /// One differential form per idb body atom: the delta is matched at that
    /// position, the remaining atoms bind via index probes.
    pub(crate) delta_forms: Vec<(usize, JoinPlan<'a>)>,
    /// Full-body plan seeded with the head variables, used to recompute one
    /// head fact from scratch (general-semiring path).
    pub(crate) head_seeded: JoinPlan<'a>,
    /// Left-to-right full-body plan (round 1, edb-only rules).
    pub(crate) full: JoinPlan<'a>,
    /// Does the body mention any idb predicate?
    pub(crate) has_idb_body: bool,
}

pub(crate) fn build_forms<'a>(
    program: &'a Program,
    idb_predicates: &BTreeSet<String>,
) -> Vec<RuleForms<'a>> {
    program
        .rules
        .iter()
        .map(|rule| {
            let delta_forms: Vec<(usize, JoinPlan)> = rule
                .body
                .iter()
                .enumerate()
                .filter(|(_, atom)| idb_predicates.contains(&atom.predicate))
                .map(|(pos, _)| (pos, JoinPlan::suffix(&rule.body, pos)))
                .collect();
            let head_vars = rule
                .head
                .terms
                .iter()
                .filter_map(Term::as_var)
                .collect::<BTreeSet<_>>();
            let head_seeded = JoinPlan::new(rule.body.iter().collect(), head_vars);
            let full = JoinPlan::left_to_right(&rule.body);
            RuleForms {
                rule,
                delta_forms,
                head_seeded,
                full,
                has_idb_body: rule
                    .body
                    .iter()
                    .any(|atom| idb_predicates.contains(&atom.predicate)),
            }
        })
        .collect()
}

/// Registers the probe masks of every plan of `forms` with the row loops'
/// index.
pub(crate) fn register_forms(forms: &[RuleForms<'_>], index: &mut FactIndex) {
    for form in forms {
        for plan in form
            .delta_forms
            .iter()
            .map(|(_, p)| p)
            .chain([&form.head_seeded, &form.full])
        {
            plan.register(index);
        }
    }
}

/// Multiplies the annotations of a fully bound rule body, reading idb facts
/// from `current` and edb facts from `edb`; `None` when some factor is zero.
pub(crate) fn body_product<K: Semiring>(
    rule: &Rule,
    binding: &Binding,
    idb_predicates: &BTreeSet<String>,
    edb: &FactStore<K>,
    current: &FactStore<K>,
) -> Option<K> {
    let mut product = K::one();
    for atom in &rule.body {
        let fact = ground_atom(atom, binding)?;
        let ann = if idb_predicates.contains(&fact.predicate) {
            current.annotation(&fact)
        } else {
            edb.annotation(&fact)
        };
        if ann.is_zero() {
            return None;
        }
        product.times_assign(&ann);
    }
    Some(product)
}

/// Round 1 of both semi-naive paths: apply `T` once to the empty idb.
/// Only rules without idb body atoms can contribute (all idb annotations
/// are still zero); their bodies join over the edb through the index.
fn first_round<K: Semiring>(
    forms: &[RuleForms<'_>],
    idb_predicates: &BTreeSet<String>,
    edb: &FactStore<K>,
    index: &FactIndex,
) -> FactStore<K> {
    let empty: FactStore<K> = FactStore::new();
    let mut produced: FactStore<K> = FactStore::new();
    for form in forms.iter().filter(|f| !f.has_idb_body) {
        if form.rule.body.is_empty() {
            if let Some(head) = ground_atom(&form.rule.head, &Binding::new()) {
                produced.insert(head, K::one());
            }
            continue;
        }
        form.full.join(index, Binding::new(), &mut |binding| {
            if let Some(product) = body_product(form.rule, &binding, idb_predicates, edb, &empty) {
                if let Some(head) = ground_atom(&form.rule.head, &binding) {
                    produced.insert(head, product);
                }
            }
        });
    }
    produced
}

/// The state both semi-naive loops thread from round to round: the join
/// index over every fact seen so far, the accumulated idb annotations, and
/// the per-predicate delta (the facts whose annotation changed last round).
struct DeltaState<K> {
    index: FactIndex,
    current: FactStore<K>,
    delta: BTreeSet<Fact>,
}

impl<K: Semiring> DeltaState<K> {
    /// Shared round-1 setup: build the forms (registering their probe masks
    /// on the edb index), apply `T` once, and seed the delta with the
    /// produced facts. For a syntactically non-recursive program — no rule
    /// consumes an idb fact, so `T` is constant — the delta is cleared
    /// immediately: round 1 already reached the fixpoint (the same early
    /// exit the naive loop takes, keeping `converged` flags aligned).
    fn initial<'a>(
        program: &'a Program,
        idb_predicates: &BTreeSet<String>,
        edb: &FactStore<K>,
    ) -> (Vec<RuleForms<'a>>, Self) {
        let mut index = edb.join_index();
        let forms = build_forms(program, idb_predicates);
        register_forms(&forms, &mut index);
        let mut state = DeltaState {
            index,
            current: FactStore::new(),
            delta: BTreeSet::new(),
        };
        let produced = first_round(&forms, idb_predicates, edb, &state.index);
        state.apply_changes(produced.facts().map(|(f, k)| (f, k.clone())).collect());
        if forms.iter().all(|f| f.delta_forms.is_empty()) {
            state.delta.clear();
        }
        (forms, state)
    }

    /// Groups the delta facts by predicate for the differential joins.
    fn delta_by_pred(&self) -> FxHashMap<&str, Vec<&Fact>> {
        let mut by_pred: FxHashMap<&str, Vec<&Fact>> = FxHashMap::default();
        for fact in &self.delta {
            by_pred
                .entry(fact.predicate.as_str())
                .or_default()
                .push(fact);
        }
        by_pred
    }

    /// Ends a round: the changed facts replace their annotations, join the
    /// index, and become the next round's delta.
    fn apply_changes(&mut self, changes: Vec<(Fact, K)>) {
        self.delta.clear();
        for (fact, ann) in changes {
            self.index.add_fact(fact.clone());
            self.current.set(fact.clone(), ann);
            self.delta.insert(fact);
        }
    }

    /// Wraps up: a fixpoint was reached iff the last round changed nothing.
    fn finish(self, iterations: usize) -> FixpointResult<K> {
        let converged = self.delta.is_empty();
        FixpointResult {
            idb: self.current,
            iterations,
            converged,
        }
    }
}

/// The all-zero result both paths return for a round bound of 0.
pub(crate) fn unevaluated<K: Semiring>() -> FixpointResult<K> {
    FixpointResult {
        idb: FactStore::new(),
        iterations: 0,
        converged: false,
    }
}

/// One unit of differential work: a rule form whose delta atom matched a
/// changed fact. The flat work-item list is what both the serial loops and
/// the parallel rounds iterate — contiguous chunks of it partition the
/// round's work across worker threads while preserving the serial emission
/// order (chunks are concatenated back in order).
type DeltaItem<'f, 'a, 'd> = (&'f RuleForms<'a>, &'f JoinPlan<'a>, &'a Atom, &'d Fact);

/// Flattens the (form × delta form × changed fact) nest into work items, in
/// the deterministic order the serial loop visits them.
fn delta_work_items<'f, 'a, 'd>(
    forms: &'f [RuleForms<'a>],
    delta_by_pred: &FxHashMap<&str, Vec<&'d Fact>>,
) -> Vec<DeltaItem<'f, 'a, 'd>> {
    let mut items = Vec::new();
    for form in forms {
        for (pos, plan) in &form.delta_forms {
            let atom = &form.rule.body[*pos];
            let Some(changed) = delta_by_pred.get(atom.predicate.as_str()) else {
                continue;
            };
            for fact in changed {
                items.push((form, plan, atom, *fact));
            }
        }
    }
    items
}

/// Runs one differential work item, calling `emit` with the owning form and
/// each complete body binding.
fn join_delta_item<'a, 'f>(
    (form, plan, atom, fact): DeltaItem<'f, 'a, '_>,
    index: &FactIndex,
    emit: &mut dyn FnMut(&'f RuleForms<'a>, Binding),
) {
    let Some(seed) = match_atom(atom, fact, &Binding::new()) else {
        return;
    };
    plan.join(index, seed, &mut |binding| emit(form, binding));
}

/// Runs every differential form whose delta atom matches a changed fact,
/// calling `emit` with the owning form and each complete body binding.
fn join_deltas<'a, 'f>(
    forms: &'f [RuleForms<'a>],
    delta_by_pred: &FxHashMap<&str, Vec<&Fact>>,
    index: &FactIndex,
    emit: &mut dyn FnMut(&'f RuleForms<'a>, Binding),
) {
    for item in delta_work_items(forms, delta_by_pred) {
        join_delta_item(item, index, emit);
    }
}

/// Recomputes one affected head from scratch over the index — phase 2 of
/// the general (non-idempotent-safe) semi-naive round, shared by the serial
/// and parallel loops.
pub(crate) fn recompute_head<K: Semiring>(
    head: &Fact,
    by_head: &FxHashMap<&str, Vec<&RuleForms<'_>>>,
    idb_predicates: &BTreeSet<String>,
    edb: &FactStore<K>,
    current: &FactStore<K>,
    index: &FactIndex,
) -> K {
    let mut total = K::zero();
    for form in by_head.get(head.predicate.as_str()).into_iter().flatten() {
        if form.rule.body.is_empty() {
            if ground_atom(&form.rule.head, &Binding::new()).as_ref() == Some(head) {
                total.plus_assign(&K::one());
            }
            continue;
        }
        let Some(seed) = match_atom(&form.rule.head, head, &Binding::new()) else {
            continue;
        };
        form.head_seeded.join(index, seed, &mut |binding| {
            if let Some(product) = body_product(form.rule, &binding, idb_predicates, edb, current) {
                total.plus_assign(&product);
            }
        });
    }
    total
}

/// Groups the rule forms by head predicate (phase-2 lookup structure).
pub(crate) fn forms_by_head<'f, 'a>(
    forms: &'f [RuleForms<'a>],
) -> FxHashMap<&'f str, Vec<&'f RuleForms<'a>>> {
    let mut by_head: FxHashMap<&str, Vec<&RuleForms>> = FxHashMap::default();
    for form in forms {
        by_head
            .entry(form.rule.head.predicate.as_str())
            .or_default()
            .push(form);
    }
    by_head
}

/// Semi-naive evaluation for **general** semirings: deltas (the facts whose
/// annotation changed last round) drive discovery of *affected heads*
/// through the differential forms, and each affected head is then recomputed
/// from scratch over the index. Produces exactly the naive `Tᵐ(0)` after `m`
/// rounds for every semiring — see the module docs for why unaffected heads
/// may keep their value.
pub fn seminaive_iterate<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
) -> FixpointResult<K> {
    if max_rounds == 0 {
        return unevaluated();
    }
    let idb_predicates = program.idb_predicates();
    let (forms, mut state) = DeltaState::initial(program, &idb_predicates, edb);
    let by_head = forms_by_head(&forms);

    let mut iterations = 1;
    while iterations < max_rounds {
        if state.delta.is_empty() {
            break;
        }
        iterations += 1;

        // 1. Affected heads: everything one differential form away from a
        //    delta fact.
        let mut affected: BTreeSet<Fact> = BTreeSet::new();
        join_deltas(
            &forms,
            &state.delta_by_pred(),
            &state.index,
            &mut |form, binding| {
                if let Some(head) = ground_atom(&form.rule.head, &binding) {
                    affected.insert(head);
                }
            },
        );

        // 2. Recompute each affected head from scratch (full-minus-previous
        //    difference tracking: the new value replaces the old one).
        let mut changes: Vec<(Fact, K)> = Vec::new();
        for head in &affected {
            let total = recompute_head(
                head,
                &by_head,
                &idb_predicates,
                edb,
                &state.current,
                &state.index,
            );
            if total != state.current.annotation(head) {
                changes.push((head.clone(), total));
            }
        }

        // 3. Apply: the changed facts are the next round's delta.
        state.apply_changes(changes);
    }
    state.finish(iterations)
}

/// [`seminaive_iterate`] with an execution context: `ctx.mode` picks the
/// engine — the compiled loop over id tables
/// ([`crate::columnar::seminaive_iterate_batch`]) at every EDB size, unless
/// `PROVSEM_EXEC=row` ([`ExecMode::Row`]) forces the reference row loop —
/// and `ctx.threads` is the thread budget. On the row engine, both phases
/// of every round run data-parallel over scoped worker threads —
/// affected-head discovery over contiguous chunks of the differential work
/// items, and head recomputation over contiguous chunks of the (sorted)
/// affected set.
///
/// Results are identical to the serial loop at every thread count and on
/// either engine: affected heads are a set union (order-insensitive),
/// recomputation is a pure function of the previous round's state
/// (`current`/`index` are only read during a round), and the per-round
/// change list is concatenated in chunk order, which *is* the serial head
/// order. Requires `K: Send + Sync` because the workers share the fact
/// stores by reference; non-`Sync` annotations (circuit handles) use the
/// serial [`seminaive_iterate`].
pub fn seminaive_iterate_with<K>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
    ctx: &ExecContext,
) -> FixpointResult<K>
where
    K: Semiring + Send + Sync,
{
    if ctx.mode != ExecMode::Row {
        return crate::columnar::seminaive_iterate_batch(program, edb, max_rounds, ctx.threads);
    }
    if ctx.threads <= 1 {
        return seminaive_iterate(program, edb, max_rounds);
    }
    if max_rounds == 0 {
        return unevaluated();
    }
    let idb_predicates = program.idb_predicates();
    let (forms, mut state) = DeltaState::initial(program, &idb_predicates, edb);
    let by_head = forms_by_head(&forms);

    let mut iterations = 1;
    while iterations < max_rounds {
        if state.delta.is_empty() {
            break;
        }
        iterations += 1;

        // 1. Affected heads, in parallel over the differential work items;
        //    the per-worker head sets union into one BTreeSet (the same set
        //    the serial loop builds, whatever the interleaving).
        let delta_by_pred = state.delta_by_pred();
        let items = delta_work_items(&forms, &delta_by_pred);
        let index = &state.index;
        let affected: BTreeSet<Fact> =
            par::par_map_chunks(par::chunked(items, ctx.threads), |_, chunk| {
                let mut heads = BTreeSet::new();
                for item in chunk {
                    let form = item.0;
                    join_delta_item(item, index, &mut |_, binding| {
                        if let Some(head) = ground_atom(&form.rule.head, &binding) {
                            heads.insert(head);
                        }
                    });
                }
                heads
            })
            .into_iter()
            .flatten()
            .collect();

        // 2. Recompute affected heads in parallel; chunks are contiguous in
        //    the sorted head order and concatenated back in order, so the
        //    change list equals the serial one element for element.
        let current = &state.current;
        let affected: Vec<Fact> = affected.into_iter().collect();
        let changes: Vec<(Fact, K)> =
            par::par_map_chunks(par::chunked(affected, ctx.threads), |_, chunk| {
                chunk
                    .into_iter()
                    .filter_map(|head| {
                        let total =
                            recompute_head(&head, &by_head, &idb_predicates, edb, current, index);
                        (total != current.annotation(&head)).then_some((head, total))
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        // 3. Apply: the changed facts are the next round's delta.
        state.apply_changes(changes);
    }
    state.finish(iterations)
}

/// Semi-naive evaluation for `+`-idempotent semirings: the classical delta
/// rewrite. Each round joins only the differential forms whose delta atom
/// matches a changed fact, computes the resulting increments, and merges
/// them into the accumulator with semiring `+`; nothing is ever recomputed
/// from scratch.
///
/// Exact for idempotent `+` (sets, lattices, tropical — stale increments are
/// absorbed because `a ≤ b` implies `a + b = b`); for non-idempotent
/// semirings (ℕ, ℕ\[X\]) re-derivations would change the result, hence the
/// [`PlusIdempotent`] bound. Use [`seminaive_iterate`] there instead.
pub fn seminaive_idempotent<K>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
) -> FixpointResult<K>
where
    K: Semiring + PlusIdempotent,
{
    if max_rounds == 0 {
        return unevaluated();
    }
    let idb_predicates = program.idb_predicates();
    let (forms, mut state) = DeltaState::initial(program, &idb_predicates, edb);

    let mut iterations = 1;
    while iterations < max_rounds {
        if state.delta.is_empty() {
            break;
        }
        iterations += 1;

        // Increments from every differential form whose delta atom matches a
        // changed fact; accumulated with `+` inside `produced`.
        let mut produced: FactStore<K> = FactStore::new();
        join_deltas(
            &forms,
            &state.delta_by_pred(),
            &state.index,
            &mut |form, binding| {
                if let Some(product) =
                    body_product(form.rule, &binding, &idb_predicates, edb, &state.current)
                {
                    if let Some(head) = ground_atom(&form.rule.head, &binding) {
                        produced.insert(head, product);
                    }
                }
            },
        );

        // Merge: only the facts whose annotation actually moved become the
        // next delta (idempotent `+` absorbs everything else).
        let mut changes: Vec<(Fact, K)> = Vec::new();
        for (fact, increment) in produced.facts() {
            let merged = state.current.annotation(&fact).plus(increment);
            if merged != state.current.annotation(&fact) {
                changes.push((fact, merged));
            }
        }
        state.apply_changes(changes);
    }
    state.finish(iterations)
}

/// [`seminaive_idempotent`] with an execution context: `ctx.mode` picks the
/// engine like [`seminaive_iterate_with`] (the compiled loop is
/// [`crate::columnar::seminaive_idempotent_batch`]). On the row engine,
/// each round's increments are produced in parallel over contiguous chunks
/// of the differential work items and merged on the coordinator **in
/// work-item order** — the exact emission order of the serial loop — so the
/// accumulated store (and the delta) match the serial round bit for bit.
pub fn seminaive_idempotent_with<K>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
    ctx: &ExecContext,
) -> FixpointResult<K>
where
    K: Semiring + PlusIdempotent + Send + Sync,
{
    if ctx.mode != ExecMode::Row {
        return crate::columnar::seminaive_idempotent_batch(program, edb, max_rounds, ctx.threads);
    }
    if ctx.threads <= 1 {
        return seminaive_idempotent(program, edb, max_rounds);
    }
    if max_rounds == 0 {
        return unevaluated();
    }
    let idb_predicates = program.idb_predicates();
    let (forms, mut state) = DeltaState::initial(program, &idb_predicates, edb);

    let mut iterations = 1;
    while iterations < max_rounds {
        if state.delta.is_empty() {
            break;
        }
        iterations += 1;

        let delta_by_pred = state.delta_by_pred();
        let items = delta_work_items(&forms, &delta_by_pred);
        let index = &state.index;
        let current = &state.current;
        let increments: Vec<Vec<(Fact, K)>> =
            par::par_map_chunks(par::chunked(items, ctx.threads), |_, chunk| {
                let mut out: Vec<(Fact, K)> = Vec::new();
                for item in chunk {
                    let form = item.0;
                    join_delta_item(item, index, &mut |_, binding| {
                        if let Some(product) =
                            body_product(form.rule, &binding, &idb_predicates, edb, current)
                        {
                            if let Some(head) = ground_atom(&form.rule.head, &binding) {
                                out.push((head, product));
                            }
                        }
                    });
                }
                out
            });
        let mut produced: FactStore<K> = FactStore::new();
        for (head, product) in increments.into_iter().flatten() {
            produced.insert(head, product);
        }

        // Merge: only the facts whose annotation actually moved become the
        // next delta (idempotent `+` absorbs everything else).
        let mut changes: Vec<(Fact, K)> = Vec::new();
        for (fact, increment) in produced.facts() {
            let merged = state.current.annotation(&fact).plus(increment);
            if merged != state.current.annotation(&fact) {
                changes.push((fact, merged));
            }
        }
        state.apply_changes(changes);
    }
    state.finish(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::edge_facts;
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
        let naive = evaluate(&program, &edb, EvalStrategy::Naive).expect("converges");
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
            let naive = evaluate_with_bound(&program, &edb, EvalStrategy::Naive, rounds);
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
        for strategy in [EvalStrategy::Naive, EvalStrategy::SemiNaive] {
            let out = evaluate_with_bound(&program, &edb, strategy, 0);
            assert!(!out.converged);
            assert!(out.idb.is_empty());
            assert_eq!(out.iterations, 0);
        }
    }

    #[test]
    fn mutual_recursion_converges_to_the_same_fixpoint() {
        // P and Q feed each other; both strategies agree.
        let program = crate::parser::parse_program(
            "P(x, y) :- R(x, y).\nQ(x, y) :- P(x, y).\nP(x, y) :- Q(y, x).",
        )
        .unwrap();
        let edb = edge_facts(
            "R",
            &[("a", "b", Bool::from(true)), ("b", "c", Bool::from(true))],
        );
        let naive = evaluate(&program, &edb, EvalStrategy::Naive).unwrap();
        let semi = evaluate(&program, &edb, EvalStrategy::SemiNaive).unwrap();
        assert_eq!(naive, semi);
        assert_eq!(
            semi.annotation(&Fact::new("P", ["b", "a"])),
            Bool::from(true)
        );
    }
}
