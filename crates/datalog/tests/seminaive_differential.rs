//! Differential test: naive and semi-naive evaluation agree.
//!
//! Randomized safe (possibly mutually recursive) programs and edbs are
//! evaluated by the Kleene oracle and the semi-naive loop over 𝔹, ℕ
//! (bounded rounds), the tropical semiring, and the why-provenance
//! semiring — ≥ 100 cases per semiring.
//!
//! Agreement contract (documented on [`provsem_datalog::seminaive`]):
//!
//! * `kleene_iterate` and `EvalStrategy::SemiNaive` produce the same
//!   idb annotations after the same round bound (`Tᵐ(0)`) for **every**
//!   semiring, converged or not, and their `converged` flags agree;
//! * `iterations` counts are *not* compared — the naive loop spends an extra
//!   application of `T` observing the fixpoint, the semi-naive loop observes
//!   an empty delta;
//! * `seminaive_idempotent` (the delta rewrite, over `+`-idempotent
//!   semirings) runs the same exact loop, so it too equals `Tᵐ(0)` round for
//!   round — its idb and `converged` are compared with the naive iteration
//!   at a few shallow bounds and at the converged one;
//! * annotations that cannot cross threads ([`Circuit`] handles) evaluate
//!   through every entry point that asks only `K: Semiring`, and their
//!   results specialize to the naive iteration over ℕ, 𝔹 and the tropical
//!   semiring.

mod common;

use common::{arb_edb, arb_program, build_edb, build_program};
use proptest::prelude::*;
use provsem_datalog::naive::{instantiate_by_scanning, kleene_iterate_instantiated};
use provsem_datalog::prelude::*;
use provsem_semiring::circuit::{self, Circuit, CircuitEval};
use provsem_semiring::{
    Bool, CommutativeSemiring, Natural, Semiring, Tropical, Valuation, Variable, WhySet,
};

const CASES: u32 = 120;
const CONVERGED_BOUND: usize = 64;

/// Asserts the full agreement contract for one `+`-idempotent semiring.
fn assert_idempotent_agreement<K>(program: &Program, edb: &FactStore<K>)
where
    K: Semiring + provsem_semiring::PlusIdempotent,
{
    let rules = instantiate_by_scanning(program, edb);
    let naive = kleene_iterate_instantiated(program, &rules, edb, CONVERGED_BOUND);
    let semi = evaluate_with_bound(program, edb, EvalStrategy::SemiNaive, CONVERGED_BOUND);
    assert!(naive.converged, "naive did not converge:\n{program}");
    assert_eq!(naive.converged, semi.converged);
    assert_eq!(naive.idb, semi.idb, "general path disagrees:\n{program}");
    for rounds in [1, 2, 3, CONVERGED_BOUND] {
        let naive = kleene_iterate_instantiated(program, &rules, edb, rounds);
        let fast = seminaive_idempotent(program, edb, rounds);
        assert_eq!(naive.converged, fast.converged, "rounds={rounds}");
        assert_eq!(naive.idb, fast.idb, "delta rewrite disagrees:\n{program}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn boolean_agreement(raw_program in arb_program(), raw_edb in arb_edb()) {
        let program = build_program(&raw_program);
        let edb = build_edb(&raw_edb, |_, _| Bool::from(true));
        assert_idempotent_agreement(&program, &edb);
    }

    #[test]
    fn tropical_agreement(raw_program in arb_program(), raw_edb in arb_edb()) {
        let program = build_program(&raw_program);
        let edb = build_edb(&raw_edb, |_, w| Tropical::cost(w));
        assert_idempotent_agreement(&program, &edb);
    }

    #[test]
    fn why_provenance_agreement(raw_program in arb_program(), raw_edb in arb_edb()) {
        let program = build_program(&raw_program);
        let edb = build_edb(&raw_edb, |i, _| WhySet::var(format!("t{i}")));
        assert_idempotent_agreement(&program, &edb);
    }

    #[test]
    fn bounded_natural_round_for_round_agreement(
        raw_program in arb_program(),
        raw_edb in arb_edb(),
        rounds in 1usize..6,
    ) {
        // ℕ is not +-idempotent and recursive programs need not converge, so
        // the contract here is per-round: both loops compute Tᵐ(0).
        let program = build_program(&raw_program);
        let edb = build_edb(&raw_edb, |_, w| Natural::from(w));
        let naive = kleene_iterate(&program, &edb, rounds);
        let semi = evaluate_with_bound(&program, &edb, EvalStrategy::SemiNaive, rounds);
        prop_assert_eq!(naive.converged, semi.converged, "program:\n{}", &program);
        prop_assert_eq!(naive.idb, semi.idb, "program:\n{}", &program);
    }
}

#[test]
fn figure7_nonconverging_instance_agrees_per_round() {
    // The canonical non-converging workload: under ℕ∞ the d→d self-loop
    // pumps forever, and both loops must track each other exactly.
    let program = Program::transitive_closure("R", "Q");
    let edb = edge_facts(
        "R",
        &[
            ("a", "b", provsem_semiring::NatInf::Fin(2)),
            ("a", "c", provsem_semiring::NatInf::Fin(3)),
            ("c", "b", provsem_semiring::NatInf::Fin(2)),
            ("b", "d", provsem_semiring::NatInf::Fin(1)),
            ("d", "d", provsem_semiring::NatInf::Fin(1)),
        ],
    );
    for rounds in 1..10 {
        let naive = kleene_iterate(&program, &edb, rounds);
        let semi = evaluate_with_bound(&program, &edb, EvalStrategy::SemiNaive, rounds);
        assert_eq!(naive.idb, semi.idb, "rounds={rounds}");
        assert_eq!(naive.converged, semi.converged, "rounds={rounds}");
        // The growth phase: neither loop may claim convergence while the
        // self-loop is still pumping finite values. (Around round 9 the u64
        // payloads saturate to ∞ and the system genuinely reaches its ℕ∞
        // fixpoint, so the window below is where growth is observable.)
        if rounds <= 8 {
            assert!(!naive.converged && !semi.converged, "rounds={rounds}");
        }
    }
}

// --- `!Send` annotations on the compiled loop ------------------------------

/// An acyclic edge list (a diamond with a tail and a shortcut): several
/// derivations per fact, none infinite, so ℕ converges too.
const DAG: [(&str, &str, u64); 6] = [
    ("a", "b", 2),
    ("a", "c", 3),
    ("b", "d", 1),
    ("c", "d", 2),
    ("d", "e", 4),
    ("a", "e", 5),
];

/// Two more edges for the maintenance step, still acyclic.
const MORE: [(&str, &str, u64); 2] = [("e", "f", 1), ("b", "e", 3)];

fn edge_var(i: usize) -> Variable {
    Variable::indexed("e", i)
}

/// Edges `offset..` annotated with their circuit variables.
fn circuit_edges(edges: &[(&str, &str, u64)], offset: usize) -> FactStore<Circuit> {
    let mut store = FactStore::new();
    for (i, (s, d, _)) in edges.iter().enumerate() {
        store.insert(Fact::new("R", [*s, *d]), Circuit::var(edge_var(offset + i)));
    }
    store
}

fn specialized<K: CommutativeSemiring>(
    idb: &FactStore<Circuit>,
    valuation: &Valuation<K>,
) -> FactStore<K> {
    let mut eval = CircuitEval::new(valuation);
    let mut out = FactStore::new();
    for (fact, circuit) in idb.facts() {
        out.set(fact, eval.eval(*circuit));
    }
    out
}

/// The circuit-annotated fixpoint of `edges`, through every entry point
/// that asks only `K: Semiring`, must specialize under `annotate` to the
/// naive iteration over `K`, fact for fact.
fn assert_circuit_routes_specialize<K: CommutativeSemiring>(
    program: &Program,
    annotate: impl Fn(u64) -> K,
) {
    let all: Vec<_> = DAG.iter().chain(&MORE).copied().collect();
    let valuation = Valuation::from_pairs(
        all.iter()
            .enumerate()
            .map(|(i, (_, _, w))| (edge_var(i), annotate(*w))),
    );
    let direct = |edges: &[(&str, &str, u64)]| {
        let edges: Vec<_> = edges
            .iter()
            .map(|(s, d, w)| (*s, *d, annotate(*w)))
            .collect();
        kleene_iterate(program, &edge_facts("R", &edges), CONVERGED_BOUND)
    };
    let expected = direct(&DAG);
    assert!(expected.converged);

    let edb = circuit_edges(&DAG, 0);
    let iterated = seminaive_iterate(program, &edb, CONVERGED_BOUND);
    assert_eq!(iterated.converged, expected.converged);
    assert_eq!(specialized(&iterated.idb, &valuation), expected.idb);

    let evaluated = evaluate(program, &edb, EvalStrategy::SemiNaive).expect("converges");
    assert_eq!(specialized(&evaluated, &valuation), expected.idb);

    let mut view = materialize_fixpoint(program, &edb, CONVERGED_BOUND);
    assert_eq!(view.converged(), expected.converged);
    assert_eq!(specialized(view.result(), &valuation), expected.idb);
    maintain_fixpoint(&mut view, &circuit_edges(&MORE, DAG.len()));
    let expected = direct(&all);
    assert_eq!(view.converged(), expected.converged);
    assert_eq!(specialized(view.result(), &valuation), expected.idb);
}

/// Circuit handles are `!Send`, so they can reach the compiled loop only
/// through the calling-thread entry points — which must therefore keep the
/// bare `K: Semiring` bound and compute what the naive iteration computes.
#[test]
fn circuit_annotations_run_the_compiled_loop_on_the_calling_thread() {
    for program in [
        Program::linear_transitive_closure("R", "Q"),
        Program::transitive_closure("R", "Q"),
    ] {
        circuit::reset();
        assert_circuit_routes_specialize(&program, Natural::from);
        assert_circuit_routes_specialize(&program, |_| Bool::from(true));
        assert_circuit_routes_specialize(&program, Tropical::cost);
    }
}
