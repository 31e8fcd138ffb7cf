//! Proposition 3.5 / Theorem 5.7: semiring homomorphisms commute with
//! (datalog) query evaluation.
//!
//! For an ω-continuous homomorphism `h : K → K'`, applying `h` tuple-wise to
//! the edb and then evaluating equals evaluating over K and then applying
//! `h` to the answer. The properties below check this on random programs and
//! instances for the standard specialization maps, and a deliberately broken
//! map shows the hypothesis is not vacuous.

mod common;

use common::{arb_edb, arb_program, build_edb, build_program};
use proptest::prelude::*;
use provsem_datalog::prelude::*;
use provsem_semiring::{
    NatInf, NatInfToBool, Natural, NaturalToBool, NaturalToNatInf, Semiring, SemiringHomomorphism,
};

const CASES: u32 = 120;

/// `h` applied fact-wise to a store.
fn map_store<A: Semiring, B: Semiring>(
    h: &impl SemiringHomomorphism<A, B>,
    store: &FactStore<A>,
) -> FactStore<B> {
    store.map_annotations(|k| h.apply(k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn support_homomorphism_commutes_per_round(
        raw_program in arb_program(),
        raw_edb in arb_edb(),
        rounds in 1usize..6,
    ) {
        // h : ℕ → 𝔹 commutes with every application of the
        // immediate-consequence operator, hence with Tᵐ(0) for every m —
        // even on instances where the ℕ iteration never converges.
        let program = build_program(&raw_program);
        let edb = build_edb(&raw_edb, |_, w| Natural::from(w));
        let mapped_edb = map_store(&NaturalToBool, &edb);
        let naive = (
            kleene_iterate(&program, &edb, rounds),
            kleene_iterate(&program, &mapped_edb, rounds),
        );
        let semi = (
            evaluate_with_bound(&program, &edb, EvalStrategy::SemiNaive, rounds),
            evaluate_with_bound(&program, &mapped_edb, EvalStrategy::SemiNaive, rounds),
        );
        for (label, (over_nat, over_bool)) in [("naive", naive), ("semi-naive", semi)] {
            prop_assert_eq!(
                map_store(&NaturalToBool, &over_nat.idb),
                over_bool.idb,
                "{}, program:\n{}", label, &program
            );
        }
    }

    #[test]
    fn inclusion_into_natinf_commutes_per_round(
        raw_program in arb_program(),
        raw_edb in arb_edb(),
        rounds in 1usize..6,
    ) {
        let program = build_program(&raw_program);
        let edb = build_edb(&raw_edb, |_, w| Natural::from(w));
        let mapped_edb = map_store(&NaturalToNatInf, &edb);
        let over_nat = evaluate_with_bound(&program, &edb, EvalStrategy::SemiNaive, rounds);
        let over_natinf =
            evaluate_with_bound(&program, &mapped_edb, EvalStrategy::SemiNaive, rounds);
        prop_assert_eq!(
            map_store(&NaturalToNatInf, &over_nat.idb),
            over_natinf.idb,
            "program:\n{}", &program
        );
    }

    #[test]
    fn natinf_to_bool_commutes_with_exact_evaluation(raw_edb in arb_edb()) {
        // Theorem 5.7 with the ∞ values exercised: the support of the exact
        // ℕ∞ transitive closure (Inf annotations included) equals the 𝔹
        // fixpoint of the mapped edb. Both sides use different algorithms
        // (cycle analysis vs semi-naive fixpoint).
        let program = Program::transitive_closure("R", "Q");
        let edb = build_edb(&raw_edb, |_, w| NatInf::Fin(w));
        // Collapse R and S into one edge relation for the TC program.
        let mut edges: FactStore<NatInf> = FactStore::new();
        for (fact, k) in edb.facts() {
            edges.insert(Fact::new("R", fact.values.clone()), *k);
        }
        let exact = evaluate_natinf(&program, &edges);
        let mapped_edb = map_store(&NatInfToBool, &edges);
        let over_bool =
            evaluate(&program, &mapped_edb, EvalStrategy::SemiNaive).expect("𝔹 converges");
        prop_assert_eq!(map_store(&NatInfToBool, &exact), over_bool);
    }
}

#[test]
fn broken_map_fails_to_commute() {
    // n ↦ min(n, 1) is not additive (h(1+1) = 1 ≠ 2 = h(1) + h(1)), and
    // Proposition 3.5 says commutation must then fail on some instance —
    // here, Figure 6 with its bag multiplicities.
    let cap = |n: &Natural| Natural::from(n.value().min(1));
    let program = Program::figure6_query();
    let edb = edge_facts(
        "R",
        &[
            ("a", "a", Natural::from(2u64)),
            ("a", "b", Natural::from(3u64)),
            ("b", "b", Natural::from(4u64)),
        ],
    );
    let mapped_edb = edb.map_annotations(cap);
    let evaluated_then_mapped = evaluate(&program, &edb, EvalStrategy::SemiNaive)
        .unwrap()
        .map_annotations(cap);
    let mapped_then_evaluated = evaluate(&program, &mapped_edb, EvalStrategy::SemiNaive).unwrap();
    // Q(a,b) = 2·3 + 3·4 = 18 ↦ 1 on the left, but 1·1 + 1·1 = 2 on the
    // right.
    assert_ne!(evaluated_then_mapped, mapped_then_evaluated);
    assert_eq!(
        mapped_then_evaluated.annotation(&Fact::new("Q", ["a", "b"])),
        Natural::from(2u64)
    );
}
