//! Property-based semiring law suite.
//!
//! Proposition 3.4 of the paper makes the commutative-semiring laws the
//! load-bearing hypothesis of everything downstream, and the semi-naive
//! datalog evaluator additionally trusts `+`-idempotence where it is
//! claimed. This suite proptest-checks, for **every** annotation structure
//! shipped by the crate, on randomly generated elements:
//!
//! * associativity and commutativity of `+` and `·`,
//! * the `0`/`1` identity laws and annihilation by `0` (skipped for the
//!   degenerate why-provenance semiring, where `0 = 1`),
//! * distributivity of `·` over `+` on both sides,
//! * agreement with the reference harness
//!   [`provsem_semiring::properties::check_semiring_laws`],
//! * [`Semiring::sum_groups`] — the grouping kernels' bulk sum, which
//!   circuits override — equals [`Semiring::sum`] group by group,
//! * [`Semiring::times_each`] — the join's bulk product, which circuits
//!   override too — equals [`Semiring::times`] pair by pair, in both operand
//!   orders, with zeros, ones and empty batches; for circuits also that a
//!   stale handle anywhere in a batch panics and that specializing a circuit
//!   into circuits through `CircuitEval::eval_all` cannot deadlock,
//! * [`Semiring::sum_products`] — the projecting join's bulk sum of
//!   products, which circuits override with one `Σᵢ aᵢ·bᵢ` node per group —
//!   equals `sum_groups ∘ times_each`, with zeros, ones, empty groups and
//!   empty batches; for circuits also that a stale handle anywhere in its
//!   batch panics,
//! * `a + a = a` for every type claiming [`PlusIdempotent`].
//!
//! The floating-point semirings (fuzzy, Viterbi) are sampled from dyadic
//! values (`k/2ⁿ` with small `n`) so that `max`/`min`/products are exact and
//! the laws hold on the nose rather than up to rounding.

use proptest::prelude::*;
use provsem_semiring::prelude::*;
use provsem_semiring::properties::check_semiring_laws;

/// Cases per property; together with the six properties per semiring every
/// structure sees several hundred random elements.
const CASES: u32 = 128;

/// Checks the commutative-semiring laws for one annotation type.
///
/// Usage: `semiring_laws!(module_name, Type, strategy_expr)` where
/// `strategy_expr` is a proptest strategy producing `Type`. Pair with
/// [`plus_idempotence!`] for types claiming [`PlusIdempotent`].
macro_rules! semiring_laws {
    ($name:ident, $ty:ty, $strategy:expr) => {
        mod $name {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(CASES))]

                #[test]
                fn plus_is_associative_and_commutative(
                    a in $strategy, b in $strategy, c in $strategy
                ) {
                    prop_assert_eq!(a.plus(&b), b.plus(&a));
                    prop_assert_eq!(a.plus(&b).plus(&c), a.plus(&b.plus(&c)));
                }

                #[test]
                fn times_is_associative_and_commutative(
                    a in $strategy, b in $strategy, c in $strategy
                ) {
                    prop_assert_eq!(a.times(&b), b.times(&a));
                    prop_assert_eq!(a.times(&b).times(&c), a.times(&b.times(&c)));
                }

                #[test]
                fn identity_and_annihilation_laws(a in $strategy) {
                    let zero = <$ty>::zero();
                    let one = <$ty>::one();
                    prop_assert_eq!(a.plus(&zero), a.clone());
                    prop_assert_eq!(zero.plus(&a), a.clone());
                    prop_assert_eq!(a.times(&one), a.clone());
                    prop_assert_eq!(one.times(&a), a.clone());
                    // The degenerate why-provenance structure (0 = 1) has no
                    // annihilation law; everything else must satisfy it.
                    if zero != one {
                        prop_assert!(a.times(&zero).is_zero());
                        prop_assert!(zero.times(&a).is_zero());
                    }
                }

                #[test]
                fn times_distributes_over_plus(
                    a in $strategy, b in $strategy, c in $strategy
                ) {
                    prop_assert_eq!(a.times(&b.plus(&c)), a.times(&b).plus(&a.times(&c)));
                    prop_assert_eq!(b.plus(&c).times(&a), b.times(&a).plus(&c.times(&a)));
                }

                #[test]
                fn random_samples_pass_the_reference_harness(
                    xs in prop::collection::vec($strategy, 1..5)
                ) {
                    prop_assert_eq!(check_semiring_laws(&xs), Ok(()));
                }

                #[test]
                fn sum_groups_is_the_sum_of_each_group(
                    members in prop::collection::vec(($strategy, 0u32..4, 0u8..4), 0..12),
                    shape in 0u8..3
                ) {
                    // A quarter of the members are zeros.
                    let values: Vec<$ty> = members
                        .iter()
                        .map(|(v, _, zero)| if *zero == 0 { <$ty>::zero() } else { v.clone() })
                        .collect();
                    let (n_groups, group_of): (usize, Vec<u32>) = match shape {
                        // Random groups, of which at least two stay empty...
                        0 => (6, members.iter().map(|(_, g, _)| *g).collect()),
                        // ...one group holding everything...
                        1 => (1, vec![0; values.len()]),
                        // ...all singletons.
                        _ => (values.len(), (0..values.len() as u32).collect()),
                    };
                    let sums = <$ty>::sum_groups(n_groups, &group_of, values.clone());
                    prop_assert_eq!(sums.len(), n_groups);
                    for (group, sum) in sums.iter().enumerate() {
                        let of_group = values
                            .iter()
                            .zip(&group_of)
                            .filter(|(_, &g)| g as usize == group)
                            .map(|(v, _)| v);
                        prop_assert_eq!(sum.clone(), <$ty>::sum(of_group));
                    }
                }

                #[test]
                fn times_each_is_pairwise_times(
                    pairs in prop::collection::vec(($strategy, $strategy, 0u8..6), 0..12)
                ) {
                    // A third of the pairs get a `0` or a `1` on one side.
                    let operands: Vec<($ty, $ty)> = pairs
                        .into_iter()
                        .map(|(a, b, shape)| match shape {
                            0 => (<$ty>::zero(), b),
                            1 => (a, <$ty>::one()),
                            _ => (a, b),
                        })
                        .collect();
                    // Each pair in both operand orders, in stream order.
                    let refs: Vec<(&$ty, &$ty)> =
                        operands.iter().flat_map(|(a, b)| [(a, b), (b, a)]).collect();
                    let products = <$ty>::times_each(refs.iter().copied());
                    prop_assert_eq!(products.len(), refs.len());
                    for ((a, b), product) in refs.iter().zip(products) {
                        prop_assert_eq!(product, a.times(b));
                    }
                    prop_assert!(<$ty>::times_each(Vec::<(&$ty, &$ty)>::new()).is_empty());
                }

                #[test]
                fn sum_products_is_sum_groups_of_times_each(
                    pairs in prop::collection::vec(($strategy, $strategy, 0u32..4, 0u8..6), 0..12),
                    shape in 0u8..3
                ) {
                    // A third of the pairs get a `0` or a `1` on one side.
                    let operands: Vec<($ty, $ty)> = pairs
                        .iter()
                        .map(|(a, b, _, kind)| match kind {
                            0 => (<$ty>::zero(), b.clone()),
                            1 => (a.clone(), <$ty>::one()),
                            _ => (a.clone(), b.clone()),
                        })
                        .collect();
                    let (n_groups, group_of): (usize, Vec<u32>) = match shape {
                        // Random groups, of which at least two stay empty...
                        0 => (6, pairs.iter().map(|(_, _, g, _)| *g).collect()),
                        // ...one group holding everything...
                        1 => (1, vec![0; operands.len()]),
                        // ...all singletons.
                        _ => (operands.len(), (0..operands.len() as u32).collect()),
                    };
                    let refs = || operands.iter().map(|(a, b)| (a, b));
                    let sums = <$ty>::sum_products(n_groups, &group_of, refs());
                    let expected =
                        <$ty>::sum_groups(n_groups, &group_of, <$ty>::times_each(refs()));
                    prop_assert_eq!(sums.len(), n_groups);
                    prop_assert_eq!(sums, expected);
                }
            }
        }
    };
}

/// Checks `a + a = a` for a [`PlusIdempotent`] semiring (separate macro so
/// the trait bound is enforced at compile time).
macro_rules! plus_idempotence {
    ($name:ident, $ty:ty, $strategy:expr) => {
        mod $name {
            use super::*;

            fn assert_claims_idempotence<K: PlusIdempotent>() {}

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(CASES))]

                #[test]
                fn plus_is_idempotent(a in $strategy) {
                    assert_claims_idempotence::<$ty>();
                    prop_assert_eq!(a.plus(&a), a.clone());
                }
            }
        }
    };
}

// ---- element generators ----------------------------------------------------

fn arb_natural() -> impl Strategy<Value = Natural> {
    (0u64..60).prop_map(Natural::from)
}

fn arb_bool() -> impl Strategy<Value = Bool> {
    (0u8..2).prop_map(|b| Bool::from(b == 1))
}

fn arb_natinf() -> impl Strategy<Value = NatInf> {
    (0u64..30, 0u8..8).prop_map(|(n, tag)| {
        if tag == 0 {
            NatInf::Inf
        } else {
            NatInf::Fin(n)
        }
    })
}

fn arb_tropical() -> impl Strategy<Value = Tropical> {
    (0u64..30, 0u8..8).prop_map(|(n, tag)| {
        if tag == 0 {
            Tropical::unreachable()
        } else {
            Tropical::cost(n)
        }
    })
}

/// Exactly representable dyadic values in `[0, 1]`, so fuzzy `max`/`min` and
/// Viterbi products stay exact.
fn arb_unit_interval() -> impl Strategy<Value = f64> {
    (0u8..5).prop_map(|i| [0.0, 0.125, 0.25, 0.5, 1.0][i as usize])
}

fn arb_fuzzy() -> impl Strategy<Value = Fuzzy> {
    arb_unit_interval().prop_map(Fuzzy::new)
}

fn arb_viterbi() -> impl Strategy<Value = Viterbi> {
    arb_unit_interval().prop_map(Viterbi::new)
}

fn arb_clearance() -> impl Strategy<Value = Clearance> {
    (0usize..Clearance::enumerate().len()).prop_map(|i| Clearance::enumerate()[i])
}

fn var_name(id: u8) -> String {
    format!("x{id}")
}

fn arb_posbool() -> impl Strategy<Value = PosBool> {
    // A random DNF over four variables; includes ff (no clauses) and tt
    // (an empty clause).
    prop::collection::vec(prop::collection::vec(0u8..4, 0..3), 0..4)
        .prop_map(|dnf| PosBool::from_dnf(dnf.into_iter().map(|c| c.into_iter().map(var_name))))
}

fn arb_whyset() -> impl Strategy<Value = WhySet> {
    prop::collection::vec(0u8..5, 0..4)
        .prop_map(|vs| WhySet::from_vars(vs.into_iter().map(var_name)))
}

fn arb_witness() -> impl Strategy<Value = Witness> {
    prop::collection::vec(prop::collection::vec(0u8..4, 0..3), 0..3)
        .prop_map(|ws| Witness::from_witnesses(ws.into_iter().map(|w| w.into_iter().map(var_name))))
}

fn arb_event() -> impl Strategy<Value = Event> {
    (0u8..2, prop::collection::vec(0u32..6, 0..4)).prop_map(|(co, worlds)| {
        if co == 0 {
            Event::excluding(worlds)
        } else {
            Event::of_worlds(worlds)
        }
    })
}

fn arb_monomial() -> impl Strategy<Value = Monomial> {
    prop::collection::vec((0u8..3, 1u32..3), 0..3)
        .prop_map(|ps| Monomial::from_powers(ps.into_iter().map(|(v, e)| (var_name(v), e))))
}

fn arb_provenance_polynomial() -> impl Strategy<Value = ProvenancePolynomial> {
    prop::collection::vec((arb_monomial(), 0u64..4), 0..4).prop_map(|terms| {
        ProvenancePolynomial::from_terms(terms.into_iter().map(|(m, c)| (m, Natural::from(c))))
    })
}

fn arb_bool_polynomial() -> impl Strategy<Value = BoolPolynomial> {
    prop::collection::vec(arb_monomial(), 0..4)
        .prop_map(|ms| BoolPolynomial::from_terms(ms.into_iter().map(|m| (m, Bool::from(true)))))
}

fn arb_natinf_polynomial() -> impl Strategy<Value = NatInfPolynomial> {
    prop::collection::vec((arb_monomial(), arb_natinf()), 0..4)
        .prop_map(NatInfPolynomial::from_terms)
}

/// Random hash-consed circuits: a random polynomial built into circuit form,
/// multiplied and summed with further random polynomials so that the handles
/// cover non-normalized shapes (`Plus`/`Times` nodes whose operands are
/// whole subcircuits, not just monomials).
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (
        arb_provenance_polynomial(),
        arb_provenance_polynomial(),
        arb_provenance_polynomial(),
    )
        .prop_map(|(p, q, r)| {
            Circuit::from_polynomial(&p)
                .times(&Circuit::from_polynomial(&q))
                .plus(&Circuit::from_polynomial(&r))
        })
}

/// The same circuits read modulo absorption (PosBool(X) equality).
fn arb_bool_circuit() -> impl Strategy<Value = BoolCircuit> {
    arb_circuit().prop_map(BoolCircuit::from)
}

// ---- the suite: every shipped semiring -------------------------------------

semiring_laws!(natural_laws, Natural, arb_natural());
semiring_laws!(boolean_laws, Bool, arb_bool());
semiring_laws!(natinf_laws, NatInf, arb_natinf());
semiring_laws!(tropical_laws, Tropical, arb_tropical());
semiring_laws!(fuzzy_laws, Fuzzy, arb_fuzzy());
semiring_laws!(viterbi_laws, Viterbi, arb_viterbi());
semiring_laws!(clearance_laws, Clearance, arb_clearance());
semiring_laws!(posbool_laws, PosBool, arb_posbool());
semiring_laws!(whyset_laws, WhySet, arb_whyset());
semiring_laws!(witness_laws, Witness, arb_witness());
semiring_laws!(event_laws, Event, arb_event());
semiring_laws!(
    provenance_polynomial_laws,
    ProvenancePolynomial,
    arb_provenance_polynomial()
);
semiring_laws!(bool_polynomial_laws, BoolPolynomial, arb_bool_polynomial());
semiring_laws!(
    natinf_polynomial_laws,
    NatInfPolynomial,
    arb_natinf_polynomial()
);
// The hash-consed circuit handles: the ℕ[X] reading must satisfy the
// commutative-semiring laws under semantic (lowered-polynomial) equality,
// and the PosBool reading must additionally be +-idempotent.
semiring_laws!(circuit_laws, Circuit, arb_circuit());
semiring_laws!(bool_circuit_laws, BoolCircuit, arb_bool_circuit());

plus_idempotence!(boolean_idempotence, Bool, arb_bool());
plus_idempotence!(tropical_idempotence, Tropical, arb_tropical());
plus_idempotence!(fuzzy_idempotence, Fuzzy, arb_fuzzy());
plus_idempotence!(viterbi_idempotence, Viterbi, arb_viterbi());
plus_idempotence!(clearance_idempotence, Clearance, arb_clearance());
plus_idempotence!(posbool_idempotence, PosBool, arb_posbool());
plus_idempotence!(whyset_idempotence, WhySet, arb_whyset());
plus_idempotence!(witness_idempotence, Witness, arb_witness());
plus_idempotence!(event_idempotence, Event, arb_event());
plus_idempotence!(bool_circuit_idempotence, BoolCircuit, arb_bool_circuit());

// ---- circuit batches ----------------------------------------------------------
//
// The circuit handles intern a `times_each` or `sum_products` batch under
// one arena lock, so a stale handle must be caught anywhere in the batch —
// also beside a `1`, where the product folds to the stale operand without
// touching the arena — and evaluating *into* circuits must not run semiring
// code under that lock.
mod circuit_batches {
    use super::*;
    use provsem_semiring::circuit;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    /// Three pairs `(p·q, r·1, 1·s)` with a stale handle in each of the six
    /// operand positions in turn.
    fn stale_anywhere_in_a_batch_panics<K: Semiring>(var: fn(&str) -> K) {
        for position in 0..6 {
            let stale = var("stale").times(&var("operand"));
            circuit::reset();
            let mut operands = [var("p"), var("q"), var("r"), K::one(), K::one(), var("s")];
            operands[position] = stale.clone();
            let pairs = operands.chunks(2).map(|pair| (&pair[0], &pair[1]));
            let err = catch_unwind(AssertUnwindSafe(|| K::times_each(pairs)))
                .expect_err("a batch holding a stale handle must be refused");
            let message = panic_message(err);
            assert!(
                message.contains("stale circuit handle"),
                "{position}: {message}"
            );
        }
    }

    /// The same six positions through `sum_products`, the three pairs in two
    /// groups.
    fn stale_anywhere_in_a_sum_of_products_panics<K: Semiring>(var: fn(&str) -> K) {
        for position in 0..6 {
            let stale = var("stale").times(&var("operand"));
            circuit::reset();
            let mut operands = [var("p"), var("q"), var("r"), K::one(), K::one(), var("s")];
            operands[position] = stale.clone();
            let pairs = operands.chunks(2).map(|pair| (&pair[0], &pair[1]));
            let err = catch_unwind(AssertUnwindSafe(|| K::sum_products(2, &[0, 1, 0], pairs)))
                .expect_err("a batch holding a stale handle must be refused");
            let message = panic_message(err);
            assert!(
                message.contains("stale circuit handle"),
                "{position}: {message}"
            );
        }
    }

    #[test]
    fn a_stale_circuit_anywhere_in_a_batch_panics() {
        stale_anywhere_in_a_batch_panics(|name| Circuit::var(name));
        stale_anywhere_in_a_sum_of_products_panics(|name| Circuit::var(name));
    }

    #[test]
    fn a_stale_bool_circuit_anywhere_in_a_batch_panics() {
        stale_anywhere_in_a_batch_panics(|name| BoolCircuit::var(name));
        stale_anywhere_in_a_sum_of_products_panics(|name| BoolCircuit::var(name));
    }

    /// Runs `f` on a worker thread (circuit handles are `!Send`, so it builds
    /// its own) and fails if it has not finished within a minute.
    fn finishes(f: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            f();
            done.send(()).expect("the test is waiting");
        });
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
            panic!("specializing into circuits deadlocked on the arena lock");
        }
        worker.join().expect("the specialization ran");
    }

    fn roots() -> Vec<Circuit> {
        let (p, r, s) = (Circuit::var("p"), Circuit::var("r"), Circuit::var("s"));
        vec![
            p.times(&r).plus(&s.times(&s)),
            Circuit::sum_groups(1, &[0; 4], vec![p, r, s, p]).remove(0),
            p.plus(&r).times(&p.plus(&r)),
            Circuit::one(),
        ]
    }

    fn renaming<K: Semiring>(var: fn(String) -> K) -> Valuation<K> {
        Valuation::from_pairs(["p", "r", "s"].map(|v| (v, var(format!("{v}'")))))
    }

    #[test]
    fn specializing_into_circuits_through_eval_all_cannot_deadlock() {
        finishes(|| {
            let roots = roots();
            let images = CircuitEval::new(&renaming(Circuit::var)).eval_all(&roots);
            let renamed = renaming(ProvenancePolynomial::var);
            for (root, image) in roots.iter().zip(&images) {
                assert_eq!(image.to_polynomial(), root.to_polynomial().eval(&renamed));
            }
        });
    }

    #[test]
    fn specializing_into_bool_circuits_through_eval_all_cannot_deadlock() {
        finishes(|| {
            let roots = roots();
            let renamed = renaming(BoolCircuit::var);
            let images = CircuitEval::new(&renamed).eval_all(&roots);
            for (root, image) in roots.iter().zip(&images) {
                assert_eq!(*image, root.to_polynomial().eval(&renamed));
            }
        });
    }
}

// ---- formal power series ----------------------------------------------------
//
// `TruncatedSeries` exposes its (quotient-)semiring operations as inherent
// methods rather than the `Semiring` trait, because its `0`/`1` depend on
// the truncation degree. The quotient ℕ∞[[X]] / (degree > d) is still a
// commutative semiring for each fixed `d`, which is what we check here.
mod truncated_series_laws {
    use super::*;

    const MAX_DEGREE: u32 = 4;

    fn arb_series() -> impl Strategy<Value = TruncatedSeries> {
        prop::collection::vec((arb_monomial(), arb_natinf()), 0..4).prop_map(|terms| {
            let mut s = TruncatedSeries::zero(MAX_DEGREE);
            for (m, c) in terms {
                s.add_term(m, c);
            }
            s
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn series_semiring_laws(a in arb_series(), b in arb_series(), c in arb_series()) {
            let zero = TruncatedSeries::zero(MAX_DEGREE);
            let one = TruncatedSeries::one(MAX_DEGREE);
            // Commutative monoids.
            prop_assert_eq!(a.plus(&b), b.plus(&a));
            prop_assert_eq!(a.plus(&b).plus(&c), a.plus(&b.plus(&c)));
            prop_assert_eq!(a.times(&b), b.times(&a));
            prop_assert_eq!(a.times(&b).times(&c), a.times(&b.times(&c)));
            // Identities and annihilation.
            prop_assert_eq!(a.plus(&zero), a.clone());
            prop_assert_eq!(a.times(&one), a.clone());
            prop_assert!(a.times(&zero).is_zero());
            // Distributivity.
            prop_assert_eq!(a.times(&b.plus(&c)), a.times(&b).plus(&a.times(&c)));
        }
    }
}
