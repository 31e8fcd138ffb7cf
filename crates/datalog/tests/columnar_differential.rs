//! Differential test: the compiled semi-naive loops (id tables) agree with
//! the naive Kleene iteration **round for round** — same idb annotations,
//! same convergence flags (`iterations` excepted: the naive loop needs one
//! more application of `T` to observe a fixpoint) — across random linear
//! and nonlinear programs and six semirings (𝔹, ℕ, ℕ∞, tropical, Why(X),
//! ℤ), and with themselves **exactly** (the whole `FixpointResult`) between
//! the calling-thread entry points and the `_with` ones at 1, 2 and 4
//! threads, plus `maintain_fixpoint` on the fixpoint's own id tables.
//!
//! The random generator (`tests/common`) draws binary predicates over
//! variables only and at most eight facts over four nodes, so it never
//! grows an index, never meets a constant and never derives a zero. The
//! hand-written cases below reach those: each runs over ℕ∞, ℤ, the
//! tropical semiring and Why(X), at round bounds 0–4 and a deep one and at
//! 1, 2 and 4 threads.

mod common;

use common::{arb_edb, arb_program, build_edb, build_program};
use proptest::prelude::*;
use provsem_core::plan::ExecContext;
use provsem_core::Value;
use provsem_datalog::naive::{instantiate_by_scanning, kleene_iterate_instantiated};
use provsem_datalog::prelude::*;
use provsem_semiring::{
    Bool, Integers, NatInf, Natural, PlusIdempotent, PosBool, Ring, Semiring, Tropical, WhySet,
};

const ALL_THREADS: [usize; 3] = [1, 2, 4];

/// `seminaive_iterate_with` under a thread budget.
fn iterate_at<K: Semiring + Send + Sync>(
    program: &Program,
    edb: &FactStore<K>,
    rounds: usize,
    threads: usize,
) -> FixpointResult<K> {
    seminaive_iterate_with(program, edb, rounds, &ExecContext::with_threads(threads))
}

/// `seminaive_idempotent_with` under a thread budget.
fn idempotent_at<K: Semiring + PlusIdempotent + Send + Sync>(
    program: &Program,
    edb: &FactStore<K>,
    rounds: usize,
    threads: usize,
) -> FixpointResult<K> {
    seminaive_idempotent_with(program, edb, rounds, &ExecContext::with_threads(threads))
}

/// The Kleene oracle's instantiation of a case, grounded once for all its
/// round bounds — `None` when the case pins a behaviour `kleene_iterate`
/// does not share.
fn oracle_rules<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    kleene: bool,
) -> Option<Vec<GroundRule>> {
    kleene.then(|| instantiate_by_scanning(program, edb))
}

/// `seminaive_iterate` at one round bound: the calling-thread entry point
/// equals the `_with` one in every field at every thread count, and — given
/// the oracle's instantiation — equals `Tᵐ(0)`, converged or not.
fn check_general_at<K: Semiring + Send + Sync>(
    program: &Program,
    edb: &FactStore<K>,
    rounds: usize,
    oracle: Option<&[GroundRule]>,
) {
    let on_caller = seminaive_iterate(program, edb, rounds);
    if let Some(rules) = oracle {
        let naive = kleene_iterate_instantiated(program, rules, edb, rounds);
        assert_eq!(naive.idb, on_caller.idb, "kleene rounds={rounds}");
        assert_eq!(
            naive.converged, on_caller.converged,
            "kleene rounds={rounds}"
        );
    }
    for threads in ALL_THREADS {
        let with = iterate_at(program, edb, rounds, threads);
        assert_eq!(on_caller, with, "threads={threads} rounds={rounds}");
    }
}

/// The idempotent entry points at one round bound: calling-thread and
/// `_with` entry points equal in every field at every thread count, and —
/// given the oracle's instantiation — equal to `Tᵐ(0)`, converged or not.
fn check_idempotent_at<K: Semiring + PlusIdempotent + Send + Sync>(
    program: &Program,
    edb: &FactStore<K>,
    rounds: usize,
    oracle: Option<&[GroundRule]>,
) {
    let on_caller = seminaive_idempotent(program, edb, rounds);
    for threads in ALL_THREADS {
        let with = idempotent_at(program, edb, rounds, threads);
        assert_eq!(on_caller, with, "threads={threads} rounds={rounds}");
    }
    if let Some(rules) = oracle {
        let naive = kleene_iterate_instantiated(program, rules, edb, rounds);
        assert_eq!(naive.idb, on_caller.idb, "kleene rounds={rounds}");
        assert_eq!(
            naive.converged, on_caller.converged,
            "kleene rounds={rounds}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The round bounds differ per semiring because exact ℕ/ℤ
    /// multiplicities grow doubly exponentially under nonlinear recursion
    /// and overflow past ~2 rounds; the saturating semirings run the deep
    /// bounds.
    #[test]
    fn batch_equals_row_on_random_programs(raw_program in arb_program(), raw_edb in arb_edb()) {
        let program = build_program(&raw_program);
        // Every weight is non-zero, so every semiring's edb has one support.
        let rules = instantiate_by_scanning(&program, &build_edb(&raw_edb, |_, _| Bool::from(true)));
        let oracle = Some(&rules[..]);
        for rounds in [1, 2] {
            check_general_at(&program, &build_edb(&raw_edb, |_, w| Natural::from(w)), rounds, oracle);
            check_general_at(&program, &build_edb(&raw_edb, |_, w| Integers::new(w as i64)), rounds, oracle);
        }
        for rounds in [1, 2, 3, 8] {
            check_general_at(&program, &build_edb(&raw_edb, |_, w| NatInf::Fin(w)), rounds, oracle);
            check_general_at(&program, &build_edb(&raw_edb, |_, _| Bool::from(true)), rounds, oracle);
            check_general_at(&program, &build_edb(&raw_edb, |_, w| Tropical::cost(w)), rounds, oracle);
            check_general_at(&program, &build_edb(&raw_edb, |i, _| WhySet::var(format!("t{i}"))), rounds, oracle);
        }
        for rounds in [1, 2, 3, 8, 64] {
            check_idempotent_at(&program, &build_edb(&raw_edb, |_, _| Bool::from(true)), rounds, oracle);
            check_idempotent_at(&program, &build_edb(&raw_edb, |_, w| Tropical::cost(w)), rounds, oracle);
            check_idempotent_at(&program, &build_edb(&raw_edb, |i, _| PosBool::var(format!("t{i}"))), rounds, oracle);
        }
    }
}

/// Deleting through mixed ℤ deltas: `maintain_fixpoint` on the calling
/// thread matches `maintain_fixpoint_with` at every thread count — also
/// when the round bound cuts the rederivation short — and the from-scratch
/// fixpoint on the updated edb.
#[test]
fn maintain_batch_rederivation_matches_row_and_from_scratch() {
    let program = Program::linear_transitive_closure("R", "Q");
    let edges: Vec<(String, String)> = (0..20)
        .flat_map(|i| {
            [
                (format!("n{i}"), format!("n{}", (i + 1) % 20)),
                (format!("n{i}"), format!("n{}", (i + 7) % 20)),
            ]
        })
        .collect();
    let mut edb: FactStore<Integers> = FactStore::new();
    for (s, d) in &edges {
        edb.insert(Fact::new("R", [s.clone(), d.clone()]), Integers::new(1));
    }
    // A mixed insert/delete batch: drop two edges, add a shortcut.
    let mut delta: FactStore<Integers> = FactStore::new();
    delta.insert(Fact::new("R", ["n0", "n1"]), Integers::new(1).neg());
    delta.insert(Fact::new("R", ["n3", "n10"]), Integers::new(1).neg());
    delta.insert(Fact::new("R", ["n0", "n15"]), Integers::new(1));

    let bound = 8; // cyclic ℤ closure: keep the counts bounded
    let mut on_caller = materialize_fixpoint(&program, &edb, bound);
    maintain_fixpoint(&mut on_caller, &delta);
    for threads in ALL_THREADS {
        let mut view = materialize_fixpoint(&program, &edb, bound);
        maintain_fixpoint_with(&mut view, &delta, &ExecContext::with_threads(threads));
        assert_eq!(view.converged(), on_caller.converged());
        assert_eq!(view.result(), on_caller.result(), "threads={threads}");
    }
    if on_caller.converged() {
        let scratch = kleene_iterate(&program, on_caller.edb(), bound);
        assert_eq!(on_caller.result(), &scratch.idb);
    }
}

/// More than 2¹⁶ distinct constants per column (the limit of the
/// dictionary columns the RA executor keeps): ids are `u32`, so nothing
/// degrades, and the interner and both tables double their slots a dozen
/// times on the way. One round, one derivation per fact: `Q(sᵢ, sᵢ₊₂)`.
#[test]
fn dictionary_overflow_degrades_without_changing_results() {
    const NODES: usize = (1 << 16) + 64; // a chain: the closure stays small
    let program = Program::figure6_query(); // Q(x,y) :- R(x,z), R(z,y)
    let mut edb: FactStore<Bool> = FactStore::new();
    for i in 0..NODES - 1 {
        edb.insert(
            Fact::new("R", [format!("s{i}"), format!("s{}", i + 1)]),
            Bool::from(true),
        );
    }
    let out = seminaive_iterate(&program, &edb, 4);
    assert!(out.converged);
    assert_eq!(out.idb.len(), NODES - 2);
    for i in 0..NODES - 2 {
        let fact = Fact::new("Q", [format!("s{i}"), format!("s{}", i + 2)]);
        assert!(out.idb.contains(&fact), "{fact}");
    }
    assert_eq!(out, iterate_at(&program, &edb, 4, 2));
}

/// A predicate used at two arities is two id tables and still agrees with
/// the naive iteration. Constants and repeated variables in bodies and
/// heads ride along.
#[test]
fn mixed_arity_predicates_fall_back_to_the_arena() {
    let program = parse_program(
        "P(x, y) :- M(x, y), M(x).\n\
         Q(x, 'k', x) :- M(x).\n\
         P(x, z) :- P(x, y), P(y, z).",
    )
    .unwrap();
    let mut edb: FactStore<Natural> = FactStore::new();
    edb.insert(Fact::new("M", ["a"]), Natural::from(2u64));
    edb.insert(Fact::new("M", ["b"]), Natural::from(3u64));
    edb.insert(Fact::new("M", ["a", "b"]), Natural::from(5u64));
    edb.insert(Fact::new("M", ["b", "c"]), Natural::from(7u64));
    let rules = oracle_rules(&program, &edb, true);
    for rounds in [1, 2, 3, 8] {
        check_general_at(&program, &edb, rounds, rules.as_deref());
    }
    let out = seminaive_iterate(&program, &edb, 16);
    // P(a,b) = M(a,b)·M(a) = 5·2; Q(a,k,a) = M(a) = 2.
    assert_eq!(
        out.idb.annotation(&Fact::new("P", ["a", "b"])),
        Natural::from(10u64)
    );
    assert_eq!(
        out.idb.annotation(&Fact::new("Q", ["a", "k", "a"])),
        Natural::from(2u64)
    );
}

// --- Hand-written cases the random generator cannot reach -----------------

/// One EDB fact of a hand-written case: predicate, arguments, weight (its
/// sign only counts over ℤ).
type RawFact = (&'static str, Vec<Value>, i64);

fn strs(predicate: &'static str, args: &[&str], weight: i64) -> RawFact {
    let args = args.iter().map(|a| Value::from(*a)).collect();
    (predicate, args, weight)
}

fn edb_of<K: Semiring>(facts: &[RawFact], annotate: impl Fn(usize, i64) -> K) -> FactStore<K> {
    let mut edb = FactStore::new();
    for (i, (predicate, args, weight)) in facts.iter().enumerate() {
        edb.insert(Fact::new(*predicate, args.clone()), annotate(i, *weight));
    }
    edb
}

/// An atom over variables only (the parser has no syntax for arity 0).
fn atom(predicate: &str, vars: &[&str]) -> Atom {
    Atom::new(predicate, vars.iter().map(|v| Term::var(*v)).collect())
}

fn bounds(deep: usize) -> [usize; 6] {
    [0, 1, 2, 3, 4, deep]
}

/// [`check_general_at`] at every bound of the case.
fn check_case<K: Semiring + Send + Sync>(
    program: &Program,
    edb: &FactStore<K>,
    deep: usize,
    oracle: Option<&[GroundRule]>,
) {
    for rounds in bounds(deep) {
        check_general_at(program, edb, rounds, oracle);
    }
}

/// [`check_idempotent_at`] at every bound of the case.
fn check_case_idempotent<K: Semiring + PlusIdempotent + Send + Sync>(
    program: &Program,
    edb: &FactStore<K>,
    deep: usize,
    oracle: Option<&[GroundRule]>,
) {
    for rounds in bounds(deep) {
        check_idempotent_at(program, edb, rounds, oracle);
    }
}

/// The facts an edb holds (a fact whose annotation is zero is not held).
fn support<K: Semiring>(edb: &FactStore<K>) -> Vec<Fact> {
    edb.facts().map(|(fact, _)| fact).collect()
}

/// Runs one case over ℕ∞, ℤ, the tropical semiring and Why(X). The four
/// edbs hold the same facts, so the oracle grounds the case once.
fn check_all_semirings(program: &Program, facts: &[RawFact], deep: usize, kleene: bool) {
    let natinf = edb_of(facts, |_, w| NatInf::Fin(w.unsigned_abs()));
    let rules = oracle_rules(program, &natinf, kleene);
    let oracle = rules.as_deref();
    check_case(program, &natinf, deep, oracle);
    let integers = edb_of(facts, |_, w| Integers::new(w));
    assert_eq!(support(&integers), support(&natinf), "one support");
    check_case(program, &integers, deep, oracle);
    let tropical = edb_of(facts, |_, w| Tropical::cost(w.unsigned_abs()));
    check_case(program, &tropical, deep, oracle);
    check_case_idempotent(program, &tropical, deep, oracle);
    let why = edb_of(facts, |i, _| WhySet::var(format!("t{i}")));
    check_case(program, &why, deep, oracle);
    check_case_idempotent(program, &why, deep, oracle);
}

/// String and integer constants in edb atoms, Δ atoms and heads, including
/// constants that occur in no fact (`'ghost'`, `'phantom'`, `'flag'`): they
/// are interned with the program and simply match no row.
#[test]
fn constants_in_body_atoms_and_heads() {
    let program = parse_program(
        "P(x, 'hub') :- E(x, 'hub').\n\
         P(x, 7) :- E(x, 7).\n\
         P('ghost', y) :- E('ghost', y).\n\
         P(x, 'phantom') :- E(x, y).\n\
         T(x, y) :- P(x, y).\n\
         T(x, z) :- T(x, y), E(y, z).\n\
         C(y) :- T('a', y).\n\
         C('flag') :- T(x, 7).\n\
         G(x) :- T(x, 'ghost').",
    )
    .unwrap();
    let seven = || Value::Int(7);
    let facts = [
        strs("E", &["a", "hub"], 2),
        strs("E", &["b", "hub"], 3),
        ("E", vec![Value::from("hub"), seven()], 1),
        ("E", vec![Value::from("a"), seven()], 2),
        ("E", vec![seven(), Value::from("c")], 1),
        strs("E", &["c", "d"], 2),
        // The string "7" is not the integer 7.
        strs("E", &["b", "7"], 5),
    ];
    check_all_semirings(&program, &facts, 16, true);
    let out = seminaive_iterate(&program, &edb_of(&facts, |_, w| Integers::new(w)), 16);
    assert!(out.converged);
    // a→hub→7→c and a→7→c: 2·1·1 + 2·1.
    let t_ac = Fact::new("T", [Value::from("a"), Value::from("c")]);
    assert_eq!(out.idb.annotation(&t_ac), Integers::new(4));
    assert!(out.idb.contains(&Fact::new("C", ["flag"])));
    assert_eq!(out.idb.facts_of("G").count(), 0);
}

/// One variable twice inside a Δ atom (`T(x, x)`), inside a probed atom
/// where it is new (`E(z, z)`) and where it is bound (`T(y, y)`), and in
/// the head (`L(x, x)`), over a graph with cycles and self-loops (ℕ∞ and ℤ
/// keep growing: every bound is a non-converged one).
#[test]
fn a_variable_repeated_in_delta_probed_and_head_atoms() {
    let program = parse_program(
        "T(x, y) :- E(x, y).\n\
         T(x, z) :- T(x, y), E(y, z).\n\
         L(x, x) :- T(x, x).\n\
         S(x, z) :- T(x, y), E(z, z).\n\
         V(y) :- T(x, y), T(y, y).",
    )
    .unwrap();
    let facts = [
        strs("E", &["a", "b"], 1),
        strs("E", &["b", "a"], 2),
        strs("E", &["c", "c"], 1),
        strs("E", &["b", "c"], 3),
        strs("E", &["d", "d"], 2),
    ];
    check_all_semirings(&program, &facts, 12, true);
}

/// Arities 0 to 3: a propositional head derived from a binary atom, read
/// back as a Δ atom and as a probed atom beside a propositional edb fact,
/// and a ternary idb relation.
#[test]
fn arities_zero_to_three_with_a_propositional_head() {
    let mut program = parse_program(
        "T(x, y) :- E(x, y).\n\
         T(x, z) :- T(x, y), E(y, z).\n\
         Tri(x, y, z) :- T(x, y), E(y, z).",
    )
    .unwrap();
    program.rules.extend([
        Rule::new(atom("Any", &[]), vec![atom("T", &["x", "y"])]),
        Rule::new(atom("Both", &[]), vec![atom("Any", &[]), atom("Zero", &[])]),
        Rule::new(
            atom("N", &["x"]),
            vec![atom("Tri", &["x", "y", "z"]), atom("Any", &[])],
        ),
        Rule::new(atom("Never", &[]), vec![atom("Missing", &[])]),
    ]);
    let facts = [
        strs("E", &["a", "b"], 2),
        strs("E", &["b", "c"], 3),
        strs("E", &["a", "c"], 1),
        strs("Zero", &[], 5),
    ];
    check_all_semirings(&program, &facts, 16, true);
    let out = iterate_at(&program, &edb_of(&facts, |_, w| Integers::new(w)), 16, 2);
    // Any = ΣT = 2 + 3 + (1 + 2·3); Both = Any · Zero.
    let nullary = |p: &str| Fact::new(p, Vec::<Value>::new());
    assert_eq!(out.idb.annotation(&nullary("Any")), Integers::new(12));
    assert_eq!(out.idb.annotation(&nullary("Both")), Integers::new(60));
    assert!(!out.idb.contains(&nullary("Never")));
}

/// Facts in the program text (each contributes `1`, twice when written
/// twice) for a predicate whose rules derive the same facts again, and a
/// non-ground "fact" (`Open(x).`), which never fires.
#[test]
fn program_text_facts_that_a_rule_also_derives() {
    let program = parse_program(
        "T('a', 'b').\n\
         T('a', 'b').\n\
         T('z', 'a').\n\
         Open(x).\n\
         T(x, y) :- E(x, y).\n\
         T(x, z) :- T(x, y), E(y, z).\n\
         Open(x) :- T(x, y).",
    )
    .unwrap();
    let facts = [strs("E", &["a", "b"], 2), strs("E", &["b", "c"], 1)];
    check_all_semirings(&program, &facts, 16, true);
    let out = seminaive_iterate(&program, &edb_of(&facts, |_, w| Integers::new(w)), 16);
    assert_eq!(
        out.idb.annotation(&Fact::new("T", ["a", "b"])),
        Integers::new(4)
    );
    assert_eq!(
        out.idb.annotation(&Fact::new("T", ["z", "c"])),
        Integers::new(2)
    );
}

/// EDB facts supplied for an *idb* predicate are ignored: idb factors are
/// read from the accumulator, where a fact nobody derived is zero.
#[test]
fn edb_facts_for_an_idb_predicate_are_ignored() {
    let program = Program::transitive_closure("E", "T");
    let facts = [
        strs("E", &["a", "b"], 2),
        strs("E", &["b", "c"], 3),
        strs("T", &["q", "r"], 5),
        strs("T", &["c", "q"], 7),
        strs("T", &["a", "c"], 11),
    ];
    check_all_semirings(&program, &facts, 16, true);
    let out = seminaive_iterate(&program, &edb_of(&facts, |_, w| Integers::new(w)), 16);
    assert_eq!(out.idb.len(), 3);
    assert_eq!(
        out.idb.annotation(&Fact::new("T", ["a", "c"])),
        Integers::new(6)
    );
}

/// One predicate at two arities, edb (`M/1`, `M/2`) and idb (`P/1`,
/// `P/2`, each feeding the other): four tables, none aware of its twin.
#[test]
fn one_predicate_used_at_two_arities() {
    let program = parse_program(
        "P(x, y) :- M(x, y), M(x).\n\
         P(x, z) :- P(x, y), M(y, z).\n\
         P(x) :- P(x, y), M(y).\n\
         P(x, x) :- P(x), M(x, y).",
    )
    .unwrap();
    let facts = [
        strs("M", &["a"], 2),
        strs("M", &["c"], 3),
        strs("M", &["a", "b"], 5),
        strs("M", &["b", "c"], 7),
        strs("M", &["c", "d"], 1),
        // An arity no atom reads.
        strs("M", &["a", "b", "c"], 9),
    ];
    check_all_semirings(&program, &facts, 16, true);
}

/// A rule that is not range-restricted (`y` is bound by no body atom)
/// beside a safe rule with the same head. Its body cannot ground its head,
/// so it never fires — not in the fixpoint's rounds, and not when
/// maintenance recomputes a head the safe rule reached (which would seed
/// `y` from the head) — exactly as `kleene_iterate` never instantiates it.
#[test]
fn a_non_range_restricted_rule_never_fires() {
    let program = parse_program(
        "T(x, y) :- E(x, y).\n\
         T(x, z) :- T(x, y), E(y, z).\n\
         W(x, y) :- T(x, y).\n\
         W(x, y) :- V(x).\n\
         U(x, y) :- V(x).",
    )
    .unwrap();
    let facts = [
        strs("E", &["a", "b"], 2),
        strs("E", &["b", "c"], 3),
        strs("V", &["a"], 5),
    ];
    check_all_semirings(&program, &facts, 16, true);
    let edb = edb_of(&facts, |_, w| Integers::new(w));
    let out = seminaive_iterate(&program, &edb, 16);
    assert_eq!(
        out.idb.annotation(&Fact::new("W", ["a", "c"])),
        Integers::new(6)
    );
    assert_eq!(
        out.idb.annotation(&Fact::new("W", ["b", "c"])),
        Integers::new(3)
    );
    assert_eq!(out.idb.facts_of("U").count(), 0);

    // Maintenance recomputes `W(a, d)` once `E(c, d)` arrives: 2·3·7, and
    // nothing of `V(a)`.
    let mut delta = FactStore::new();
    delta.insert(Fact::new("E", ["c", "d"]), Integers::new(7));
    for threads in ALL_THREADS {
        let mut view = materialize_fixpoint(&program, &edb, 16);
        maintain_fixpoint_with(&mut view, &delta, &ExecContext::with_threads(threads));
        let scratch = kleene_iterate(&program, view.edb(), 16);
        assert!(view.converged() && scratch.converged);
        assert_eq!(view.result(), &scratch.idb, "threads={threads}");
        assert_eq!(
            view.result().annotation(&Fact::new("W", ["a", "d"])),
            Integers::new(42)
        );
    }
}

/// ℕ∞ absorption: the self-loop `a→a` is `∞`, so every `Q(a, ·)` jumps to
/// `∞` and stays there while finite increments keep arriving. An absorbed
/// increment must leave its row out of the delta (`∞ + x = ∞` did not
/// move it), or the loop never sees `Tᵐ⁺¹(0) = Tᵐ(0)`; both loops converge
/// at the fourth round.
#[test]
fn an_absorbed_infinite_increment_leaves_the_delta() {
    let program = Program::transitive_closure("R", "Q");
    let edb = edge_facts(
        "R",
        &[
            ("a", "a", NatInf::Inf),
            ("a", "b", NatInf::Fin(1)),
            ("b", "c", NatInf::Fin(2)),
            ("c", "d", NatInf::Fin(1)),
        ],
    );
    let rules = oracle_rules(&program, &edb, true);
    for rounds in 0..=9 {
        check_general_at(&program, &edb, rounds, rules.as_deref());
        assert_eq!(
            seminaive_iterate(&program, &edb, rounds).converged,
            rounds >= 4,
            "rounds={rounds}"
        );
    }
    let out = seminaive_iterate(&program, &edb, 9);
    assert_eq!(out.idb.annotation(&Fact::new("Q", ["a", "d"])), NatInf::Inf);
    assert_eq!(
        out.idb.annotation(&Fact::new("Q", ["b", "d"])),
        NatInf::Fin(2)
    );
}

/// Over ℤ, `A(k)` and `B(k)` are 1 after round 1, cancel to 0 in round 2
/// (a −1 arrives through `C`) and are re-derived in round 3 (a +1 arrives
/// through `D2`), so `H(k) :- A(k), B(k)` must read 1, 0, 1 in rounds 2, 3,
/// 4. In round 3 both delta rows are zero rows: a discovery that skipped
/// zero-annotated rows would never reach `H(k)` and leave it at 1.
#[test]
fn factors_cancelling_to_zero_in_one_round_still_reach_their_heads() {
    let program = parse_program(
        "A(x) :- Pos(x).\n\
         B(x) :- Pos(x).\n\
         C(x) :- Neg(x).\n\
         A(x) :- C(x).\n\
         B(x) :- C(x).\n\
         D1(x) :- Pos(x).\n\
         D2(x) :- D1(x).\n\
         A(x) :- D2(x).\n\
         B(x) :- D2(x).\n\
         H(x) :- A(x), B(x).",
    )
    .unwrap();
    let facts = [strs("Pos", &["k"], 1), strs("Neg", &["k"], -1)];
    check_all_semirings(&program, &facts, 16, true);
    let edb = edb_of(&facts, |_, w| Integers::new(w));
    let h = Fact::new("H", ["k"]);
    for (rounds, expected) in [(2, 1), (3, 0), (4, 1)] {
        for threads in ALL_THREADS {
            let out = iterate_at(&program, &edb, rounds, threads);
            assert_eq!(
                out.idb.annotation(&h),
                Integers::new(expected),
                "rounds={rounds} threads={threads}"
            );
        }
    }
}

/// Index growth under a real fixpoint: the linear closure of a 300-node
/// chain runs 300 rounds and grows `Q/2` to 44 850 rows (a dozen doublings
/// of its row-identity slots and of both key indexes), with deltas wide
/// enough that the rounds really fan out over worker threads. Every fact
/// has one derivation, so the closure is known in closed form: `Q(nᵢ, nⱼ)`
/// for `i < j`, annotated 1 over ℕ∞ and `j − i` over the tropical semiring.
/// `kleene_iterate` re-walks the closure every round, so it is compared
/// round for round on a 40-node chain.
#[test]
fn a_long_chain_grows_every_index() {
    const NODES: usize = 300;
    let program = Program::linear_transitive_closure("R", "Q");
    let node = |i: usize| Value::str(format!("n{i}"));
    let chain = |nodes: usize| -> Vec<RawFact> {
        (0..nodes - 1)
            .map(|i| ("R", vec![node(i), node(i + 1)], 1))
            .collect()
    };
    check_all_semirings(&program, &chain(40), 64, true);

    let facts = chain(NODES);
    let edb = edb_of(&facts, |_, w| NatInf::Fin(w.unsigned_abs()));
    let on_caller = seminaive_iterate(&program, &edb, 512);
    assert_chain_closure(&on_caller, NODES, |_, _| NatInf::Fin(1));
    for threads in ALL_THREADS {
        assert_eq!(on_caller, iterate_at(&program, &edb, 512, threads));
    }
    let edb = edb_of(&facts, |_, w| Tropical::cost(w.unsigned_abs()));
    let on_caller = seminaive_idempotent(&program, &edb, 512);
    assert_chain_closure(&on_caller, NODES, |i, j| Tropical::cost((j - i) as u64));
    for threads in ALL_THREADS {
        assert_eq!(on_caller, idempotent_at(&program, &edb, 512, threads));
    }
}

/// Is `out` the converged closure of the `nodes`-node chain, `Q(nᵢ, nⱼ)`
/// for `i < j` annotated `expected(i, j)`, reached in `nodes` rounds?
fn assert_chain_closure<K: Semiring>(
    out: &FixpointResult<K>,
    nodes: usize,
    expected: impl Fn(usize, usize) -> K,
) {
    assert!(out.converged);
    assert_eq!(out.iterations, nodes);
    assert_eq!(out.idb.len(), nodes * (nodes - 1) / 2);
    for i in 0..nodes {
        for j in i + 1..nodes {
            let fact = Fact::new("Q", [format!("n{i}"), format!("n{j}")]);
            assert_eq!(out.idb.annotation(&fact), expected(i, j), "{fact}");
        }
    }
}
