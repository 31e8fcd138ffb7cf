//! Cross-crate integration tests reproducing every worked example of the
//! paper end to end (the per-figure details live in EXPERIMENTS.md).

use provenance_semirings::prelude::*;
use std::collections::BTreeSet;

/// E1 — Figure 1: the maybe-table's 8 worlds, queried world-by-world, give
/// the 8 worlds of Figure 1(c), and that world set is not representable by a
/// maybe-table.
#[test]
fn e1_figure1_possible_worlds() {
    let table = MaybeTable::figure1();
    let worlds = PossibleWorlds::new(table.possible_worlds());
    let answer = worlds
        .answer_query("R", &paper::section2_schema(), &paper::section2_query())
        .unwrap();
    assert_eq!(answer.len(), 8);
    assert!(!answer.representable_by_maybe_table());
}

/// E2 — Figure 2: the Imielinski–Lipski computation (RA⁺ over PosBool) gives
/// the simplified c-table and represents exactly the Figure 1(c) worlds.
#[test]
fn e2_figure2_ctable_answer() {
    let answer = CTable::figure1b()
        .answer_query("R", &paper::section2_query())
        .unwrap();
    for (tuple, condition) in figure2b_expected() {
        assert_eq!(answer.condition(&tuple), condition, "{tuple:?}");
    }
    let world_answer = PossibleWorlds::new(MaybeTable::figure1().possible_worlds())
        .answer_query("R", &paper::section2_schema(), &paper::section2_query())
        .unwrap();
    assert_eq!(answer.possible_worlds(), world_answer);
}

/// E3 — Figure 3: bag semantics multiplicities 8, 10, 10, 55, 7.
#[test]
fn e3_figure3_bag_semantics() {
    let out = paper::section2_query().eval(&paper::figure3_bag()).unwrap();
    for (a, c, n) in paper::figure3_expected() {
        assert_eq!(
            out.annotation(&Tuple::new([("a", a), ("c", c)])),
            Natural::from(n)
        );
    }
}

/// E4 — Figure 4: probabilistic query answering via event tables.
#[test]
fn e4_figure4_probabilities() {
    let db = TupleIndependentDb::figure4();
    let expected = [
        ("a", "c", 0.6),
        ("a", "e", 0.3),
        ("d", "c", 0.3),
        ("d", "e", 0.5),
        ("f", "e", 0.1),
    ];
    for (a, c, p) in expected {
        let got = db
            .tuple_probability(&paper::section2_query(), &Tuple::new([("a", a), ("c", c)]))
            .unwrap();
        assert!((got - p).abs() < 1e-9, "({a},{c}): {got} vs {p}");
    }
}

/// E5 — Figure 5: why-provenance and provenance polynomials, plus the
/// factorization theorem recovering Figures 2, 3 and 4 from one provenance
/// computation.
#[test]
fn e5_figure5_provenance_and_factorization() {
    let tagged = paper::figure5_tagged();
    let out = paper::section2_query().eval(&tagged).unwrap();
    let at = |a: &str, c: &str| out.annotation(&Tuple::new([("a", a), ("c", c)]));
    assert_eq!(at("a", "c"), poly(&[(2, &["p", "p"])]));
    assert_eq!(at("d", "e"), poly(&[(2, &["r", "r"]), (1, &["r", "s"])]));
    assert_eq!(at("f", "e"), poly(&[(2, &["s", "s"]), (1, &["r", "s"])]));
    // Why-provenance cannot tell (d,e) and (f,e) apart; the polynomials can.
    assert_eq!(at("d", "e").why_provenance(), at("f", "e").why_provenance());
    assert_ne!(at("d", "e"), at("f", "e"));

    // Factorization into bags.
    let v_bag = Valuation::from_pairs([
        ("p", Natural::from(2u64)),
        ("r", Natural::from(5u64)),
        ("s", Natural::from(1u64)),
    ]);
    assert_eq!(
        specialize(&out, &v_bag),
        paper::section2_query().eval(&paper::figure3_bag()).unwrap()
    );
    // Factorization into the c-table of Figure 2(b).
    let v_ctable = Valuation::from_pairs([
        ("p", PosBool::var("b1")),
        ("r", PosBool::var("b2")),
        ("s", PosBool::var("b3")),
    ]);
    let ctable = specialize(&out, &v_ctable);
    for (tuple, condition) in figure2b_expected() {
        assert_eq!(ctable.annotation(&tuple), condition);
    }
}

/// E6 — Figure 6: the conjunctive query under bag semantics, evaluated both
/// as datalog and as RA⁺-style direct evaluation (Proposition 5.3).
#[test]
fn e6_figure6_datalog_bag() {
    let program = Program::figure6_query();
    let edb = edge_facts(
        "R",
        &[
            ("a", "a", Natural::from(2u64)),
            ("a", "b", Natural::from(3u64)),
            ("b", "b", Natural::from(4u64)),
        ],
    );
    let out = kleene_iterate(&program, &edb, 4);
    assert!(out.converged);
    for (x, y, n) in paper::figure6_expected() {
        assert_eq!(
            out.idb.annotation(&Fact::new("Q", [x, y])),
            Natural::from(n)
        );
    }
}

/// E7 — Figure 7: transitive closure over ℕ∞, the algebraic system, and the
/// power-series provenance.
#[test]
fn e7_figure7_datalog_provenance() {
    let program = Program::transitive_closure("R", "Q");
    let mut edb: FactStore<NatInf> = FactStore::new();
    edb.import_relation("R", paper::figure7_bag().get("R").unwrap(), &["src", "dst"]);

    // ℕ∞ answers (including the (c,d) tuple the paper's figure omits).
    let out = evaluate_natinf(&program, &edb);
    for (src, dst, expected) in paper::figure7_expected() {
        assert_eq!(
            out.annotation(&Fact::new("Q", [src, dst])),
            expected,
            "({src},{dst})"
        );
    }

    // Datalog provenance via All-Trees + Theorem 6.4 factorization.
    let prov = datalog_provenance(&program, &edb);
    let specialized = prov.specialize(|| NatInf::Inf);
    for (fact, ann) in out.facts() {
        assert_eq!(specialized.annotation(&fact), *ann);
    }

    // Series classification (Theorem 6.5): no unit-rule cycles, so all
    // coefficients are finite.
    let classes = classify_series(&program, &edb);
    assert!(classes.values().all(|c| c.has_finite_coefficients()));
}

/// E8/E9 — Figures 8 and 9: All-Trees classification and monomial
/// coefficients agree with the truncated-series solution of the algebraic
/// system.
#[test]
fn e8_e9_all_trees_and_coefficients() {
    let program = Program::transitive_closure("R", "Q");
    let mut edb: FactStore<NatInf> = FactStore::new();
    edb.import_relation("R", paper::figure7_bag().get("R").unwrap(), &["src", "dst"]);

    let result = all_trees(&program, &edb);
    assert!(result
        .provenance
        .get(&Fact::new("Q", ["a", "b"]))
        .unwrap()
        .as_polynomial()
        .is_some());
    assert!(result
        .provenance
        .get(&Fact::new("Q", ["d", "d"]))
        .unwrap()
        .is_infinite());

    // Catalan coefficients of v = Q(d,d) via the Figure 9 algorithm.
    let vars = default_edb_variables(&edb);
    let s_var = vars.get(&Fact::new("R", ["d", "d"])).unwrap().clone();
    for (k, catalan) in [(1u32, 1u64), (2, 1), (3, 2), (4, 5)] {
        let mu = Monomial::from_powers([(s_var.clone(), k)]);
        assert_eq!(
            monomial_coefficient(&program, &edb, &vars, &Fact::new("Q", ["d", "d"]), &mu),
            NatInf::Fin(catalan)
        );
    }
}

/// E10 — Section 8: datalog on c-tables and on probabilistic databases
/// terminates and is consistent between the two equivalent algorithms
/// (fixpoint and minimal-trees).
#[test]
fn e10_lattice_datalog() {
    let program = Program::transitive_closure("R", "Q");
    let edb = edge_facts(
        "R",
        &[
            ("a", "b", PosBool::var("e1")),
            ("b", "a", PosBool::var("e2")),
            ("b", "c", PosBool::var("e3")),
        ],
    );
    let fixpoint = evaluate_lattice(&program, &edb, 64).unwrap();
    let trees = evaluate_lattice_via_trees(&program, &edb);
    assert_eq!(fixpoint.len(), trees.len());
    for (fact, ann) in fixpoint.facts() {
        assert_eq!(trees.annotation(&fact), *ann);
    }

    let mut prob_db = TupleIndependentDb::new();
    prob_db.insert("R", Tuple::new([("src", "a"), ("dst", "b")]), 0.5);
    prob_db.insert("R", Tuple::new([("src", "b"), ("dst", "a")]), 0.5);
    let answer = evaluate_probabilistic_datalog(&program, &prob_db, &|_| vec!["src", "dst"]);
    assert!((answer.probability(&Fact::new("Q", ["a", "a"])) - 0.25).abs() < 1e-9);
}

/// E11 — Section 9: containment of (unions of) conjunctive queries under
/// lattice semantics coincides with set-semantics containment, while bag
/// semantics separates set-equivalent queries.
#[test]
fn e11_containment() {
    let q1 = UnionOfConjunctiveQueries::parse("Q(x) :- R(x, y), R(x, z).").unwrap();
    let q2 = UnionOfConjunctiveQueries::parse("Q(x) :- R(x, y).").unwrap();
    assert!(q1.contained_in(&q2) && q2.contained_in(&q1));

    let edb_posbool = edge_facts(
        "R",
        &[
            ("a", "b", PosBool::var("x1")),
            ("a", "c", PosBool::var("x2")),
        ],
    );
    assert!(check_containment_on_instance(&q1, &q2, &edb_posbool));
    assert!(check_containment_on_instance(&q2, &q1, &edb_posbool));

    let edb_bag = edge_facts(
        "R",
        &[
            ("a", "b", Natural::from(1u64)),
            ("a", "c", Natural::from(1u64)),
        ],
    );
    assert!(!check_containment_on_instance(&q1, &q2, &edb_bag));
}

/// Proposition 5.4 across crates: the support of the ℕ∞ datalog answer equals
/// the 𝔹 answer, which equals the set of derivable facts.
#[test]
fn proposition_5_4_support_sanity() {
    let program = Program::transitive_closure("R", "Q");
    let mut edb: FactStore<NatInf> = FactStore::new();
    edb.import_relation("R", paper::figure7_bag().get("R").unwrap(), &["src", "dst"]);
    let ninf = evaluate_natinf(&program, &edb);
    let bool_edb = edb.map_annotations(|k| Bool::from(!k.is_zero()));
    let booleans = evaluate_lattice(&program, &bool_edb, 64).unwrap();
    let s1: BTreeSet<Fact> = ninf.facts().map(|(f, _)| f).collect();
    let s2: BTreeSet<Fact> = booleans.facts().map(|(f, _)| f).collect();
    assert_eq!(s1, s2);
    let derivable: BTreeSet<Fact> = Grounding::new(&program, &edb)
        .facts()
        .iter()
        .filter(|f| f.predicate == "Q")
        .cloned()
        .collect();
    assert_eq!(s1, derivable);
}
