//! Datalog provenance: classification of provenance series (Theorem 6.5) and
//! the factorization theorem for datalog (Theorem 6.4).
//!
//! The provenance of a datalog answer tuple lives in ℕ∞\[\[X\]\] (Definition
//! 6.1). For a given instance it falls into one of four classes, which the
//! paper shows are all decidable:
//!
//! | class      | meaning                                              |
//! |------------|------------------------------------------------------|
//! | `NPoly`    | finitely many derivation trees — a polynomial in ℕ\[X\] |
//! | `NSeries`  | infinitely many monomials, all coefficients finite    |
//! | `NInfPoly` | finitely many monomials, some coefficient ∞           |
//! | `NInfSeries` | infinitely many monomials and some coefficient ∞    |

use crate::all_trees::{
    all_trees_with_variables, default_edb_variables, AllTreesResult, TreeProvenance,
};
use crate::ast::Program;
use crate::fact::{Fact, FactStore};
use crate::grounding::Grounding;
use provsem_semiring::{
    Circuit, CircuitEval, CommutativeSemiring, OmegaContinuous, ProvenancePolynomial, Semiring,
    Valuation, Variable,
};
use std::collections::BTreeMap;

/// Which fragment of ℕ∞\[\[X\]\] a tuple's provenance series lies in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeriesClass {
    /// A polynomial with finite coefficients: ℕ\[X\].
    NPoly,
    /// A genuine power series with finite coefficients: ℕ\[\[X\]\] \ ℕ\[X\].
    NSeries,
    /// Finitely many monomials but some coefficient is ∞: ℕ∞\[X\] \ ℕ\[X\].
    NInfPoly,
    /// Infinitely many monomials and some coefficient ∞: the general case.
    NInfSeries,
}

impl SeriesClass {
    /// Is the series a polynomial (finitely many monomials)?
    pub fn is_polynomial(self) -> bool {
        matches!(self, SeriesClass::NPoly | SeriesClass::NInfPoly)
    }

    /// Are all coefficients finite?
    pub fn has_finite_coefficients(self) -> bool {
        matches!(self, SeriesClass::NPoly | SeriesClass::NSeries)
    }
}

/// Classifies the provenance series of every derivable idb fact.
///
/// Answers three questions per fact from the blocks of the instantiation
/// ([`Grounding`]). Does the fact reach, through zero or more ground rules,
///
/// * a cyclic block? If not, it has finitely many derivation trees:
///   [`SeriesClass::NPoly`];
/// * a fact on a cycle of **unit** ground rules? Then some coefficient is ∞
///   (Theorem 6.5: pumping the cycle adds trees with the same fringe);
/// * a block with a **non-unit** ground rule whose head and one of whose idb
///   body facts lie in that block? Then the series has infinitely many
///   monomials (each pump of that cycle multiplies in the rule's other
///   leaves).
pub fn classify_series<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
) -> BTreeMap<Fact, SeriesClass> {
    let g = Grounding::new(program, edb);
    let infinite_trees = g.blocks_reaching(|_, block| block.cyclic);
    let mut on_unit_cycle = vec![false; g.facts().len()];
    for block in g.sccs(|r| g.rules()[r].is_unit()) {
        if block.cyclic {
            for f in block.facts {
                on_unit_cycle[f] = true;
            }
        }
    }
    let inf_coefficients =
        g.blocks_reaching(|_, block| block.facts.iter().any(|&f| on_unit_cycle[f]));
    let inf_monomials = g.blocks_reaching(|b, block| {
        block.facts.iter().any(|&f| {
            g.rules_of(f).iter().any(|&r| {
                !g.rules()[r].is_unit() && g.body_ids(r).iter().any(|&x| g.block_of(x) == Some(b))
            })
        })
    });

    let mut result = BTreeMap::new();
    for f in g.idb_ids() {
        let b = g.block_of(f).expect("idb facts have blocks");
        let class = match (infinite_trees[b], inf_coefficients[b], inf_monomials[b]) {
            (false, _, _) => SeriesClass::NPoly,
            (true, false, _) => SeriesClass::NSeries,
            (true, true, false) => SeriesClass::NInfPoly,
            (true, true, true) => SeriesClass::NInfSeries,
        };
        result.insert(g.facts()[f].clone(), class);
    }
    result
}

/// The provenance of a whole datalog answer, as produced by All-Trees plus a
/// valuation of the edb variables — everything needed to apply the
/// factorization theorem for datalog (Theorem 6.4).
#[derive(Clone, Debug)]
pub struct DatalogProvenance<K> {
    /// The All-Trees classification and polynomials.
    pub trees: AllTreesResult,
    /// The valuation mapping each edb variable to its K annotation.
    pub valuation: Valuation<K>,
}

/// Computes the datalog provenance of a program over a K-annotated edb:
/// abstractly tags the edb facts, runs All-Trees, and remembers the
/// valuation.
pub fn datalog_provenance<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
) -> DatalogProvenance<K> {
    let variables = crate::all_trees::default_edb_variables(edb);
    let mut valuation = Valuation::new();
    for (fact, var) in &variables {
        valuation.assign(var.clone(), edb.annotation(fact));
    }
    let trees = all_trees_with_variables(program, edb, variables);
    DatalogProvenance { trees, valuation }
}

impl<K: OmegaContinuous> DatalogProvenance<K> {
    /// Specializes the provenance into K (Theorem 6.4): finite provenance
    /// polynomials are evaluated under the valuation; tuples with infinitely
    /// many derivations are given `infinity()` (for ℕ∞ this is ∞; for
    /// lattices the caller should use the Section 8 evaluation instead,
    /// which never needs it).
    pub fn specialize(&self, infinity: impl Fn() -> K) -> FactStore<K> {
        let mut out = FactStore::new();
        for (fact, prov) in &self.trees.provenance {
            let value = match prov {
                TreeProvenance::Polynomial(p) => p.eval(&self.valuation),
                TreeProvenance::Infinite => infinity(),
            };
            out.set(fact.clone(), value);
        }
        out
    }

    /// The provenance polynomial of one fact, if it is finite.
    pub fn polynomial(&self, fact: &Fact) -> Option<&ProvenancePolynomial> {
        self.trees
            .provenance
            .get(fact)
            .and_then(TreeProvenance::as_polynomial)
    }
}

/// Datalog provenance in **circuit form**: the idb annotated with
/// hash-consed [`Circuit`] handles over one variable per edb fact, plus the
/// valuation mapping those variables back to the original K annotations.
///
/// This is the representation for the workloads where the expanded ℕ\[X\]
/// (or All-Trees) route blows up combinatorially: on a transitive closure
/// whose path count doubles per layer, the polynomial for the far endpoint
/// has `2ⁿ` monomials while the circuit reuses each intermediate
/// reachability annotation and stays **linear** in the instance size. See
/// [`datalog_provenance_circuit`].
#[derive(Clone, Debug)]
pub struct CircuitDatalogProvenance<K> {
    /// Circuit annotations of the derivable idb facts after the last round.
    pub facts: FactStore<Circuit>,
    /// The valuation mapping each edb variable to its K annotation.
    pub valuation: Valuation<K>,
    /// The edb fact → variable tagging (same scheme as
    /// [`datalog_provenance`], i.e. [`default_edb_variables`]).
    pub edb_variables: BTreeMap<Fact, Variable>,
    /// Number of immediate-consequence rounds performed.
    pub iterations: usize,
    /// Whether a fixpoint was observed within the round bound. Detection is
    /// *structural* (node-id equality): sound, and complete one round after
    /// the annotations stabilize, because the deterministic recomputation
    /// of stable inputs re-interns identical nodes.
    pub converged: bool,
}

impl<K: Semiring> CircuitDatalogProvenance<K> {
    /// The circuit annotation of one fact (`None` if not derivable).
    pub fn circuit(&self, fact: &Fact) -> Option<Circuit> {
        self.facts
            .contains(fact)
            .then(|| self.facts.annotation(fact))
    }
}

impl<K: CommutativeSemiring> CircuitDatalogProvenance<K> {
    /// Specializes the circuit provenance into K with **one forward pass
    /// shared by every fact** ([`CircuitEval::eval_all`] — Theorem 6.4's
    /// `Eval_v`, at circuit speed): each node of the shared DAG is evaluated
    /// once, no matter how many idb facts reach it.
    pub fn specialize(&self) -> FactStore<K> {
        let (facts, circuits): (Vec<Fact>, Vec<Circuit>) =
            self.facts.facts().map(|(fact, c)| (fact, *c)).unzip();
        let values = CircuitEval::new(&self.valuation).eval_all(&circuits);
        let mut out = FactStore::new();
        for (fact, value) in facts.into_iter().zip(values) {
            out.set(fact, value);
        }
        out
    }
}

/// Structural (node-id) equality of two circuit-annotated stores — O(n) and
/// independent of circuit size, unlike semantic circuit equality, which
/// lowers to the expanded polynomial.
fn same_structure(a: &FactStore<Circuit>, b: &FactStore<Circuit>) -> bool {
    a.len() == b.len()
        && a.facts()
            .all(|(fact, c)| b.contains(&fact) && c.same_node(&b.annotation(&fact)))
}

/// Evaluates a datalog program over the **circuit** provenance semiring:
/// tags each edb fact with a variable, runs the bounded Kleene iteration of
/// Definition 5.5 with circuit annotations (`+`/`·` intern DAG nodes in
/// O(1) instead of merging monomial maps), and returns the circuit-annotated
/// idb with the valuation for later specialization.
///
/// Convergence is detected **structurally**: hash-consing is deterministic,
/// so once a round leaves every annotation's node id unchanged the iteration
/// has reached the (semantic) fixpoint — one extra round after
/// stabilization, exactly like the naive evaluator's `next == current`
/// check, but without ever expanding a polynomial. On instances whose ℕ\[X\]
/// annotations never stabilize (cyclic ℕ∞\[\[X\]\] cases, Section 6) the
/// iteration stops at `max_rounds` with `converged = false`, and the result
/// equals the naive `Tᵐ(0)` round for round.
///
/// The returned handles belong to the calling thread's current generation
/// (scope them with a [`provsem_semiring::circuit::CircuitSession`]); their
/// nodes live in the process-wide arena of [`provsem_semiring::circuit`],
/// which is append-only and reclaimed only by
/// `provsem_semiring::circuit::vacuum()` at a quiescent point — doing so
/// invalidates every previously returned [`CircuitDatalogProvenance`] on
/// every thread, so specialize first.
pub fn datalog_provenance_circuit<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
) -> CircuitDatalogProvenance<K> {
    let edb_variables = default_edb_variables(edb);
    let mut valuation = Valuation::new();
    let mut edb_circuits: FactStore<Circuit> = FactStore::new();
    for (fact, annotation) in edb.facts() {
        let var = edb_variables[&fact].clone();
        valuation.assign(var.clone(), annotation.clone());
        edb_circuits.set(fact, Circuit::var(var));
    }

    let grounding = Grounding::new(program, &edb_circuits);
    // The naive Kleene driver, with the semantic `next == current` fixpoint
    // test (which for circuits would expand polynomials) replaced by the
    // O(n) structural node-id comparison.
    let result = crate::naive::kleene_iterate_grounded_by(
        program,
        grounding.rules(),
        &edb_circuits,
        max_rounds,
        same_structure,
    );
    CircuitDatalogProvenance {
        facts: result.idb,
        valuation,
        edb_variables,
        iterations: result.iterations,
        converged: result.converged,
    }
}

/// Sanity check for Proposition 6.2 / 5.3: for a **non-recursive** program,
/// the datalog provenance of every answer is a polynomial.
pub fn nonrecursive_provenance_is_polynomial<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
) -> bool {
    if !program.is_nonrecursive() {
        return false;
    }
    classify_series(program, edb)
        .values()
        .all(|c| *c == SeriesClass::NPoly)
}

/// The edb variable assigned to each fact by [`datalog_provenance`] — handy
/// for writing expectations in terms of the paper's variable names.
pub fn edb_variable_of<K: Semiring>(
    provenance: &DatalogProvenance<K>,
    fact: &Fact,
) -> Option<Variable> {
    provenance.trees.edb_variables.get(fact).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::edge_facts;
    use provsem_semiring::{NatInf, Natural};

    fn figure7_edb() -> FactStore<NatInf> {
        edge_facts(
            "R",
            &[
                ("a", "b", NatInf::Fin(2)),
                ("a", "c", NatInf::Fin(3)),
                ("c", "b", NatInf::Fin(2)),
                ("b", "d", NatInf::Fin(1)),
                ("d", "d", NatInf::Fin(1)),
            ],
        )
    }

    #[test]
    fn figure7_series_classes() {
        // The TC program has no unit-rule cycles (its only unit rule has an
        // edb body), so by Theorem 6.5 all coefficients are finite: finite
        // tuples are ℕ[X] polynomials, infinite ones are ℕ[[X]] series.
        let program = Program::transitive_closure("R", "Q");
        let classes = classify_series(&program, &figure7_edb());
        assert_eq!(classes[&Fact::new("Q", ["a", "b"])], SeriesClass::NPoly);
        assert_eq!(classes[&Fact::new("Q", ["a", "c"])], SeriesClass::NPoly);
        assert_eq!(classes[&Fact::new("Q", ["c", "b"])], SeriesClass::NPoly);
        assert_eq!(classes[&Fact::new("Q", ["d", "d"])], SeriesClass::NSeries);
        assert_eq!(classes[&Fact::new("Q", ["b", "d"])], SeriesClass::NSeries);
        assert_eq!(classes[&Fact::new("Q", ["a", "d"])], SeriesClass::NSeries);
        assert!(classes.values().all(|c| c.has_finite_coefficients()));
    }

    #[test]
    fn unit_rule_cycle_gives_infinite_coefficients() {
        // P(x) :- E(x). P(x) :- P(x). — one monomial (e), coefficient ∞.
        let program = crate::parser::parse_program("P(x) :- E(x).\nP(x) :- P(x).").unwrap();
        let mut edb: FactStore<Natural> = FactStore::new();
        edb.insert(Fact::new("E", ["a"]), Natural::from(1u64));
        let classes = classify_series(&program, &edb);
        assert_eq!(classes[&Fact::new("P", ["a"])], SeriesClass::NInfPoly);
        assert!(!classes[&Fact::new("P", ["a"])].has_finite_coefficients());
        assert!(classes[&Fact::new("P", ["a"])].is_polynomial());
    }

    #[test]
    fn mixed_cycles_give_the_general_class() {
        // P(x) :- E(x). P(x) :- P(x). P(x) :- P(x), P(x).
        // Unit cycle ⇒ ∞ coefficients; non-unit cycle ⇒ infinitely many
        // monomials.
        let program =
            crate::parser::parse_program("P(x) :- E(x).\nP(x) :- P(x).\nP(x) :- P(x), P(x).")
                .unwrap();
        let mut edb: FactStore<Natural> = FactStore::new();
        edb.insert(Fact::new("E", ["a"]), Natural::from(1u64));
        let classes = classify_series(&program, &edb);
        assert_eq!(classes[&Fact::new("P", ["a"])], SeriesClass::NInfSeries);
    }

    /// The edb `E(c) ↦ E` over ℕ\[X\], for watching a series grow under the
    /// Kleene iteration.
    fn single_variable_edb() -> FactStore<ProvenancePolynomial> {
        let mut edb = FactStore::new();
        edb.insert(Fact::new("E", ["c"]), ProvenancePolynomial::var("E"));
        edb
    }

    #[test]
    fn a_nonunit_rule_inside_a_unit_cycle_block_gives_infinitely_many_monomials() {
        // Every fact lies on a unit-only cycle (A ↔ C, B ↔ D) and no cycle
        // uses only non-unit edges, but A :- B, E closes the cycle A → B → A
        // through a non-unit rule: each pump multiplies in another E.
        let program = crate::parser::parse_program(
            "A(x) :- E(x).\nA(x) :- B(x), E(x).\nB(x) :- A(x).\nA(x) :- C(x).\n\
             C(x) :- A(x).\nB(x) :- D(x).\nD(x) :- B(x).",
        )
        .unwrap();
        let edb = single_variable_edb();
        let classes = classify_series(&program, &edb);
        assert_eq!(classes.len(), 4);
        for p in ["A", "B", "C", "D"] {
            assert_eq!(
                classes[&Fact::new(p, ["c"])],
                SeriesClass::NInfSeries,
                "{p}"
            );
        }
        // The Kleene iterates of A(c) keep gaining degree: 2E + E² at round
        // 4, up to E⁴ at round 8 and E⁶ at round 12.
        let a = Fact::new("A", ["c"]);
        let degrees: Vec<u32> = [4, 8, 12]
            .iter()
            .map(|&rounds| {
                let out = crate::naive::kleene_iterate(&program, &edb, rounds);
                assert!(!out.converged);
                out.idb.annotation(&a).degree()
            })
            .collect();
        assert_eq!(degrees, [2, 4, 6]);
        let round4 = crate::naive::kleene_iterate(&program, &edb, 4)
            .idb
            .annotation(&a);
        let e = provsem_semiring::Monomial::var("E");
        assert_eq!(round4.coefficient(&e), Natural::from(2u64));
        assert_eq!(round4.num_terms(), 2);
    }

    #[test]
    fn a_unit_cycle_read_through_a_nonunit_rule_gives_infinite_coefficients() {
        // B(c) = E + B(c) has coefficient ∞ on E; A(c) :- B(c), E(c) reads it
        // through a non-unit rule, so A(c) = ∞·E² — one monomial, infinite
        // coefficient.
        let program =
            crate::parser::parse_program("A(x) :- B(x), E(x).\nB(x) :- E(x).\nB(x) :- B(x).")
                .unwrap();
        let edb = single_variable_edb();
        let classes = classify_series(&program, &edb);
        assert_eq!(classes[&Fact::new("B", ["c"])], SeriesClass::NInfPoly);
        assert_eq!(classes[&Fact::new("A", ["c"])], SeriesClass::NInfPoly);
        // The coefficient of E² in A(c) grows with every Kleene round.
        let e2 = provsem_semiring::Monomial::from_powers([("E", 2)]);
        let a = Fact::new("A", ["c"]);
        let coefficients: Vec<Natural> = [3, 6, 9]
            .iter()
            .map(|&rounds| {
                let out = crate::naive::kleene_iterate(&program, &edb, rounds);
                let poly = out.idb.annotation(&a);
                assert_eq!(poly.num_terms(), 1);
                poly.coefficient(&e2)
            })
            .collect();
        assert!(
            coefficients.windows(2).all(|w| w[0] < w[1]),
            "{coefficients:?}"
        );
    }

    #[test]
    fn nonrecursive_programs_have_polynomial_provenance() {
        // Proposition 6.2's sanity check.
        let program = Program::figure6_query();
        let edb = edge_facts(
            "R",
            &[
                ("a", "a", Natural::from(2u64)),
                ("a", "b", Natural::from(3u64)),
                ("b", "b", Natural::from(4u64)),
            ],
        );
        assert!(nonrecursive_provenance_is_polynomial(&program, &edb));
        // A recursive program is rejected by the helper even if the instance
        // happens to be acyclic.
        let tc = Program::transitive_closure("R", "Q");
        assert!(!nonrecursive_provenance_is_polynomial(&tc, &edb));
    }

    #[test]
    fn theorem_6_4_factorization_for_datalog() {
        // Computing provenance once and evaluating (with ∞ for T∞ tuples)
        // agrees with the direct exact ℕ∞ evaluation.
        let program = Program::transitive_closure("R", "Q");
        let edb = figure7_edb();
        let prov = datalog_provenance(&program, &edb);
        let specialized = prov.specialize(|| NatInf::Inf);
        let direct = crate::exact::evaluate_natinf(&program, &edb);
        for (fact, ann) in direct.facts() {
            assert_eq!(specialized.annotation(&fact), *ann, "{fact}");
        }
        assert_eq!(specialized.len(), direct.len());
    }

    #[test]
    fn figure6_datalog_provenance_matches_bag_multiplicities() {
        // Proposition 5.3 instance: the conjunctive query of Figure 6
        // evaluated via provenance + valuation gives 4, 18, 16.
        let program = Program::figure6_query();
        let edb = edge_facts(
            "R",
            &[
                ("a", "a", NatInf::Fin(2)),
                ("a", "b", NatInf::Fin(3)),
                ("b", "b", NatInf::Fin(4)),
            ],
        );
        let prov = datalog_provenance(&program, &edb);
        let out = prov.specialize(|| NatInf::Inf);
        assert_eq!(out.annotation(&Fact::new("Q", ["a", "a"])), NatInf::Fin(4));
        assert_eq!(out.annotation(&Fact::new("Q", ["a", "b"])), NatInf::Fin(18));
        assert_eq!(out.annotation(&Fact::new("Q", ["b", "b"])), NatInf::Fin(16));
    }

    #[test]
    fn circuit_datalog_matches_figure6_bag_multiplicities() {
        // Same instance as `figure6_datalog_provenance_matches_bag_multiplicities`,
        // through the circuit route: one non-recursive round, then one
        // shared memoized specialization pass.
        let program = Program::figure6_query();
        let edb = edge_facts(
            "R",
            &[
                ("a", "a", Natural::from(2u64)),
                ("a", "b", Natural::from(3u64)),
                ("b", "b", Natural::from(4u64)),
            ],
        );
        let prov = datalog_provenance_circuit(&program, &edb, 16);
        assert!(prov.converged);
        assert_eq!(prov.iterations, 1, "non-recursive early exit");
        let out = prov.specialize();
        assert_eq!(
            out.annotation(&Fact::new("Q", ["a", "a"])),
            Natural::from(4u64)
        );
        assert_eq!(
            out.annotation(&Fact::new("Q", ["a", "b"])),
            Natural::from(18u64)
        );
        assert_eq!(
            out.annotation(&Fact::new("Q", ["b", "b"])),
            Natural::from(16u64)
        );
    }

    #[test]
    fn circuit_datalog_converges_structurally_on_acyclic_tc() {
        // Linear TC on a chain: structural convergence must be observed and
        // the specialization must equal the direct ℕ evaluation.
        let program = Program::linear_transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", Natural::from(2u64)),
                ("b", "c", Natural::from(3u64)),
                ("c", "d", Natural::from(5u64)),
            ],
        );
        let prov = datalog_provenance_circuit(&program, &edb, 64);
        assert!(prov.converged);
        let direct = crate::naive::kleene_iterate(&program, &edb, 64);
        assert!(direct.converged);
        assert_eq!(prov.specialize(), direct.idb);
        // The circuit of the far endpoint is the expected path product.
        let q_ad = prov.circuit(&Fact::new("Q", ["a", "d"])).unwrap();
        assert_eq!(q_ad.eval(&prov.valuation), Natural::from(30u64));
    }

    #[test]
    fn circuit_datalog_matches_direct_evaluation_on_a_layered_dag() {
        // Transitive closure of a 6 × 10 layered DAG (every node to five of
        // the next layer, 250 edges, up to 5⁵ paths per pair): the circuit
        // route converges structurally and specializes to what the naive
        // fixpoint computes directly in ℕ.
        provsem_semiring::circuit::reset();
        let mut store = FactStore::new();
        for layer in 0..5 {
            for node in 0..10 {
                for step in 0..5 {
                    let to = (node * 3 + step * 7 + layer) % 10;
                    store.insert(
                        Fact::new(
                            "R",
                            [format!("n{layer}_{node}"), format!("n{}_{to}", layer + 1)],
                        ),
                        Natural::from(1 + (node + step) as u64 % 3),
                    );
                }
            }
        }
        let program = Program::transitive_closure("R", "Q");
        let prov = datalog_provenance_circuit(&program, &store, 16);
        assert!(prov.converged);
        let direct = crate::naive::kleene_iterate(&program, &store, 16);
        assert!(direct.converged);
        assert!(direct.idb.len() > 1_000, "{}", direct.idb.len());
        assert_eq!(prov.specialize(), direct.idb);
    }

    #[test]
    fn circuit_datalog_is_round_for_round_tm_on_nonconverging_instances() {
        // Figure 7 over ℕ∞ never converges; specializing the circuit Tᵐ(0)
        // must equal the naive Tᵐ(0) for every m (Eval_v commutes with T).
        let program = Program::transitive_closure("R", "Q");
        let edb = figure7_edb();
        for rounds in 1..6 {
            let prov = datalog_provenance_circuit(&program, &edb, rounds);
            assert!(!prov.converged, "rounds={rounds}");
            assert_eq!(prov.iterations, rounds);
            let naive = crate::naive::kleene_iterate(&program, &edb, rounds);
            assert_eq!(prov.specialize(), naive.idb, "rounds={rounds}");
        }
    }

    #[test]
    fn circuit_datalog_stays_small_where_expanded_polynomials_explode() {
        // A doubling diamond chain: two parallel two-edge paths per layer,
        // so the number of n₀ → nₖ paths is 2^k and the expanded ℕ[X]
        // provenance of Q(n₀, nₖ) has 2^k monomials. The circuit reuses
        // each layer's reachability annotation and stays polynomial.
        provsem_semiring::circuit::reset();
        const K: usize = 16;
        let mut edges: Vec<(String, String, Natural)> = Vec::new();
        for i in 0..K {
            for way in ["u", "w"] {
                edges.push((format!("n{i}"), format!("{way}{i}"), Natural::from(1u64)));
                edges.push((
                    format!("{way}{i}"),
                    format!("n{}", i + 1),
                    Natural::from(1u64),
                ));
            }
        }
        let edge_refs: Vec<(&str, &str, Natural)> = edges
            .iter()
            .map(|(a, b, k)| (a.as_str(), b.as_str(), *k))
            .collect();
        let edb = edge_facts("R", &edge_refs);
        let program = Program::linear_transitive_closure("R", "Q");
        let prov = datalog_provenance_circuit(&program, &edb, 256);
        assert!(prov.converged);

        // 2^K derivations recovered by the memoized evaluation...
        let far = Fact::new("Q", ["n0".to_string(), format!("n{K}")]);
        let circuit = prov.circuit(&far).expect("endpoint derivable");
        assert_eq!(circuit.eval(&prov.valuation), Natural::from(1u64 << K));
        // ...from a circuit that stays far below 2^K nodes.
        let total =
            provsem_semiring::circuit::shared_node_count(prov.facts.facts().map(|(_, c)| *c));
        assert!(
            total < 200 * K,
            "whole idb provenance must stay polynomial: {total} nodes"
        );
        // And the whole specialization agrees with the direct ℕ evaluation.
        let direct = crate::naive::kleene_iterate(&program, &edb, 256);
        assert!(direct.converged);
        assert_eq!(prov.specialize(), direct.idb);
    }

    #[test]
    fn polynomial_accessor_and_variable_lookup() {
        let program = Program::figure6_query();
        let edb = edge_facts(
            "R",
            &[("a", "b", NatInf::Fin(1)), ("b", "c", NatInf::Fin(1))],
        );
        let prov = datalog_provenance(&program, &edb);
        let q_ac = Fact::new("Q", ["a", "c"]);
        let poly = prov.polynomial(&q_ac).expect("finite provenance");
        assert_eq!(poly.num_terms(), 1);
        assert!(edb_variable_of(&prov, &Fact::new("R", ["a", "b"])).is_some());
        assert!(edb_variable_of(&prov, &Fact::new("R", ["z", "z"])).is_none());
    }
}
