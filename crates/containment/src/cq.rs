//! Conjunctive queries, containment mappings, and containment decision
//! procedures (Section 9 of the paper).
//!
//! * Chandra–Merlin: `q1 ⊑_𝔹 q2` iff there is a homomorphism from `q2` to
//!   `q1` (equivalently, `q2` applied to the canonical database of `q1`
//!   produces `q1`'s head).
//! * Sagiv–Yannakakis: for unions of conjunctive queries, `Q1 ⊑_𝔹 Q2` iff
//!   every disjunct of `Q1` is contained in some disjunct of `Q2`.
//! * Theorem 9.2: when K is a distributive lattice, `⊑_K` coincides with
//!   `⊑_𝔹` for unions of conjunctive queries — decided here by the same
//!   homomorphism procedure, and validated empirically by
//!   [`check_containment_on_instance`].

use provsem_core::Value;
use provsem_datalog::{Fact, FactStore, Program, Rule, Term};
use provsem_semiring::{NaturallyOrdered, Semiring};
use std::collections::BTreeMap;

/// A conjunctive query, written as a single datalog rule
/// `head(x̄) :- body₁, …, bodyₙ`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConjunctiveQuery {
    /// The defining rule.
    pub rule: Rule,
}

impl ConjunctiveQuery {
    /// Wraps a rule as a conjunctive query. The rule must be safe.
    pub fn new(rule: Rule) -> Self {
        assert!(rule.is_safe(), "conjunctive queries must be safe rules");
        ConjunctiveQuery { rule }
    }

    /// Parses a conjunctive query from a single datalog rule.
    pub fn parse(text: &str) -> Result<Self, provsem_datalog::ParseError> {
        Ok(ConjunctiveQuery::new(provsem_datalog::parse_rule(text)?))
    }

    /// The canonical ("frozen") database of the query: each body atom becomes
    /// a fact whose values are the frozen variables/constants. Returns the
    /// fact store (annotated with `1`) and the frozen head fact.
    pub fn canonical_database<K: Semiring>(&self) -> (FactStore<K>, Fact) {
        let freeze = |t: &Term| match t {
            Term::Const(v) => v.clone(),
            Term::Var(x) => Value::str(format!("⟨{}⟩", x.0)),
        };
        let mut store = FactStore::new();
        for atom in &self.rule.body {
            let fact = Fact::new(
                atom.predicate.clone(),
                atom.terms.iter().map(freeze).collect::<Vec<Value>>(),
            );
            store.set(fact, K::one());
        }
        let head = Fact::new(
            self.rule.head.predicate.clone(),
            self.rule
                .head
                .terms
                .iter()
                .map(freeze)
                .collect::<Vec<Value>>(),
        );
        (store, head)
    }

    /// Evaluates the query over a K-annotated fact store (Definition 3.2 /
    /// Section 5 semantics for a single non-recursive rule: sum over
    /// satisfying valuations of the product of body annotations).
    ///
    /// The rule is translated to RA⁺ (see [`crate::ra`]) and run on the
    /// planned K-relation engine; rules the translation does not cover
    /// (bodyless, or head predicate in the body) fall back to two rounds of
    /// the semi-naive datalog loop, which equal
    /// [`ConjunctiveQuery::evaluate_datalog`]'s `T²(0)`. All three routes
    /// agree on every semiring (checked by the differential suite).
    pub fn evaluate<K: Semiring>(&self, edb: &FactStore<K>) -> FactStore<K> {
        crate::ra::evaluate_rules(&[&self.rule], edb, crate::ra::RaRoute::Planned)
            .unwrap_or_else(|| seminaive_rounds(&[&self.rule], edb))
    }

    /// Like [`ConjunctiveQuery::evaluate`], but running the translated RA⁺
    /// expression on the tree-walking reference interpreter instead of the
    /// planned engine — the differential/benchmark baseline.
    pub fn evaluate_interpreted<K: Semiring>(&self, edb: &FactStore<K>) -> FactStore<K> {
        crate::ra::evaluate_rules(&[&self.rule], edb, crate::ra::RaRoute::Interpreted)
            .unwrap_or_else(|| self.evaluate_datalog(edb))
    }

    /// Evaluates the query through the datalog engine (bounded Kleene
    /// iteration of the one-rule program) — the pre-planner route, kept as
    /// a second reference implementation and for untranslatable rules.
    pub fn evaluate_datalog<K: Semiring>(&self, edb: &FactStore<K>) -> FactStore<K> {
        let program = Program::new(vec![self.rule.clone()]);
        provsem_datalog::kleene_iterate(&program, edb, 2).idb
    }

    /// Is there a containment mapping (homomorphism) from `other` to `self`?
    /// By Chandra–Merlin this holds iff `self ⊑_𝔹 other`.
    pub fn contained_in(&self, other: &ConjunctiveQuery) -> bool {
        if self.rule.head.arity() != other.rule.head.arity()
            || self.rule.head.predicate != other.rule.head.predicate
        {
            return false;
        }
        // Evaluate `other` over the canonical database of `self` and check
        // that the frozen head of `self` is produced.
        let (canonical, frozen_head) = self.canonical_database::<provsem_semiring::Bool>();
        let out = other.evaluate(&canonical);
        out.contains(&frozen_head)
    }

    /// Query equivalence under set semantics.
    pub fn equivalent_to(&self, other: &ConjunctiveQuery) -> bool {
        self.contained_in(other) && other.contained_in(self)
    }
}

/// A union of conjunctive queries (UCQ): disjuncts sharing one head
/// predicate and arity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnionOfConjunctiveQueries {
    /// The disjuncts.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionOfConjunctiveQueries {
    /// Builds a UCQ from disjuncts (must be non-empty and share head
    /// predicate/arity).
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Self {
        assert!(!disjuncts.is_empty(), "a UCQ needs at least one disjunct");
        let head = &disjuncts[0].rule.head;
        assert!(
            disjuncts
                .iter()
                .all(|d| d.rule.head.predicate == head.predicate
                    && d.rule.head.arity() == head.arity()),
            "all disjuncts must share the head predicate and arity"
        );
        UnionOfConjunctiveQueries { disjuncts }
    }

    /// Parses a UCQ from a datalog program text in which every rule has the
    /// same head predicate.
    pub fn parse(text: &str) -> Result<Self, provsem_datalog::ParseError> {
        let program = provsem_datalog::parse_program(text)?;
        Ok(UnionOfConjunctiveQueries::new(
            program
                .rules
                .into_iter()
                .map(ConjunctiveQuery::new)
                .collect(),
        ))
    }

    /// Evaluates the UCQ over a K-annotated fact store (sum over
    /// disjuncts), on the planned RA engine — see
    /// [`ConjunctiveQuery::evaluate`]. Falls back to two semi-naive datalog
    /// rounds when some disjunct is not translatable.
    pub fn evaluate<K: Semiring>(&self, edb: &FactStore<K>) -> FactStore<K> {
        let rules: Vec<&Rule> = self.disjuncts.iter().map(|d| &d.rule).collect();
        crate::ra::evaluate_rules(&rules, edb, crate::ra::RaRoute::Planned)
            .unwrap_or_else(|| seminaive_rounds(&rules, edb))
    }

    /// Like [`UnionOfConjunctiveQueries::evaluate`] on the tree-walking RA
    /// interpreter — the differential/benchmark baseline.
    pub fn evaluate_interpreted<K: Semiring>(&self, edb: &FactStore<K>) -> FactStore<K> {
        let rules: Vec<&Rule> = self.disjuncts.iter().map(|d| &d.rule).collect();
        crate::ra::evaluate_rules(&rules, edb, crate::ra::RaRoute::Interpreted)
            .unwrap_or_else(|| self.evaluate_datalog(edb))
    }

    /// Evaluates the UCQ through the datalog engine (the pre-planner
    /// route).
    pub fn evaluate_datalog<K: Semiring>(&self, edb: &FactStore<K>) -> FactStore<K> {
        let program = Program::new(self.disjuncts.iter().map(|d| d.rule.clone()).collect());
        provsem_datalog::kleene_iterate(&program, edb, 2).idb
    }

    /// Set-semantics containment by the Sagiv–Yannakakis criterion: every
    /// disjunct of `self` is contained in some disjunct of `other`.
    pub fn contained_in(&self, other: &UnionOfConjunctiveQueries) -> bool {
        self.disjuncts
            .iter()
            .all(|d| other.disjuncts.iter().any(|e| d.contained_in(e)))
    }

    /// Containment with respect to K-relation semantics **decided via
    /// Theorem 9.2**: valid when K is a distributive lattice, in which case
    /// `⊑_K` coincides with `⊑_𝔹` and the Sagiv–Yannakakis procedure applies.
    pub fn contained_in_lattice_semantics(&self, other: &UnionOfConjunctiveQueries) -> bool {
        self.contained_in(other)
    }
}

/// The rules as one datalog program, after two rounds of the semi-naive
/// loop (`T²(0)`, as `evaluate_datalog`'s Kleene iteration): the fallback
/// of the planned routes for rules the RA translation does not cover.
fn seminaive_rounds<K: Semiring>(rules: &[&Rule], edb: &FactStore<K>) -> FactStore<K> {
    let program = Program::new(rules.iter().map(|&rule| rule.clone()).collect());
    provsem_datalog::seminaive_iterate(&program, edb, 2).idb
}

/// Empirically checks `q1 ⊑_K q2` on one concrete instance: evaluates both
/// queries and verifies `q1(R)(t) ≤_K q2(R)(t)` for every tuple. Used by the
/// tests and benches to validate Theorem 9.2 (lattices) and to exhibit the
/// counterexamples showing that `⊑_𝔹` does **not** imply `⊑_ℕ` (bag
/// semantics).
pub fn check_containment_on_instance<K>(
    q1: &UnionOfConjunctiveQueries,
    q2: &UnionOfConjunctiveQueries,
    edb: &FactStore<K>,
) -> bool
where
    K: Semiring + NaturallyOrdered,
{
    let out1 = q1.evaluate(edb);
    let out2 = q2.evaluate(edb);
    let mut facts: BTreeMap<Fact, ()> = BTreeMap::new();
    for (f, _) in out1.facts().chain(out2.facts()) {
        facts.insert(f, ());
    }
    facts
        .keys()
        .all(|f| out1.annotation(f).natural_leq(&out2.annotation(f)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use provsem_datalog::edge_facts;
    use provsem_semiring::{Bool, Natural, PosBool, Tropical};

    fn cq(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    fn ucq(text: &str) -> UnionOfConjunctiveQueries {
        UnionOfConjunctiveQueries::parse(text).unwrap()
    }

    #[test]
    fn classic_chandra_merlin_containment() {
        // q1: paths of length 2; q2: pairs connected by any two edges from x
        // — q1 asks for more structure, so q1 ⊑ q2? A homomorphism from q2's
        // body {R(x,z'), R(x,z'')} into q1's body {R(x,z), R(z,y)} must map
        // both atoms to atoms with first argument x... Use the textbook
        // example instead: triangle query vs edge query.
        let path2 = cq("Q(x, y) :- R(x, z), R(z, y).");
        let edge = cq("Q(x, y) :- R(x, y).");
        // Every edge gives... no containment either way for these two:
        assert!(!edge.contained_in(&path2));
        assert!(!path2.contained_in(&edge));

        // Specializing a query contains it: Q(x,y) :- R(x,y), R(y,y) is
        // contained in Q(x,y) :- R(x,y).
        let specialized = cq("Q(x, y) :- R(x, y), R(y, y).");
        assert!(specialized.contained_in(&edge));
        assert!(!edge.contained_in(&specialized));
    }

    #[test]
    fn redundant_atoms_give_equivalent_queries() {
        // Q(x,y) :- R(x,y), R(x,y') is equivalent to Q(x,y) :- R(x,y):
        // the extra atom is subsumed by a homomorphism y' ↦ y.
        let redundant = cq("Q(x, y) :- R(x, y), R(x, y2).");
        let simple = cq("Q(x, y) :- R(x, y).");
        assert!(redundant.equivalent_to(&simple));
    }

    #[test]
    fn canonical_database_freezes_variables() {
        let q = cq("Q(x, y) :- R(x, z), R(z, y).");
        let (canonical, head) = q.canonical_database::<Bool>();
        assert_eq!(canonical.len(), 2);
        assert_eq!(head.predicate, "Q");
        assert_eq!(head.arity(), 2);
    }

    #[test]
    fn ucq_containment_sagiv_yannakakis() {
        // Q1 = edges ∪ length-2 paths; Q2 = edges ∪ length-2 paths ∪ loops.
        let q1 = ucq("Q(x, y) :- R(x, y).\nQ(x, y) :- R(x, z), R(z, y).");
        let q2 = ucq("Q(x, y) :- R(x, y).\nQ(x, y) :- R(x, z), R(z, y).\nQ(x, x) :- R(x, x).");
        assert!(q1.contained_in(&q2));
        // And q2 ⊑ q1 as well: the loop disjunct is contained in the edge
        // disjunct.
        assert!(q2.contained_in(&q1));
        // A disjunct that genuinely adds answers breaks containment.
        let q3 = ucq("Q(x, y) :- R(x, y).\nQ(x, y) :- R(y, x).");
        assert!(q1.contained_in(&q1));
        assert!(!q3.contained_in(&q1));
    }

    #[test]
    fn theorem_9_2_lattice_containment_matches_boolean_containment() {
        // For distributive lattices (PosBool, Tropical is *not* a lattice but
        // is idempotent — we use PosBool and 𝔹), containment decided by the
        // homomorphism procedure is confirmed on concrete annotated
        // instances.
        let q1 = ucq("Q(x, y) :- R(x, z), R(z, y), R(x, y).");
        let q2 = ucq("Q(x, y) :- R(x, y).");
        assert!(q1.contained_in(&q2));

        let edb_bool = edge_facts(
            "R",
            &[
                ("a", "b", Bool::from(true)),
                ("b", "b", Bool::from(true)),
                ("a", "a", Bool::from(true)),
            ],
        );
        assert!(check_containment_on_instance(&q1, &q2, &edb_bool));

        let edb_posbool = edge_facts(
            "R",
            &[
                ("a", "b", PosBool::var("e1")),
                ("b", "b", PosBool::var("e2")),
                ("a", "a", PosBool::var("e3")),
            ],
        );
        assert!(check_containment_on_instance(&q1, &q2, &edb_posbool));

        let edb_trop = edge_facts(
            "R",
            &[
                ("a", "b", Tropical::cost(1)),
                ("b", "b", Tropical::cost(2)),
                ("a", "a", Tropical::cost(3)),
            ],
        );
        assert!(check_containment_on_instance(&q1, &q2, &edb_trop));
    }

    #[test]
    fn boolean_containment_does_not_imply_bag_containment() {
        // The classic counterexample: Q1(x) :- R(x,y), R(x,z) is equivalent
        // to Q2(x) :- R(x,y) under set semantics, but under bag semantics Q1
        // squares the out-degree while Q2 does not, so Q1 ⋢_ℕ Q2.
        let q1 = ucq("Q(x) :- R(x, y), R(x, z).");
        let q2 = ucq("Q(x) :- R(x, y).");
        assert!(q1.contained_in(&q2));
        assert!(q2.contained_in(&q1));
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", Natural::from(1u64)),
                ("a", "c", Natural::from(1u64)),
            ],
        );
        // Q1(a) = 4 but Q2(a) = 2: the 𝔹-containment does not transfer to ℕ.
        assert!(!check_containment_on_instance(&q1, &q2, &edb));
        // The other direction does hold on this instance (2 ≤ 4).
        assert!(check_containment_on_instance(&q2, &q1, &edb));
    }

    #[test]
    fn surjective_homomorphism_direction_of_section_9() {
        // Section 9: if h : K → K' is surjective then ⊑_K implies ⊑_K'.
        // Instance-level illustration: ℕ-containment on an instance implies
        // 𝔹-containment on its support image.
        let q1 = ucq("Q(x) :- R(x, y).");
        let q2 = ucq("Q(x) :- R(x, y), R(x, z).");
        let edb_nat = edge_facts(
            "R",
            &[
                ("a", "b", Natural::from(2u64)),
                ("a", "c", Natural::from(1u64)),
            ],
        );
        assert!(check_containment_on_instance(&q1, &q2, &edb_nat));
        let edb_bool = edb_nat.map_annotations(|n| Bool::from(!n.is_zero()));
        assert!(check_containment_on_instance(&q1, &q2, &edb_bool));
    }

    #[test]
    #[should_panic(expected = "safe")]
    fn unsafe_rules_are_rejected() {
        let _ = cq("Q(x, y) :- R(x, x).");
    }
}
