//! Derivation trees and the **All-Trees** algorithm (Figure 8 of the paper).
//!
//! All-Trees decides, for every tuple in a datalog answer, whether its
//! provenance series in ℕ∞\[\[X\]\] is actually a *polynomial* (finitely many
//! derivation trees), and computes that polynomial when it is; tuples with
//! infinitely many derivation trees are reported as ∞.
//!
//! The same engine, with the Section 8 admission policy (a new tree is kept
//! only if its fringe monomial is *not divisible by* the fringe of a tree
//! already found for the same tuple), yields a finite polynomial for every
//! tuple, which evaluated in a finite distributive lattice K gives the
//! K-relation datalog answer — this is the paper's terminating algorithm for
//! datalog on incomplete and probabilistic databases.

use crate::ast::Program;
use crate::fact::{Fact, FactStore};
use crate::grounding::Grounding;
use provsem_semiring::{
    DistributiveLattice, Monomial, Natural, ProvenancePolynomial, Semiring, Valuation, Variable,
};
use std::collections::{BTreeMap, BTreeSet};

/// A derivation tree for an idb fact.
///
/// Leaves are edb facts (identified by their provenance variable); internal
/// nodes record the ground rule applied and the child derivations of the idb
/// body facts.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DerivationTree {
    /// The fact derived at the root.
    pub root: Fact,
    /// Id of the ground rule applied at the root (its position in
    /// [`Grounding::rules`]).
    pub rule: usize,
    /// Children: one entry per body atom of the ground rule, in order.
    pub children: Vec<DerivationChild>,
}

/// A child of a derivation-tree node.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum DerivationChild {
    /// An edb leaf, labelled with the edb fact's provenance variable.
    Leaf(Fact, Variable),
    /// A sub-derivation of an idb fact.
    Tree(Box<DerivationTree>),
    /// A reference to an idb fact already known to have infinitely many
    /// derivations (the paper's `T∞` tuples may be used as rule inputs).
    InfiniteTuple(Fact),
}

impl DerivationTree {
    /// The fringe of the tree: the bag of edb leaf variables, as a monomial
    /// (`fringe(τ)` in the paper).
    pub fn fringe(&self) -> Monomial {
        let mut m = Monomial::unit();
        self.collect_fringe(&mut m);
        m
    }

    fn collect_fringe(&self, m: &mut Monomial) {
        for child in &self.children {
            match child {
                DerivationChild::Leaf(_, var) => m.multiply_var(var.clone(), 1),
                DerivationChild::Tree(t) => t.collect_fringe(m),
                DerivationChild::InfiniteTuple(_) => {}
            }
        }
    }

    /// Does the tree reference any `T∞` tuple?
    pub fn uses_infinite_tuple(&self) -> bool {
        self.children.iter().any(|c| match c {
            DerivationChild::InfiniteTuple(_) => true,
            DerivationChild::Tree(t) => t.uses_infinite_tuple(),
            DerivationChild::Leaf(_, _) => false,
        })
    }

    /// Does any proper descendant derive the same fact as the root?
    /// (The cyclicity test of Figure 8, line 6.)
    pub fn root_repeats_below(&self) -> bool {
        self.contains_fact_strictly_below(&self.root)
    }

    fn contains_fact_strictly_below(&self, fact: &Fact) -> bool {
        self.children.iter().any(|c| match c {
            DerivationChild::Leaf(_, _) => false,
            DerivationChild::InfiniteTuple(f) => f == fact,
            DerivationChild::Tree(t) => t.root == *fact || t.contains_fact_strictly_below(fact),
        })
    }

    /// The number of nodes (internal + leaves) of the tree.
    pub fn size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|c| match c {
                DerivationChild::Leaf(_, _) | DerivationChild::InfiniteTuple(_) => 1,
                DerivationChild::Tree(t) => t.size(),
            })
            .sum::<usize>()
    }

    /// The depth of the tree (a single rule application above leaves has
    /// depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|c| match c {
                DerivationChild::Leaf(_, _) | DerivationChild::InfiniteTuple(_) => 0,
                DerivationChild::Tree(t) => t.depth(),
            })
            .max()
            .unwrap_or(0)
    }
}

/// The provenance of one output fact as classified by All-Trees.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TreeProvenance {
    /// Finitely many derivation trees: the provenance is this polynomial in
    /// ℕ\[X\].
    Polynomial(ProvenancePolynomial),
    /// Infinitely many derivation trees (`P(t) = ∞` in Figure 8).
    Infinite,
}

impl TreeProvenance {
    /// The polynomial if finite.
    pub fn as_polynomial(&self) -> Option<&ProvenancePolynomial> {
        match self {
            TreeProvenance::Polynomial(p) => Some(p),
            TreeProvenance::Infinite => None,
        }
    }

    /// Is the provenance infinite?
    pub fn is_infinite(&self) -> bool {
        matches!(self, TreeProvenance::Infinite)
    }
}

/// The result of running All-Trees.
#[derive(Clone, Debug)]
pub struct AllTreesResult {
    /// Per-fact classification (`P(t)` of Figure 8).
    pub provenance: BTreeMap<Fact, TreeProvenance>,
    /// The derivation trees retained in `T`, grouped by root fact.
    pub trees: BTreeMap<Fact, Vec<DerivationTree>>,
    /// The tuples found to have infinitely many derivations (`T∞`).
    pub infinite: BTreeSet<Fact>,
    /// The provenance variable assigned to each edb fact.
    pub edb_variables: BTreeMap<Fact, Variable>,
    /// Number of outer iterations performed.
    pub iterations: usize,
}

/// Assigns a provenance variable to every edb fact (abstract tagging `R̄`):
/// `pred_i` in fact order. Callers who want the paper's literal names can
/// pass their own map to [`all_trees_with_variables`].
pub fn default_edb_variables<K: Semiring>(edb: &FactStore<K>) -> BTreeMap<Fact, Variable> {
    let mut vars = BTreeMap::new();
    let mut counters: BTreeMap<String, usize> = BTreeMap::new();
    for (fact, _) in edb.facts() {
        let i = counters.entry(fact.predicate.clone()).or_insert(0);
        vars.insert(fact.clone(), Variable::indexed(&fact.predicate, *i));
        *i += 1;
    }
    vars
}

/// Runs All-Trees (Figure 8) with automatically assigned edb variables.
pub fn all_trees<K: Semiring>(program: &Program, edb: &FactStore<K>) -> AllTreesResult {
    all_trees_with_variables(program, edb, default_edb_variables(edb))
}

/// Runs All-Trees (Figure 8) with the given edb-fact → variable tagging.
pub fn all_trees_with_variables<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    edb_variables: BTreeMap<Fact, Variable>,
) -> AllTreesResult {
    run_tree_engine(program, edb, edb_variables, AdmissionPolicy::AllNewTrees)
}

/// Runs the Section 8 variant: a tree is admitted only if its fringe is not
/// divisible by the fringe of an already-admitted tree for the same fact
/// ("a derivation tree for a tuple is considered new only when its associated
/// monomial is smaller than any yet seen for that tuple"). Always returns a
/// polynomial for every fact.
pub fn minimal_trees<K: Semiring>(program: &Program, edb: &FactStore<K>) -> AllTreesResult {
    run_tree_engine(
        program,
        edb,
        default_edb_variables(edb),
        AdmissionPolicy::MinimalFringesOnly,
    )
}

/// Evaluates a datalog program over a finite distributive lattice K by the
/// Section 8 algorithm: run [`minimal_trees`], then evaluate every fact's
/// polynomial under the valuation mapping each edb variable to its K
/// annotation.
pub fn evaluate_lattice_via_trees<K: DistributiveLattice>(
    program: &Program,
    edb: &FactStore<K>,
) -> FactStore<K> {
    let result = minimal_trees(program, edb);
    let mut valuation: Valuation<K> = Valuation::new();
    for (fact, var) in &result.edb_variables {
        valuation.assign(var.clone(), edb.annotation(fact));
    }
    let mut out = FactStore::new();
    for (fact, prov) in &result.provenance {
        if let TreeProvenance::Polynomial(p) = prov {
            out.set(fact.clone(), p.eval(&valuation));
        }
    }
    out
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum AdmissionPolicy {
    /// Figure 8: admit every structurally new tree (and divert cyclic ones to
    /// `T∞`).
    AllNewTrees,
    /// Section 8: admit a tree only if no already-admitted tree for the same
    /// fact has a fringe dividing the new tree's fringe.
    MinimalFringesOnly,
}

fn run_tree_engine<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    edb_variables: BTreeMap<Fact, Variable>,
    policy: AdmissionPolicy,
) -> AllTreesResult {
    let g = Grounding::new(program, edb);

    // T: admitted trees per root fact; T∞: facts with infinitely many trees.
    let mut trees: BTreeMap<Fact, Vec<DerivationTree>> = BTreeMap::new();
    let mut tree_set: BTreeSet<DerivationTree> = BTreeSet::new();
    let mut infinite: BTreeSet<Fact> = BTreeSet::new();
    let mut iterations = 0;

    loop {
        iterations += 1;
        let mut added_anything = false;

        // T_q^ν: trees produced by applying a rule to roots of T and to T∞
        // tuples, not already present, whose root is not already in T∞.
        let mut new_trees: Vec<DerivationTree> = Vec::new();
        for (index, rule) in g.rules().iter().enumerate() {
            if infinite.contains(&rule.head) {
                continue;
            }
            // Candidate children for each body atom.
            let mut child_options: Vec<Vec<DerivationChild>> = Vec::new();
            let mut possible = true;
            for (body, &id) in rule.body.iter().zip(g.body_ids(index)) {
                if g.is_idb(id) {
                    let mut options: Vec<DerivationChild> = trees
                        .get(body)
                        .into_iter()
                        .flatten()
                        .map(|t| DerivationChild::Tree(Box::new(t.clone())))
                        .collect();
                    if infinite.contains(body) {
                        options.push(DerivationChild::InfiniteTuple(body.clone()));
                    }
                    if options.is_empty() {
                        possible = false;
                        break;
                    }
                    child_options.push(options);
                } else {
                    match edb_variables.get(body) {
                        Some(var) => child_options
                            .push(vec![DerivationChild::Leaf(body.clone(), var.clone())]),
                        None => {
                            possible = false;
                            break;
                        }
                    }
                }
            }
            if !possible {
                continue;
            }
            // Cartesian product of child options.
            let mut combos: Vec<Vec<DerivationChild>> = vec![Vec::new()];
            for options in &child_options {
                let mut next = Vec::with_capacity(combos.len() * options.len());
                for combo in &combos {
                    for option in options {
                        let mut extended = combo.clone();
                        extended.push(option.clone());
                        next.push(extended);
                    }
                }
                combos = next;
            }
            for children in combos {
                let tree = DerivationTree {
                    root: rule.head.clone(),
                    rule: index,
                    children,
                };
                if !tree_set.contains(&tree) {
                    new_trees.push(tree);
                }
            }
        }

        for tree in new_trees {
            if infinite.contains(&tree.root) || tree_set.contains(&tree) {
                continue;
            }
            // Figure 8, line 6: divert to T∞ if the tree uses a T∞ tuple or
            // repeats its root below itself.
            if policy == AdmissionPolicy::AllNewTrees
                && (tree.uses_infinite_tuple() || tree.root_repeats_below())
            {
                infinite.insert(tree.root.clone());
                // Trees previously collected for this fact are no longer
                // needed for the answer; keep them (harmless) but stop
                // producing more.
                added_anything = true;
                continue;
            }
            if policy == AdmissionPolicy::MinimalFringesOnly {
                // Skip trees that reference infinite tuples (none are created
                // under this policy) and trees whose fringe is divisible by an
                // existing tree's fringe for the same fact.
                if tree.uses_infinite_tuple() {
                    continue;
                }
                let fringe = tree.fringe();
                let dominated = trees
                    .get(&tree.root)
                    .map(|existing| existing.iter().any(|t| t.fringe().divides(&fringe)))
                    .unwrap_or(false);
                if dominated {
                    continue;
                }
            }
            tree_set.insert(tree.clone());
            trees.entry(tree.root.clone()).or_default().push(tree);
            added_anything = true;
        }

        if !added_anything {
            break;
        }
        // Safety valve: the engine is intended for instances whose tree count
        // is manageable; stop if an unreasonable number of iterations passes.
        if iterations > 10_000 {
            break;
        }
    }

    // P(t): ∞ for T∞ tuples, otherwise the sum over trees of their fringes.
    let mut provenance = BTreeMap::new();
    for fact in g.idb_ids().map(|f| &g.facts()[f]) {
        if infinite.contains(fact) {
            provenance.insert(fact.clone(), TreeProvenance::Infinite);
        } else if let Some(fact_trees) = trees.get(fact) {
            let poly = ProvenancePolynomial::from_terms(
                fact_trees.iter().map(|t| (t.fringe(), Natural::from(1u64))),
            );
            provenance.insert(fact.clone(), TreeProvenance::Polynomial(poly));
        }
    }

    AllTreesResult {
        provenance,
        trees,
        infinite,
        edb_variables,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::edge_facts;
    use provsem_semiring::{NatInf, PosBool};

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

    fn figure7_variables() -> BTreeMap<Fact, Variable> {
        [
            (Fact::new("R", ["a", "b"]), Variable::new("m")),
            (Fact::new("R", ["a", "c"]), Variable::new("n")),
            (Fact::new("R", ["c", "b"]), Variable::new("p")),
            (Fact::new("R", ["b", "d"]), Variable::new("r")),
            (Fact::new("R", ["d", "d"]), Variable::new("s")),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn all_trees_classifies_figure7() {
        let program = Program::transitive_closure("R", "Q");
        let result = all_trees_with_variables(&program, &figure7_edb(), figure7_variables());
        // x = m + np (finite polynomial), y = n, z = p; u, v, w infinite.
        let get = |a: &str, b: &str| result.provenance.get(&Fact::new("Q", [a, b])).unwrap();
        let m = ProvenancePolynomial::var("m");
        let n = ProvenancePolynomial::var("n");
        let p = ProvenancePolynomial::var("p");
        assert_eq!(
            get("a", "b").as_polynomial().unwrap(),
            &m.plus(&n.times(&p))
        );
        assert_eq!(get("a", "c").as_polynomial().unwrap(), &n);
        assert_eq!(get("c", "b").as_polynomial().unwrap(), &p);
        assert!(get("b", "d").is_infinite());
        assert!(get("d", "d").is_infinite());
        assert!(get("a", "d").is_infinite());
    }

    #[test]
    fn all_trees_on_acyclic_instance_counts_all_derivations() {
        // Diamond graph under the quadratic TC program: Q(a,d) has exactly
        // two derivation trees (through b and through c).
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", NatInf::Fin(1)),
                ("a", "c", NatInf::Fin(1)),
                ("b", "d", NatInf::Fin(1)),
                ("c", "d", NatInf::Fin(1)),
            ],
        );
        let result = all_trees(&program, &edb);
        let ad = result
            .provenance
            .get(&Fact::new("Q", ["a", "d"]))
            .unwrap()
            .as_polynomial()
            .unwrap()
            .clone();
        assert_eq!(ad.num_terms(), 2);
        // Evaluating every variable at 1 counts derivation trees.
        let mut v: Valuation<Natural> = Valuation::new();
        for var in result.edb_variables.values() {
            v.assign(var.clone(), Natural::from(1u64));
        }
        assert_eq!(ad.eval(&v), Natural::from(2u64));
        assert_eq!(
            result.trees.get(&Fact::new("Q", ["a", "d"])).unwrap().len(),
            2
        );
    }

    #[test]
    fn all_trees_agrees_with_exact_bag_evaluation_when_finite() {
        // Theorem 6.4 instance check: evaluating the All-Trees polynomials at
        // the edb multiplicities reproduces the exact ℕ∞ answer on the finite
        // part.
        let program = Program::transitive_closure("R", "Q");
        let edb = figure7_edb();
        let result = all_trees_with_variables(&program, &edb, figure7_variables());
        let exact = crate::exact::evaluate_natinf(&program, &edb);
        let valuation = Valuation::from_pairs([
            ("m", NatInf::Fin(2)),
            ("n", NatInf::Fin(3)),
            ("p", NatInf::Fin(2)),
            ("r", NatInf::Fin(1)),
            ("s", NatInf::Fin(1)),
        ]);
        for (fact, prov) in &result.provenance {
            match prov {
                TreeProvenance::Polynomial(p) => {
                    let value = p.evaluate_with(&valuation, |c| NatInf::Fin(c.value()));
                    assert_eq!(value, exact.annotation(fact), "{fact}");
                }
                TreeProvenance::Infinite => {
                    assert_eq!(exact.annotation(fact), NatInf::Inf, "{fact}");
                }
            }
        }
    }

    #[test]
    fn derivation_tree_statistics() {
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", NatInf::Fin(1)),
                ("b", "c", NatInf::Fin(1)),
                ("c", "d", NatInf::Fin(1)),
            ],
        );
        let result = all_trees(&program, &edb);
        let ad_trees = result.trees.get(&Fact::new("Q", ["a", "d"])).unwrap();
        // a→d over a 3-edge chain under the quadratic program: two
        // association orders, (ab·bc)·cd and ab·(bc·cd).
        assert_eq!(ad_trees.len(), 2);
        for t in ad_trees {
            assert_eq!(t.fringe().degree(), 3);
            assert!(t.depth() >= 2);
            assert!(t.size() >= 5);
            assert!(!t.root_repeats_below());
        }
    }

    #[test]
    fn minimal_trees_terminates_on_cyclic_instances() {
        // a→b, b→a: Figure 8 would classify everything as ∞; the Section 8
        // policy returns a finite polynomial for every fact.
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", PosBool::var("e1")),
                ("b", "a", PosBool::var("e2")),
            ],
        );
        let result = minimal_trees(&program, &edb);
        assert!(result.infinite.is_empty());
        for (fact, prov) in &result.provenance {
            assert!(prov.as_polynomial().is_some(), "{fact} should be finite");
        }
    }

    #[test]
    fn lattice_evaluation_via_trees_matches_fixpoint_evaluation() {
        let program = Program::transitive_closure("R", "Q");
        let edb = edge_facts(
            "R",
            &[
                ("a", "b", PosBool::var("e1")),
                ("b", "a", PosBool::var("e2")),
                ("b", "c", PosBool::var("e3")),
            ],
        );
        let via_trees = evaluate_lattice_via_trees(&program, &edb);
        let via_fixpoint = crate::exact::evaluate_lattice(&program, &edb, 64).unwrap();
        for (fact, ann) in via_fixpoint.facts() {
            assert_eq!(via_trees.annotation(&fact), *ann, "{fact}");
        }
        assert_eq!(via_trees.len(), via_fixpoint.len());
    }
}
