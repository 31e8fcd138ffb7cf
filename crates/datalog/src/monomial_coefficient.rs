//! The **Monomial-Coefficient** algorithm (Figure 9 of the paper): computing
//! the coefficient of a given monomial µ in the provenance power series
//! `q(I)(t) ∈ ℕ∞\[\[X\]\]`, even when that coefficient is ∞.
//!
//! The coefficient of µ in `q(I)(t)` is the number of derivation trees of `t`
//! whose fringe is exactly µ. We compute it by a least-fixpoint iteration of
//! the counting equations over the finite set of pairs `(fact, ν)` with
//! `ν | µ` — the same search space Figure 9 explores tree-by-tree — and
//! detect ∞ exactly as the paper does: coefficients are ∞ exactly for pairs
//! whose derivations can go through a cycle of unit ground rules (fringe
//! unchanged along the cycle), which manifests as the iteration not
//! stabilizing within the structural bound.

use crate::ast::Program;
use crate::fact::{Fact, FactStore};
use crate::grounding::Grounding;
use provsem_semiring::{Monomial, NatInf, Semiring, Variable};
use std::collections::BTreeMap;

/// Computes the coefficient of `monomial` in the provenance series of `fact`
/// for the program over the abstractly-tagged edb (`edb_variables` maps each
/// edb fact to its provenance variable).
///
/// Returns `NatInf::Fin(0)` when the fact is not derivable with that exact
/// fringe and `NatInf::Inf` when infinitely many derivation trees have that
/// fringe (which requires a cycle of unit rules, Theorem 6.5).
pub fn monomial_coefficient<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    edb_variables: &BTreeMap<Fact, Variable>,
    fact: &Fact,
    monomial: &Monomial,
) -> NatInf {
    let g = Grounding::new(program, edb);
    let Some(target) = g.id(fact).filter(|&f| g.is_idb(f)) else {
        return NatInf::Fin(0);
    };

    // Enumerate the candidate sub-monomials: all divisors of µ.
    let divisors = divisors_of(monomial);

    // counts[(fact id, ν)] = number of derivation trees of the fact with
    // fringe ν, as computed so far (monotone non-decreasing across
    // iterations).
    let mut counts: BTreeMap<(usize, Monomial), NatInf> = BTreeMap::new();

    // Structural bound: with F idb facts and D divisors, any derivation tree
    // whose count is *finite* has depth ≤ F·D — a deeper tree repeats a
    // `(fact, remaining-fringe)` pair along a path, and pumping that cycle
    // produces infinitely many trees with the same fringe. One Kleene
    // iteration of the counting equations extends coverage by one tree-depth
    // level, so after `bound` iterations every finite entry has stabilized.
    // Entries still growing between iteration `bound` and iteration
    // `2·bound` are exactly the infinite ones (their tree depths are
    // unbounded with period at most `bound`).
    let bound = g.idb_ids().count() * divisors.len() + 2;

    let step = |counts: &BTreeMap<(usize, Monomial), NatInf>| {
        let mut next: BTreeMap<(usize, Monomial), NatInf> = BTreeMap::new();
        for f in g.idb_ids() {
            for nu in &divisors {
                let mut total = NatInf::Fin(0);
                for &r in g.rules_of(f) {
                    total = total.plus(&count_rule_ways(&g, r, nu, edb_variables, counts));
                }
                if !total.is_zero() {
                    next.insert((f, nu.clone()), total);
                }
            }
        }
        next
    };

    let key = (target, monomial.clone());
    for _ in 0..bound {
        let next = step(&counts);
        if next == counts {
            // Global fixed point: every coefficient is finite and exact.
            return counts.get(&key).copied().unwrap_or(NatInf::Fin(0));
        }
        counts = next;
    }
    let snapshot = counts.clone();
    for _ in 0..bound {
        let next = step(&counts);
        if next == counts {
            break;
        }
        counts = next;
    }

    let early = snapshot.get(&key).copied().unwrap_or(NatInf::Fin(0));
    let late = counts.get(&key).copied().unwrap_or(NatInf::Fin(0));
    if early != late || late.is_infinite() {
        NatInf::Inf
    } else {
        late
    }
}

/// Number of ways to instantiate ground rule `rule` so that the tree fringe
/// is exactly `target`: distribute `target` among the body atoms, edb atoms
/// consuming exactly their own variable and idb atoms consuming a divisor
/// with the corresponding (already computed) tree count.
fn count_rule_ways(
    g: &Grounding,
    rule: usize,
    target: &Monomial,
    edb_variables: &BTreeMap<Fact, Variable>,
    counts: &BTreeMap<(usize, Monomial), NatInf>,
) -> NatInf {
    fn go(
        g: &Grounding,
        body: &[usize],
        remaining: &Monomial,
        edb_variables: &BTreeMap<Fact, Variable>,
        counts: &BTreeMap<(usize, Monomial), NatInf>,
    ) -> NatInf {
        match body.split_first() {
            None => {
                if remaining.is_unit() {
                    NatInf::Fin(1)
                } else {
                    NatInf::Fin(0)
                }
            }
            Some((&first, rest)) => {
                if g.is_idb(first) {
                    // Try every divisor ν of the remaining monomial.
                    let mut total = NatInf::Fin(0);
                    for nu in divisors_of(remaining) {
                        let sub = counts
                            .get(&(first, nu.clone()))
                            .copied()
                            .unwrap_or(NatInf::Fin(0));
                        if sub.is_zero() {
                            continue;
                        }
                        let rest_monomial = nu
                            .quotient(remaining)
                            .expect("divisor must divide the remaining monomial");
                        let rest_ways = go(g, rest, &rest_monomial, edb_variables, counts);
                        total = total.plus(&sub.times(&rest_ways));
                    }
                    total
                } else {
                    // Edb leaf: consumes exactly its own variable.
                    match edb_variables.get(&g.facts()[first]) {
                        Some(var) => {
                            let leaf = Monomial::var(var.clone());
                            match leaf.quotient(remaining) {
                                Some(rest_monomial) => {
                                    go(g, rest, &rest_monomial, edb_variables, counts)
                                }
                                None => NatInf::Fin(0),
                            }
                        }
                        None => NatInf::Fin(0),
                    }
                }
            }
        }
    }
    go(g, g.body_ids(rule), target, edb_variables, counts)
}

/// All divisors of a monomial (every exponent independently between 0 and its
/// value).
fn divisors_of(monomial: &Monomial) -> Vec<Monomial> {
    let powers: Vec<(Variable, u32)> = monomial.powers().map(|(v, e)| (v.clone(), e)).collect();
    let mut result = vec![Monomial::unit()];
    for (var, max_exp) in powers {
        let mut next = Vec::with_capacity(result.len() * (max_exp as usize + 1));
        for existing in &result {
            for e in 0..=max_exp {
                let mut m = existing.clone();
                m.multiply_var(var.clone(), e);
                next.push(m);
            }
        }
        result = next;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::edge_facts;
    use std::collections::BTreeMap;

    fn figure7_setup() -> (Program, FactStore<NatInf>, BTreeMap<Fact, Variable>) {
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
        let vars: BTreeMap<Fact, Variable> = [
            (Fact::new("R", ["a", "b"]), Variable::new("m")),
            (Fact::new("R", ["a", "c"]), Variable::new("n")),
            (Fact::new("R", ["c", "b"]), Variable::new("p")),
            (Fact::new("R", ["b", "d"]), Variable::new("r")),
            (Fact::new("R", ["d", "d"]), Variable::new("s")),
        ]
        .into_iter()
        .collect();
        (program, edb, vars)
    }

    #[test]
    fn paper_example_coefficients_of_w() {
        // Section 6 claims "the coefficient of rnps³ in the provenance w of
        // Q(a,d) is 5". Under the full derivation-tree semantics the
        // coefficient of a fringe with k+3 edge leaves is the Catalan number
        // C_{k+2} (every parenthesization of the path a→c→b→d→…→d is a
        // distinct derivation tree), so the coefficients of rnp·s⁰, rnps,
        // rnps², rnps³ are 2, 5, 14, 42. The paper's value 5 corresponds to
        // using R(d,d) once (rnps¹); see EXPERIMENTS.md for the discussion
        // (the paper's Figure 7 also omits the derivable tuple Q(c,d)).
        let (program, edb, vars) = figure7_setup();
        let w = Fact::new("Q", ["a", "d"]);
        let coeff = |s_exp: u32| {
            let mu = Monomial::from_powers([("r", 1u32), ("n", 1), ("p", 1), ("s", s_exp)]);
            monomial_coefficient(&program, &edb, &vars, &w, &mu)
        };
        assert_eq!(coeff(0), NatInf::Fin(2));
        assert_eq!(coeff(1), NatInf::Fin(5)); // the paper's "5"
        assert_eq!(coeff(2), NatInf::Fin(14));
        assert_eq!(coeff(3), NatInf::Fin(42));
    }

    #[test]
    fn catalan_coefficients_of_v() {
        // v = Q(d,d) solves v = s + v²: coefficients of s, s², s³, s⁴, s⁵ are
        // 1, 1, 2, 5, 14 (footnote 6 of the paper).
        let (program, edb, vars) = figure7_setup();
        let expected = [1u64, 1, 2, 5, 14];
        for (i, count) in expected.iter().enumerate() {
            let mu = Monomial::from_powers([("s", (i + 1) as u32)]);
            let c = monomial_coefficient(&program, &edb, &vars, &Fact::new("Q", ["d", "d"]), &mu);
            assert_eq!(c, NatInf::Fin(*count), "coefficient of s^{}", i + 1);
        }
    }

    #[test]
    fn coefficients_of_x_match_its_polynomial() {
        // x = Q(a,b) = m + np: coefficient of m is 1, of np is 1, of m² is 0.
        let (program, edb, vars) = figure7_setup();
        let q_ab = Fact::new("Q", ["a", "b"]);
        assert_eq!(
            monomial_coefficient(&program, &edb, &vars, &q_ab, &Monomial::var("m")),
            NatInf::Fin(1)
        );
        assert_eq!(
            monomial_coefficient(
                &program,
                &edb,
                &vars,
                &q_ab,
                &Monomial::from_bag(["n", "p"])
            ),
            NatInf::Fin(1)
        );
        assert_eq!(
            monomial_coefficient(
                &program,
                &edb,
                &vars,
                &q_ab,
                &Monomial::from_powers([("m", 2u32)])
            ),
            NatInf::Fin(0)
        );
    }

    #[test]
    fn unit_rule_cycle_gives_infinite_coefficient() {
        // P(x) :- E(x).  P(x) :- P(x).  — the unit-rule self-loop gives every
        // monomial of P('a') infinitely many derivation trees (Theorem 6.5).
        let program = crate::parser::parse_program("P(x) :- E(x).\nP(x) :- P(x).").unwrap();
        let edb = {
            let mut s: FactStore<NatInf> = FactStore::new();
            s.insert(Fact::new("E", ["a"]), NatInf::Fin(1));
            s
        };
        let vars: BTreeMap<Fact, Variable> = [(Fact::new("E", ["a"]), Variable::new("e"))]
            .into_iter()
            .collect();
        let c = monomial_coefficient(
            &program,
            &edb,
            &vars,
            &Fact::new("P", ["a"]),
            &Monomial::var("e"),
        );
        assert_eq!(c, NatInf::Inf);
    }

    #[test]
    fn underivable_fringe_has_coefficient_zero() {
        let (program, edb, vars) = figure7_setup();
        // Q(a,c) cannot be derived using r at all.
        let c = monomial_coefficient(
            &program,
            &edb,
            &vars,
            &Fact::new("Q", ["a", "c"]),
            &Monomial::var("r"),
        );
        assert_eq!(c, NatInf::Fin(0));
    }

    #[test]
    fn divisor_enumeration_counts() {
        let m = Monomial::from_powers([("x", 2u32), ("y", 1)]);
        // (2+1)·(1+1) = 6 divisors.
        assert_eq!(divisors_of(&m).len(), 6);
        assert_eq!(divisors_of(&Monomial::unit()).len(), 1);
    }
}
