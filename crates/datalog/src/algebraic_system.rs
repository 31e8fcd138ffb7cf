//! Algebraic systems of fixpoint equations (Definition 5.5 of the paper) and
//! their solutions.
//!
//! Given a datalog program `q` and an edb K-relation `R`, the paper builds a
//! finite system `Q̄ = T_q(R, Q̄)`: one variable per derivable idb tuple, one
//! polynomial equation per variable (Figure 7(f) shows the system for the
//! transitive-closure example: `x = m + yz`, `u = r + uv`, `v = s + v²`,
//! `w = xu + wv`, …). Theorem 5.6: the least solution of the system equals
//! the derivation-tree semantics.
//!
//! Two solvers are provided:
//!
//! * [`AlgebraicSystem::solve_numeric`] — Kleene iteration over any
//!   ω-continuous semiring valuation of the edb variables (exactly
//!   Definition 5.5's `lfp(f_P) = sup f_P^m(0)`), with a convergence bound;
//! * [`AlgebraicSystem::solve_series`] — least solution as truncated formal
//!   power series in the edb variables (the datalog provenance of
//!   Definition 6.1), which is how the paper obtains
//!   `v = s + s² + 2s³ + 5s⁴ + 14s⁵ + ⋯` and `w`'s coefficients.

use crate::ast::Program;
use crate::fact::{Fact, FactStore};
use crate::grounding::Grounding;
use provsem_semiring::{
    Monomial, NatInf, Natural, OmegaContinuous, ProvenancePolynomial, Semiring, TruncatedSeries,
    Valuation, Variable,
};
use std::collections::BTreeMap;

/// One equation `variable = polynomial` of an algebraic system. The
/// polynomial's variables mix *system variables* (idb tuple ids) and *edb
/// variables* (provenance ids of edb facts); coefficients are natural
/// numbers (counting ground rules that yield the same monomial).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Equation {
    /// The idb fact this variable stands for.
    pub fact: Fact,
    /// The variable naming that fact.
    pub variable: Variable,
    /// The right-hand side polynomial.
    pub rhs: ProvenancePolynomial,
}

/// An algebraic system over the idb facts of a program instantiation.
#[derive(Clone, Debug, Default)]
pub struct AlgebraicSystem {
    /// The equations, one per derivable idb fact (in fact order).
    pub equations: Vec<Equation>,
    /// The provenance variable of every edb fact.
    pub edb_variables: BTreeMap<Fact, Variable>,
}

impl AlgebraicSystem {
    /// Builds the system `Q̄ = T_q(R, Q̄)` for a program and edb instance,
    /// with explicit variable names for idb facts and edb facts.
    pub fn build<K: Semiring>(
        program: &Program,
        edb: &FactStore<K>,
        idb_names: &dyn Fn(&Fact) -> Variable,
        edb_names: &dyn Fn(&Fact) -> Variable,
    ) -> Self {
        let g = Grounding::new(program, edb);

        let mut edb_variables = BTreeMap::new();
        for (fact, _) in edb.facts() {
            edb_variables.insert(fact.clone(), edb_names(&fact));
        }
        // Per fact id: the system variable of an idb fact.
        let idb_vars: Vec<Option<Variable>> = (0..g.facts().len())
            .map(|f| g.is_idb(f).then(|| idb_names(&g.facts()[f])))
            .collect();

        let mut equations = Vec::new();
        for f in g.idb_ids() {
            let mut rhs = ProvenancePolynomial::zero();
            for &r in g.rules_of(f) {
                let mut monomial = Monomial::unit();
                for &b in g.body_ids(r) {
                    let var = match &idb_vars[b] {
                        Some(var) => var.clone(),
                        None => edb_variables
                            .get(&g.facts()[b])
                            .expect("edb body fact must be in the instance")
                            .clone(),
                    };
                    monomial.multiply_var(var, 1);
                }
                rhs = rhs.plus(&ProvenancePolynomial::from_term(
                    monomial,
                    Natural::from(1u64),
                ));
            }
            equations.push(Equation {
                fact: g.facts()[f].clone(),
                variable: idb_vars[f].clone().expect("idb fact"),
                rhs,
            });
        }
        AlgebraicSystem {
            equations,
            edb_variables,
        }
    }

    /// Builds the system with default variable names: idb fact ids are
    /// `pred(v1,v2)`-style strings, edb variables are `pred_i`.
    pub fn build_default<K: Semiring>(program: &Program, edb: &FactStore<K>) -> Self {
        let edb_vars = crate::all_trees::default_edb_variables(edb);
        AlgebraicSystem::build(
            program,
            edb,
            &|f: &Fact| Variable::new(format!("{f}")),
            &|f: &Fact| {
                edb_vars
                    .get(f)
                    .cloned()
                    .unwrap_or_else(|| Variable::new(format!("{f}")))
            },
        )
    }

    /// The equation for a given fact, if any.
    pub fn equation_for(&self, fact: &Fact) -> Option<&Equation> {
        self.equations.iter().find(|e| &e.fact == fact)
    }

    /// The number of variables (equations).
    pub fn len(&self) -> usize {
        self.equations.len()
    }

    /// Is the system empty?
    pub fn is_empty(&self) -> bool {
        self.equations.is_empty()
    }

    /// Solves the system over an ω-continuous semiring by Kleene iteration
    /// from 0 (Definition 5.5), given a valuation of the **edb** variables.
    /// Returns the per-fact solution if the iteration converges within
    /// `max_iterations`, `None` otherwise (e.g. ℕ∞ instances with infinite
    /// multiplicities — use [`crate::exact::evaluate_natinf`] for those).
    pub fn solve_numeric<K: OmegaContinuous>(
        &self,
        edb_valuation: &Valuation<K>,
        max_iterations: usize,
    ) -> Option<BTreeMap<Fact, K>> {
        let mut current: BTreeMap<Variable, K> = self
            .equations
            .iter()
            .map(|e| (e.variable.clone(), K::zero()))
            .collect();
        for _ in 0..max_iterations {
            let mut valuation: Valuation<K> = edb_valuation.clone();
            for (var, value) in &current {
                valuation.assign(var.clone(), value.clone());
            }
            let mut next = BTreeMap::new();
            for eq in &self.equations {
                next.insert(eq.variable.clone(), eq.rhs.eval(&valuation));
            }
            if next == current {
                return Some(
                    self.equations
                        .iter()
                        .map(|e| (e.fact.clone(), current[&e.variable].clone()))
                        .collect(),
                );
            }
            current = next;
        }
        None
    }

    /// Solves the system as truncated formal power series in the edb
    /// variables (the datalog provenance semantics of Section 6), truncating
    /// all series at total degree `max_degree`.
    ///
    /// Coefficients of monomials up to the truncation degree are exact for
    /// instances where they are finite; monomials whose coefficient is ∞ in
    /// ℕ∞\[\[X\]\] keep growing with the iteration count, so this solver is
    /// paired with Theorem 6.5's classification
    /// ([`crate::provenance::classify_series`]) when ∞ matters. The
    /// iteration count is `max_degree + extra_iterations`, enough for all
    /// coefficients of degree ≤ `max_degree` generated by proper
    /// (non-unit-cycle) systems.
    pub fn solve_series(
        &self,
        max_degree: u32,
        extra_iterations: usize,
    ) -> BTreeMap<Fact, TruncatedSeries> {
        let mut current: BTreeMap<Variable, TruncatedSeries> = self
            .equations
            .iter()
            .map(|e| (e.variable.clone(), TruncatedSeries::zero(max_degree)))
            .collect();
        let rounds = max_degree as usize + extra_iterations + 1;
        for _ in 0..rounds {
            let mut next = BTreeMap::new();
            for eq in &self.equations {
                next.insert(
                    eq.variable.clone(),
                    evaluate_polynomial_as_series(&eq.rhs, &current, max_degree),
                );
            }
            if next == current {
                break;
            }
            current = next;
        }
        self.equations
            .iter()
            .map(|e| (e.fact.clone(), current[&e.variable].clone()))
            .collect()
    }

    /// Renders the system in the paper's `x = P(x, …)` notation.
    pub fn display(&self) -> String {
        let mut out = String::new();
        for eq in &self.equations {
            out.push_str(&format!("{} = {}\n", eq.variable, eq.rhs));
        }
        out
    }
}

/// Evaluates a polynomial whose variables are a mix of system variables
/// (substituted by their current series) and edb variables (kept symbolic as
/// degree-1 series), producing a truncated series.
fn evaluate_polynomial_as_series(
    poly: &ProvenancePolynomial,
    assignment: &BTreeMap<Variable, TruncatedSeries>,
    max_degree: u32,
) -> TruncatedSeries {
    let mut acc = TruncatedSeries::zero(max_degree);
    for (monomial, coeff) in poly.terms() {
        let mut term = TruncatedSeries::zero(max_degree);
        term.add_term(Monomial::unit(), NatInf::Fin(coeff.value()));
        for (var, exp) in monomial.powers() {
            let factor = match assignment.get(var) {
                Some(series) => series.clone(),
                None => TruncatedSeries::var(var.clone(), max_degree),
            };
            for _ in 0..exp {
                term = term.times(&factor);
            }
        }
        acc = acc.plus(&term);
    }
    acc
}

/// Convenience: a [`ProvenancePolynomial`] restricted to the edb variables obtained by
/// substituting the solved series of the *other* idb variables — not needed
/// for the paper's experiments but handy for inspecting small systems.
pub fn substitute_solution(
    equation: &Equation,
    solution: &BTreeMap<Fact, TruncatedSeries>,
    system: &AlgebraicSystem,
    max_degree: u32,
) -> TruncatedSeries {
    let assignment: BTreeMap<Variable, TruncatedSeries> = system
        .equations
        .iter()
        .filter_map(|e| {
            solution
                .get(&e.fact)
                .map(|s| (e.variable.clone(), s.clone()))
        })
        .collect();
    evaluate_polynomial_as_series(&equation.rhs, &assignment, max_degree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::edge_facts;
    use provsem_semiring::{PosBool, Semiring};

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

    /// The paper's variable names for Figure 7: idb tuples x,y,z,u,v,w and
    /// edb tuples m,n,p,r,s. The tuple Q(c,d) is derivable but omitted from
    /// the paper's figure; we name it t.
    fn figure7_system() -> AlgebraicSystem {
        let idb_names = |f: &Fact| {
            let key = (
                f.values[0].as_str().unwrap().to_string(),
                f.values[1].as_str().unwrap().to_string(),
            );
            let name = match (key.0.as_str(), key.1.as_str()) {
                ("a", "b") => "x",
                ("a", "c") => "y",
                ("c", "b") => "z",
                ("b", "d") => "u",
                ("d", "d") => "v",
                ("a", "d") => "w",
                ("c", "d") => "t",
                other => panic!("unexpected idb fact {other:?}"),
            };
            Variable::new(name)
        };
        let edb_names = |f: &Fact| {
            let name = match (f.values[0].as_str().unwrap(), f.values[1].as_str().unwrap()) {
                ("a", "b") => "m",
                ("a", "c") => "n",
                ("c", "b") => "p",
                ("b", "d") => "r",
                ("d", "d") => "s",
                other => panic!("unexpected edb fact {other:?}"),
            };
            Variable::new(name)
        };
        AlgebraicSystem::build(
            &Program::transitive_closure("R", "Q"),
            &figure7_edb(),
            &idb_names,
            &edb_names,
        )
    }

    fn var_poly(name: &str) -> ProvenancePolynomial {
        ProvenancePolynomial::var(name)
    }

    #[test]
    fn figure7f_equations_match_the_paper() {
        // Figure 7(f) lists x = m + yz, y = n, z = p, u = r + uv, v = s + v²,
        // w = xu + wv. The instantiation additionally contains the derivable
        // tuple Q(c,d) (named t here), which the paper's figure omits; its
        // presence adds the equation t = zu + tv and the extra summand yt to
        // w's equation. Everything the paper does list is reproduced exactly.
        let system = figure7_system();
        assert_eq!(system.len(), 7);
        let eq = |a: &str, b: &str| {
            system
                .equation_for(&Fact::new("Q", [a, b]))
                .unwrap()
                .rhs
                .clone()
        };
        assert_eq!(
            eq("a", "b"),
            var_poly("m").plus(&var_poly("y").times(&var_poly("z")))
        );
        assert_eq!(eq("a", "c"), var_poly("n"));
        assert_eq!(eq("c", "b"), var_poly("p"));
        assert_eq!(
            eq("b", "d"),
            var_poly("r").plus(&var_poly("u").times(&var_poly("v")))
        );
        assert_eq!(
            eq("d", "d"),
            var_poly("s").plus(&var_poly("v").times(&var_poly("v")))
        );
        assert_eq!(
            eq("a", "d"),
            var_poly("x")
                .times(&var_poly("u"))
                .plus(&var_poly("w").times(&var_poly("v")))
                .plus(&var_poly("y").times(&var_poly("t")))
        );
        assert_eq!(
            eq("c", "d"),
            var_poly("z")
                .times(&var_poly("u"))
                .plus(&var_poly("t").times(&var_poly("v")))
        );
    }

    #[test]
    fn numeric_solution_over_posbool_converges() {
        // Evaluating the Figure 7 system over PosBool: every tuple gets a
        // finite positive boolean expression; e.g. the annotation of Q(a,b)
        // is m ∨ (n ∧ p).
        let system = figure7_system();
        let valuation = Valuation::from_pairs([
            ("m", PosBool::var("m")),
            ("n", PosBool::var("n")),
            ("p", PosBool::var("p")),
            ("r", PosBool::var("r")),
            ("s", PosBool::var("s")),
        ]);
        let solution = system.solve_numeric(&valuation, 64).unwrap();
        assert_eq!(
            solution[&Fact::new("Q", ["a", "b"])],
            PosBool::var("m").plus(&PosBool::var("n").times(&PosBool::var("p")))
        );
        assert_eq!(solution[&Fact::new("Q", ["d", "d"])], PosBool::var("s"));
        // w = xu + wv evaluates to (m ∨ np) ∧ r ∨ … = (m∨np) ∧ r under
        // absorption with s.
        assert_eq!(
            solution[&Fact::new("Q", ["a", "d"])],
            PosBool::var("m")
                .plus(&PosBool::var("n").times(&PosBool::var("p")))
                .times(&PosBool::var("r"))
        );
    }

    #[test]
    fn numeric_solution_over_natinf_saturates_to_the_exact_answer() {
        // Over ℕ∞ the entries u, v, w of the Kleene iteration grow without
        // bound (exactly as the paper describes); because our ℕ∞ saturates
        // overflowing values at ∞ (the least upper bound of the diverging
        // chain), the iteration does reach the true least fixed point:
        // x = 8, y = 3, z = 2 and ∞ for the tuples that pass through the
        // d→d cycle. Cross-check against the analytic exact evaluation.
        let system = figure7_system();
        let valuation = Valuation::from_pairs([
            ("m", NatInf::Fin(2)),
            ("n", NatInf::Fin(3)),
            ("p", NatInf::Fin(2)),
            ("r", NatInf::Fin(1)),
            ("s", NatInf::Fin(1)),
        ]);
        let solution = system
            .solve_numeric(&valuation, 500)
            .expect("saturating ℕ∞ iteration reaches the fixed point");
        let exact =
            crate::exact::evaluate_natinf(&Program::transitive_closure("R", "Q"), &figure7_edb());
        for (fact, value) in &solution {
            assert_eq!(exact.annotation(fact), *value, "{fact}");
        }
        // A tighter bound (fewer iterations than needed to saturate) reports
        // non-convergence instead of returning a wrong finite answer.
        assert_eq!(system.solve_numeric(&valuation, 3), None);
    }

    #[test]
    fn series_solution_reproduces_the_papers_provenance() {
        let system = figure7_system();
        let solution = system.solve_series(6, 8);
        // v = s + s² + 2s³ + 5s⁴ + 14s⁵ + ⋯ (footnote 6).
        let v = &solution[&Fact::new("Q", ["d", "d"])];
        for (deg, coeff) in [(1u32, 1u64), (2, 1), (3, 2), (4, 5), (5, 14), (6, 42)] {
            assert_eq!(
                v.coefficient(&Monomial::from_powers([("s", deg)])),
                Some(NatInf::Fin(coeff)),
                "coefficient of s^{deg} in v"
            );
        }
        // x = m + np exactly (a polynomial).
        let x = &solution[&Fact::new("Q", ["a", "b"])];
        assert_eq!(x.coefficient(&Monomial::var("m")), Some(NatInf::Fin(1)));
        assert_eq!(
            x.coefficient(&Monomial::from_bag(["n", "p"])),
            Some(NatInf::Fin(1))
        );
        assert_eq!(
            x.coefficient(&Monomial::from_powers([("m", 2u32)])),
            Some(NatInf::Fin(0))
        );
        // u = rv*: coefficient of r is 1, of rs is 1, of rs² is 2 (Catalan
        // shifted), of r² is 0.
        let u = &solution[&Fact::new("Q", ["b", "d"])];
        assert_eq!(u.coefficient(&Monomial::var("r")), Some(NatInf::Fin(1)));
        assert_eq!(
            u.coefficient(&Monomial::from_bag(["r", "s"])),
            Some(NatInf::Fin(1))
        );
        assert_eq!(
            u.coefficient(&Monomial::from_powers([("r", 2u32)])),
            Some(NatInf::Fin(0))
        );
        // The coefficients of rnp·sᵏ in w are Catalan numbers (one derivation
        // per parenthesization of the path); the paper's worked value 5 is
        // the k = 1 coefficient. See EXPERIMENTS.md.
        let w = &solution[&Fact::new("Q", ["a", "d"])];
        let w_coeff = |k: u32| {
            w.coefficient(&Monomial::from_powers([
                ("r", 1u32),
                ("n", 1),
                ("p", 1),
                ("s", k),
            ]))
        };
        assert_eq!(w_coeff(0), Some(NatInf::Fin(2)));
        assert_eq!(w_coeff(1), Some(NatInf::Fin(5)));
        assert_eq!(w_coeff(2), Some(NatInf::Fin(14)));
        assert_eq!(w_coeff(3), Some(NatInf::Fin(42)));
    }

    #[test]
    fn series_solution_agrees_with_monomial_coefficient_algorithm() {
        let system = figure7_system();
        let solution = system.solve_series(5, 8);
        let program = Program::transitive_closure("R", "Q");
        let edb = figure7_edb();
        let vars: BTreeMap<Fact, Variable> = [
            (Fact::new("R", ["a", "b"]), Variable::new("m")),
            (Fact::new("R", ["a", "c"]), Variable::new("n")),
            (Fact::new("R", ["c", "b"]), Variable::new("p")),
            (Fact::new("R", ["b", "d"]), Variable::new("r")),
            (Fact::new("R", ["d", "d"]), Variable::new("s")),
        ]
        .into_iter()
        .collect();
        // Check a handful of (fact, monomial) pairs against Figure 9's
        // algorithm.
        let checks = [
            (
                Fact::new("Q", ["d", "d"]),
                Monomial::from_powers([("s", 4u32)]),
            ),
            (
                Fact::new("Q", ["b", "d"]),
                Monomial::from_bag(["r", "s", "s"]),
            ),
            (Fact::new("Q", ["a", "b"]), Monomial::from_bag(["n", "p"])),
        ];
        for (fact, monomial) in checks {
            let from_series = solution[&fact].coefficient(&monomial).unwrap();
            let from_algorithm = crate::monomial_coefficient::monomial_coefficient(
                &program, &edb, &vars, &fact, &monomial,
            );
            assert_eq!(from_series, from_algorithm, "{fact} / {monomial}");
        }
    }

    #[test]
    fn default_build_names_are_usable() {
        let system =
            AlgebraicSystem::build_default(&Program::transitive_closure("R", "Q"), &figure7_edb());
        assert_eq!(system.len(), 7);
        assert_eq!(system.edb_variables.len(), 5);
        assert!(system.display().contains(" = "));
    }
}
