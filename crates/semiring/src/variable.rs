//! Provenance variables (tuple identifiers).
//!
//! The paper annotates base tuples with "their own ids" (`p`, `r`, `s` in
//! Figure 5, `m, n, p, r, s` in Figure 7); these ids are the indeterminates
//! of the provenance polynomials ℕ\[X\] and the boolean variables of
//! PosBool(B). [`Variable`] is a cheaply clonable, ordered, hashable symbol
//! used for both purposes.

use crate::fxhash::FxFoldHashMap;
use std::fmt;
use std::sync::Arc;

/// A provenance variable / tuple identifier.
///
/// Internally an `Arc<str>`, so cloning a variable (which happens a lot when
/// multiplying polynomials) is a reference-count bump rather than a string
/// copy. Ordering and equality are by name.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Variable(Arc<str>);

impl Variable {
    /// Creates a variable with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Variable(Arc::from(name.as_ref()))
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// A fresh variable of the form `prefix_i`, convenient for abstract
    /// tagging of whole relations (`R̄` in the paper).
    pub fn indexed(prefix: &str, i: usize) -> Self {
        Variable::new(format!("{prefix}_{i}"))
    }

    /// `prefix_0, prefix_1, …, prefix_{n−1}` — [`Variable::indexed`] for
    /// every `i < n`, each name written into one reused buffer without the
    /// formatting machinery, so a variable costs one allocation (its own).
    pub fn indexed_each(prefix: &str, n: usize) -> impl Iterator<Item = Variable> + '_ {
        let mut name = format!("{prefix}_");
        let stem = name.len();
        (0..n).map(move |mut i| {
            let mut digits = [0u8; 20];
            let mut first = digits.len();
            loop {
                first -= 1;
                digits[first] = b'0' + (i % 10) as u8;
                i /= 10;
                if i == 0 {
                    break;
                }
            }
            name.truncate(stem);
            name.extend(digits[first..].iter().map(|&digit| char::from(digit)));
            Variable::new(&name)
        })
    }
}

impl fmt::Debug for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Variable {
    fn from(s: &str) -> Self {
        Variable::new(s)
    }
}

impl From<String> for Variable {
    fn from(s: String) -> Self {
        Variable::new(s)
    }
}

/// A valuation `v : X → K`, assigning a semiring value to each variable.
///
/// Proposition 4.2: for any commutative semiring K and valuation `v` there is
/// a unique homomorphism `Eval_v : ℕ\[X\] → K` extending `v`; Proposition 6.3
/// is the analogue for ℕ∞\[\[X\]\]. Valuations drive the factorization theorems
/// (4.3 and 6.4): evaluate the provenance annotation under `v` to recover the
/// K-annotation.
///
/// The assignments are a hash map: specialising a result looks up every
/// variable it reaches once, and tagging assigns one fresh variable per base
/// tuple, in the relation's tuple order — which is not the names' order
/// (`R_10` sorts before `R_2`). Measured on the Section 2 query over 28 k
/// tuples (2-core Xeon), an ordered map spent ≈ 5 ms on the specialisation's
/// lookups and ≈ 6 ms on the tagging's inserts. The map's hasher folds the
/// high bits of the hash into the low ones: tagged names share their prefix,
/// and the plain `FxHashMap` put all 28 k of them in 32 buckets, which was
/// as slow as the ordered map. [`Valuation::iter`] still visits variables in
/// name order, and `Debug` prints them in it.
#[derive(Clone)]
pub struct Valuation<K> {
    assignments: FxFoldHashMap<Variable, K>,
}

impl<K> Default for Valuation<K> {
    fn default() -> Self {
        Valuation {
            assignments: FxFoldHashMap::default(),
        }
    }
}

impl<K> Valuation<K> {
    /// The empty valuation.
    pub fn new() -> Self {
        Valuation::default()
    }

    /// Builds a valuation from `(variable, value)` pairs.
    pub fn from_pairs<I, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (V, K)>,
        V: Into<Variable>,
    {
        let mut v = Valuation::new();
        v.extend(pairs.into_iter().map(|(var, val)| (var.into(), val)));
        v
    }

    /// Assigns `value` to `var` (overwriting any previous assignment).
    pub fn assign(&mut self, var: Variable, value: K) -> &mut Self {
        self.assignments.insert(var, value);
        self
    }

    /// Looks up the value of `var`, if assigned.
    pub fn get(&self, var: &Variable) -> Option<&K> {
        self.assignments.get(var)
    }

    /// The number of assigned variables.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Iterates over the assignments in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Variable, &K)> {
        let mut sorted: Vec<(&Variable, &K)> = self.assignments.iter().collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
        sorted.into_iter()
    }

    /// The set of assigned variables, in order.
    pub fn variables(&self) -> impl Iterator<Item = &Variable> {
        self.iter().map(|(var, _)| var)
    }
}

/// Assigns every pair in turn (a later pair overwrites an earlier one for the
/// same variable), reserving room for the iterator's lower size bound first.
impl<K> Extend<(Variable, K)> for Valuation<K> {
    fn extend<I: IntoIterator<Item = (Variable, K)>>(&mut self, pairs: I) {
        self.assignments.extend(pairs);
    }
}

impl<K: fmt::Debug> fmt::Debug for Valuation<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::natural::Natural;

    #[test]
    fn variables_compare_by_name() {
        let p = Variable::new("p");
        let r = Variable::new("r");
        assert_ne!(p, r);
        assert_eq!(p, Variable::new("p"));
        assert!(p < r);
    }

    #[test]
    fn indexed_variables_have_stable_names() {
        assert_eq!(Variable::indexed("R", 3).name(), "R_3");
        let each: Vec<Variable> = Variable::indexed_each("R", 1_001).collect();
        let one_by_one: Vec<Variable> = (0..1_001).map(|i| Variable::indexed("R", i)).collect();
        assert_eq!(each, one_by_one);
        assert_eq!(Variable::indexed_each("S", 0).count(), 0);
    }

    #[test]
    fn valuation_assignment_and_lookup() {
        let mut v: Valuation<Natural> = Valuation::new();
        assert!(v.is_empty());
        v.assign(Variable::new("p"), Natural::from(2u64));
        v.assign(Variable::new("r"), Natural::from(5u64));
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(&Variable::new("p")), Some(&Natural::from(2u64)));
        assert_eq!(v.get(&Variable::new("s")), None);
    }

    #[test]
    fn valuation_iterates_in_name_order_whatever_the_insertion_order() {
        let mut v: Valuation<Natural> = Valuation::new();
        v.extend(Variable::indexed_each("R", 12).zip((0..12u64).map(Natural::from)));
        let names: Vec<&str> = v.variables().map(Variable::name).collect();
        assert_eq!(names[..4], ["R_0", "R_1", "R_10", "R_11"]);
        assert!(names.windows(2).all(|w| w[0] < w[1]));
        // A later pair overwrites an earlier one.
        v.extend([(Variable::new("R_3"), Natural::from(99u64))]);
        assert_eq!(v.len(), 12);
        assert_eq!(v.get(&Variable::new("R_3")), Some(&Natural::from(99u64)));
        let printed = format!(
            "{:?}",
            Valuation::from_pairs([("r", Natural::from(5u64)), ("p", Natural::from(2u64))])
        );
        assert_eq!(printed, r#"{p: 2, r: 5}"#);
    }

    #[test]
    fn valuation_from_pairs_collects_all_pairs() {
        let v = Valuation::from_pairs([("p", Natural::from(2u64)), ("r", Natural::from(5u64))]);
        assert_eq!(v.variables().count(), 2);
        assert_eq!(v.get(&Variable::new("r")), Some(&Natural::from(5u64)));
    }
}
