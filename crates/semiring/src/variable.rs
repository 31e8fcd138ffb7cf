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

/// Splits a name of the form `prefix_i` — what [`Variable::indexed`]
/// writes — into `(prefix, i)`: `i` is the digits after the last `_`,
/// without a leading zero (so `R_03` is a name of its own, not `R_3`).
pub(crate) fn split_indexed(name: &str) -> Option<(&str, usize)> {
    let (prefix, digits) = name.rsplit_once('_')?;
    let canonical = match digits.as_bytes() {
        [b'0'] => true,
        [first, rest @ ..] => (b'1'..=b'9').contains(first) && rest.iter().all(u8::is_ascii_digit),
        [] => false,
    };
    Some((prefix, digits.parse().ok().filter(|_| canonical)?))
}

/// A valuation `v : X → K`, assigning a semiring value to each variable.
///
/// Proposition 4.2: for any commutative semiring K and valuation `v` there is
/// a unique homomorphism `Eval_v : ℕ\[X\] → K` extending `v`; Proposition 6.3
/// is the analogue for ℕ∞\[\[X\]\]. Valuations drive the factorization theorems
/// (4.3 and 6.4): evaluate the provenance annotation under `v` to recover the
/// K-annotation.
///
/// Two stores, one mapping. Tagging a relation `R` assigns its ids `R_0, R_1,
/// …` as one dense **column** ([`Valuation::assign_indexed`]): `R_i ↦
/// column[i]`, no name built or hashed. A circuit leaf of a tagged range
/// reads its value there by position; a name `R_i` is looked up by splitting
/// it into `R` and `i`. Every other assignment goes to a hash map by name,
/// whose hasher folds the high bits of the hash into the low ones: names
/// sharing a prefix put all 28 k entries of a plain `FxHashMap` in 32
/// buckets. A name is never in both stores — assigning a name a column
/// covers writes the column — so the stores never disagree.
/// [`Valuation::iter`] visits every assignment in name order, and `Debug`
/// prints them in it.
#[derive(Clone)]
pub struct Valuation<K> {
    assignments: FxFoldHashMap<Variable, K>,
    /// `(prefix, column)`: `prefix_i ↦ column[i]`; one column per prefix.
    columns: Vec<(Box<str>, Vec<K>)>,
}

impl<K> Default for Valuation<K> {
    fn default() -> Self {
        Valuation {
            assignments: FxFoldHashMap::default(),
            columns: Vec::new(),
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
        match self.column_slot(var.name()) {
            Some(slot) => *slot = value,
            None => {
                self.assignments.insert(var, value);
            }
        }
        self
    }

    /// Assigns `prefix_i ↦ values[i]` for every `i` in one column —
    /// [`Valuation::assign`] of each [`Variable::indexed`] name, overwriting
    /// earlier assignments of those names, without building one.
    pub fn assign_indexed(&mut self, prefix: &str, values: impl IntoIterator<Item = K>) {
        let values: Vec<K> = values.into_iter().collect();
        let covered = |var: &Variable| {
            split_indexed(var.name()).is_some_and(|(p, i)| p == prefix && i < values.len())
        };
        if !self.assignments.is_empty() {
            self.assignments.retain(|var, _| !covered(var));
        }
        match self.columns.iter_mut().find(|(p, _)| &**p == prefix) {
            Some((_, column)) if column.len() > values.len() => {
                column.splice(..values.len(), values);
            }
            Some((_, column)) => *column = values,
            None => self.columns.push((prefix.into(), values)),
        }
    }

    /// Looks up the value of `var`, if assigned.
    pub fn get(&self, var: &Variable) -> Option<&K> {
        self.assignments.get(var).or_else(|| {
            let (prefix, i) = split_indexed(var.name()).filter(|_| !self.columns.is_empty())?;
            self.column(prefix)?.get(i)
        })
    }

    /// The value of `prefix_i` — [`Valuation::get`] of
    /// `Variable::indexed(prefix, i)`, built only if no column holds it.
    pub(crate) fn get_indexed(&self, prefix: &str, i: usize) -> Option<&K> {
        match self.column(prefix).and_then(|column| column.get(i)) {
            Some(value) => Some(value),
            None if self.assignments.is_empty() => None,
            None => self.assignments.get(&Variable::indexed(prefix, i)),
        }
    }

    /// The column `prefix`'s indexed names are read from, if any.
    pub(crate) fn column(&self, prefix: &str) -> Option<&[K]> {
        let found = self.columns.iter().find(|(p, _)| &**p == prefix);
        found.map(|(_, column)| column.as_slice())
    }

    /// The column slot that holds `name`'s value, if a column covers it.
    fn column_slot(&mut self, name: &str) -> Option<&mut K> {
        let (prefix, i) = split_indexed(name).filter(|_| !self.columns.is_empty())?;
        let found = self.columns.iter_mut().find(|(p, _)| &**p == prefix);
        found?.1.get_mut(i)
    }

    /// The number of assigned variables.
    pub fn len(&self) -> usize {
        let columns: usize = self.columns.iter().map(|(_, column)| column.len()).sum();
        self.assignments.len() + columns
    }

    /// Whether no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the assignments in variable order; a column's names are
    /// built here.
    pub fn iter(&self) -> impl Iterator<Item = (Variable, &K)> {
        let named = self.assignments.iter().map(|(var, k)| (var.clone(), k));
        let indexed = self.columns.iter().flat_map(|(prefix, column)| {
            let names = Variable::indexed_each(prefix, column.len());
            names.zip(column)
        });
        let mut sorted: Vec<(Variable, &K)> = named.chain(indexed).collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        sorted.into_iter()
    }

    /// The set of assigned variables, in order.
    pub fn variables(&self) -> impl Iterator<Item = Variable> + '_ {
        self.iter().map(|(var, _)| var)
    }
}

/// Assigns every pair in turn (a later pair overwrites an earlier one for the
/// same variable), reserving room for the iterator's lower size bound first.
impl<K> Extend<(Variable, K)> for Valuation<K> {
    fn extend<I: IntoIterator<Item = (Variable, K)>>(&mut self, pairs: I) {
        if self.columns.is_empty() {
            self.assignments.extend(pairs);
        } else {
            for (var, value) in pairs {
                self.assign(var, value);
            }
        }
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
        let names: Vec<Variable> = v.variables().collect();
        let names: Vec<&str> = names.iter().map(Variable::name).collect();
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

    #[test]
    fn indexed_names_split_back_into_prefix_and_index() {
        assert_eq!(split_indexed("R_3"), Some(("R", 3)));
        assert_eq!(split_indexed("R_0"), Some(("R", 0)));
        assert_eq!(split_indexed("my_rel_12"), Some(("my_rel", 12)));
        assert_eq!(split_indexed("R__7"), Some(("R_", 7)));
        for name in [
            "R",
            "R_",
            "R_03",
            "R_x",
            "R_3a",
            "R_-1",
            "R_99999999999999999999999",
        ] {
            assert_eq!(split_indexed(name), None, "{name}");
        }
        for (prefix, i) in [("R", 0), ("t", 41), ("a_b", 7), ("x_", 10)] {
            let name = Variable::indexed(prefix, i);
            assert_eq!(split_indexed(name.name()), Some((prefix, i)));
        }
    }

    #[test]
    fn a_column_is_the_same_mapping_as_its_names() {
        let values = || (0..12u64).map(Natural::from);
        let mut by_column: Valuation<Natural> = Valuation::new();
        by_column.assign_indexed("R", values());
        by_column.assign(Variable::new("p"), Natural::from(7u64));
        let mut by_name: Valuation<Natural> = Valuation::new();
        by_name.extend(Variable::indexed_each("R", 12).zip(values()));
        by_name.assign(Variable::new("p"), Natural::from(7u64));
        assert_eq!(by_column.len(), 13);
        assert_eq!(format!("{by_column:?}"), format!("{by_name:?}"));
        for name in ["R_0", "R_11", "R_12", "R_03", "p", "q"] {
            let var = Variable::new(name);
            assert_eq!(by_column.get(&var), by_name.get(&var), "{name}");
        }
        assert_eq!(by_column.get_indexed("R", 4), Some(&Natural::from(4u64)));
        assert_eq!(by_name.get_indexed("R", 4), Some(&Natural::from(4u64)));
        assert_eq!(by_column.get_indexed("R", 12), None);
        // Assigning a covered name writes the column; a later column
        // overwrites the names it covers, and keeps the entries past its end.
        by_column.assign(Variable::new("R_3"), Natural::from(99u64));
        assert_eq!(by_column.get_indexed("R", 3), Some(&Natural::from(99u64)));
        by_column.assign(Variable::new("R_20"), Natural::from(20u64));
        by_column.assign_indexed("R", [Natural::from(50u64)]);
        assert_eq!(
            by_column.get(&Variable::new("R_0")),
            Some(&Natural::from(50u64))
        );
        assert_eq!(
            by_column.get(&Variable::new("R_3")),
            Some(&Natural::from(99u64))
        );
        assert_eq!(by_column.get_indexed("R", 20), Some(&Natural::from(20u64)));
        assert_eq!(by_column.len(), 14);
        by_column.assign_indexed("R", (0..25u64).map(Natural::from));
        assert_eq!(
            by_column.get(&Variable::new("R_20")),
            Some(&Natural::from(20u64))
        );
        assert_eq!(
            by_column.get(&Variable::new("R_3")),
            Some(&Natural::from(3u64))
        );
        assert_eq!(by_column.len(), 26);
    }
}
