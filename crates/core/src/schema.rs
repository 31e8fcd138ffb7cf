//! Attributes and relation schemas (the *named perspective* of the
//! relational model, as used in Section 3 of the paper).

use std::fmt;
use std::sync::Arc;

/// An attribute name (`U` in the paper is a finite set of these).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Attribute(Arc<str>);

impl Attribute {
    /// Creates an attribute with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Attribute(Arc::from(name.as_ref()))
    }

    /// The attribute's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Attribute {
    fn from(s: &str) -> Self {
        Attribute::new(s)
    }
}

impl From<String> for Attribute {
    fn from(s: String) -> Self {
        Attribute::new(s)
    }
}

/// A relation schema: a finite set of attributes `U`, kept sorted so that
/// schema equality and iteration order are deterministic.
///
/// The attribute list sits behind an [`Arc`], so a schema is a *handle*:
/// cloning is a reference-count bump, and two clones of one schema compare
/// equal by pointer without looking at a single attribute name. Every
/// [`Tuple`](crate::tuple::Tuple) carries such a handle instead of its own
/// copy of the names.
#[derive(Clone, Eq)]
pub struct Schema {
    attributes: Arc<[Attribute]>,
}

impl std::hash::Hash for Schema {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.attributes.hash(state);
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.same_handle(other) || self.attributes == other.attributes
    }
}

impl Ord for Schema {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.same_handle(other) {
            std::cmp::Ordering::Equal
        } else {
            self.attributes.cmp(&other.attributes)
        }
    }
}

impl PartialOrd for Schema {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Default for Schema {
    fn default() -> Self {
        Schema::from_sorted_distinct(Vec::new())
    }
}

impl Schema {
    /// The empty schema (schema of 0-ary relations).
    pub fn empty() -> Self {
        Schema::default()
    }

    /// Builds a schema from attribute names; duplicates are collapsed and the
    /// result is sorted.
    pub fn new<I, A>(attrs: I) -> Self
    where
        I: IntoIterator<Item = A>,
        A: Into<Attribute>,
    {
        let mut attributes: Vec<Attribute> = attrs.into_iter().map(Into::into).collect();
        attributes.sort();
        attributes.dedup();
        Schema::from_sorted_distinct(attributes)
    }

    /// Wraps attributes the caller has already sorted and deduplicated.
    pub(crate) fn from_sorted_distinct(attributes: Vec<Attribute>) -> Self {
        debug_assert!(attributes.windows(2).all(|w| w[0] < w[1]));
        Schema {
            attributes: attributes.into(),
        }
    }

    /// Do the two schemas share one attribute list? `true` implies equality;
    /// `false` says nothing (equal schemas built separately are distinct
    /// handles).
    pub(crate) fn same_handle(&self, other: &Schema) -> bool {
        Arc::ptr_eq(&self.attributes, &other.attributes)
    }

    /// The attributes, in sorted order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of attributes (the arity).
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Does the schema contain the given attribute?
    pub fn contains(&self, attr: &Attribute) -> bool {
        self.attributes.binary_search(attr).is_ok()
    }

    /// The column position of an attribute in the sorted attribute order —
    /// how the physical plan layer resolves names to indices at plan time.
    pub fn position(&self, attr: &Attribute) -> Option<usize> {
        self.attributes.binary_search(attr).ok()
    }

    /// Is `other` a subset of this schema (`V ⊆ U`, the precondition of
    /// projection)?
    pub fn contains_all(&self, other: &Schema) -> bool {
        other.attributes.iter().all(|a| self.contains(a))
    }

    /// The union of two schemas — the schema `U₁ ∪ U₂` of a natural join.
    pub fn union(&self, other: &Schema) -> Schema {
        Schema::new(
            self.attributes
                .iter()
                .chain(other.attributes.iter())
                .cloned(),
        )
    }

    /// The intersection of two schemas — the attributes on which a natural
    /// join requires agreement.
    pub fn intersection(&self, other: &Schema) -> Schema {
        Schema::new(
            self.attributes
                .iter()
                .filter(|a| other.contains(a))
                .cloned(),
        )
    }

    /// Are the two schemas disjoint?
    pub fn is_disjoint(&self, other: &Schema) -> bool {
        self.intersection(other).arity() == 0
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

/// A renaming `β : U → U'`, required by the paper to be a bijection.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Renaming {
    mapping: std::collections::BTreeMap<Attribute, Attribute>,
}

impl Renaming {
    /// The identity renaming.
    pub fn identity() -> Self {
        Renaming::default()
    }

    /// Builds a renaming from `(from, to)` pairs. Attributes not mentioned
    /// are left unchanged.
    pub fn new<I, A, B>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (A, B)>,
        A: Into<Attribute>,
        B: Into<Attribute>,
    {
        Renaming {
            mapping: pairs
                .into_iter()
                .map(|(a, b)| (a.into(), b.into()))
                .collect(),
        }
    }

    /// The explicit `(from, to)` pairs, in attribute order. Attributes not
    /// listed map to themselves.
    pub fn pairs(&self) -> impl Iterator<Item = (&Attribute, &Attribute)> {
        self.mapping.iter()
    }

    /// Renames one attribute.
    pub fn apply(&self, attr: &Attribute) -> Attribute {
        self.mapping
            .get(attr)
            .cloned()
            .unwrap_or_else(|| attr.clone())
    }

    /// Renames every attribute of a schema. Returns `None` if the renaming is
    /// not injective on this schema (the paper requires a bijection).
    pub fn apply_schema(&self, schema: &Schema) -> Option<Schema> {
        let renamed = Schema::new(schema.attributes().iter().map(|a| self.apply(a)));
        if renamed.arity() == schema.arity() {
            Some(renamed)
        } else {
            None
        }
    }

    /// The inverse renaming (swaps `from` and `to`); meaningful when the
    /// renaming is injective.
    pub fn inverse(&self) -> Renaming {
        Renaming {
            mapping: self
                .mapping
                .iter()
                .map(|(a, b)| (b.clone(), a.clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_construction_sorts_and_dedups() {
        let s = Schema::new(["c", "a", "b", "a"]);
        assert_eq!(s.arity(), 3);
        assert_eq!(
            s.attributes()
                .iter()
                .map(Attribute::name)
                .collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn containment_union_intersection() {
        let ab = Schema::new(["a", "b"]);
        let bc = Schema::new(["b", "c"]);
        let ac = Schema::new(["a", "c"]);
        assert!(ab.contains(&Attribute::new("a")));
        assert!(!ab.contains(&Attribute::new("c")));
        assert_eq!(ab.union(&bc), Schema::new(["a", "b", "c"]));
        assert_eq!(ab.intersection(&bc), Schema::new(["b"]));
        assert!(ab.intersection(&ac).contains(&Attribute::new("a")));
        assert!(!ab.is_disjoint(&bc));
        assert!(Schema::new(["a"]).is_disjoint(&Schema::new(["b"])));
        assert!(Schema::new(["a", "b", "c"]).contains_all(&ab));
        assert!(!ab.contains_all(&bc));
    }

    #[test]
    fn renaming_applies_and_inverts() {
        let rho = Renaming::new([("b", "b2")]);
        let abc = Schema::new(["a", "b", "c"]);
        let renamed = rho.apply_schema(&abc).unwrap();
        assert_eq!(renamed, Schema::new(["a", "b2", "c"]));
        let back = rho.inverse().apply_schema(&renamed).unwrap();
        assert_eq!(back, abc);
    }

    #[test]
    fn non_injective_renaming_is_rejected() {
        let rho = Renaming::new([("a", "x"), ("b", "x")]);
        assert_eq!(rho.apply_schema(&Schema::new(["a", "b"])), None);
    }

    #[test]
    fn empty_schema_has_arity_zero() {
        assert_eq!(Schema::empty().arity(), 0);
        assert!(Schema::new(["a"]).contains_all(&Schema::empty()));
    }
}
