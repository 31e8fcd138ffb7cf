//! Tuples in the named perspective: functions `t : U → D` from attributes to
//! domain values (Section 3 of the paper).

use crate::schema::{Attribute, Renaming, Schema};
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A tuple over some schema `U`: a total map from the attributes of `U` to
/// values.
///
/// # Representation
///
/// A tuple is a [`Schema`] *handle* (an `Arc` bump to clone, shared by every
/// tuple of a relation) plus **one** boxed slice of values. The invariants:
///
/// * `values.len() == schema.arity()`, and `values[i]` is the value of
///   `schema.attributes()[i]` — the schema's sorted attribute order *is* the
///   positional column order of the physical plan layer;
/// * attribute names live only in the schema, never per tuple, so cloning,
///   comparing, equating and hashing tuples **over one schema** touch values
///   only (two handles of one schema compare by pointer);
/// * [`Ord`] is lexicographic over `(attribute, value)` pairs in attribute
///   order — exactly the order of the `BTreeMap<Attribute, Value>` this type
///   used to be — so tuples over *different* schemas still order totally and
///   every `BTreeMap<Tuple, K>` iterates as it always did. [`Eq`] is schema
///   equality plus value equality; [`Hash`] covers the values alone, which is
///   consistent with `Eq` (equal tuples have equal values).
#[derive(Clone, Default)]
pub struct Tuple {
    schema: Schema,
    values: Box<[Value]>,
}

impl Tuple {
    /// The empty tuple (over the empty schema).
    pub fn empty() -> Self {
        Tuple::default()
    }

    /// Builds a tuple from `(attribute, value)` pairs, in any order. A
    /// repeated attribute keeps its last value.
    pub fn new<I, A, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (A, V)>,
        A: Into<Attribute>,
        V: Into<Value>,
    {
        let mut pairs: Vec<(Attribute, Value)> = pairs
            .into_iter()
            .map(|(a, v)| (a.into(), v.into()))
            .collect();
        // Stable, so among equal attributes the last pair given stays last;
        // `dedup_by` keeps the earlier element of a run, hence the swap.
        pairs.sort_by(|(a, _), (b, _)| a.cmp(b));
        pairs.dedup_by(|later, earlier| {
            later.0 == earlier.0 && {
                std::mem::swap(later, earlier);
                true
            }
        });
        let (attributes, values): (Vec<Attribute>, Vec<Value>) = pairs.into_iter().unzip();
        Tuple {
            schema: Schema::from_sorted_distinct(attributes),
            values: values.into(),
        }
    }

    /// Builds a tuple over `schema` from values listed in the schema's
    /// (sorted) attribute order. The tuple shares `schema`'s handle. Panics
    /// if the lengths differ.
    pub fn from_values<I, V>(schema: &Schema, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let values: Box<[Value]> = values.into_iter().map(Into::into).collect();
        assert_eq!(
            values.len(),
            schema.arity(),
            "value count must match schema arity"
        );
        Tuple {
            schema: schema.clone(),
            values,
        }
    }

    /// Wraps a positional row whose columns follow `schema`'s sorted
    /// attribute order — the physical plan layer's boundary conversion back
    /// into the named perspective. The row *is* the tuple's storage, so this
    /// allocates nothing; unlike [`Tuple::from_values`] it is infallible by
    /// construction (the planner guarantees the arity).
    pub(crate) fn from_schema_row(schema: &Schema, values: Box<[Value]>) -> Self {
        debug_assert_eq!(values.len(), schema.arity(), "row arity matches schema");
        Tuple {
            schema: schema.clone(),
            values,
        }
    }

    /// The schema this tuple is over (a handle clone, no allocation).
    pub fn schema(&self) -> Schema {
        self.schema.clone()
    }

    /// Borrows the schema handle.
    pub(crate) fn schema_ref(&self) -> &Schema {
        &self.schema
    }

    /// Swaps in `schema`'s handle for this tuple's own. The caller has
    /// checked the two schemas equal; afterwards comparisons against the
    /// other tuples under that handle take the pointer shortcut, and this
    /// tuple's separately built attribute list (if any) is freed.
    pub(crate) fn adopt_schema(&mut self, schema: &Schema) {
        debug_assert_eq!(&self.schema, schema);
        if !self.schema.same_handle(schema) {
            self.schema = schema.clone();
        }
    }

    /// The value of an attribute, if present.
    pub fn get(&self, attr: &Attribute) -> Option<&Value> {
        self.schema.position(attr).map(|i| &self.values[i])
    }

    /// The value of an attribute by name, if present.
    pub fn get_named(&self, attr: &str) -> Option<&Value> {
        self.schema
            .attributes()
            .binary_search_by(|a| a.name().cmp(attr))
            .ok()
            .map(|i| &self.values[i])
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Iterates over `(attribute, value)` pairs in attribute order.
    pub fn fields(&self) -> impl Iterator<Item = (&Attribute, &Value)> {
        self.schema.attributes().iter().zip(self.values.iter())
    }

    /// The values in attribute order.
    pub fn values(&self) -> std::slice::Iter<'_, Value> {
        self.values.iter()
    }

    /// Restriction of the tuple to a sub-schema `V ⊆ U` (written `t` on `V`
    /// in the paper's projection definition). Attributes outside the tuple
    /// are ignored.
    pub fn restrict(&self, schema: &Schema) -> Tuple {
        let values: Box<[Value]> = self
            .fields()
            .filter(|(a, _)| schema.contains(a))
            .map(|(_, v)| v.clone())
            .collect();
        // Every kept attribute is in `schema`; when as many were kept as
        // `schema` has, they are `schema` (the V ⊆ U case) and its handle is
        // shared rather than rebuilt per tuple.
        let schema = if values.len() == schema.arity() {
            schema.clone()
        } else {
            self.schema.intersection(schema)
        };
        Tuple { schema, values }
    }

    /// Do two tuples agree on every attribute they share? (The compatibility
    /// condition of natural join.)
    pub fn compatible_with(&self, other: &Tuple) -> bool {
        self.fields().all(|(a, v)| match other.get(a) {
            Some(w) => v == w,
            None => true,
        })
    }

    /// Merges two compatible tuples into a tuple over the union of their
    /// schemas. Returns `None` if they disagree on a shared attribute.
    pub fn merge(&self, other: &Tuple) -> Option<Tuple> {
        if !self.compatible_with(other) {
            return None;
        }
        let schema = self.schema.union(&other.schema);
        let values = schema
            .attributes()
            .iter()
            .map(|a| {
                self.get(a)
                    .or_else(|| other.get(a))
                    .expect("a union attribute comes from one of the two tuples")
                    .clone()
            })
            .collect();
        Some(Tuple { schema, values })
    }

    /// Applies a renaming `β : U → U'`. Following the paper
    /// (`ρ_β R (t) = R(t ∘ β)`), renaming a tuple relabels its attributes.
    pub fn rename(&self, renaming: &Renaming) -> Tuple {
        Tuple::new(self.fields().map(|(a, v)| (renaming.apply(a), v.clone())))
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.values == other.values
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values.hash(state);
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.schema == other.schema {
            self.values.cmp(&other.values)
        } else {
            self.fields().cmp(other.fields())
        }
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (a, v)) in self.fields().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}={v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t_abc() -> Tuple {
        Tuple::new([("a", "1"), ("b", "2"), ("c", "3")])
    }

    #[test]
    fn construction_and_access() {
        let t = t_abc();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get_named("a"), Some(&Value::from("1")));
        assert_eq!(t.get_named("z"), None);
        assert_eq!(t.schema(), Schema::new(["a", "b", "c"]));
    }

    #[test]
    fn from_values_follows_schema_order() {
        let schema = Schema::new(["b", "a"]);
        // Sorted attribute order is a, b.
        let t = Tuple::from_values(&schema, ["x", "y"]);
        assert_eq!(t.get_named("a"), Some(&Value::from("x")));
        assert_eq!(t.get_named("b"), Some(&Value::from("y")));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn from_values_rejects_wrong_arity() {
        let _ = Tuple::from_values(&Schema::new(["a", "b"]), ["only-one"]);
    }

    #[test]
    fn restriction_projects_attributes() {
        let t = t_abc();
        let restricted = t.restrict(&Schema::new(["a", "c"]));
        assert_eq!(restricted, Tuple::new([("a", "1"), ("c", "3")]));
        assert_eq!(t.restrict(&Schema::empty()), Tuple::empty());
    }

    #[test]
    fn compatibility_and_merge() {
        let t1 = Tuple::new([("a", "1"), ("b", "2")]);
        let t2 = Tuple::new([("b", "2"), ("c", "3")]);
        let t3 = Tuple::new([("b", "9")]);
        assert!(t1.compatible_with(&t2));
        assert!(!t1.compatible_with(&t3));
        assert_eq!(t1.merge(&t2), Some(t_abc()));
        assert_eq!(t1.merge(&t3), None);
        // Merging with the empty tuple is the identity.
        assert_eq!(t1.merge(&Tuple::empty()), Some(t1.clone()));
    }

    #[test]
    fn renaming_relabels_attributes() {
        let t = Tuple::new([("a", "1"), ("b", "2")]);
        let rho = Renaming::new([("b", "b2")]);
        assert_eq!(t.rename(&rho), Tuple::new([("a", "1"), ("b2", "2")]));
    }

    #[test]
    fn tuples_with_mixed_value_types() {
        let t = Tuple::new([("name", Value::from("alice")), ("age", Value::from(30i64))]);
        assert_eq!(t.get_named("age"), Some(&Value::Int(30)));
        assert_eq!(t.get_named("name").unwrap().as_str(), Some("alice"));
    }
}
