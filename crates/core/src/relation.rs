//! K-relations (Definition 3.1 of the paper): functions `R : U-Tup → K` with
//! finite support, where `K` is (at least) a commutative semiring.

use crate::schema::Schema;
use crate::tuple::Tuple;
use provsem_semiring::Semiring;
use std::collections::BTreeMap;
use std::fmt;

/// A K-relation over a schema `U`.
///
/// Only the *support* — tuples with non-zero annotation — is stored; the
/// invariant `R(t) ≠ 0` for stored tuples is maintained by every mutating
/// operation (tuples whose annotation becomes 0 are removed). All tuples
/// must be over the relation's schema.
#[derive(Clone, PartialEq, Eq)]
pub struct KRelation<K> {
    schema: Schema,
    tuples: BTreeMap<Tuple, K>,
}

impl<K: Semiring> KRelation<K> {
    /// The empty K-relation over `schema` (`∅(t) = 0` for every `t`).
    pub fn empty(schema: Schema) -> Self {
        KRelation {
            schema,
            tuples: BTreeMap::new(),
        }
    }

    /// Builds a K-relation from `(tuple, annotation)` pairs. Annotations of
    /// duplicate tuples are summed; zero annotations are dropped.
    ///
    /// # Panics
    /// Panics if a tuple's schema differs from `schema`.
    pub fn from_tuples<I>(schema: Schema, pairs: I) -> Self
    where
        I: IntoIterator<Item = (Tuple, K)>,
    {
        let mut rel = KRelation::empty(schema);
        rel.extend(pairs);
        rel
    }

    /// Builds a set-like K-relation in which every listed tuple is annotated
    /// with `1`.
    pub fn from_support<I>(schema: Schema, tuples: I) -> Self
    where
        I: IntoIterator<Item = Tuple>,
    {
        KRelation::from_tuples(schema, tuples.into_iter().map(|t| (t, K::one())))
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The annotation of a tuple; `K::zero()` for tuples outside the support.
    pub fn annotation(&self, tuple: &Tuple) -> K {
        self.tuples.get(tuple).cloned().unwrap_or_else(K::zero)
    }

    /// Returns `true` iff `tuple` is in the support.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains_key(tuple)
    }

    /// Checks `tuple` is over this relation's schema — a pointer comparison
    /// for tuples built from the relation's own schema handle, an attribute
    /// slice comparison otherwise, never an allocation — and moves it under
    /// the relation's handle, so every stored tuple shares one schema.
    fn adopt(&self, tuple: &mut Tuple) {
        assert!(
            tuple.schema_ref() == &self.schema,
            "tuple schema must match relation schema: {:?} vs {:?}",
            tuple.schema_ref(),
            self.schema
        );
        tuple.adopt_schema(&self.schema);
    }

    /// Adds `annotation` to the tuple's current annotation (semiring `+`),
    /// maintaining the support invariant.
    ///
    /// # Panics
    /// Panics if the tuple's schema differs from the relation's schema.
    pub fn insert(&mut self, mut tuple: Tuple, annotation: K) {
        self.adopt(&mut tuple);
        if annotation.is_zero() {
            return;
        }
        match self.tuples.get_mut(&tuple) {
            Some(existing) => {
                existing.plus_assign(&annotation);
                if existing.is_zero() {
                    self.tuples.remove(&tuple);
                }
            }
            None => {
                self.tuples.insert(tuple, annotation);
            }
        }
    }

    /// Builds a relation from `(tuple, annotation)` pairs already in strictly
    /// increasing tuple order, non-zero, and built from `schema`'s handle —
    /// the batch engine's sorted root result, or the image of an existing
    /// relation's tuples. The map is bulk-built, not inserted into pair by
    /// pair.
    pub(crate) fn from_sorted_support<I>(schema: Schema, pairs: I) -> Self
    where
        I: IntoIterator<Item = (Tuple, K)>,
    {
        let tuples: BTreeMap<Tuple, K> = pairs.into_iter().collect();
        debug_assert!(tuples
            .iter()
            .all(|(t, k)| t.schema_ref().same_handle(&schema) && !k.is_zero()));
        KRelation { schema, tuples }
    }

    /// In-place union (semiring `+` per tuple): adds every annotation of
    /// `other` to this relation without cloning it wholesale — the
    /// allocation-free form of [`KRelation::union`].
    ///
    /// # Panics
    /// Panics if the two relations have different schemas.
    pub fn union_into(&mut self, other: &KRelation<K>) {
        assert_eq!(
            self.schema(),
            other.schema(),
            "union requires identical schemas"
        );
        for (t, k) in other.iter() {
            self.insert(t.clone(), k.clone());
        }
    }

    /// Adds a batch of owned `(tuple, annotation)` pairs (semiring `+` per
    /// tuple), maintaining the support invariant.
    ///
    /// # Panics
    /// Panics if a tuple's schema differs from the relation's schema.
    pub fn extend<I>(&mut self, pairs: I)
    where
        I: IntoIterator<Item = (Tuple, K)>,
    {
        for (t, k) in pairs {
            self.insert(t, k);
        }
    }

    /// Replaces the annotation of a tuple (rather than adding to it).
    /// A zero annotation removes the tuple.
    pub fn set(&mut self, mut tuple: Tuple, annotation: K) {
        self.adopt(&mut tuple);
        if annotation.is_zero() {
            self.tuples.remove(&tuple);
        } else {
            self.tuples.insert(tuple, annotation);
        }
    }

    /// The support `supp(R) = { t | R(t) ≠ 0 }`, iterated in tuple order.
    pub fn support(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.keys()
    }

    /// Iterates over `(tuple, annotation)` pairs of the support.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &K)> {
        self.tuples.iter()
    }

    /// The size of the support.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the support empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Applies a function to every annotation (Proposition 3.5's tuple-wise
    /// transformation `h(R)`); annotations mapped to zero are removed, so the
    /// support may shrink but never grow — exactly as the paper notes.
    ///
    /// The tuples stay in order, so the image is bulk-built.
    pub fn map_annotations<K2: Semiring, F: FnMut(&K) -> K2>(&self, mut f: F) -> KRelation<K2> {
        let image = self.tuples.iter().map(|(t, k)| (t.clone(), f(k)));
        KRelation::from_sorted_support(self.schema.clone(), image.filter(|(_, k)| !k.is_zero()))
    }

    /// Drops annotations, returning the support as plain tuples. Together
    /// with [`KRelation::from_support`] this mediates between K-relations and
    /// ordinary (set-semantics) relations.
    pub fn to_set(&self) -> Vec<Tuple> {
        self.tuples.keys().cloned().collect()
    }
}

impl<K: Semiring + fmt::Debug> fmt::Debug for KRelation<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "KRelation{:?} {{", self.schema)?;
        for (t, k) in &self.tuples {
            writeln!(f, "  {t:?} ↦ {k:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provsem_semiring::{Bool, Natural};

    fn schema_ab() -> Schema {
        Schema::new(["a", "b"])
    }

    fn t(a: &str, b: &str) -> Tuple {
        Tuple::new([("a", a), ("b", b)])
    }

    #[test]
    fn empty_relation_annotates_everything_zero() {
        let r: KRelation<Natural> = KRelation::empty(schema_ab());
        assert!(r.is_empty());
        assert_eq!(r.annotation(&t("x", "y")), Natural::zero());
        assert_eq!(r.support().count(), 0);
    }

    #[test]
    fn insert_sums_annotations_and_prunes_zero() {
        let mut r: KRelation<Natural> = KRelation::empty(schema_ab());
        r.insert(t("x", "y"), Natural::from(2u64));
        r.insert(t("x", "y"), Natural::from(3u64));
        r.insert(t("u", "v"), Natural::zero());
        assert_eq!(r.annotation(&t("x", "y")), Natural::from(5u64));
        assert_eq!(r.len(), 1);
        assert!(!r.contains(&t("u", "v")));
    }

    #[test]
    #[should_panic(expected = "schema")]
    fn insert_rejects_mismatched_schema() {
        let mut r: KRelation<Natural> = KRelation::empty(schema_ab());
        r.insert(Tuple::new([("a", "x")]), Natural::one());
    }

    #[test]
    fn set_overwrites_and_removes() {
        let mut r: KRelation<Natural> = KRelation::empty(schema_ab());
        r.set(t("x", "y"), Natural::from(4u64));
        r.set(t("x", "y"), Natural::from(7u64));
        assert_eq!(r.annotation(&t("x", "y")), Natural::from(7u64));
        r.set(t("x", "y"), Natural::zero());
        assert!(r.is_empty());
    }

    #[test]
    fn from_support_gives_unit_annotations() {
        let r: KRelation<Bool> = KRelation::from_support(schema_ab(), [t("x", "y"), t("u", "v")]);
        assert_eq!(r.annotation(&t("x", "y")), Bool::one());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn map_annotations_shrinks_support_on_zero() {
        let r: KRelation<Natural> = KRelation::from_tuples(
            schema_ab(),
            [
                (t("x", "y"), Natural::from(2u64)),
                (t("u", "v"), Natural::from(1u64)),
            ],
        );
        // Map 1 ↦ false, everything else ↦ true.
        let b: KRelation<Bool> = r.map_annotations(|n| Bool::from(n.value() >= 2));
        assert_eq!(b.len(), 1);
        assert!(b.contains(&t("x", "y")));
        assert!(!b.contains(&t("u", "v")));
    }

    #[test]
    fn duplicate_tuples_in_from_tuples_are_summed() {
        let r: KRelation<Natural> = KRelation::from_tuples(
            schema_ab(),
            [
                (t("x", "y"), Natural::from(2u64)),
                (t("x", "y"), Natural::from(5u64)),
            ],
        );
        assert_eq!(r.annotation(&t("x", "y")), Natural::from(7u64));
    }
}
