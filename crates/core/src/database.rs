//! Databases: named collections of K-relations (the instances that RA⁺
//! expressions and datalog programs are evaluated against).
//!
//! Relations are stored behind [`Arc`]s, which makes `Database::clone` an
//! O(#relations) pointer copy: this is the substrate of the snapshot layer
//! (see [`crate::snapshot`]), where every commit clones the previous
//! snapshot and copy-on-writes only the relations a [`DeltaBatch`] touches.
//! Mutating accessors go through [`Arc::make_mut`], so a database that
//! shares no relations mutates them in place, and one that does gives the
//! written relation a new `Arc` at first write — never a torn read for
//! concurrent holders of older snapshots. That new relation is itself a
//! root-pointer copy ([`KRelation`] shares its tree nodes): the write then
//! copies only the nodes on its path, so a first write costs O(log n)
//! however large the relation.
//!
//! [`DeltaBatch`]: crate::plan::DeltaBatch

use crate::relation::KRelation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use provsem_semiring::Semiring;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A database instance: a mapping from relation names to K-relations.
#[derive(Clone, PartialEq, Eq)]
pub struct Database<K> {
    relations: BTreeMap<String, Arc<KRelation<K>>>,
}

impl<K: Semiring> Database<K> {
    /// The empty database.
    pub fn new() -> Self {
        Database {
            relations: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a relation under the given name.
    pub fn insert(&mut self, name: impl Into<String>, relation: KRelation<K>) -> &mut Self {
        self.relations.insert(name.into(), Arc::new(relation));
        self
    }

    /// Adds (or replaces) a relation that is already shared — the snapshot
    /// layer's entry point, which reuses `Arc`s across epochs for relations
    /// a commit does not touch.
    pub fn insert_shared(
        &mut self,
        name: impl Into<String>,
        relation: Arc<KRelation<K>>,
    ) -> &mut Self {
        self.relations.insert(name.into(), relation);
        self
    }

    /// Builder-style insertion.
    pub fn with(mut self, name: impl Into<String>, relation: KRelation<K>) -> Self {
        self.insert(name, relation);
        self
    }

    /// Looks up a relation by name.
    pub fn get(&self, name: &str) -> Option<&KRelation<K>> {
        self.relations.get(name).map(Arc::as_ref)
    }

    /// Looks up the shared handle of a relation by name (an O(1) clone that
    /// keeps the tuple data shared — what snapshot readers hold on to).
    pub fn get_shared(&self, name: &str) -> Option<Arc<KRelation<K>>> {
        self.relations.get(name).cloned()
    }

    /// Mutable lookup. If the relation is shared with other snapshots it
    /// gets an `Arc` of its own first (an O(1) clone whose tree nodes stay
    /// shared until written to), leaving every other holder untouched.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut KRelation<K>> {
        self.relations.get_mut(name).map(Arc::make_mut)
    }

    /// The schema of a named relation, if present.
    pub fn schema_of(&self, name: &str) -> Option<&Schema> {
        self.relations.get(name).map(|rel| rel.schema())
    }

    /// Iterates over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &KRelation<K>)> {
        self.relations
            .iter()
            .map(|(name, rel)| (name, rel.as_ref()))
    }

    /// Relation names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &String> {
        self.relations.keys()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total number of tuples across all relations (the size of the
    /// instance).
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|rel| rel.len()).sum()
    }

    /// Applies an annotation transformation to every relation (the database
    /// version of `h(R)` from Proposition 3.5).
    pub fn map_annotations<K2: Semiring, F: Fn(&K) -> K2>(&self, f: F) -> Database<K2> {
        let mut db = Database::new();
        for (name, rel) in &self.relations {
            db.insert(name.clone(), rel.map_annotations(&f));
        }
        db
    }

    /// Inserts a single annotated tuple into a named relation, creating the
    /// relation (with the tuple's schema) if it does not exist yet.
    pub fn insert_tuple(&mut self, name: &str, tuple: Tuple, annotation: K) {
        match self.relations.get_mut(name) {
            Some(rel) => Arc::make_mut(rel).insert(tuple, annotation),
            None => {
                let schema = tuple.schema();
                let mut rel = KRelation::empty(schema);
                rel.insert(tuple, annotation);
                self.relations.insert(name.to_string(), Arc::new(rel));
            }
        }
    }
}

impl<K: Semiring> Default for Database<K> {
    fn default() -> Self {
        Database::new()
    }
}

impl<K: Semiring + fmt::Debug> fmt::Debug for Database<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Database {{")?;
        for (name, rel) in &self.relations {
            writeln!(f, "{name}: {rel:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provsem_semiring::{Bool, Natural};

    fn sample_db() -> Database<Natural> {
        let schema = Schema::new(["x", "y"]);
        let r = KRelation::from_tuples(
            schema.clone(),
            [
                (Tuple::new([("x", "1"), ("y", "2")]), Natural::from(3u64)),
                (Tuple::new([("x", "2"), ("y", "3")]), Natural::from(4u64)),
            ],
        );
        let s = KRelation::from_tuples(
            schema,
            [(Tuple::new([("x", "9"), ("y", "9")]), Natural::from(1u64))],
        );
        Database::new().with("R", r).with("S", s)
    }

    #[test]
    fn insertion_and_lookup() {
        let db = sample_db();
        assert_eq!(db.len(), 2);
        assert_eq!(db.total_tuples(), 3);
        assert!(db.get("R").is_some());
        assert!(db.get("T").is_none());
        assert_eq!(db.schema_of("R"), Some(&Schema::new(["x", "y"])));
        assert_eq!(db.names().collect::<Vec<_>>(), vec!["R", "S"]);
    }

    #[test]
    fn map_annotations_transforms_every_relation() {
        let db = sample_db();
        let b: Database<Bool> = db.map_annotations(|n| Bool::from(!n.is_zero()));
        assert_eq!(b.total_tuples(), 3);
        assert_eq!(
            b.get("R")
                .unwrap()
                .annotation(&Tuple::new([("x", "1"), ("y", "2")])),
            Bool::from(true)
        );
    }

    #[test]
    fn insert_tuple_creates_relations_on_demand() {
        let mut db: Database<Natural> = Database::new();
        db.insert_tuple(
            "E",
            Tuple::new([("src", "a"), ("dst", "b")]),
            Natural::from(2u64),
        );
        db.insert_tuple(
            "E",
            Tuple::new([("src", "a"), ("dst", "b")]),
            Natural::from(3u64),
        );
        assert_eq!(db.len(), 1);
        assert_eq!(
            db.get("E")
                .unwrap()
                .annotation(&Tuple::new([("src", "a"), ("dst", "b")])),
            Natural::from(5u64)
        );
    }

    #[test]
    fn clone_shares_until_first_write() {
        let base = sample_db();
        let mut branch = base.clone();
        // The clone is a pointer copy: both databases hold the same Arcs.
        assert!(Arc::ptr_eq(
            &base.get_shared("R").unwrap(),
            &branch.get_shared("R").unwrap()
        ));
        // First write copy-on-writes only the touched relation...
        branch.insert_tuple(
            "R",
            Tuple::new([("x", "7"), ("y", "7")]),
            Natural::from(1u64),
        );
        assert!(!Arc::ptr_eq(
            &base.get_shared("R").unwrap(),
            &branch.get_shared("R").unwrap()
        ));
        // ...leaving the untouched relation shared and the base unchanged.
        assert!(Arc::ptr_eq(
            &base.get_shared("S").unwrap(),
            &branch.get_shared("S").unwrap()
        ));
        assert_eq!(base.total_tuples(), 3);
        assert_eq!(branch.total_tuples(), 4);
    }

    #[test]
    fn replacing_a_relation_overwrites() {
        let mut db = sample_db();
        let empty: KRelation<Natural> = KRelation::empty(Schema::new(["x", "y"]));
        db.insert("R", empty);
        assert_eq!(db.get("R").unwrap().len(), 0);
    }
}
