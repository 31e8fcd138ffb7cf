//! Ground facts and annotated fact stores (the positional / unnamed
//! perspective used for datalog in Section 5 of the paper).

use crate::ast::Atom;
use provsem_core::kernels::Batch;
use provsem_core::{Database, KRelation, Schema, Tuple, Value};
use provsem_semiring::Semiring;
use std::collections::BTreeMap;
use std::fmt;

/// A ground fact: a predicate name plus a vector of constant values.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fact {
    /// Predicate (relation) name.
    pub predicate: String,
    /// The constant arguments, in positional order.
    pub values: Vec<Value>,
}

impl Fact {
    /// Builds a fact.
    pub fn new<I, V>(predicate: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Fact {
            predicate: predicate.into(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Views the fact as a ground [`Atom`].
    pub fn to_atom(&self) -> Atom {
        Atom::new(
            self.predicate.clone(),
            self.values
                .iter()
                .map(|v| crate::ast::Term::Const(v.clone()))
                .collect(),
        )
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// An annotated fact store: per predicate, a finite-support map from value
/// vectors to K annotations. This is the K-relation notion of Definition 3.1
/// in the unnamed perspective, used by the datalog engine.
#[derive(Clone)]
pub struct FactStore<K> {
    relations: BTreeMap<String, BTreeMap<Vec<Value>, K>>,
}

/// Equality compares the annotated facts only: a predicate entry whose map
/// is empty (left behind by [`FactStore::clear`], or by
/// [`FactStore::set`]ting a fact to zero) is indistinguishable from an
/// absent one. The derived `PartialEq` would tell them apart, which would
/// make the fixpoint loops' `next == current` checks depend on which
/// predicates a scratch buffer happened to hold earlier.
impl<K: PartialEq> PartialEq for FactStore<K> {
    fn eq(&self, other: &Self) -> bool {
        self.relations
            .iter()
            .filter(|(_, rel)| !rel.is_empty())
            .eq(other.relations.iter().filter(|(_, rel)| !rel.is_empty()))
    }
}

impl<K: Eq> Eq for FactStore<K> {}

impl<K: Semiring> FactStore<K> {
    /// An empty store.
    pub fn new() -> Self {
        FactStore {
            relations: BTreeMap::new(),
        }
    }

    /// Adds `annotation` to a fact's current annotation (semiring `+`).
    pub fn insert(&mut self, fact: Fact, annotation: K) {
        if annotation.is_zero() {
            return;
        }
        let rel = self.relations.entry(fact.predicate).or_default();
        match rel.get_mut(&fact.values) {
            Some(existing) => {
                existing.plus_assign(&annotation);
                if existing.is_zero() {
                    rel.remove(&fact.values);
                }
            }
            None => {
                rel.insert(fact.values, annotation);
            }
        }
    }

    /// Replaces a fact's annotation (zero removes it).
    pub fn set(&mut self, fact: Fact, annotation: K) {
        let rel = self.relations.entry(fact.predicate).or_default();
        if annotation.is_zero() {
            rel.remove(&fact.values);
        } else {
            rel.insert(fact.values, annotation);
        }
    }

    /// The annotation of a fact (`0` if absent).
    pub fn annotation(&self, fact: &Fact) -> K {
        self.relations
            .get(&fact.predicate)
            .and_then(|rel| rel.get(&fact.values))
            .cloned()
            .unwrap_or_else(K::zero)
    }

    /// Is the fact in the support?
    pub fn contains(&self, fact: &Fact) -> bool {
        self.relations
            .get(&fact.predicate)
            .map(|rel| rel.contains_key(&fact.values))
            .unwrap_or(false)
    }

    /// Iterates over the support facts of one predicate.
    pub fn facts_of<'a>(&'a self, predicate: &'a str) -> impl Iterator<Item = (Fact, &'a K)> + 'a {
        self.relations
            .get(predicate)
            .into_iter()
            .flat_map(move |rel| {
                rel.iter().map(move |(values, k)| {
                    (
                        Fact {
                            predicate: predicate.to_string(),
                            values: values.clone(),
                        },
                        k,
                    )
                })
            })
    }

    /// The support of one predicate as borrowed `(values, annotation)` rows,
    /// in sorted value order — [`FactStore::facts_of`] without minting a
    /// [`Fact`] (a predicate `String` and a value vector) per row.
    pub fn rows_of<'a>(&'a self, predicate: &str) -> impl Iterator<Item = (&'a [Value], &'a K)> {
        self.relations
            .get(predicate)
            .into_iter()
            .flat_map(|rel| rel.iter().map(|(values, k)| (values.as_slice(), k)))
    }

    /// Iterates over every support fact.
    pub fn facts(&self) -> impl Iterator<Item = (Fact, &K)> {
        self.relations.iter().flat_map(|(pred, rel)| {
            rel.iter().map(move |(values, k)| {
                (
                    Fact {
                        predicate: pred.clone(),
                        values: values.clone(),
                    },
                    k,
                )
            })
        })
    }

    /// Predicate names with at least one support fact. Emptied entries left
    /// behind by [`FactStore::clear`] or a zero [`FactStore::set`] are not
    /// reported, matching the store's equality semantics.
    pub fn predicates(&self) -> impl Iterator<Item = &String> {
        self.relations
            .iter()
            .filter(|(_, rel)| !rel.is_empty())
            .map(|(pred, _)| pred)
    }

    /// Total number of support facts.
    pub fn len(&self) -> usize {
        self.relations.values().map(BTreeMap::len).sum()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every fact while keeping the allocated per-predicate maps, so
    /// fixpoint loops can reuse one store as a scratch buffer instead of
    /// allocating a fresh one per round.
    pub fn clear(&mut self) {
        for rel in self.relations.values_mut() {
            rel.clear();
        }
    }

    /// Bulk-loads rows into `predicate`'s relation: one sorted build when
    /// the relation is still empty and the rows arrive in key order. The
    /// rows must be distinct, absent from the store, and carry no zero
    /// annotation — the compiled fixpoint's final result is loaded this
    /// way, once.
    pub(crate) fn load(&mut self, predicate: &str, rows: impl Iterator<Item = (Vec<Value>, K)>) {
        let relation = self.relations.entry(predicate.to_string()).or_default();
        if relation.is_empty() {
            *relation = rows.collect();
        } else {
            relation.extend(rows);
        }
    }

    /// The *active domain*: every constant appearing in any fact.
    pub fn active_domain(&self) -> Vec<Value> {
        let mut dom: Vec<Value> = self
            .relations
            .values()
            .flat_map(|rel| rel.keys().flatten().cloned())
            .collect();
        dom.sort();
        dom.dedup();
        dom
    }

    /// Applies an annotation transformation fact-wise (Proposition 5.7's
    /// `h(R)`).
    pub fn map_annotations<K2: Semiring, F: Fn(&K) -> K2>(&self, f: F) -> FactStore<K2> {
        let mut out = FactStore::new();
        for (fact, k) in self.facts() {
            out.insert(fact, f(k));
        }
        out
    }

    /// Imports a named K-relation from `provsem-core`, using `attributes` to
    /// fix the positional order of the columns.
    pub fn import_relation(
        &mut self,
        predicate: &str,
        relation: &KRelation<K>,
        attributes: &[&str],
    ) {
        for (tuple, k) in relation.iter() {
            let values: Vec<Value> = attributes
                .iter()
                .map(|a| {
                    tuple
                        .get_named(a)
                        .cloned()
                        .unwrap_or_else(|| panic!("attribute {a} missing from tuple"))
                })
                .collect();
            self.insert(Fact::new(predicate, values), k.clone());
        }
    }

    /// Imports one predicate straight from columnar [`Batch`]es — the form
    /// the snapshot-resident `BatchCache` serves. Column order is the
    /// batch's physical order (schema attribute order for converted
    /// relations), which matches what
    /// [`import_relation`](FactStore::import_relation) produces for the
    /// same relation. Annotations merge additively, so a patched cache
    /// entry (base conversion plus appended commit deltas, including
    /// deletions) folds to exactly the relation's current state.
    pub fn import_batches(&mut self, predicate: &str, batches: &[Batch<K>]) {
        for source in batches {
            let materialized;
            let batch = if source.live_rows() == source.phys_rows() {
                source
            } else {
                materialized = source.clone().materialize();
                &materialized
            };
            for row in 0..batch.phys_rows() as u32 {
                let values: Vec<Value> = batch.columns().iter().map(|c| c.value_at(row)).collect();
                self.insert(
                    Fact::new(predicate, values),
                    batch.anns()[row as usize].clone(),
                );
            }
        }
    }

    /// Imports every relation of a core [`Database`] using the given
    /// positional attribute order per relation name.
    pub fn import_database(&mut self, db: &Database<K>, orders: &BTreeMap<String, Vec<String>>) {
        for (name, rel) in db.iter() {
            let order: Vec<&str> = orders
                .get(name)
                .map(|v| v.iter().map(String::as_str).collect())
                .unwrap_or_else(|| rel.schema().attributes().iter().map(|a| a.name()).collect());
            self.import_relation(name, rel, &order);
        }
    }

    /// Exports one predicate as a named K-relation, labelling the positions
    /// with the given attribute names.
    pub fn export_relation(&self, predicate: &str, attributes: &[&str]) -> KRelation<K> {
        let schema = Schema::new(attributes.iter().copied());
        let mut rel = KRelation::empty(schema);
        for (fact, k) in self.facts_of(predicate) {
            assert_eq!(
                fact.arity(),
                attributes.len(),
                "arity mismatch exporting {predicate}"
            );
            let tuple = Tuple::new(
                attributes
                    .iter()
                    .copied()
                    .zip(fact.values.iter().cloned())
                    .collect::<Vec<_>>(),
            );
            rel.insert(tuple, k.clone());
        }
        rel
    }
}

impl<K: Semiring> Default for FactStore<K> {
    fn default() -> Self {
        FactStore::new()
    }
}

impl<K: Semiring + fmt::Debug> fmt::Debug for FactStore<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FactStore {{")?;
        for (fact, k) in self.facts() {
            writeln!(f, "  {fact} ↦ {k:?}")?;
        }
        write!(f, "}}")
    }
}

/// Builds the edge fact store used by the Figure 6/7 examples from
/// `(src, dst, annotation)` triples.
pub fn edge_facts<K: Semiring>(predicate: &str, edges: &[(&str, &str, K)]) -> FactStore<K> {
    let mut store = FactStore::new();
    for (src, dst, k) in edges {
        store.insert(Fact::new(predicate, [*src, *dst]), k.clone());
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use provsem_semiring::Natural;

    fn nat(n: u64) -> Natural {
        Natural::from(n)
    }

    #[test]
    fn insert_sum_and_prune() {
        let mut s: FactStore<Natural> = FactStore::new();
        s.insert(Fact::new("R", ["a", "b"]), nat(2));
        s.insert(Fact::new("R", ["a", "b"]), nat(3));
        s.insert(Fact::new("R", ["x", "y"]), nat(0));
        assert_eq!(s.annotation(&Fact::new("R", ["a", "b"])), nat(5));
        assert_eq!(s.len(), 1);
        assert!(!s.contains(&Fact::new("R", ["x", "y"])));
    }

    #[test]
    fn active_domain_collects_constants() {
        let s = edge_facts("R", &[("a", "b", nat(1)), ("b", "c", nat(1))]);
        let dom = s.active_domain();
        assert_eq!(dom.len(), 3);
        assert!(dom.contains(&Value::from("a")));
        assert!(dom.contains(&Value::from("c")));
    }

    #[test]
    fn import_export_round_trip_with_core_relations() {
        let db = provsem_core::paper::figure7_bag();
        let mut store: FactStore<provsem_semiring::NatInf> = FactStore::new();
        store.import_relation("R", db.get("R").unwrap(), &["src", "dst"]);
        assert_eq!(store.len(), 5);
        assert_eq!(
            store.annotation(&Fact::new("R", ["a", "c"])),
            provsem_semiring::NatInf::Fin(3)
        );
        let back = store.export_relation("R", &["src", "dst"]);
        assert_eq!(&back, db.get("R").unwrap());
    }

    #[test]
    fn map_annotations_changes_semiring() {
        let s = edge_facts("R", &[("a", "b", nat(2)), ("b", "c", nat(0))]);
        let b = s.map_annotations(|n| provsem_semiring::Bool::from(!n.is_zero()));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn facts_of_lists_only_that_predicate() {
        let mut s: FactStore<Natural> = FactStore::new();
        s.insert(Fact::new("R", ["a"]), nat(1));
        s.insert(Fact::new("S", ["b"]), nat(1));
        assert_eq!(s.facts_of("R").count(), 1);
        assert_eq!(s.facts_of("T").count(), 0);
        assert_eq!(s.predicates().count(), 2);
    }

    #[test]
    fn clear_empties_but_keeps_store_usable() {
        let mut s = edge_facts("R", &[("a", "b", nat(2)), ("b", "c", nat(3))]);
        s.clear();
        assert!(s.is_empty());
        s.insert(Fact::new("R", ["x", "y"]), nat(1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn equality_ignores_phantom_empty_predicate_entries() {
        // A cleared-and-refilled buffer must compare equal to a fresh store
        // with the same facts, no matter which predicates it held before.
        let mut recycled = edge_facts("Z", &[("p", "q", nat(7))]);
        recycled.clear();
        recycled.insert(Fact::new("R", ["a", "b"]), nat(2));
        let fresh = edge_facts("R", &[("a", "b", nat(2))]);
        assert_eq!(recycled, fresh);
        // `set` to zero leaves an empty entry too; it must also not count.
        let mut zeroed: FactStore<Natural> = FactStore::new();
        zeroed.set(Fact::new("S", ["x"]), nat(0));
        assert_eq!(zeroed, FactStore::new());
        assert_ne!(fresh, FactStore::new());
        // The phantom entries are invisible through the API as well.
        assert_eq!(zeroed.predicates().count(), 0);
        assert_eq!(
            recycled.predicates().collect::<Vec<_>>(),
            [&"R".to_string()]
        );
    }

    #[test]
    fn fact_display_and_atom_conversion() {
        let f = Fact::new("R", ["a", "b"]);
        assert_eq!(format!("{f}"), "R(a, b)");
        assert!(f.to_atom().is_ground());
    }
}
