//! `KRelation` against the model it replaced: a `BTreeMap<Tuple, K>`.
//!
//! The storage is a persistent B+-tree whose nodes are shared between
//! clones and copied on write (see `core::relation`). Through the public API
//! it must be indistinguishable from the plain map: same iteration order,
//! `len`, `annotation`, `contains` and equality — whatever order the entries
//! arrived in, however often nodes split and merged, and however many clones
//! share nodes with the relation being written. After every step the
//! representation's own invariants are checked too
//! (`KRelation::check_invariants`: key order across leaves, separators,
//! fill bounds, one leaf depth, cached length, and a held columnar form
//! folding back to the relation exactly). Scripts convert the relation to
//! columns (`KRelation::batches`) between most steps, so every write path
//! — and every write to a clone — runs with a form present, and the form
//! a write leaves behind must be the new version's or none.
//!
//! Run in CI in release mode under `PROVSEM_THREADS=1` and `=4` beside
//! `snapshot_isolation`.

use proptest::prelude::*;
use provsem_core::prelude::{KRelation, Schema, Tuple, Value};
use provsem_core::relation::NODE_CAPACITY;
use provsem_semiring::ring::Integers;
use provsem_semiring::{Natural, ProvenancePolynomial, Semiring};
use std::collections::BTreeMap;

type Model<K> = BTreeMap<Tuple, K>;

/// Keys the scripts draw from: enough for several levels of nodes, few
/// enough that draws collide (re-sums, cancellations, overwrites).
const KEYS: u16 = 1500;

fn schema() -> Schema {
    Schema::new(["a", "b"])
}

/// Integers and strings mixed, so both halves of `Value`'s order matter.
fn key(schema: &Schema, n: u16) -> Tuple {
    let a = if n.is_multiple_of(3) {
        Value::str(format!("s{:04}", n))
    } else {
        Value::int(i64::from(n) - 700)
    };
    Tuple::from_values(schema, [a, Value::int(i64::from(n % 7))])
}

/// What a script needs from an annotation type.
trait Annotations: Semiring {
    /// A non-zero annotation.
    fn positive(n: u8) -> Self;
    /// `-k`, where the semiring has additive inverses.
    fn inverse(k: &Self) -> Option<Self>;
    /// An annotation map that sends some non-zero values to zero.
    fn thin(k: &Self) -> Self;
}

impl Annotations for Integers {
    fn positive(n: u8) -> Self {
        Integers::new(1 + i64::from(n % 3))
    }
    fn inverse(k: &Self) -> Option<Self> {
        Some(Integers::new(-k.value()))
    }
    fn thin(k: &Self) -> Self {
        Integers::new(k.value() / 2)
    }
}

impl Annotations for ProvenancePolynomial {
    fn positive(n: u8) -> Self {
        ProvenancePolynomial::var(format!("x{}", n % 4)).times(&ProvenancePolynomial::constant(
            Natural::from(1 + u64::from(n % 2)),
        ))
    }
    fn inverse(_: &Self) -> Option<Self> {
        None
    }
    fn thin(k: &Self) -> Self {
        if k.variables().len() > 1 {
            ProvenancePolynomial::zero()
        } else {
            k.clone()
        }
    }
}

/// `model[t] += k`, dropping the entry at zero — Definition 3.1's pointwise
/// sum on the support.
fn model_add<K: Semiring>(model: &mut Model<K>, t: Tuple, k: K) {
    let sum = model.get(&t).map_or(k.clone(), |old| old.plus(&k));
    if sum.is_zero() {
        model.remove(&t);
    } else {
        model.insert(t, sum);
    }
}

fn assert_is<K: Semiring>(relation: &KRelation<K>, model: &Model<K>, probe: &Schema) {
    relation.check_invariants();
    assert_eq!(relation.len(), model.len());
    assert_eq!(relation.is_empty(), model.is_empty());
    assert!(
        relation.iter().eq(model.iter()),
        "iteration differs from the model"
    );
    assert!(relation.support().eq(model.keys()));
    assert_eq!(relation.iter().len(), model.len());
    for n in (0..KEYS).step_by(37) {
        let t = key(probe, n);
        assert_eq!(relation.contains(&t), model.contains_key(&t));
        assert_eq!(
            relation.annotation(&t),
            model.get(&t).cloned().unwrap_or_else(K::zero)
        );
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.pos % self.bytes.len()];
        self.pos += 1;
        b
    }

    fn key_index(&mut self) -> u16 {
        u16::from_le_bytes([self.byte(), self.byte()]) % KEYS
    }

    fn done(&self) -> bool {
        self.pos >= self.bytes.len()
    }
}

/// One case: start from `initial` bulk-loaded keys, then replay `script`.
fn run_script<K: Annotations>(initial: u16, script: &[u8]) {
    let schema = schema();
    // Probes come from a handle of their own: lookups must not depend on
    // sharing the relation's schema allocation.
    let probe = Schema::new(["a", "b"]);
    let mut model: Model<K> = (0..initial)
        .map(|n| (key(&schema, n * 3 % KEYS), K::positive(n as u8)))
        .collect();
    let mut relation = KRelation::from_sorted_support(
        schema.clone(),
        model.iter().map(|(t, k)| (t.clone(), k.clone())),
    );
    assert_is(&relation, &model, &probe);
    let mut held: Vec<(KRelation<K>, Model<K>)> = Vec::new();
    let mut cursor = Cursor {
        bytes: script,
        pos: 0,
    };
    while !cursor.done() {
        // Most steps start from a relation that holds its columnar form.
        if !cursor.byte().is_multiple_of(4) {
            relation.batches();
        }
        match cursor.byte() % 11 {
            // insert: a new entry, or a sum with the stored annotation.
            0 | 1 => {
                let (t, k) = (key(&probe, cursor.key_index()), K::positive(cursor.byte()));
                relation.insert(t.clone(), k.clone());
                model_add(&mut model, t, k);
            }
            // insert of an inverse: a negative count, and — when it is the
            // stored annotation's own inverse — an entry that leaves.
            2 | 3 => {
                let t = match model
                    .keys()
                    .nth(cursor.key_index() as usize % (model.len() + 1))
                {
                    Some(t) => t.clone(),
                    None => key(&probe, cursor.key_index()),
                };
                let exact = cursor.byte().is_multiple_of(2);
                let stored = model
                    .get(&t)
                    .filter(|_| exact)
                    .cloned()
                    .unwrap_or_else(|| K::positive(cursor.byte()));
                if let Some(k) = K::inverse(&stored) {
                    relation.insert(t.clone(), k.clone());
                    model_add(&mut model, t, k);
                } else {
                    // No inverses in K: entries leave by `set` to zero.
                    relation.set(t.clone(), K::zero());
                    model.remove(&t);
                }
            }
            // set: overwrite, create, remove, or remove what is not there.
            4 => {
                let t = key(&probe, cursor.key_index());
                let k = if cursor.byte().is_multiple_of(3) {
                    K::zero()
                } else {
                    K::positive(cursor.byte())
                };
                relation.set(t.clone(), k.clone());
                if k.is_zero() {
                    model.remove(&t);
                } else {
                    model.insert(t, k);
                }
            }
            // extend with a run of pairs, duplicates included.
            5 => {
                let pairs: Vec<(Tuple, K)> = (0..cursor.byte() % 24)
                    .map(|_| (key(&schema, cursor.key_index()), K::positive(cursor.byte())))
                    .collect();
                relation.extend(pairs.clone());
                for (t, k) in pairs {
                    model_add(&mut model, t, k);
                }
            }
            // union_into from a relation built on its own.
            6 => {
                let mut other = KRelation::empty(probe.clone());
                for _ in 0..cursor.byte() % 16 {
                    other.insert(key(&probe, cursor.key_index()), K::positive(cursor.byte()));
                }
                relation.union_into(&other);
                for (t, k) in other.iter() {
                    model_add(&mut model, t.clone(), k.clone());
                }
            }
            // Equality does not see insertion order or tree shape: the same
            // function built backwards, by `from_tuples`, and in bulk.
            7 => {
                let backwards = KRelation::from_tuples(
                    probe.clone(),
                    model.iter().rev().map(|(t, k)| (t.clone(), k.clone())),
                );
                backwards.check_invariants();
                assert!(relation == backwards);
                assert!(backwards == relation);
                let bulk = KRelation::from_sorted_support(
                    schema.clone(),
                    model.iter().map(|(t, k)| (t.clone(), k.clone())),
                );
                bulk.check_invariants();
                assert!(relation == bulk);
                let mut other = backwards;
                other.insert(key(&probe, cursor.key_index()), K::positive(1));
                assert!(relation != other);
                assert!(other != relation);
            }
            // map_annotations: the image is bulk-built and may shrink.
            8 => {
                relation = relation.map_annotations(K::thin);
                model = model
                    .iter()
                    .map(|(t, k)| (t.clone(), K::thin(k)))
                    .filter(|(_, k)| !k.is_zero())
                    .collect();
            }
            // A run of neighbouring entries leaves: nodes fall under their
            // minimum and merge, levels collapse.
            9 => {
                let from = cursor.key_index() as usize % (model.len() + 1);
                let run: Vec<Tuple> = model
                    .keys()
                    .skip(from)
                    .take(cursor.byte() as usize)
                    .cloned()
                    .collect();
                for t in run {
                    match K::inverse(&model[&t]) {
                        Some(k) => relation.insert(t.clone(), k),
                        None => relation.set(t.clone(), K::zero()),
                    }
                    model.remove(&t);
                }
            }
            // clone-then-diverge: the clone keeps this state whatever the
            // original goes on to do (and the other way round).
            _ => {
                held.push((relation.clone(), model.clone()));
                if held.len() > 4 {
                    // Write to the oldest clone too: divergence both ways.
                    let (mut old, mut old_model) = held.remove(0);
                    let t = key(&probe, cursor.key_index());
                    old.insert(t.clone(), K::positive(3));
                    model_add(&mut old_model, t, K::positive(3));
                    assert_is(&old, &old_model, &probe);
                }
            }
        }
        assert_is(&relation, &model, &probe);
    }
    for (clone, at) in &held {
        assert_is(clone, at, &probe);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn integer_relations_behave_like_the_map(
        initial in 0u16..700,
        script in prop::collection::vec(0u8..=255, 40..400),
    ) {
        run_script::<Integers>(initial, &script);
    }

    #[test]
    fn polynomial_relations_behave_like_the_map(
        initial in 0u16..400,
        script in prop::collection::vec(0u8..=255, 40..240),
    ) {
        run_script::<ProvenancePolynomial>(initial, &script);
    }
}

/// A pseudo-random but fixed sequence (no seed to forget).
fn scramble(i: u32) -> u32 {
    i.wrapping_mul(2_654_435_761).rotate_left(13) ^ 0x9e37_79b9
}

/// Snapshots taken along 1 000 writes — through leaf and inner splits on the
/// way up, merges on the way down — each still equal the state they were
/// taken at, and stay structurally sound.
#[test]
fn held_clones_survive_a_thousand_writes() {
    let schema = Schema::new(["n"]);
    let t = |n: u32| Tuple::from_values(&schema, [Value::int(i64::from(n))]);
    let mut model: Model<Integers> = (0..30_000).map(|n| (t(n * 2), Integers::new(1))).collect();
    let mut relation =
        KRelation::from_sorted_support(schema.clone(), model.iter().map(|(t, k)| (t.clone(), *k)));
    let mut held = Vec::new();
    for round in 0..4u32 {
        // Each clone shares the form; the writes below drop the original's.
        relation.batches();
        held.push((relation.clone(), model.clone()));
        for i in 0..250 {
            // Two rounds grow the relation (odd keys are new), two shrink it
            // (even keys cancel): nodes split, then merge.
            let n = scramble(round * 250 + i) % 30_000;
            let (tuple, k) = if round < 2 {
                (t(n * 2 + 1), Integers::new(2))
            } else {
                (t(n * 2), Integers::new(-1))
            };
            if round >= 2 && !model.contains_key(&tuple) {
                continue;
            }
            relation.insert(tuple.clone(), k);
            model_add(&mut model, tuple, k);
        }
        relation.check_invariants();
    }
    // Then empty it entirely, which collapses every level.
    for tuple in model.keys().cloned().collect::<Vec<_>>() {
        relation.set(tuple, Integers::zero());
    }
    assert!(relation.is_empty());
    assert_eq!(relation.check_invariants().height, 1);
    for (clone, at) in &held {
        assert!(
            clone.held_batches().is_some(),
            "a write reached a clone's form"
        );
        clone.check_invariants();
        assert!(clone.iter().eq(at.iter()));
        assert_eq!(clone.len(), at.len());
    }
    // The first clone shares nothing with the emptied relation, the clones
    // share most of their nodes with each other.
    let (first, _) = &held[0];
    let (second, _) = &held[1];
    assert!(first.entries_not_shared_with(&relation) >= first.len());
    assert!(second.entries_not_shared_with(first) < second.len());
    assert_eq!(first.entries_not_shared_with(first), 0);
}

/// Every non-root node keeps at least a quarter of [`NODE_CAPACITY`], so a
/// relation of `len` entries has at most `4 · len / NODE_CAPACITY` leaves
/// and, with the inner levels above them, at most this many nodes.
fn node_bound(len: usize, height: usize) -> usize {
    5 * len / NODE_CAPACITY + height
}

fn assert_compact(relation: &KRelation<Integers>, what: &str) {
    let shape = relation.check_invariants();
    assert!(
        shape.nodes <= node_bound(relation.len(), shape.height),
        "{what}: {} nodes for {} entries (height {})",
        shape.nodes,
        relation.len(),
        shape.height
    );
}

/// The write patterns a scripted service issues — keys arriving in order,
/// in reverse order, and insert-then-cancel churn around one spot — must
/// not leave a trail of nearly empty nodes.
#[test]
fn ordered_and_hot_spot_churn_keeps_nodes_filled() {
    let schema = Schema::new(["n"]);
    let t = |n: i64| Tuple::from_values(&schema, [Value::int(n)]);
    let one = Integers::new(1);
    let minus_one = Integers::new(-1);

    let mut relation = KRelation::empty(schema.clone());
    for n in 0..20_000 {
        relation.insert(t(n), one);
    }
    assert_compact(&relation, "ascending inserts");
    for n in (0..20_000).rev().step_by(2) {
        relation.insert(t(n), minus_one);
    }
    assert_compact(&relation, "every other key deleted, descending");
    for n in 0..19_000 {
        relation.insert(t(n), if n % 2 == 0 { minus_one } else { one });
    }
    assert_compact(
        &relation,
        "ascending sweep deleting even keys, inserting odd ones",
    );
    assert_eq!(relation.len(), 500 + 9_500);

    let mut relation = KRelation::empty(schema.clone());
    for n in (0..20_000).rev() {
        relation.insert(t(n), one);
    }
    assert_compact(&relation, "descending inserts");
    for n in (0..20_000).filter(|n| n % 10 != 0) {
        relation.insert(t(n), minus_one);
    }
    assert_compact(&relation, "nine in ten deleted, ascending");
    for n in (0..20_000).filter(|n| n % 10 != 0) {
        relation.insert(t(n), one);
    }

    // One hot leaf: the same few keys inserted and cancelled, over and over,
    // in a relation otherwise at rest. The node count must not creep.
    let nodes_before = relation.check_invariants().nodes;
    for round in 0..5_000i64 {
        let n = 10_000 + (round * 7) % 90;
        relation.insert(t(n), one);
        relation.insert(t(n), minus_one);
        relation.insert(t(n), minus_one); // now absent
        if round % 3 == 0 {
            relation.insert(t(n), one); // and back
        }
    }
    assert_compact(&relation, "single-hot-leaf churn");
    let nodes_after = relation.check_invariants().nodes;
    assert!(
        nodes_after <= nodes_before + 2,
        "hot-leaf churn grew the tree from {nodes_before} to {nodes_after} nodes"
    );
}
