//! `Tuple` against the model it replaced: a `BTreeMap<Attribute, Value>`.
//!
//! The compact representation (one schema handle, one boxed value slice) must
//! be indistinguishable through the public API: same fields, same `Ord` —
//! which is what keeps every `BTreeMap<Tuple, K>` in its old iteration order,
//! across *different* schemas too — same `Eq`, a `Hash` consistent with it,
//! and the same `rename` / `merge` / `restrict` / lookups, whichever
//! constructor built the tuple and whether or not two tuples share a handle.

use proptest::prelude::*;
use provsem_core::prelude::{Attribute, Renaming, Schema, Tuple, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

type Model = BTreeMap<Attribute, Value>;

/// Names chosen so that prefixes and sort order matter (`a` < `ab` < `b`).
const ATTRS: [&str; 5] = ["a", "ab", "b", "c", "z"];

fn attr(i: u8) -> Attribute {
    Attribute::new(ATTRS[i as usize % ATTRS.len()])
}

/// Strings sort before integers in `Value`'s order; include the empty string.
fn value(i: u8) -> Value {
    match i % 6 {
        0 => Value::str(""),
        1 => Value::str("x"),
        2 => Value::str("xy"),
        3 => Value::int(-1),
        4 => Value::int(0),
        _ => Value::int(7),
    }
}

/// `(attribute, value)` picks: unsorted, duplicates allowed, possibly none.
fn arb_pairs() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..5, 0u8..6), 0..7)
}

fn named(pairs: &[(u8, u8)]) -> Vec<(Attribute, Value)> {
    pairs.iter().map(|&(a, v)| (attr(a), value(v))).collect()
}

fn model_of(pairs: &[(u8, u8)]) -> Model {
    named(pairs).into_iter().collect()
}

fn fields_of(tuple: &Tuple) -> Vec<(Attribute, Value)> {
    tuple
        .fields()
        .map(|(a, v)| (a.clone(), v.clone()))
        .collect()
}

fn assert_is(tuple: &Tuple, model: &Model) {
    let expected: Vec<(Attribute, Value)> =
        model.iter().map(|(a, v)| (a.clone(), v.clone())).collect();
    assert_eq!(fields_of(tuple), expected);
    assert_eq!(tuple.arity(), model.len());
    assert_eq!(tuple.schema(), Schema::new(model.keys().cloned()));
    assert_eq!(
        tuple.values().cloned().collect::<Vec<_>>(),
        model.values().cloned().collect::<Vec<_>>()
    );
    for name in ATTRS {
        let a = Attribute::new(name);
        assert_eq!(tuple.get(&a), model.get(&a));
        assert_eq!(tuple.get_named(name), model.get(&a));
    }
    assert_eq!(tuple.get_named("nope"), None);
}

fn hash_of(tuple: &Tuple) -> u64 {
    let mut hasher = DefaultHasher::new();
    tuple.hash(&mut hasher);
    hasher.finish()
}

/// The same tuple built the other way: from a schema handle of its own and
/// positional values, so it shares no allocation with `Tuple::new`'s result.
fn rebuilt(model: &Model) -> Tuple {
    let schema = Schema::new(model.keys().cloned());
    Tuple::from_values(&schema, model.values().cloned())
}

fn assert_relate_as(t1: &Tuple, t2: &Tuple, m1: &Model, m2: &Model) {
    assert_eq!(t1.cmp(t2), m1.cmp(m2), "{t1:?} vs {t2:?}");
    assert_eq!(t1.partial_cmp(t2), Some(m1.cmp(m2)));
    assert_eq!(t1 == t2, m1 == m2, "{t1:?} vs {t2:?}");
    if m1 == m2 {
        assert_eq!(hash_of(t1), hash_of(t2), "{t1:?} vs {t2:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Tuple::new` from unsorted pairs with repeats is the map those pairs
    /// collect to (a repeated attribute keeps its last value).
    #[test]
    fn new_collects_like_a_map(pairs in arb_pairs()) {
        let model = model_of(&pairs);
        assert_is(&Tuple::new(named(&pairs)), &model);
        assert_is(&rebuilt(&model), &model);
    }

    /// Order, equality and hashing agree with the model for tuples over any
    /// two schemas, however each was built.
    #[test]
    fn ord_eq_hash_agree_across_schemas(p1 in arb_pairs(), p2 in arb_pairs()) {
        let (m1, m2) = (model_of(&p1), model_of(&p2));
        let (t1, t2) = (Tuple::new(named(&p1)), Tuple::new(named(&p2)));
        assert_relate_as(&t1, &t2, &m1, &m2);
        assert_relate_as(&t2, &t1, &m2, &m1);
        // Equal content under distinct handles, and against itself.
        assert_relate_as(&t1, &rebuilt(&m1), &m1, &m1);
        assert_relate_as(&rebuilt(&m1), &t2, &m1, &m2);
        assert_relate_as(&t1, &t1.clone(), &m1, &m1);
    }

    /// Tuples sharing one schema *handle* (the stored-in-a-relation case,
    /// compared without looking at names) order as their models do.
    #[test]
    fn same_handle_tuples_order_by_values(
        attrs in prop::collection::vec(0u8..5, 0..5),
        v1 in prop::collection::vec(0u8..6, 5..6),
        v2 in prop::collection::vec(0u8..6, 5..6),
    ) {
        let schema = Schema::new(attrs.iter().map(|&a| attr(a)));
        let build = |picks: &[u8]| {
            let values: Vec<Value> = picks[..schema.arity()].iter().map(|&v| value(v)).collect();
            let model: Model = schema.attributes().iter().cloned().zip(values.clone()).collect();
            (Tuple::from_values(&schema, values), model)
        };
        let ((t1, m1), (t2, m2)) = (build(&v1), build(&v2));
        assert_is(&t1, &m1);
        assert_relate_as(&t1, &t2, &m1, &m2);
    }

    /// A `BTreeMap` keyed by tuples of mixed schemas iterates in the order
    /// the map keyed by their models does.
    #[test]
    fn tuple_keyed_maps_keep_their_order(all in prop::collection::vec(arb_pairs(), 0..12)) {
        let by_tuple: BTreeMap<Tuple, ()> =
            all.iter().map(|p| (Tuple::new(named(p)), ())).collect();
        let by_model: BTreeMap<Model, ()> = all.iter().map(|p| (model_of(p), ())).collect();
        prop_assert_eq!(by_tuple.len(), by_model.len());
        for (tuple, model) in by_tuple.keys().zip(by_model.keys()) {
            assert_is(tuple, model);
        }
    }

    /// Renaming relabels like re-collecting the relabelled pairs: attributes
    /// may swap places, and a non-injective renaming keeps the last value.
    #[test]
    fn rename_matches_the_model(pairs in arb_pairs(), mapping in prop::collection::vec((0u8..5, 0u8..5), 0..4)) {
        let renaming = Renaming::new(mapping.iter().map(|&(from, to)| (attr(from), attr(to))));
        let model = model_of(&pairs);
        let expected: Model = model.iter().map(|(a, v)| (renaming.apply(a), v.clone())).collect();
        assert_is(&Tuple::new(named(&pairs)).rename(&renaming), &expected);
        assert_is(&rebuilt(&model).rename(&renaming), &expected);
    }

    /// Compatibility, merge and restriction match the model.
    #[test]
    fn merge_and_restrict_match_the_model(
        p1 in arb_pairs(),
        p2 in arb_pairs(),
        onto in prop::collection::vec(0u8..5, 0..5),
    ) {
        let (m1, m2) = (model_of(&p1), model_of(&p2));
        let (t1, t2) = (Tuple::new(named(&p1)), Tuple::new(named(&p2)));
        let compatible = m1.iter().all(|(a, v)| m2.get(a).is_none_or(|w| v == w));
        prop_assert_eq!(t1.compatible_with(&t2), compatible);
        match t1.merge(&t2) {
            Some(merged) => {
                prop_assert!(compatible);
                let mut union = m1.clone();
                union.extend(m2.clone());
                assert_is(&merged, &union);
            }
            None => prop_assert!(!compatible),
        }
        let schema = Schema::new(onto.iter().map(|&a| attr(a)));
        let kept: Model = m1
            .iter()
            .filter(|(a, _)| schema.contains(a))
            .map(|(a, v)| (a.clone(), v.clone()))
            .collect();
        assert_is(&t1.restrict(&schema), &kept);
        assert_is(&t1.restrict(&t1.schema()), &m1);
    }
}

#[test]
fn the_empty_tuple_is_one_value_however_built() {
    let none: [(&str, &str); 0] = [];
    let empties = [
        Tuple::empty(),
        Tuple::default(),
        Tuple::new(none),
        Tuple::from_values(&Schema::empty(), Vec::<Value>::new()),
        Tuple::new([("a", "1")]).restrict(&Schema::empty()),
    ];
    for t in &empties {
        assert_is(t, &Model::new());
        assert_eq!(t, &empties[0]);
        assert_eq!(hash_of(t), hash_of(&empties[0]));
        assert_eq!(t.merge(&empties[0]).as_ref(), Some(&empties[0]));
        // The empty tuple sorts before every other tuple, as the empty map does.
        assert!(t < &Tuple::new([("a", "")]));
    }
}
