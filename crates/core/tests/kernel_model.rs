//! The grouping and join kernels against the loops they replace.
//!
//! `group_batches` and `join_batches` choose, per batch, between a per-row
//! pass through the flat key table and the code-domain path (one table probe
//! per distinct tuple of dictionary codes; see `core::column`). Through the
//! public kernel surface the choice must be invisible: for every key
//! representation — integer columns, strings under one dictionary, strings
//! under several dictionaries with overlapping contents (what a
//! commit-patched scan looks like), mixed-type `Val` columns, a string column
//! past `DICT_MAX`, keys of zero to three columns, keys of two and three
//! dictionary columns whose code grid the rows do or do not cover — and
//! every mixture of them within one call, with
//! selection vectors, batches without live rows and a one-row batch under a
//! 10⁴-entry dictionary, the kernels must produce what a `BTreeMap` loop
//! over the live rows produces:
//!
//! * grouping: the same groups with the same sums, `reps` in
//!   **first-occurrence stream order** and pointing at the first row of each
//!   group;
//! * join: the same pairs with the same products, in **probe-major,
//!   build-stream-minor order**, one output batch per probe batch that
//!   matched.
//!
//! The orders are asserted because `columnar_differential` and the partition
//! merge rely on them without saying so. Annotations are ℤ with cancelling
//! counts and ℕ\[X\].
//!
//! Run in CI in release mode under `PROVSEM_THREADS=1` and `=4` beside the
//! columnar differential step (the kernels themselves never read the
//! variable; the step keeps this suite in the same sweep as its clients).

use provsem_core::kernels::{
    group_batches, join_batches, Batch, ColSource, Column, Value, DICT_MAX,
};
use provsem_semiring::ring::Integers;
use provsem_semiring::{Natural, ProvenancePolynomial, Semiring};
use std::collections::BTreeMap;

/// A SplitMix64 stream: the scripts must repeat exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What a script needs from an annotation type.
trait Annotations: Semiring {
    /// A non-zero annotation; for ℤ, of either sign, so groups cancel.
    fn draw(rng: &mut Rng) -> Self;
}

impl Annotations for Integers {
    fn draw(rng: &mut Rng) -> Self {
        Integers::new([1, -1, 2, -2][rng.below(4) as usize])
    }
}

impl Annotations for ProvenancePolynomial {
    fn draw(rng: &mut Rng) -> Self {
        ProvenancePolynomial::var(format!("x{}", rng.below(5))).times(
            &ProvenancePolynomial::constant(Natural::from(1 + rng.below(2))),
        )
    }
}

/// How the values of one column are drawn; the column's representation
/// follows from its contents.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Integers only: `Column::I64`.
    Ints,
    /// Strings only: `Column::Str`.
    Strs,
    /// Both: `Column::Val`.
    Mixed,
}

fn draw_value(kind: Kind, distinct: u64, rng: &mut Rng) -> Value {
    let n = rng.below(distinct) as i64;
    match kind {
        Kind::Ints => Value::int(n - 3),
        Kind::Strs => Value::str(format!("s{n}")),
        // The integer 1 and the string "1" are different keys.
        Kind::Mixed if rng.below(2) == 0 => Value::int(n),
        Kind::Mixed => Value::str(format!("{n}")),
    }
}

type Row<K> = (Vec<Value>, K);

/// One batch as the model sees it (its live rows, in order) next to the
/// batch the kernel gets.
struct Input<K> {
    live: Vec<Vec<Row<K>>>,
    batches: Vec<Batch<K>>,
}

/// Builds batches of the given live-row counts over columns of the given
/// kinds. Every batch also carries dead rows behind a selection vector (one
/// batch in three keeps every row and gets no vector at all). With `shared`
/// all batches are cut from one conversion, so their string columns share one
/// dictionary; otherwise each batch interns its own.
fn generate<K: Annotations>(
    kinds: &[Kind],
    distinct: u64,
    live_rows: &[usize],
    shared: bool,
    rng: &mut Rng,
) -> Input<K> {
    let mut physical: Vec<Vec<(Row<K>, bool)>> = Vec::new();
    for (b, &live) in live_rows.iter().enumerate() {
        let dead = if b % 3 == 0 { 0 } else { 1 + live / 2 };
        let mut rows: Vec<(Row<K>, bool)> = (0..live + dead)
            .map(|i| {
                let values = kinds
                    .iter()
                    .map(|&k| draw_value(k, distinct, rng))
                    .collect();
                ((values, K::draw(rng)), i < live)
            })
            .collect();
        // Scatter the dead rows among the live ones.
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.below(i as u64 + 1) as usize);
        }
        physical.push(rows);
    }
    let to_batch = |rows: &[(Row<K>, bool)]| {
        Batch::from_rows(
            kinds.len(),
            rows.iter()
                .map(|((values, k), _)| (values.clone().into_boxed_slice(), k.clone()))
                .collect(),
        )
    };
    let mut batches: Vec<Batch<K>> = if shared {
        let all: Vec<(Row<K>, bool)> = physical.iter().flatten().cloned().collect();
        let whole = to_batch(&all);
        let mut start = 0u32;
        physical
            .iter()
            .map(|rows| {
                let range: Vec<u32> = (start..start + rows.len() as u32).collect();
                start += rows.len() as u32;
                Batch::new(
                    rows.len(),
                    whole.columns().iter().map(|c| c.gather(&range)).collect(),
                    rows.iter().map(|((_, k), _)| k.clone()).collect(),
                )
            })
            .collect()
    } else {
        physical.iter().map(|rows| to_batch(rows)).collect()
    };
    for (batch, rows) in batches.iter_mut().zip(&physical) {
        if rows.iter().any(|(_, alive)| !alive) {
            let mask: Vec<bool> = rows.iter().map(|(_, alive)| *alive).collect();
            batch.refine(&mask);
        }
    }
    let live = physical
        .into_iter()
        .map(|rows| {
            rows.into_iter()
                .filter(|(_, alive)| *alive)
                .map(|(row, _)| row)
                .collect()
        })
        .collect();
    Input { live, batches }
}

fn key_of(values: &[Value], keys: &[usize]) -> Vec<Value> {
    keys.iter().map(|&k| values[k].clone()).collect()
}

/// `group_batches` against a `BTreeMap` loop: groups, sums, `reps`.
fn check_group<K: Annotations>(input: Input<K>, keys: &[usize], what: &str) {
    // key → (position among the groups, first row, sum).
    let mut model: BTreeMap<Vec<Value>, (usize, (u32, u32), K)> = BTreeMap::new();
    for (b, rows) in input.live.iter().enumerate() {
        for (r, (values, k)) in rows.iter().enumerate() {
            let next = model.len();
            model
                .entry(key_of(values, keys))
                .and_modify(|(_, _, sum)| sum.plus_assign(k))
                .or_insert((next, (b as u32, r as u32), k.clone()));
        }
    }
    let mut by_position: Vec<_> = model.into_iter().collect();
    by_position.sort_by_key(|(_, (position, _, _))| *position);
    let expected: Vec<(Vec<Value>, (u32, u32), K)> = by_position
        .into_iter()
        .map(|(key, (_, first, sum))| (key, first, sum))
        .collect();

    let arity = input.batches.first().map_or(0, |b| b.columns().len());
    let grouped = group_batches(input.batches.clone(), keys);
    assert_eq!(grouped.reps.len(), expected.len(), "{what}: group count");
    for (g, (key, first, sum)) in expected.iter().enumerate() {
        assert_eq!(grouped.reps[g], *first, "{what}: rep of group {g}");
        let (b, r) = grouped.reps[g];
        let at_rep: Vec<Value> = keys
            .iter()
            .map(|&k| grouped.sources[b as usize][k].value_at(r))
            .collect();
        assert_eq!(at_rep, *key, "{what}: key at the rep of group {g}");
        assert_eq!(grouped.anns[g], *sum, "{what}: sum of group {g}");
    }
    // The emitted batch: zero sums dropped, order kept, key columns intact.
    let emitted: Vec<(Vec<Value>, K)> = grouped
        .into_batch(arity)
        .into_rows()
        .into_iter()
        .map(|(values, k)| (key_of(&values, keys), k))
        .collect();
    let surviving: Vec<(Vec<Value>, K)> = expected
        .into_iter()
        .filter(|(_, _, sum)| !sum.is_zero())
        .map(|(key, _, sum)| (key, sum))
        .collect();
    assert_eq!(emitted, surviving, "{what}: emitted groups");
}

/// `join_batches` against nested loops: rows, products, order, batching.
fn check_join<K: Annotations>(
    build: Input<K>,
    probe: Input<K>,
    build_keys: &[usize],
    probe_keys: &[usize],
    what: &str,
) {
    let build_arity = build.batches.first().map_or(0, |b| b.columns().len());
    let probe_arity = probe.batches.first().map_or(0, |b| b.columns().len());
    // Build columns last to first, then the probe columns: not the identity.
    let output: Vec<ColSource> = (0..build_arity)
        .rev()
        .map(ColSource::Build)
        .chain((0..probe_arity).map(ColSource::Probe))
        .collect();
    for swapped in [false, true] {
        let mut expected: Vec<Vec<Row<K>>> = Vec::new();
        for prows in &probe.live {
            let mut out: Vec<Row<K>> = Vec::new();
            for (pvalues, pk) in prows {
                for (bvalues, bk) in build.live.iter().flatten() {
                    if key_of(pvalues, probe_keys) != key_of(bvalues, build_keys) {
                        continue;
                    }
                    let values = output
                        .iter()
                        .map(|src| match src {
                            ColSource::Build(i) => bvalues[*i].clone(),
                            ColSource::Probe(i) => pvalues[*i].clone(),
                        })
                        .collect();
                    let k = if swapped { pk.times(bk) } else { bk.times(pk) };
                    out.push((values, k));
                }
            }
            if !out.is_empty() {
                expected.push(out);
            }
        }
        let joined: Vec<Vec<Row<K>>> = join_batches(
            build.batches.clone(),
            probe.batches.clone(),
            build_keys,
            probe_keys,
            &output,
            swapped,
        )
        .into_iter()
        .map(|batch| {
            batch
                .into_rows()
                .into_iter()
                .map(|(values, k)| (values.into_vec(), k))
                .collect()
        })
        .collect();
        assert_eq!(joined, expected, "{what}, swapped {swapped}");
    }
}

/// Concatenates inputs into one call's batch list.
fn chain<K>(parts: Vec<Input<K>>) -> Input<K> {
    let mut out = Input {
        live: Vec::new(),
        batches: Vec::new(),
    };
    for part in parts {
        out.live.extend(part.live);
        out.batches.extend(part.batches);
    }
    out
}

/// Every representation of a one-column key on its own, then all of them in
/// one call — the mixture is what a patched scan or a union hands a kernel.
fn one_column_inputs<K: Annotations>(rng: &mut Rng) -> Vec<(&'static str, Input<K>)> {
    let sizes = [40, 0, 7, 1, 25];
    let mut mixture = Vec::new();
    let mut out = Vec::new();
    for (name, kind, shared) in [
        ("i64", Kind::Ints, false),
        ("one dictionary", Kind::Strs, true),
        ("several dictionaries", Kind::Strs, false),
        ("mixed-type", Kind::Mixed, false),
    ] {
        out.push((name, generate(&[kind, Kind::Ints], 9, &sizes, shared, rng)));
        mixture.push(generate(&[kind, Kind::Ints], 9, &sizes, shared, rng));
    }
    // Twice the shared-dictionary run, apart: the memo is dropped and rebuilt.
    mixture.push(generate(&[Kind::Strs, Kind::Ints], 9, &sizes, true, rng));
    out.push(("every representation in one call", chain(mixture)));
    out
}

fn grouping_matches_the_model<K: Annotations>(seed: u64) {
    let mut rng = Rng(seed);
    for (name, input) in one_column_inputs::<K>(&mut rng) {
        check_group(input, &[0], name);
    }
    for kinds in [
        [Kind::Strs, Kind::Ints, Kind::Strs],
        [Kind::Mixed, Kind::Strs, Kind::Ints],
        // Every key a dictionary column: 16- and 64-cell code grids, covered
        // by a shared run's 72 rows, by one batch's 30 only for two keys.
        [Kind::Strs, Kind::Strs, Kind::Strs],
    ] {
        for shared in [false, true] {
            let sizes = [30, 12, 0, 30];
            let what = format!("{kinds:?}, shared {shared}");
            for keys in [&[][..], &[2], &[1, 0], &[0, 1, 2], &[2, 0, 1]] {
                let input = generate::<K>(&kinds, 4, &sizes, shared, &mut rng);
                check_group(input, keys, &format!("{what}, keys {keys:?}"));
            }
        }
    }
    // No batches at all, and batches with nothing alive.
    check_group(
        generate::<K>(&[Kind::Strs], 3, &[], false, &mut rng),
        &[0],
        "no batches",
    );
    check_group(
        generate::<K>(&[Kind::Strs], 3, &[0, 0], true, &mut rng),
        &[0],
        "no rows",
    );
}

#[test]
fn grouping_matches_the_model_over_integers_with_cancelling_counts() {
    for seed in 1..=6 {
        grouping_matches_the_model::<Integers>(seed);
    }
}

#[test]
fn grouping_matches_the_model_over_provenance_polynomials() {
    for seed in 11..=13 {
        grouping_matches_the_model::<ProvenancePolynomial>(seed);
    }
}

fn joins_match_the_model<K: Annotations>(seed: u64) {
    let mut rng = Rng(seed);
    // One-column keys: every build representation against every probe one.
    let builds = one_column_inputs::<K>(&mut rng);
    for (bname, build) in &builds {
        for (pname, probe) in one_column_inputs::<K>(&mut rng) {
            let build = Input {
                live: build.live.clone(),
                batches: build.batches.clone(),
            };
            check_join(build, probe, &[0], &[0], &format!("{bname} ⋈ {pname}"));
        }
    }
    // Build and probe cut from one conversion: a self-join's shared dictionary.
    let both = generate::<K>(
        &[Kind::Strs, Kind::Ints],
        6,
        &[20, 20, 5, 20],
        true,
        &mut rng,
    );
    let (mut build, mut probe) = (chain(vec![]), chain(vec![]));
    for (i, (live, batch)) in both.live.into_iter().zip(both.batches).enumerate() {
        let side = if i < 2 { &mut build } else { &mut probe };
        side.live.push(live);
        side.batches.push(batch);
    }
    check_join(build, probe, &[0], &[0], "one dictionary on both sides");
    // Wider keys, keys in different positions on the two sides, and the
    // cross product of zero key columns.
    let kinds = [Kind::Strs, Kind::Ints, Kind::Mixed];
    for shared in [false, true] {
        for (build_keys, probe_keys) in [
            (&[][..], &[][..]),
            (&[1], &[1]),
            (&[0, 1], &[0, 1]),
            (&[2, 0], &[2, 0]),
            (&[0, 1, 2], &[0, 1, 2]),
        ] {
            let build = generate::<K>(&kinds, 3, &[9, 0, 14], shared, &mut rng);
            let probe = generate::<K>(&kinds, 3, &[11, 6, 0, 8], shared, &mut rng);
            let what = format!("keys {build_keys:?}, shared {shared}");
            check_join(build, probe, build_keys, probe_keys, &what);
        }
    }
    // Two-column dictionary keys (a 9-cell code grid), in either order on
    // the probe side, and beside an integer column.
    let kinds = [Kind::Strs, Kind::Strs, Kind::Ints];
    for shared in [false, true] {
        for (build_keys, probe_keys) in [(&[0, 1][..], &[0, 1][..]), (&[0, 1], &[1, 0])] {
            let build = generate::<K>(&kinds, 3, &[9, 0, 14], shared, &mut rng);
            let probe = generate::<K>(&kinds, 3, &[11, 6, 0, 8], shared, &mut rng);
            let what = format!("dictionary keys {build_keys:?}/{probe_keys:?}, shared {shared}");
            check_join(build, probe, build_keys, probe_keys, &what);
        }
    }
    let some = |rng: &mut Rng| generate::<K>(&[Kind::Strs], 3, &[5], false, rng);
    let none = |rng: &mut Rng| generate::<K>(&[Kind::Strs], 3, &[0], false, rng);
    check_join(none(&mut rng), some(&mut rng), &[0], &[0], "empty build");
    check_join(some(&mut rng), none(&mut rng), &[0], &[0], "empty probe");
}

#[test]
fn joins_match_the_model_over_integers() {
    for seed in 21..=24 {
        joins_match_the_model::<Integers>(seed);
    }
}

#[test]
fn joins_match_the_model_over_provenance_polynomials() {
    joins_match_the_model::<ProvenancePolynomial>(31);
}

/// The rows of `whole` at `rows`, as a batch of their own under `whole`'s
/// dictionaries.
fn cut(whole: &Batch<Integers>, rows: &[u32]) -> Batch<Integers> {
    Batch::new(
        rows.len(),
        whole.columns().iter().map(|c| c.gather(rows)).collect(),
        rows.iter().map(|&r| whole.anns()[r as usize]).collect(),
    )
}

fn live_of(batch: &Batch<Integers>) -> Vec<Row<Integers>> {
    batch
        .clone()
        .into_rows()
        .into_iter()
        .map(|(values, k)| (values.into_vec(), k))
        .collect()
}

fn input_of(batches: Vec<Batch<Integers>>) -> Input<Integers> {
    Input {
        live: batches.iter().map(live_of).collect(),
        batches,
    }
}

/// A one-row batch under a 10⁴-entry dictionary must not pay for the
/// dictionary — and must land in the right group whichever path it takes:
/// alone (fewer rows than codes: the table), after the full scan that shares
/// its dictionary (one run: the memo), and between batches of another
/// dictionary (the memo dropped and rebuilt around it).
#[test]
fn a_one_row_batch_under_a_ten_thousand_entry_dictionary() {
    let strings = 10_000i64;
    let whole = Batch::from_rows(
        2,
        (0..strings)
            .map(|n| {
                let row = vec![Value::str(format!("w{n}")), Value::int(n % 5)];
                (row.into_boxed_slice(), Integers::new(1))
            })
            .collect(),
    );
    assert!(matches!(&whole.columns()[0], Column::Str { .. }));
    let everything: Vec<u32> = (0..strings as u32).collect();
    let one = |row: u32| cut(&whole, &[row]);
    // The same strings under a dictionary of their own, negated: cancels.
    let other = Batch::from_rows(
        2,
        [4_321i64, 77, 9_999]
            .into_iter()
            .map(|n| {
                let row = vec![Value::str(format!("w{n}")), Value::int(n % 5)];
                (row.into_boxed_slice(), Integers::new(-1))
            })
            .collect(),
    );
    for (what, batches) in [
        ("alone", vec![one(4_321)]),
        ("after its scan", vec![cut(&whole, &everything), one(4_321)]),
        ("before its scan", vec![one(77), cut(&whole, &everything)]),
        (
            "between other dictionaries",
            vec![
                other.clone(),
                one(9_999),
                other.clone(),
                cut(&whole, &everything),
            ],
        ),
    ] {
        check_group(input_of(batches.clone()), &[0], what);
        check_group(input_of(batches.clone()), &[0, 1], what);
        check_join(
            input_of(vec![other.clone(), one(77)]),
            input_of(batches.clone()),
            &[0],
            &[0],
            what,
        );
        check_join(
            input_of(batches),
            input_of(vec![one(9_999), other.clone()]),
            &[0],
            &[0],
            what,
        );
    }
}

/// Past `DICT_MAX` distinct strings a column degrades to plain values; its
/// rows must still meet the rows of dictionary batches holding equal strings.
#[test]
fn a_string_column_past_the_dictionary_budget() {
    let distinct = DICT_MAX as i64 + 10;
    let overflowed = Batch::from_rows(
        1,
        (0..distinct + 500)
            .map(|n| {
                let row = vec![Value::str(format!("w{}", n % distinct))];
                (row.into_boxed_slice(), Integers::new(1 + n % 2))
            })
            .collect(),
    );
    assert!(matches!(&overflowed.columns()[0], Column::Val(_)));
    let small = Batch::from_rows(
        1,
        [3i64, 65_540, 3, 70_000_000]
            .into_iter()
            .map(|n| {
                let row = vec![Value::str(format!("w{n}"))];
                (row.into_boxed_slice(), Integers::new(-1))
            })
            .collect(),
    );
    assert!(matches!(&small.columns()[0], Column::Str { .. }));

    let mixed = vec![small.clone(), overflowed.clone(), small.clone()];
    let grouped = group_batches(mixed.clone(), &[0]);
    assert_eq!(grouped.reps.len(), distinct as usize + 1);
    assert_eq!(&grouped.reps[..4], &[(0, 0), (0, 1), (0, 3), (1, 0)]);
    check_group(input_of(mixed), &[0], "dictionary, overflow, dictionary");
    let what = "overflowed build, dictionary probe";
    check_join(
        input_of(vec![overflowed.clone()]),
        input_of(vec![small.clone()]),
        &[0],
        &[0],
        what,
    );
    let what = "dictionary build, overflowed probe";
    check_join(
        input_of(vec![small]),
        input_of(vec![overflowed]),
        &[0],
        &[0],
        what,
    );
}
