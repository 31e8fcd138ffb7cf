//! Incremental view maintenance over the positional physical operators,
//! with **columnar retained state**: the maintained side of every hash join
//! lives in the same typed, dictionary-encoded column representation the
//! batch executor scans ([`crate::column`]), and deltas flow through the
//! operator tree as [`Batch`]es driven by the columnar kernels.
//!
//! A [`MaterializedView`] is a plan's output [`KRelation`] plus the retained
//! per-operator state needed to absorb changes without re-executing: every
//! hash join keeps both of its sides as a [`JoinSide`] — append-only
//! [`ColBuilder`] columns, a parallel net-annotation column, and a content-
//! hash index from join key to stored row ids. Changes arrive as a
//! [`DeltaBatch`] — per-relation K-relations of *signed* annotation deltas
//! (`new = old + Δ`), so over a [`Ring`](provsem_semiring::ring::Ring) such
//! as ℤ a deletion is just an insertion of `-k` — and propagate through the
//! operator tree by the classic delta rules:
//!
//! | operator      | delta rule | kernel |
//! |---------------|------------|--------|
//! | σ_P(R)        | `Δ = σ_P(ΔR)` | selection-vector kernel ([`filter_batch`]) |
//! | π_U(R)        | `Δ = π_U(ΔR)` | column-list permutation |
//! | ρ_β(R)        | `Δ = ρ_β(ΔR)` | column-list permutation |
//! | R ∪ S         | `Δ = ΔR ∪ ΔS` | batch concatenation |
//! | Σ-aggregate   | `Δ = agg(ΔR)` | whole-row [`group_batches`] |
//! | R ⋈ S         | `Δ = ΔR ⋈ S ∪ R ⋈ ΔS ∪ ΔR ⋈ ΔS` | hash probe of the retained sides |
//!
//! every rule is *linear* in the annotations (a consequence of Definition
//! 3.2's semiring algebra: `+` distributes through each operator), so the
//! propagated delta is exact — [`Plan::maintain`] leaves the view equal to
//! re-executing the plan against the updated base, annotation-for-annotation.
//! The join rule is evaluated in two passes to avoid the three-way product:
//! `ΔB ⋈ P_old`, then (after folding `ΔB` into the retained build side)
//! `B_new ⋈ ΔP`, which expands to exactly the three terms above. A deletion
//! that nets a stored row's annotation to zero leaves a tombstone: the row
//! keeps its slot (columns are append-only) but drops out of the probe
//! support until a later delta revives it.
//!
//! The work done per batch is proportional to |Δ| (and the fan-out it
//! touches), never to |base| — the `fig_ivm_maintenance` bench group pins
//! this. Initial materialization, like a query, reads each scanned
//! relation version's columnar form, so registering a view over relations
//! already scanned skips columnarization; a delta relation is converted
//! once however many views (and the commit's patch) read it.
//!
//! Maintenance runs serially on the caller's thread and takes no
//! [`ExecContext`](crate::plan::ExecContext): deltas are small by contract,
//! and a serial pass over columnar state has no merge order to
//! canonicalize, so the view (result *and* retained state) does not depend
//! on the thread budget the base was executed with.

use crate::column::{group_batches, hash_combine, Batch, ColBuilder, HASH_SEED};
use crate::database::Database;
use crate::plan::batch::filter_batch;
use crate::plan::physical::{scan_batches, scan_relation, ColSource, CompiledPredicate, PhysOp};
use crate::plan::{Plan, QueryResult, RelationSource};
use crate::relation::KRelation;
use crate::tuple::Tuple;
use crate::value::Value;
use provsem_semiring::fxhash::FxHashMap;
use provsem_semiring::ring::Ring;
use provsem_semiring::Semiring;
use std::collections::BTreeMap;

/// A batch of base-relation changes: for each named relation, a K-relation
/// of annotation *deltas*. Applying the batch means `new = old + Δ`
/// tuple-wise; inserting the same tuple twice sums the deltas, and a delta
/// that sums to the annotation's inverse deletes the tuple (the K-relation
/// zero-pruning drops it from the support).
#[derive(Clone, Debug)]
pub struct DeltaBatch<K: Semiring> {
    relations: BTreeMap<String, KRelation<K>>,
}

impl<K: Semiring> Default for DeltaBatch<K> {
    fn default() -> Self {
        DeltaBatch {
            relations: BTreeMap::new(),
        }
    }
}

impl<K: Semiring> DeltaBatch<K> {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// Adds `delta` to `tuple`'s annotation in `relation`. An insertion of a
    /// new tuple is a delta from `0`; repeated inserts of the same tuple
    /// accumulate.
    ///
    /// # Panics
    /// Panics if `tuple`'s schema differs from earlier tuples recorded for
    /// the same relation.
    pub fn insert(&mut self, relation: impl Into<String>, tuple: Tuple, delta: K) {
        if delta.is_zero() {
            return;
        }
        let name = relation.into();
        let rel = self
            .relations
            .entry(name)
            .or_insert_with(|| KRelation::empty(tuple.schema()));
        rel.insert(tuple, delta);
    }

    /// Records a deletion: subtracts `annotation` from `tuple` in
    /// `relation`. Requires a [`Ring`], because a deletion is an insertion
    /// of the additive inverse — this is the precise sense in which
    /// ℤ-relations make deletions first-class.
    pub fn delete(&mut self, relation: impl Into<String>, tuple: Tuple, annotation: K)
    where
        K: Ring,
    {
        self.insert(relation, tuple, annotation.neg());
    }

    /// Deletes one "copy" of `tuple` (subtracts `1`).
    pub fn delete_one(&mut self, relation: impl Into<String>, tuple: Tuple)
    where
        K: Ring,
    {
        self.delete(relation, tuple, K::one());
    }

    /// The delta K-relation recorded for `name`, if any.
    pub fn relation(&self, name: &str) -> Option<&KRelation<K>> {
        self.relations.get(name)
    }

    /// Iterates the changed relations in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &KRelation<K>)> {
        self.relations.iter()
    }

    /// Whether the batch records no changes.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(KRelation::is_empty)
    }

    /// Total number of changed tuples across all relations.
    pub fn len(&self) -> usize {
        self.relations.values().map(KRelation::len).sum()
    }

    /// Applies the batch to a database: `new = old + Δ` per tuple.
    /// Relations unknown to the database are created. This is the
    /// "re-execution" side of the maintenance contract: after
    /// `batch.apply_to(&mut db)`, `plan.execute(&db)` equals the maintained
    /// view.
    pub fn apply_to(&self, db: &mut Database<K>) {
        for (name, delta) in &self.relations {
            match db.get_mut(name) {
                Some(rel) => {
                    for (tuple, k) in delta.iter() {
                        rel.insert(tuple.clone(), k.clone());
                    }
                }
                None => {
                    db.insert(name.clone(), delta.clone());
                }
            }
        }
    }
}

/// A standing query result maintained under [`DeltaBatch`]es: the output
/// [`KRelation`] plus the retained operator state (both sides of every hash
/// join, held columnarly). Built by [`Plan::materialize`], updated in place
/// by [`Plan::maintain`]; a view must only ever be maintained through the
/// plan that materialized it.
#[derive(Clone, Debug)]
pub struct MaterializedView<K: Semiring> {
    result: KRelation<K>,
    state: OpState<K>,
}

impl<K: Semiring> MaterializedView<K> {
    /// The maintained result relation.
    pub fn result(&self) -> &KRelation<K> {
        &self.result
    }

    /// Consumes the view, returning the result relation.
    pub fn into_result(self) -> KRelation<K> {
        self.result
    }
}

/// One hash-join side retained columnarly for maintenance: append-only
/// typed columns (one [`ColBuilder`] per attribute — the same
/// representation streamed batches use, degrading on type mixes or
/// dictionary overflow), a parallel net-annotation column, and a content-
/// hash index from join key to the stored row ids under it. A row whose
/// net annotation reaches zero becomes a *tombstone*: it keeps its slot
/// but is skipped by probes, and a later delta on the same row revives it
/// in place — so the probe support is exactly the side's current output.
#[derive(Clone, Debug)]
struct JoinSide<K> {
    /// Stored rows, column-major. Empty until the first row fixes arity.
    cols: Vec<ColBuilder>,
    /// Net annotation per stored row; zero marks a tombstone.
    anns: Vec<K>,
    /// Join-key content hash → stored row ids (live and tombstoned).
    by_key: FxHashMap<u64, Vec<u32>>,
    /// Full-row content hash → stored row ids: the upsert index. Join keys
    /// can be heavily skewed (a handful of distinct values over thousands
    /// of rows), so locating a delta row through `by_key` would scan whole
    /// key buckets; the full-row hash keeps upserts O(1) expected.
    by_row: FxHashMap<u64, Vec<u32>>,
    /// This side's join key columns.
    key_cols: Vec<usize>,
}

/// The content hash of `row`'s values at `keys`, in key order — the same
/// per-value hashes and combiner the columnar kernels use, so a delta row
/// hashed here finds the stored rows hashed by [`JoinSide::upsert`].
fn row_key_hash(keys: &[usize], row: &[Value]) -> u64 {
    keys.iter()
        .fold(HASH_SEED, |h, &c| hash_combine(h, row[c].content_hash()))
}

impl<K: Semiring> JoinSide<K> {
    fn new(key_cols: &[usize]) -> JoinSide<K> {
        JoinSide {
            cols: Vec::new(),
            anns: Vec::new(),
            by_key: FxHashMap::default(),
            by_row: FxHashMap::default(),
            key_cols: key_cols.to_vec(),
        }
    }

    /// The stored rows matching `row`'s join key, where `row`'s key sits at
    /// `other_keys` (the opposite side's key columns, paired positionally
    /// with this side's). Hash candidates are verified exactly; tombstones
    /// are skipped.
    fn matches(&self, hash: u64, other_keys: &[usize], row: &[Value]) -> Vec<u32> {
        let Some(ids) = self.by_key.get(&hash) else {
            return Vec::new();
        };
        ids.iter()
            .copied()
            .filter(|&id| {
                !self.anns[id as usize].is_zero()
                    && self
                        .key_cols
                        .iter()
                        .zip(other_keys)
                        .all(|(&sc, &oc)| self.cols[sc].value_eq_at(id, &row[oc]))
            })
            .collect()
    }

    fn value_at(&self, id: u32, col: usize) -> Value {
        self.cols[col].value_at(id)
    }

    fn ann(&self, id: u32) -> &K {
        &self.anns[id as usize]
    }

    /// Folds one delta row into the side: sums the annotation of an
    /// existing row (possibly tombstoning it, or reviving a tombstone) or
    /// appends a new row to the columns and the key index.
    fn upsert(&mut self, row: &[Value], k: K) {
        if k.is_zero() {
            return;
        }
        if self.cols.is_empty() {
            self.cols = row.iter().map(|_| ColBuilder::new()).collect();
        }
        let row_hash = row
            .iter()
            .fold(HASH_SEED, |h, v| hash_combine(h, v.content_hash()));
        let row_ids = self.by_row.entry(row_hash).or_default();
        for &id in row_ids.iter() {
            if row
                .iter()
                .enumerate()
                .all(|(c, v)| self.cols[c].value_eq_at(id, v))
            {
                self.anns[id as usize].plus_assign(&k);
                return;
            }
        }
        let id = self.anns.len() as u32;
        for (col, v) in self.cols.iter_mut().zip(row.iter()) {
            col.push(v.clone());
        }
        self.anns.push(k);
        row_ids.push(id);
        let key_hash = row_key_hash(&self.key_cols, row);
        self.by_key.entry(key_hash).or_default().push(id);
    }
}

/// Retained state, mirroring the shape of the physical operator tree.
/// Stateless operators (scan/σ/π/ρ/∪/aggregate) keep only their children's
/// state; each hash join retains both input sides columnarly so either
/// delta can be joined against the other side's current contents.
#[derive(Clone, Debug)]
enum OpState<K> {
    /// A stateless operator's node: children states in operator order.
    Stateless(Vec<OpState<K>>),
    /// A hash join's retained sides.
    Join {
        build: Box<OpState<K>>,
        probe: Box<OpState<K>>,
        build_side: Box<JoinSide<K>>,
        probe_side: Box<JoinSide<K>>,
    },
}

fn state_mismatch() -> ! {
    panic!("maintain: view state does not match the plan; a MaterializedView must only be maintained by the plan that materialized it")
}

/// Assembles a join output row from its build/probe value sources.
fn assemble_row(
    output: &[ColSource],
    brow: impl Fn(usize) -> Value,
    prow: impl Fn(usize) -> Value,
) -> Box<[Value]> {
    output
        .iter()
        .map(|src| match src {
            ColSource::Build(i) => brow(*i),
            ColSource::Probe(i) => prow(*i),
        })
        .collect()
}

/// The σ delta/init rule: the batch executor's σ kernel on each batch.
/// Fully filtered batches are dropped.
fn filter_batches<K: Semiring>(
    batches: Vec<Batch<K>>,
    predicate: &CompiledPredicate,
) -> Vec<Batch<K>> {
    batches
        .into_iter()
        .filter_map(|mut batch| {
            filter_batch(&mut batch, predicate);
            (batch.live_rows() > 0).then_some(batch)
        })
        .collect()
}

/// The π/ρ delta/init rule: permute each batch's column list (`Arc` moves).
fn permute_batches<K: Semiring>(mut batches: Vec<Batch<K>>, perm: &[usize]) -> Vec<Batch<K>> {
    for batch in &mut batches {
        batch.permute_columns(perm);
    }
    batches
}

/// The aggregate delta/init rule: whole-row grouping, summing equal rows
/// and dropping zero-summed groups (they contribute nothing downstream —
/// annotation sums are linear, so the delta of the aggregate is the
/// aggregate of the delta and no retained groups are needed).
fn aggregate_batches<K: Semiring>(batches: Vec<Batch<K>>) -> Vec<Batch<K>> {
    let Some(arity) = batches.first().map(|b| b.columns().len()) else {
        return Vec::new();
    };
    let keys: Vec<usize> = (0..arity).collect();
    let out = group_batches(batches, &keys).into_batch(arity);
    if out.live_rows() == 0 {
        Vec::new()
    } else {
        vec![out]
    }
}

/// Wraps loose join-output rows back into a batch (dropping the empty
/// case), re-entering the columnar representation.
fn rows_to_batches<K: Semiring>(arity: usize, rows: Vec<(Box<[Value]>, K)>) -> Vec<Batch<K>> {
    if rows.is_empty() {
        Vec::new()
    } else {
        vec![Batch::from_rows(arity, rows)]
    }
}

/// Initial materialization: computes each operator's full output as
/// columnar batches and builds the retained join sides from them. Scans
/// read the relation version's columnar form (counted by the source's
/// [`BatchCache`](crate::column::BatchCache) when it has one), so
/// materializing over a scanned version reuses its conversion. Always serial — stored row ids and index orders depend only
/// on the source contents, which is what makes later maintenance
/// deterministic at every thread count.
fn init_op<K, S>(op: &PhysOp, source: &S) -> (Vec<Batch<K>>, OpState<K>)
where
    K: Semiring,
    S: RelationSource<K>,
{
    match op {
        PhysOp::Scan { name, schema } => {
            let relation = scan_relation(name, schema, source);
            let batches = scan_batches(relation, source).as_ref().clone();
            (batches, OpState::Stateless(Vec::new()))
        }
        PhysOp::Empty => (Vec::new(), OpState::Stateless(Vec::new())),
        PhysOp::Select { input, predicate } => {
            let (batches, state) = init_op(input, source);
            (
                filter_batches(batches, predicate),
                OpState::Stateless(vec![state]),
            )
        }
        PhysOp::Project { input, keep } => {
            let (batches, state) = init_op(input, source);
            (
                permute_batches(batches, keep),
                OpState::Stateless(vec![state]),
            )
        }
        PhysOp::Permute { input, perm } => {
            let (batches, state) = init_op(input, source);
            (
                permute_batches(batches, perm),
                OpState::Stateless(vec![state]),
            )
        }
        PhysOp::Union { left, right } => {
            let (mut batches, lstate) = init_op(left, source);
            let (rbatches, rstate) = init_op(right, source);
            batches.extend(rbatches);
            (batches, OpState::Stateless(vec![lstate, rstate]))
        }
        PhysOp::Aggregate { input } => {
            let (batches, state) = init_op(input, source);
            (aggregate_batches(batches), OpState::Stateless(vec![state]))
        }
        PhysOp::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            output,
            swapped,
        } => {
            let (bbatches, bstate) = init_op(build, source);
            let (pbatches, pstate) = init_op(probe, source);
            let mut build_side: JoinSide<K> = JoinSide::new(build_keys);
            let mut probe_side: JoinSide<K> = JoinSide::new(probe_keys);
            for batch in bbatches {
                for (row, k) in batch.into_rows() {
                    build_side.upsert(&row, k);
                }
            }
            let mut out: Vec<(Box<[Value]>, K)> = Vec::new();
            for batch in pbatches {
                for (prow, pk) in batch.into_rows() {
                    let hash = row_key_hash(probe_keys, &prow);
                    for id in build_side.matches(hash, probe_keys, &prow) {
                        let bk = build_side.ann(id);
                        let k = if *swapped {
                            pk.times(bk)
                        } else {
                            bk.times(&pk)
                        };
                        out.push((
                            assemble_row(
                                output,
                                |i| build_side.value_at(id, i),
                                |i| prow[i].clone(),
                            ),
                            k,
                        ));
                    }
                    probe_side.upsert(&prow, pk);
                }
            }
            (
                rows_to_batches(output.len(), out),
                OpState::Join {
                    build: Box::new(bstate),
                    probe: Box::new(pstate),
                    build_side: Box::new(build_side),
                    probe_side: Box::new(probe_side),
                },
            )
        }
    }
}

/// Propagates a delta batch through one operator, updating retained state
/// and returning the operator's output delta as columnar batches (the same
/// logical row may appear in several batches or rows; the caller's
/// materialization point sums them).
fn delta_op<K: Semiring>(
    op: &PhysOp,
    state: &mut OpState<K>,
    batch: &DeltaBatch<K>,
) -> Vec<Batch<K>> {
    match op {
        PhysOp::Scan { name, schema } => {
            let OpState::Stateless(children) = state else {
                state_mismatch()
            };
            debug_assert!(children.is_empty());
            match batch.relation(name) {
                Some(delta) => {
                    assert_eq!(
                        delta.schema(),
                        schema,
                        "delta batch for {name} does not match the planned schema"
                    );
                    delta.batches().as_ref().clone()
                }
                None => Vec::new(),
            }
        }
        PhysOp::Empty => Vec::new(),
        PhysOp::Select { input, predicate } => {
            let OpState::Stateless(children) = state else {
                state_mismatch()
            };
            let [child] = children.as_mut_slice() else {
                state_mismatch()
            };
            filter_batches(delta_op(input, child, batch), predicate)
        }
        PhysOp::Project { input, keep } => {
            let OpState::Stateless(children) = state else {
                state_mismatch()
            };
            let [child] = children.as_mut_slice() else {
                state_mismatch()
            };
            permute_batches(delta_op(input, child, batch), keep)
        }
        PhysOp::Permute { input, perm } => {
            let OpState::Stateless(children) = state else {
                state_mismatch()
            };
            let [child] = children.as_mut_slice() else {
                state_mismatch()
            };
            permute_batches(delta_op(input, child, batch), perm)
        }
        PhysOp::Union { left, right } => {
            let OpState::Stateless(children) = state else {
                state_mismatch()
            };
            let [lstate, rstate] = children.as_mut_slice() else {
                state_mismatch()
            };
            let mut batches = delta_op(left, lstate, batch);
            batches.extend(delta_op(right, rstate, batch));
            batches
        }
        PhysOp::Aggregate { input } => {
            let OpState::Stateless(children) = state else {
                state_mismatch()
            };
            let [child] = children.as_mut_slice() else {
                state_mismatch()
            };
            aggregate_batches(delta_op(input, child, batch))
        }
        PhysOp::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            output,
            swapped,
        } => {
            let OpState::Join {
                build: bstate,
                probe: pstate,
                build_side,
                probe_side,
            } = state
            else {
                state_mismatch()
            };
            let delta_build: Vec<(Box<[Value]>, K)> = delta_op(build, bstate, batch)
                .into_iter()
                .flat_map(Batch::into_rows)
                .collect();
            let delta_probe: Vec<(Box<[Value]>, K)> = delta_op(probe, pstate, batch)
                .into_iter()
                .flat_map(Batch::into_rows)
                .collect();
            let mut out: Vec<(Box<[Value]>, K)> = Vec::new();
            // Pass 1: ΔB ⋈ P_old (probe the retained probe side).
            for (brow, bk) in &delta_build {
                let hash = row_key_hash(build_keys, brow);
                for id in probe_side.matches(hash, build_keys, brow) {
                    let pk = probe_side.ann(id);
                    let k = if *swapped { pk.times(bk) } else { bk.times(pk) };
                    out.push((
                        assemble_row(output, |i| brow[i].clone(), |i| probe_side.value_at(id, i)),
                        k,
                    ));
                }
            }
            // Fold ΔB into the build side: the second pass then sees B_new.
            for (row, k) in delta_build {
                build_side.upsert(&row, k);
            }
            // Pass 2: B_new ⋈ ΔP. Together the passes expand to exactly
            // ΔB⋈P + B⋈ΔP + ΔB⋈ΔP.
            for (prow, pk) in &delta_probe {
                let hash = row_key_hash(probe_keys, prow);
                for id in build_side.matches(hash, probe_keys, prow) {
                    let bk = build_side.ann(id);
                    let k = if *swapped { pk.times(bk) } else { bk.times(pk) };
                    out.push((
                        assemble_row(output, |i| build_side.value_at(id, i), |i| prow[i].clone()),
                        k,
                    ));
                }
            }
            for (row, k) in delta_probe {
                probe_side.upsert(&row, k);
            }
            rows_to_batches(output.len(), out)
        }
    }
}

impl Plan {
    /// Executes the plan and retains the columnar operator state needed to
    /// maintain the result incrementally. The returned view's
    /// [`result`](MaterializedView::result) equals [`Plan::execute`] on the
    /// same source (materialization itself always runs serially; by the
    /// executor's determinism guarantee that is the same relation every
    /// execution mode produces). Scans reuse the source's cached batches
    /// when it carries a [`BatchCache`](crate::column::BatchCache).
    pub fn materialize<K: Semiring>(&self, source: &impl RelationSource<K>) -> MaterializedView<K> {
        let (batches, state) = init_op(&self.physical, source);
        let result = QueryResult::from_batches(self.schema.clone(), batches).into_relation();
        MaterializedView { result, state }
    }

    /// Absorbs a batch of base-relation changes into a materialized view.
    ///
    /// Contract (pinned by `core/tests/ivm_differential.rs`): after
    /// `plan.maintain(&mut view, &batch)`, `view.result()` equals
    /// `plan.execute(&db')` where `db'` is the base with `batch` applied
    /// (`new = old + Δ` per tuple) — identical support and annotations.
    /// Work is proportional to the batch size and its fan-out, not to the
    /// base size.
    ///
    /// # Panics
    /// Panics if `view` was materialized by a different plan, or if a delta
    /// relation's schema differs from the planned schema.
    pub fn maintain<K: Semiring>(&self, view: &mut MaterializedView<K>, batch: &DeltaBatch<K>) {
        let delta = delta_op(&self.physical, &mut view.state, batch);
        for batch in delta {
            for (row, k) in batch.into_rows() {
                view.result
                    .insert(Tuple::from_schema_row(&self.schema, row), k);
            }
        }
    }

    /// [`Plan::maintain`] that additionally returns the **view-output
    /// delta** — the net change to the view's result, as a relation over
    /// the plan's schema (annotations summed per tuple, zero changes
    /// dropped). `view.result()` before + the returned delta = `view.
    /// result()` after, per tuple. The commit path uses this to patch a
    /// cached columnar conversion of the view's result forward
    /// ([`BatchCache::patch`](crate::column::BatchCache::patch)) instead of
    /// re-converting the whole view after every commit.
    pub fn maintain_returning<K: Semiring>(
        &self,
        view: &mut MaterializedView<K>,
        batch: &DeltaBatch<K>,
    ) -> KRelation<K> {
        let mut output_delta = KRelation::empty(self.schema.clone());
        let delta = delta_op(&self.physical, &mut view.state, batch);
        for batch in delta {
            for (row, k) in batch.into_rows() {
                let tuple = Tuple::from_schema_row(&self.schema, row);
                view.result.insert(tuple.clone(), k.clone());
                output_delta.insert(tuple, k);
            }
        }
        output_delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{paper_example_query, RaExpr};
    use crate::paper;
    use provsem_semiring::ring::Integers;
    use provsem_semiring::Natural;

    fn z_db() -> Database<Integers> {
        paper::figure3_bag().map_annotations(|n: &Natural| Integers::new(n.value() as i64))
    }

    #[test]
    fn maintain_matches_reexecution_on_the_paper_query() {
        let mut db = z_db();
        let plan = Plan::new(&paper_example_query("R"), &db.catalog()).unwrap();
        let mut view = plan.materialize(&db);
        assert_eq!(view.result(), &plan.execute(&db));

        let mut batch = DeltaBatch::new();
        let r = db.get("R").unwrap().clone();
        let (first, ann) = r.iter().next().unwrap();
        batch.delete("R", first.clone(), *ann);
        batch.insert(
            "R",
            Tuple::new([("a", "new"), ("b", "b"), ("c", "new")]),
            Integers::new(3),
        );

        plan.maintain(&mut view, &batch);
        batch.apply_to(&mut db);
        assert_eq!(view.result(), &plan.execute(&db));
    }

    #[test]
    fn delete_to_zero_empties_the_view() {
        let mut db = z_db();
        let q = RaExpr::relation("R").project(["a"]);
        let plan = Plan::new(&q, &db.catalog()).unwrap();
        let mut view = plan.materialize(&db);
        let mut batch = DeltaBatch::new();
        for (tuple, k) in db.get("R").unwrap().iter() {
            batch.delete("R", tuple.clone(), *k);
        }
        plan.maintain(&mut view, &batch);
        batch.apply_to(&mut db);
        assert!(db.get("R").unwrap().is_empty());
        assert!(view.result().is_empty());
    }

    #[test]
    fn delete_then_reinsert_revives_a_tombstoned_join_row() {
        let mut db = z_db();
        let plan = Plan::new(&paper_example_query("R"), &db.catalog()).unwrap();
        let mut view = plan.materialize(&db);
        let (first, ann) = {
            let r = db.get("R").unwrap();
            let (t, k) = r.iter().next().unwrap();
            (t.clone(), *k)
        };
        // Delete a row to a zero net annotation, then bring it back.
        let mut del = DeltaBatch::new();
        del.delete("R", first.clone(), ann);
        plan.maintain(&mut view, &del);
        del.apply_to(&mut db);
        assert_eq!(view.result(), &plan.execute(&db));
        let mut ins = DeltaBatch::new();
        ins.insert("R", first, ann);
        plan.maintain(&mut view, &ins);
        ins.apply_to(&mut db);
        assert_eq!(view.result(), &plan.execute(&db));
    }

    #[test]
    #[should_panic(expected = "maintained by the plan that materialized it")]
    fn maintaining_with_the_wrong_plan_panics() {
        let db = z_db();
        let scan = RaExpr::relation("R");
        let join_plan = Plan::new(&paper_example_query("R"), &db.catalog()).unwrap();
        let scan_plan = Plan::new(&scan, &db.catalog()).unwrap();
        let mut view = scan_plan.materialize(&db);
        let mut batch = DeltaBatch::new();
        batch.insert(
            "R",
            Tuple::new([("a", "x"), ("b", "y"), ("c", "z")]),
            Integers::new(1),
        );
        join_plan.maintain(&mut view, &batch);
    }
}
