//! The columnar executor: the [`PhysOp`] tree evaluated over [`Batch`]es of
//! typed column vectors. Every plan runs here ([`execute`] is what
//! [`Plan::query_with`](super::Plan::query_with) calls); the differential
//! suites compare it against the tree-walking interpreter
//! [`RaExpr::eval_interpreted`](crate::expr::RaExpr::eval_interpreted).
//!
//! The unit of work is a whole batch, and *a morsel is a batch*:
//!
//! * **Scans** read the scanned relation version's columnar form
//!   ([`KRelation::batches`](crate::relation::KRelation::batches)): converted
//!   on the version's first scan, then shared by every scan after it — the
//!   other scans of a self-join, later executions, other threads. Through a
//!   snapshot the read goes through its
//!   [`BatchCache`](crate::column::BatchCache), which counts it. Every scan
//!   of one version shares the same string dictionaries, so equality kernels
//!   between them compare dictionary codes instead of strings.
//! * **σ** compiles to a per-column selection loop ([`filter_batch`]): a
//!   single comparison over a batch nothing has filtered yet writes the
//!   selection vector in its one pass over the column; `And`/`Or` (and a
//!   batch already filtered) go through one boolean mask per predicate that
//!   then refines the vector. On a dictionary column an `AttrEqValue`
//!   resolves the constant to a code *once per batch* and the loop compares
//!   `u32`s.
//! * **π/ρ** permute the column *list* (`Arc` moves, no data copied).
//! * **Pre-join aggregation** and the **root merge** group by key columns
//!   ([`group_batches`]): rows map to group ids through the flat key table of
//!   [`crate::column`] — per row by column-wise content hashes, or once per
//!   distinct tuple of codes when every key column is a dictionary column —
//!   and the root sorts the distinct rows once, columnarly, and hands them on
//!   as columns ([`QueryResult`]) — tuples are built only if a caller asks
//!   for a `KRelation`.
//! * **Hash join** ([`join_batches`]) gives every distinct build key an id
//!   in the same table, chains each key's build rows in stream order, and
//!   maps probe rows to ids the same two ways; each probe batch assembles
//!   its output column-by-column (typed gathers). Neither side copies an
//!   annotation column: only matched pairs are read and multiplied. When
//!   the unary steps directly above the join are π/ρ gathers that drop a
//!   join column and the kept columns pass the code-domain when-rule (each
//!   a dictionary column under one dictionary on its side, a code grid no
//!   larger than the match count), the projection is **summed inside the
//!   join** (a groupjoin, [`SummedProjection`]): every match's kept code
//!   tuple names its group, one [`Semiring::sum_products`] call over the
//!   matches of every partition, in partition order, sums the products
//!   group by group — one `Σᵢ aᵢ·bᵢ` circuit node per output tuple, the same
//!   at every thread budget, instead of a `Times` node per match for the
//!   root merge to sum — and the kept columns are decoded from the live
//!   groups' codes. Any other shape, and a join that fails the rule, makes
//!   the join's rows (a failed grid check after parallel matching makes
//!   them on the calling thread).
//!
//! With a multi-threaded [`ExecContext`] and a semiring whose annotations
//! can cross threads ([`Semiring::is_portable`]), joins and aggregations
//! above [`crate::par::SPAWN_THRESHOLD`] rows run **morsel-driven**: batches
//! are split by key-hash partition ([`Batch::split_by`], assignment by
//! [`crate::par::part_of`]), one scoped worker builds/probes or groups each
//! partition, column payloads cross threads as plain `Send` data, and
//! annotation vectors travel sealed through the semiring's [`Portable`]
//! encoding (circuit handles as node ids into the process-wide arena).
//!
//! Determinism: partitioning is by content hash (representation- and
//! dictionary-independent), groups and join matches are emitted in
//! first-occurrence stream order, and partition outputs merge in index
//! order — so, with semiring `+` commutative (a property-tested law), the
//! result is identical at every thread count.
//! `core/tests/columnar_differential.rs` pins executor-vs-interpreter
//! equality across five semirings and thread counts.

use super::physical::{scan_batches, scan_relation, ColSource, CompiledPredicate, PhysOp};
use crate::column::{
    code_domain_runs, column_values_equal, gather_multi, grid_size, group_batches, shared_dict,
    Batch, Column, KeyChains, KeyIndex, KeyRows, StrDict, NO_KEY,
};
use crate::plan::{ExecContext, QueryResult, RelationSource};
use crate::schema::Schema;
use crate::value::Value;
use provsem_semiring::{Portable, Semiring};
use std::sync::Arc;

// --- vectorized predicate evaluation ---------------------------------------

/// What a comparison kernel emits per batch: a boolean per physical row
/// (`Vec<bool>`, the form `And`/`Or` combine) or the matching rows themselves
/// (`Vec<u32>`, a selection vector — what σ needs in the end).
pub(crate) trait Hits: Sized {
    /// Collects one verdict per row, in row order.
    fn collect(verdicts: impl Iterator<Item = bool>) -> Self;

    /// The same verdict for all `len` rows.
    fn constant(verdict: bool, len: usize) -> Self;
}

impl Hits for Vec<bool> {
    fn collect(verdicts: impl Iterator<Item = bool>) -> Self {
        verdicts.collect()
    }

    fn constant(verdict: bool, len: usize) -> Self {
        vec![verdict; len]
    }
}

impl Hits for Vec<u32> {
    fn collect(verdicts: impl Iterator<Item = bool>) -> Self {
        let mut rows = Vec::new();
        for (row, hit) in verdicts.enumerate() {
            if hit {
                rows.push(row as u32);
            }
        }
        rows
    }

    fn constant(verdict: bool, len: usize) -> Self {
        if verdict {
            (0..len as u32).collect()
        } else {
            Vec::new()
        }
    }
}

/// Evaluates a compiled predicate over whole columns, producing one boolean
/// per *physical* row. Constants against dictionary columns resolve to a
/// code once per batch (absent constants short-circuit to a constant mask);
/// cross-dictionary column equality builds a code-translation table once
/// per batch instead of comparing strings per row.
fn eval_predicate_mask(pred: &CompiledPredicate, cols: &[Column], len: usize) -> Vec<bool> {
    match pred {
        CompiledPredicate::Const(b) => vec![*b; len],
        CompiledPredicate::ColEqValue(i, v) => col_eq_value::<_, true>(&cols[*i], v, len),
        CompiledPredicate::ColNeValue(i, v) => col_eq_value::<_, false>(&cols[*i], v, len),
        CompiledPredicate::ColEqCol(i, j) => col_eq_col(&cols[*i], &cols[*j], len),
        CompiledPredicate::And(p, q) => {
            let mut mask = eval_predicate_mask(p, cols, len);
            let other = eval_predicate_mask(q, cols, len);
            for (m, o) in mask.iter_mut().zip(other) {
                *m = *m && o;
            }
            mask
        }
        CompiledPredicate::Or(p, q) => {
            let mut mask = eval_predicate_mask(p, cols, len);
            let other = eval_predicate_mask(q, cols, len);
            for (m, o) in mask.iter_mut().zip(other) {
                *m = *m || o;
            }
            mask
        }
    }
}

/// The σ kernel on one batch. A single comparison over a batch nothing has
/// filtered yet writes the selection vector in its one pass over the column;
/// everything else goes through a mask per predicate and [`Batch::refine`].
pub(crate) fn filter_batch<K: Semiring>(batch: &mut Batch<K>, pred: &CompiledPredicate) {
    let (cols, len) = (batch.columns(), batch.phys_rows());
    let sel: Option<Vec<u32>> = match pred {
        _ if batch.live_rows() != len => None,
        CompiledPredicate::ColEqValue(i, v) => Some(col_eq_value::<_, true>(&cols[*i], v, len)),
        CompiledPredicate::ColNeValue(i, v) => Some(col_eq_value::<_, false>(&cols[*i], v, len)),
        CompiledPredicate::ColEqCol(i, j) => Some(col_eq_col(&cols[*i], &cols[*j], len)),
        _ => None,
    };
    match sel {
        Some(sel) => batch.select(sel),
        None => batch.refine(&eval_predicate_mask(pred, cols, len)),
    }
}

/// `(column == constant) == WANT`, one comparison kernel per column
/// representation. `WANT` is a compile-time constant because the row loops
/// run at half the speed with it as a runtime operand (36 vs 84 µs over the
/// benchmark's 10⁵-row `F`).
fn col_eq_value<H: Hits, const WANT: bool>(col: &Column, v: &Value, len: usize) -> H {
    match (col, v) {
        (Column::I64(data), Value::Int(x)) => H::collect(data.iter().map(|d| (d == x) == WANT)),
        (Column::I64(_), Value::Str(_)) | (Column::Str { .. }, Value::Int(_)) => {
            H::constant(!WANT, len)
        }
        (Column::Str { dict, codes }, Value::Str(s)) => match dict.code_of(s) {
            // The constant resolves to a code once; the loop compares u32s.
            Some(code) => H::collect(codes.iter().map(|&c| (c == code) == WANT)),
            // The constant is not in the dictionary: no row can match.
            None => H::constant(!WANT, len),
        },
        (Column::Val(data), v) => H::collect(data.iter().map(|d| (d == v) == WANT)),
    }
}

/// `column == column`, with typed fast paths: same-dictionary code loops,
/// cross-dictionary code translation built once per batch, and a per-row
/// value fallback only when a `Val` column is involved.
fn col_eq_col<H: Hits>(a: &Column, b: &Column, len: usize) -> H {
    match (a, b) {
        (Column::I64(va), Column::I64(vb)) => {
            H::collect(va.iter().zip(vb.iter()).map(|(x, y)| x == y))
        }
        (Column::I64(_), Column::Str { .. }) | (Column::Str { .. }, Column::I64(_)) => {
            H::constant(false, len)
        }
        (
            Column::Str {
                dict: da,
                codes: ca,
            },
            Column::Str {
                dict: db,
                codes: cb,
            },
        ) => {
            if Arc::ptr_eq(da, db) {
                H::collect(ca.iter().zip(cb.iter()).map(|(x, y)| x == y))
            } else {
                // Translate a's codes into b's dictionary once; rows whose
                // string is absent from b's dictionary can never match.
                let translate: Vec<Option<u32>> = (0..da.len() as u32)
                    .map(|c| db.code_of(da.resolve(c)))
                    .collect();
                H::collect(
                    ca.iter()
                        .zip(cb.iter())
                        .map(|(&x, &y)| translate[x as usize] == Some(y)),
                )
            }
        }
        (a, b) => H::collect((0..len as u32).map(|r| column_values_equal(a, r, b, r))),
    }
}

// --- batch transport (exchange between morsel workers) ---------------------

/// A batch sealed for the thread boundary: column payloads are plain `Send`
/// data, the annotation vector travels through the semiring's [`Portable`]
/// encoding.
type SealedBatch = (usize, Vec<Column>, Portable);

fn seal_batch<K: Semiring>(batch: Batch<K>) -> SealedBatch {
    let (len, columns, anns) = batch.materialize().into_parts();
    (len, columns, K::to_portable(anns))
}

fn open_batch<K: Semiring>((len, columns, token): SealedBatch) -> Batch<K> {
    Batch::new(len, columns, K::from_portable(token))
}

/// What crosses the thread boundary to or from a morsel worker, sealed:
/// column payloads as plain `Send` data, annotation vectors through the
/// semiring's [`Portable`] encoding.
trait Transport: Sized {
    type Sealed: Send;
    fn seal(self) -> Self::Sealed;
    fn open(sealed: Self::Sealed) -> Self;
}

impl<K: Semiring> Transport for Vec<Batch<K>> {
    type Sealed = Vec<SealedBatch>;

    fn seal(self) -> Vec<SealedBatch> {
        self.into_iter().map(seal_batch).collect()
    }

    fn open(sealed: Vec<SealedBatch>) -> Self {
        sealed.into_iter().map(open_batch).collect()
    }
}

impl<K: Semiring> Transport for Matches<K> {
    type Sealed = (
        Vec<SealedBatch>,
        Vec<SealedBatch>,
        Vec<(u32, u32)>,
        Vec<(u32, u32)>,
    );

    fn seal(self) -> Self::Sealed {
        let (build_rows, probe_rows) = (self.build_rows, self.probe_rows);
        (self.build.seal(), self.probe.seal(), build_rows, probe_rows)
    }

    fn open((build, probe, build_rows, probe_rows): Self::Sealed) -> Self {
        Matches {
            build: Transport::open(build),
            probe: Transport::open(probe),
            build_rows,
            probe_rows,
        }
    }
}

/// Maps `work` over per-partition batch lists — one scoped worker per
/// partition when the input is large enough, inline otherwise — returning
/// outputs in partition order.
fn par_map_batches<K, F>(parts: Vec<Vec<Batch<K>>>, work: F) -> Vec<Vec<Batch<K>>>
where
    K: Semiring,
    F: Fn(Vec<Batch<K>>) -> Vec<Batch<K>> + Sync,
{
    let total: usize = parts
        .iter()
        .flat_map(|p| p.iter())
        .map(Batch::live_rows)
        .sum();
    if parts.len() <= 1 || total < crate::par::SPAWN_THRESHOLD {
        return parts.into_iter().map(work).collect();
    }
    let sealed: Vec<Vec<SealedBatch>> = parts.into_iter().map(Transport::seal).collect();
    crate::par::spawn_map(sealed, |batches| work(Transport::open(batches)).seal())
        .into_iter()
        .map(Transport::open)
        .collect()
}

/// Hash-partitions materialized batches into exactly `parts` per-partition
/// batch lists by the content hash of the key columns — the batch engine's
/// exchange. Equal keys land in the same partition (and in stream order
/// within it); an empty key column list sends everything to partition 0.
fn exchange_batches<K: Semiring>(
    batches: Vec<Batch<K>>,
    keys: &[usize],
    parts: usize,
) -> Vec<Vec<Batch<K>>> {
    let mut out: Vec<Vec<Batch<K>>> = (0..parts).map(|_| Vec::new()).collect();
    for batch in batches {
        let batch = batch.materialize();
        let hashes = batch.key_hashes(keys);
        let assign: Vec<u32> = hashes
            .iter()
            .map(|&h| crate::par::part_of(h, parts) as u32)
            .collect();
        for (part, sub) in batch.split_by(&assign, parts).into_iter().enumerate() {
            if sub.phys_rows() > 0 {
                out[part].push(sub);
            }
        }
    }
    out
}

// --- operators --------------------------------------------------------------

/// One step of a peeled unary σ/π/ρ chain, in columnar form.
enum BatchStep<'a> {
    /// Refine the selection vector by a predicate mask.
    Filter(&'a CompiledPredicate),
    /// Permute/subset the column list.
    Gather(&'a [usize]),
}

/// Applies a unary chain (innermost step first) to a batch: masks refine
/// the selection vector, gathers move `Arc`s — nothing copies row data.
fn apply_batch_steps<K: Semiring>(mut batch: Batch<K>, steps: &[BatchStep<'_>]) -> Batch<K> {
    for step in steps {
        match step {
            BatchStep::Filter(predicate) => filter_batch(&mut batch, predicate),
            BatchStep::Gather(cols) => batch.permute_columns(cols),
        }
    }
    batch
}

/// Aggregates batches by their whole row (the pre-join duplicate
/// aggregation): serial grouping below the spawn threshold, otherwise a
/// whole-row-hash exchange and one grouping worker per partition.
fn aggregate_batches<K: Semiring>(inputs: Vec<Batch<K>>, threads: usize) -> Vec<Batch<K>> {
    let Some(first) = inputs.first() else {
        return Vec::new();
    };
    let arity = first.columns().len();
    let keys: Vec<usize> = (0..arity).collect();
    let total: usize = inputs.iter().map(Batch::live_rows).sum();
    if threads <= 1 || total < crate::par::SPAWN_THRESHOLD {
        let out = group_batches(inputs, &keys).into_batch(arity);
        return if out.phys_rows() == 0 {
            Vec::new()
        } else {
            vec![out]
        };
    }
    let parts = exchange_batches(inputs, &keys, threads);
    par_map_batches(parts, |batches| {
        if batches.is_empty() {
            return Vec::new();
        }
        let out = group_batches(batches, &keys).into_batch(arity);
        if out.phys_rows() == 0 {
            Vec::new()
        } else {
            vec![out]
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Joins build and probe batch lists within one key partition (or the whole
/// input in serial mode). The build rows are indexed by key — one
/// `KeyIndex` id per distinct key, its rows chained in build-stream order
/// (`KeyChains`) — and every probe batch maps its rows to those ids (once
/// per distinct tuple of codes when every key column is a dictionary column,
/// once per row through the table otherwise), then assembles one output batch
/// column-by-column. Annotations are read in place on both sides: a scanned
/// batch's annotation column is never copied, only the matched pairs are
/// multiplied — in one [`Semiring::times_each`] call per output batch.
///
/// Exported through [`crate::kernels`] for callers outside the planner.
pub fn join_batches<K: Semiring>(
    build: Vec<Batch<K>>,
    probe: Vec<Batch<K>>,
    build_keys: &[usize],
    probe_keys: &[usize],
    output: &[ColSource],
    swapped: bool,
) -> Vec<Batch<K>> {
    match_rows(build, probe, build_keys, probe_keys).into_rows(output, swapped)
}

/// One partition's hash join up to its matches: both sides' materialized
/// batches and every matched pair of `(batch, row)`s, probe-stream-major and
/// build-stream-minor — the order the output rows are emitted in. Nothing
/// is multiplied yet: [`Matches::into_rows`] makes the join's rows, and
/// [`SummedProjection::sum`] the projection of several partitions' rows.
struct Matches<K> {
    build: Vec<Batch<K>>,
    probe: Vec<Batch<K>>,
    build_rows: Vec<(u32, u32)>,
    probe_rows: Vec<(u32, u32)>,
}

/// The matching half of [`join_batches`].
fn match_rows<K: Semiring>(
    build: Vec<Batch<K>>,
    probe: Vec<Batch<K>>,
    build_keys: &[usize],
    probe_keys: &[usize],
) -> Matches<K> {
    // Build side. A key's id is verified exactly against the key's first
    // build row on every table hit, so hash collisions are harmless and a
    // chain holds exactly the build rows of one key.
    let build: Vec<Batch<K>> = build.into_iter().map(Batch::materialize).collect();
    let build_cols: Vec<&[Column]> = build.iter().map(Batch::columns).collect();
    let code_domain = code_domain_runs(&build, build_keys);
    let mut index = KeyIndex::new();
    let mut key_of: Vec<u32> = Vec::new();
    for (bidx, batch) in build.iter().enumerate() {
        let rows = KeyRows {
            cols: batch.columns(),
            keys: build_keys,
            len: batch.phys_rows(),
            code_domain: code_domain[bidx],
        };
        index.assign(
            rows,
            &build_cols,
            build_keys,
            Some(bidx as u32),
            &mut key_of,
        );
    }
    let chains = KeyChains::new(index.len(), &key_of, build.iter().map(Batch::phys_rows));

    let probe: Vec<Batch<K>> = probe.into_iter().map(Batch::materialize).collect();
    let code_domain = code_domain_runs(&probe, probe_keys);
    let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
    for (pidx, pbatch) in probe.iter().enumerate() {
        let rows = KeyRows {
            cols: pbatch.columns(),
            keys: probe_keys,
            len: pbatch.phys_rows(),
            code_domain: code_domain[pidx],
        };
        key_of.clear();
        index.assign(rows, &build_cols, build_keys, None, &mut key_of);
        for (prow, &key) in key_of.iter().enumerate() {
            if key == NO_KEY {
                continue;
            }
            for &pair in chains.of(key) {
                build_rows.push(pair);
                probe_rows.push((pidx as u32, prow as u32));
            }
        }
    }
    Matches {
        build,
        probe,
        build_rows,
        probe_rows,
    }
}

impl<K: Semiring> Matches<K> {
    /// The annotation pairs of the matches in `range`, in match order, each
    /// `(left, right)` as Definition 3.2 multiplies them.
    fn pairs(
        &self,
        range: std::ops::Range<usize>,
        swapped: bool,
    ) -> impl Iterator<Item = (&K, &K)> + '_ {
        let build = &self.build_rows[range.clone()];
        build
            .iter()
            .zip(&self.probe_rows[range])
            .map(move |(&(b, r), &(p, q))| {
                let bk = &self.build[b as usize].anns()[r as usize];
                let pk = &self.probe[p as usize].anns()[q as usize];
                if swapped {
                    (pk, bk)
                } else {
                    (bk, pk)
                }
            })
    }

    /// The join's rows: one output batch per probe batch with matches, its
    /// products in one [`Semiring::times_each`] call (circuits intern them
    /// together) and its columns gathered from both sides.
    fn into_rows(self, output: &[ColSource], swapped: bool) -> Vec<Batch<K>> {
        let build_cols: Vec<&[Column]> = self.build.iter().map(Batch::columns).collect();
        let mut out = Vec::new();
        let mut start = 0;
        while start < self.probe_rows.len() {
            let pidx = self.probe_rows[start].0;
            let run = self.probe_rows[start..].iter();
            let end = start + run.take_while(|&&(p, _)| p == pidx).count();
            let anns = K::times_each(self.pairs(start..end, swapped));
            let prows: Vec<u32> = self.probe_rows[start..end]
                .iter()
                .map(|&(_, row)| row)
                .collect();
            let pcols = self.probe[pidx as usize].columns();
            let columns = output
                .iter()
                .map(|src| match src {
                    ColSource::Build(i) => {
                        gather_multi(&build_cols, *i, &self.build_rows[start..end])
                    }
                    ColSource::Probe(i) => pcols[*i].gather(&prows),
                })
                .collect();
            out.push(Batch::new(anns.len(), columns, anns));
            start = end;
        }
        out
    }
}

/// A π (with any ρ) directly over a hash join, summed inside the join — a
/// groupjoin: every match adds its product to the group of its kept code
/// tuple, so an output row is one sum of products instead of one product
/// per match grouped later by the root merge (for circuits, one
/// `Σᵢ aᵢ·bᵢ` node instead of a `Times` node per match).
///
/// Taken when the unary steps over the join are gathers only (a σ reads
/// the rows the sum would merge) that drop a join output column, and the
/// kept columns pass the code-domain when-rule ([`code_domain_runs`]'s):
/// each is a dictionary column under one dictionary across its side's
/// batches, and the grid of their code tuples has no more cells than the
/// join has matched pairs (checked once matching is done).
struct SummedProjection {
    /// Per output column, the join side it is read from and its dictionary.
    kept: Vec<(ColSource, Arc<StrDict>)>,
    /// The grid's cell count: the product of the dictionary sizes.
    cells: usize,
}

impl SummedProjection {
    /// The summed form of `steps` over a join with `output` columns and
    /// these inputs, if the shape and the dictionaries allow it.
    fn of<K: Semiring>(
        steps: &[BatchStep<'_>],
        output: &[ColSource],
        build: &[Batch<K>],
        probe: &[Batch<K>],
    ) -> Option<SummedProjection> {
        let mut kept: Vec<usize> = (0..output.len()).collect();
        for step in steps {
            match step {
                BatchStep::Gather(cols) => kept = cols.iter().map(|&c| kept[c]).collect(),
                BatchStep::Filter(_) => return None,
            }
        }
        // π never repeats a column, so a shorter list dropped one.
        if kept.len() == output.len() {
            return None;
        }
        let kept = kept
            .into_iter()
            .map(|j| {
                let (side, col) = match output[j] {
                    ColSource::Build(col) => (build, col),
                    ColSource::Probe(col) => (probe, col),
                };
                let dict = shared_dict(side.iter().map(Batch::columns), col)?;
                Some((output[j].clone(), dict.clone()))
            })
            .collect::<Option<Vec<_>>>()?;
        let cells = grid_size(kept.iter().map(|(_, dict)| dict))?;
        Some(SummedProjection { kept, cells })
    }

    /// The projected rows of every partition's matches, or `None` when the
    /// grid has more cells than there are matches. Each match's kept codes,
    /// read as one mixed-radix number, are its group — a grid cell — and one
    /// [`Semiring::sum_products`] call sums every group over the partitions
    /// merged in partition order, so a circuit gets the same `Σ` nodes at
    /// every thread budget. Groups summing to zero are dropped; the kept
    /// columns are decoded from the live cells.
    fn sum<K: Semiring>(&self, parts: &[Matches<K>], swapped: bool) -> Option<Batch<K>> {
        let matches: usize = parts.iter().map(|part| part.build_rows.len()).sum();
        if self.cells > matches {
            return None;
        }
        let mut cell_of = vec![0u32; matches];
        for (src, dict) in &self.kept {
            let radix = dict.len() as u32;
            let mut cells = cell_of.iter_mut();
            for part in parts {
                let (batches, rows, col) = match *src {
                    ColSource::Build(col) => (&part.build, &part.build_rows, col),
                    ColSource::Probe(col) => (&part.probe, &part.probe_rows, col),
                };
                let codes: Vec<&[u32]> = batches
                    .iter()
                    .map(|batch| match &batch.columns()[col] {
                        Column::Str { codes, .. } => codes.as_slice(),
                        _ => unreachable!("a kept column is a dictionary column"),
                    })
                    .collect();
                // Rows first: `zip` must not draw a cell past the last row.
                for (&(b, r), cell) in rows.iter().zip(cells.by_ref()) {
                    *cell = *cell * radix + codes[b as usize][r as usize];
                }
            }
        }
        let pairs = parts
            .iter()
            .flat_map(|part| part.pairs(0..part.build_rows.len(), swapped));
        let sums = K::sum_products(self.cells, &cell_of, pairs);
        let (live, anns): (Vec<u32>, Vec<K>) = (0..self.cells as u32)
            .zip(sums)
            .filter(|(_, k)| !k.is_zero())
            .unzip();
        let mut stride = self.cells as u32;
        let columns = self
            .kept
            .iter()
            .map(|(_, dict)| {
                let radix = dict.len() as u32;
                stride /= radix;
                let codes = live.iter().map(|&cell| cell / stride % radix).collect();
                Column::Str {
                    dict: dict.clone(),
                    codes: Arc::new(codes),
                }
            })
            .collect();
        Some(Batch::new(anns.len(), columns, anns))
    }
}

/// Runs `work` on every key partition of a hash join's inputs — inline on
/// the whole input below the spawn threshold or at one thread, otherwise
/// on both sides exchanged by key hash, one scoped worker per partition —
/// and returns the outputs in partition order.
fn per_partition<K, R, F>(
    build: Vec<Batch<K>>,
    probe: Vec<Batch<K>>,
    keys: (&[usize], &[usize]),
    threads: usize,
    work: F,
) -> Vec<R>
where
    K: Semiring,
    R: Transport,
    F: Fn(Vec<Batch<K>>, Vec<Batch<K>>) -> R + Sync,
{
    let total: usize = build.iter().chain(&probe).map(Batch::live_rows).sum();
    if threads <= 1 || total < crate::par::SPAWN_THRESHOLD {
        return vec![work(build, probe)];
    }
    let sealed: Vec<_> = exchange_batches(build, keys.0, threads)
        .into_iter()
        .zip(exchange_batches(probe, keys.1, threads))
        .map(|(build, probe)| (build.seal(), probe.seal()))
        .collect();
    crate::par::spawn_map(sealed, |(build, probe)| {
        work(Transport::open(build), Transport::open(probe)).seal()
    })
    .into_iter()
    .map(R::open)
    .collect()
}

/// Recursively executes an operator into batches, peeling unary σ/π/ρ
/// chains off the top and applying them as mask/permutation kernels in one
/// pass per batch. `threads > 1` only when the semiring is portable.
fn exec_batches<K, S>(op: &PhysOp, source: &S, threads: usize) -> Vec<Batch<K>>
where
    K: Semiring,
    S: RelationSource<K>,
{
    let mut steps: Vec<BatchStep<'_>> = Vec::new();
    let mut op = op;
    loop {
        match op {
            PhysOp::Select { input, predicate } => {
                steps.push(BatchStep::Filter(predicate));
                op = input;
            }
            PhysOp::Project { input, keep } => {
                steps.push(BatchStep::Gather(keep));
                op = input;
            }
            PhysOp::Permute { input, perm } => {
                steps.push(BatchStep::Gather(perm));
                op = input;
            }
            _ => break,
        }
    }
    steps.reverse();

    let inputs: Vec<Batch<K>> = match op {
        PhysOp::Scan { name, schema } => scan_batches(scan_relation(name, schema, source), source)
            .as_ref()
            .clone(),
        PhysOp::Empty => Vec::new(),
        PhysOp::Union { left, right } => {
            let mut batches = exec_batches(left, source, threads);
            batches.extend(exec_batches(right, source, threads));
            batches
        }
        PhysOp::Aggregate { input } => {
            aggregate_batches(exec_batches(input, source, threads), threads)
        }
        PhysOp::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            output,
            swapped,
        } => {
            let build_in = exec_batches(build, source, threads);
            let probe_in = exec_batches(probe, source, threads);
            let join = HashJoin {
                keys: (build_keys, probe_keys),
                output,
                swapped: *swapped,
            };
            match join.run(build_in, probe_in, &steps, threads) {
                Joined::Projected(batches) => return batches,
                Joined::Rows(rows) => rows,
            }
        }
        PhysOp::Select { .. } | PhysOp::Project { .. } | PhysOp::Permute { .. } => {
            unreachable!("unary operators were peeled above")
        }
    };
    if steps.is_empty() {
        inputs
    } else {
        inputs
            .into_iter()
            .map(|batch| apply_batch_steps(batch, &steps))
            .collect()
    }
}

/// What [`HashJoin::run`] hands back: batches with the steps above the join
/// applied (a projection summed inside it), or the join's rows.
enum Joined<K> {
    Projected(Vec<Batch<K>>),
    Rows(Vec<Batch<K>>),
}

/// A [`PhysOp::HashJoin`]'s parameters.
struct HashJoin<'a> {
    keys: (&'a [usize], &'a [usize]),
    output: &'a [ColSource],
    swapped: bool,
}

impl HashJoin<'_> {
    /// Joins the inputs. When [`SummedProjection`] allows, `steps` — the
    /// unary chain peeled above the join — are summed inside it; otherwise
    /// the join's rows come back for the caller to apply them to.
    ///
    /// Never inlined, so [`exec_batches`], which inlines the σ kernels,
    /// stays the size it was: with the join inlined into it, a point
    /// selection over 10⁵ rows measured 90–145 µs against 70–97 µs.
    #[inline(never)]
    fn run<K: Semiring>(
        &self,
        build: Vec<Batch<K>>,
        probe: Vec<Batch<K>>,
        steps: &[BatchStep<'_>],
        threads: usize,
    ) -> Joined<K> {
        let (build_keys, probe_keys) = self.keys;
        let Some(summed) = SummedProjection::of(steps, self.output, &build, &probe) else {
            let rows = per_partition(build, probe, self.keys, threads, |build, probe| {
                join_batches(
                    build,
                    probe,
                    build_keys,
                    probe_keys,
                    self.output,
                    self.swapped,
                )
            });
            return Joined::Rows(rows.into_iter().flatten().collect());
        };
        let parts = per_partition(build, probe, self.keys, threads, |build, probe| {
            match_rows(build, probe, build_keys, probe_keys)
        });
        match summed.sum(&parts, self.swapped) {
            Some(batch) if batch.phys_rows() == 0 => Joined::Projected(Vec::new()),
            Some(batch) => Joined::Projected(vec![batch]),
            // Too few matches for the grid: the join's rows, made on this
            // thread from the partitions' matches.
            None => Joined::Rows(
                parts
                    .into_iter()
                    .flat_map(|part| part.into_rows(self.output, self.swapped))
                    .collect(),
            ),
        }
    }
}

/// Runs a physical plan to completion through the columnar kernels. The
/// root merge groups the output batches by *all* columns — the final `Σ` of
/// duplicate rows (Definition 3.2) — and sorts the groups once; the result
/// stays columnar. A semiring that cannot cross threads
/// ([`Semiring::is_portable`] is `false`) runs serially whatever the budget.
pub(crate) fn execute<'a, K, S>(
    op: &PhysOp,
    schema: &Schema,
    source: &'a S,
    ctx: &ExecContext,
) -> QueryResult<'a, K>
where
    K: Semiring,
    S: RelationSource<K>,
{
    // A plan that optimized down to a bare scan is the whole base relation:
    // no conversion, no copy — the result borrows it.
    if let PhysOp::Scan { name, schema } = op {
        return QueryResult::from(scan_relation(name, schema, source));
    }
    let threads = if ctx.threads > 1 && K::is_portable() {
        ctx.threads
    } else {
        1
    };
    let batches = exec_batches(op, source, threads);
    QueryResult::from_batches(schema.clone(), batches)
}
