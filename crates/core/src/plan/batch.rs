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
//!   join** (a groupjoin, [`SummedProjection`]): the match count is read off
//!   the key chains before any match is walked, each row carries its side's
//!   share of its matches' grid cell (`Σ code · stride` over that side's
//!   kept columns), and one [`Semiring::sum_products`] call walks probe row
//!   by probe row through its key's chain, handing each match's cell and
//!   annotation pair straight to the semiring — no per-match array — so
//!   each output tuple is one sum of products (one `Σᵢ aᵢ·bᵢ` circuit node,
//!   instead of a `Times` node per match for the root merge to sum), and
//!   the kept columns are decoded from the live cells. A join whose grid
//!   is sparser than its matches makes its rows from those keys on the
//!   calling thread; any other shape makes the join's rows.
//!
//! With a multi-threaded [`ExecContext`] and a semiring whose annotations
//! can cross threads ([`Semiring::is_portable`]), joins and aggregations
//! above [`crate::par::SPAWN_THRESHOLD`] rows run **morsel-driven**: batches
//! are split by key-hash partition ([`Batch::split_by`], assignment by
//! [`crate::par::part_of`]), one scoped worker builds/probes or groups each
//! partition, column payloads cross threads as plain `Send` data, and
//! annotation vectors travel sealed through the semiring's [`Portable`]
//! encoding (circuit handles as node ids into the process-wide arena). The
//! summed join is serial by design: it runs on the calling thread at every
//! budget, as one walk into one `sum_products` call, so a circuit gets the
//! same `Σ` nodes at every budget and no matches are sealed or re-sorted.
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
use provsem_semiring::{Portable, ProductWalk, Semiring};
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

fn seal_batches<K: Semiring>(batches: Vec<Batch<K>>) -> Vec<SealedBatch> {
    batches.into_iter().map(seal_batch).collect()
}

fn open_batches<K: Semiring>(sealed: Vec<SealedBatch>) -> Vec<Batch<K>> {
    sealed.into_iter().map(open_batch).collect()
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
    let sealed: Vec<Vec<SealedBatch>> = parts.into_iter().map(seal_batches).collect();
    crate::par::spawn_map(sealed, |batches| seal_batches(work(open_batches(batches))))
        .into_iter()
        .map(open_batches)
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
    KeyedJoin::new(build, probe, build_keys, probe_keys).into_rows(output, swapped)
}

/// A hash join's inputs, keyed: both sides' materialized batches, the build
/// rows chained by key id, and each probe row's key id. Nothing is matched
/// or multiplied yet: [`KeyedJoin::into_rows`] makes the join's rows, and
/// [`SummedProjection::sum`] walks the matches into a projection's sums.
struct KeyedJoin<K> {
    build: Vec<Batch<K>>,
    probe: Vec<Batch<K>>,
    chains: KeyChains,
    /// Per probe batch, each row's key id ([`NO_KEY`] when no build row has
    /// its key).
    probe_ids: Vec<Vec<u32>>,
}

impl<K: Semiring> KeyedJoin<K> {
    fn new(
        build: Vec<Batch<K>>,
        probe: Vec<Batch<K>>,
        build_keys: &[usize],
        probe_keys: &[usize],
    ) -> KeyedJoin<K> {
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
        let probe_ids = probe
            .iter()
            .zip(code_domain)
            .map(|(batch, code_domain)| {
                let rows = KeyRows {
                    cols: batch.columns(),
                    keys: probe_keys,
                    len: batch.phys_rows(),
                    code_domain,
                };
                let mut ids = Vec::new();
                index.assign(rows, &build_cols, build_keys, None, &mut ids);
                ids
            })
            .collect();
        KeyedJoin {
            build,
            probe,
            chains,
            probe_ids,
        }
    }

    /// The number of matched pairs: the chain length of every probe row's
    /// key.
    fn match_count(&self) -> usize {
        let chain = |&key: &u32| match key {
            NO_KEY => 0,
            key => self.chains.span(key).len(),
        };
        self.probe_ids.iter().flatten().map(chain).sum()
    }

    /// The join's rows, probe-stream-major and build-stream-minor: one
    /// output batch per probe batch with matches, its products in one
    /// [`Semiring::times_each`] call (circuits intern them together) and
    /// its columns gathered from both sides.
    fn into_rows(self, output: &[ColSource], swapped: bool) -> Vec<Batch<K>> {
        let build_cols: Vec<&[Column]> = self.build.iter().map(Batch::columns).collect();
        let mut out = Vec::new();
        for (pbatch, ids) in self.probe.iter().zip(&self.probe_ids) {
            let (mut build_rows, mut prows) = (Vec::new(), Vec::new());
            for (prow, &key) in ids.iter().enumerate() {
                if key == NO_KEY {
                    continue;
                }
                for &pair in self.chains.of(key) {
                    build_rows.push(pair);
                    prows.push(prow as u32);
                }
            }
            if prows.is_empty() {
                continue;
            }
            let pairs = build_rows.iter().zip(&prows).map(|(&(b, r), &q)| {
                let bk = &self.build[b as usize].anns()[r as usize];
                let pk = &pbatch.anns()[q as usize];
                if swapped {
                    (pk, bk)
                } else {
                    (bk, pk)
                }
            });
            let anns = K::times_each(pairs);
            let pcols = pbatch.columns();
            let columns = output
                .iter()
                .map(|src| match src {
                    ColSource::Build(i) => gather_multi(&build_cols, *i, &build_rows),
                    ColSource::Probe(i) => pcols[*i].gather(&prows),
                })
                .collect();
            out.push(Batch::new(anns.len(), columns, anns));
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
/// join has matched pairs (counted from the key chains before any match is
/// walked).
struct SummedProjection {
    /// Per output column, the join side it is read from and its dictionary.
    kept: Vec<(ColSource, Arc<StrDict>)>,
    /// Per output column, its code's weight in a grid cell: the product of
    /// the later columns' dictionary sizes.
    strides: Vec<u32>,
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
        let mut strides = vec![0; kept.len()];
        let mut stride = 1;
        for ((_, dict), slot) in kept.iter().zip(&mut strides).rev() {
            *slot = stride;
            stride *= dict.len() as u32;
        }
        Some(SummedProjection {
            kept,
            strides,
            cells,
        })
    }

    /// Per batch of one join side, each row's share of its matches' grid
    /// cell: `Σ code · stride` over the kept columns read from that side.
    fn shares<K: Semiring>(&self, batches: &[Batch<K>], build_side: bool) -> Vec<Vec<u32>> {
        let side_col = |src: &ColSource| match *src {
            ColSource::Build(col) if build_side => Some(col),
            ColSource::Probe(col) if !build_side => Some(col),
            _ => None,
        };
        let share = |batch: &Batch<K>| {
            let mut share = vec![0u32; batch.phys_rows()];
            for ((src, _), &stride) in self.kept.iter().zip(&self.strides) {
                let Some(col) = side_col(src) else { continue };
                let Column::Str { codes, .. } = &batch.columns()[col] else {
                    unreachable!("a kept column is a dictionary column")
                };
                for (share, &code) in share.iter_mut().zip(codes.iter()) {
                    *share += code * stride;
                }
            }
            share
        };
        batches.iter().map(share).collect()
    }

    /// The projected rows of the join: one [`Semiring::sum_products`] call
    /// over a walk of every match — each probe row in stream order, then
    /// its key's chain of build rows — whose group is the grid cell of the
    /// match's kept codes, read as one mixed-radix number: the sum of the
    /// two rows' shares. No per-match array is written; a circuit gets one
    /// `Σ` node per cell, the same at every thread budget. Groups summing to
    /// zero are dropped; the kept columns are decoded from the live cells.
    fn sum<K: Semiring>(&self, join: &KeyedJoin<K>, swapped: bool) -> Batch<K> {
        let build_shares = self.shares(&join.build, true);
        let build = join
            .chains
            .rows()
            .iter()
            .map(|&(b, r)| {
                let (b, r) = (b as usize, r as usize);
                (&join.build[b].anns()[r], build_shares[b][r])
            })
            .collect();
        let probe = join
            .probe
            .iter()
            .zip(&join.probe_ids)
            .zip(self.shares(&join.probe, false))
            .map(|((batch, ids), shares)| (batch.anns(), ids.as_slice(), shares))
            .collect();
        let matches = SummedMatches {
            build,
            chains: &join.chains,
            probe,
            swapped,
        };
        let sums = K::sum_products(self.cells, &matches);
        let (live, anns): (Vec<u32>, Vec<K>) = (0..self.cells as u32)
            .zip(sums)
            .filter(|(_, k)| !k.is_zero())
            .unzip();
        let columns = self
            .kept
            .iter()
            .zip(&self.strides)
            .map(|((_, dict), &stride)| {
                let radix = dict.len() as u32;
                let codes = live.iter().map(|&cell| cell / stride % radix).collect();
                Column::Str {
                    dict: dict.clone(),
                    codes: Arc::new(codes),
                }
            })
            .collect();
        Batch::new(anns.len(), columns, anns)
    }
}

/// A [`KeyedJoin`]'s matches as [`SummedProjection::sum`] hands them to
/// [`Semiring::sum_products`]: every walk goes probe row by probe row, in
/// stream order, through its key's chain of build rows.
struct SummedMatches<'a, K> {
    /// In [`KeyChains::rows`] order, each build row's annotation and cell
    /// share.
    build: Vec<(&'a K, u32)>,
    chains: &'a KeyChains,
    /// Per probe batch, its annotations, its rows' key ids and their cell
    /// shares.
    probe: Vec<(&'a [K], &'a [u32], Vec<u32>)>,
    /// Whether build is the right input: the product is then `probe · build`.
    swapped: bool,
}

impl<K> ProductWalk<K> for SummedMatches<'_, K> {
    fn walk(&self, mut f: impl FnMut(u32, &K, &K)) {
        for (anns, ids, shares) in &self.probe {
            for ((pk, &key), &share) in anns.iter().zip(*ids).zip(shares) {
                if key == NO_KEY {
                    continue;
                }
                for &(bk, build_share) in &self.build[self.chains.span(key)] {
                    let cell = share + build_share;
                    if self.swapped {
                        f(cell, pk, bk);
                    } else {
                        f(cell, bk, pk);
                    }
                }
            }
        }
    }
}

/// Runs `work` on every key partition of a hash join's inputs — inline on
/// the whole input at one thread or below [`crate::par::SPAWN_THRESHOLD`]
/// rows, otherwise on both sides exchanged by key hash, one scoped worker
/// per partition — and returns the outputs in partition order.
fn per_partition<K, F>(
    build: Vec<Batch<K>>,
    probe: Vec<Batch<K>>,
    keys: (&[usize], &[usize]),
    threads: usize,
    work: F,
) -> Vec<Vec<Batch<K>>>
where
    K: Semiring,
    F: Fn(Vec<Batch<K>>, Vec<Batch<K>>) -> Vec<Batch<K>> + Sync,
{
    let total: usize = build.iter().chain(&probe).map(Batch::live_rows).sum();
    if threads <= 1 || total < crate::par::SPAWN_THRESHOLD {
        return vec![work(build, probe)];
    }
    let sealed: Vec<_> = exchange_batches(build, keys.0, threads)
        .into_iter()
        .zip(exchange_batches(probe, keys.1, threads))
        .map(|(build, probe)| (seal_batches(build), seal_batches(probe)))
        .collect();
    crate::par::spawn_map(sealed, |(build, probe)| {
        seal_batches(work(open_batches(build), open_batches(probe)))
    })
    .into_iter()
    .map(open_batches)
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
    /// unary chain peeled above the join — are summed inside it, on this
    /// thread at every budget: the inputs are keyed, the matches counted
    /// from the key chains, and a grid no larger than that count walked
    /// into one [`Semiring::sum_products`] call. Otherwise the join's rows
    /// come back for the caller to apply the steps to.
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
            let parts = per_partition(build, probe, self.keys, threads, |build, probe| {
                join_batches(
                    build,
                    probe,
                    build_keys,
                    probe_keys,
                    self.output,
                    self.swapped,
                )
            });
            return Joined::Rows(parts.into_iter().flatten().collect());
        };
        let join = KeyedJoin::new(build, probe, build_keys, probe_keys);
        if summed.cells > join.match_count() {
            // A grid sparser than the matches: the join's rows, from the
            // keys already made.
            return Joined::Rows(join.into_rows(self.output, self.swapped));
        }
        match summed.sum(&join, self.swapped) {
            batch if batch.phys_rows() == 0 => Joined::Projected(Vec::new()),
            batch => Joined::Projected(vec![batch]),
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
