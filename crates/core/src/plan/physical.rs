//! Physical operators over *positional* tuples.
//!
//! At plan time every attribute is resolved to a column index, so the
//! operators never touch attribute names: rows are `Box<[Value]>` slices
//! whose columns follow the node's output schema (attributes in sorted
//! order, matching [`Schema::attributes`]), and predicates are compiled to
//! column-index form ([`CompiledPredicate`]).
//!
//! Serial execution (`threads == 1`) is pipelined (iterator-style):
//! selection, projection, renaming (a column permutation) and union stream
//! rows without materializing anything. Materialization happens in exactly
//! three places: the **build side of a hash join** (an index from key
//! columns to rows), a **pre-join aggregation** on any join input that
//! could stream duplicate rows per
//! [`LogicalPlan::may_produce_duplicate_rows`] (so joins always see
//! distinct, annotation-summed rows — see [`PhysOp::Aggregate`];
//! rename-like projections that only drop constant-pinned or
//! equality-determined columns stay pipelined), and the **plan root** (the
//! output [`KRelation`], which performs the final `Σ` of duplicate rows).
//! Annotations are borrowed from the scans ([`Cow`]) until an operator
//! actually combines them, so filtered-out and passthrough rows never clone
//! a (possibly expensive) annotation.
//!
//! With a multi-threaded [`ExecContext`] (and a semiring whose annotations
//! can cross threads, [`Semiring::is_portable`]) execution switches to the
//! **morsel-driven parallel** mode at the bottom of this file: scans split
//! into contiguous morsels, joins and aggregations hash-partition their
//! inputs, and the pipeline fragments between those exchanges run one
//! scoped worker per partition — producing the identical `KRelation` at
//! every thread count (deterministic partitioning and in-order merges; see
//! the comment block above [`exec_partitions`]).
//!
//! Everything above describes the row-at-a-time engine
//! ([`ExecMode::Row`](crate::plan::ExecMode)). Its **columnar twin**
//! (`super::batch`, `PROVSEM_EXEC=batch`) executes the same physical tree
//! over batches of typed column vectors ([`crate::column`]), where *a
//! morsel is a batch* — scans resolve against the storage layer (served
//! from the snapshot-resident [`crate::column::BatchCache`] when the source
//! has one, converted per execution otherwise), the parallel exchanges ship
//! whole batches between workers (column payloads as `Send` data,
//! annotation vectors sealed through [`Portable`]), and the unary chains
//! fuse into selection-vector and column-permutation kernels instead of
//! per-row loops. Both engines share this module's [`PhysOp`] tree,
//! [`CompiledPredicate`]s, partition assignment ([`crate::par::part_of`])
//! and determinism contract; `execute` dispatches on
//! [`ExecContext::mode`](crate::plan::ExecContext), which the planner
//! resolves per plan under the default `PROVSEM_EXEC=auto` (small scans
//! run row-at-a-time, everything else columnar).

use crate::plan::{ExecContext, QueryResult, RelationSource};
use crate::predicate::Predicate;
use crate::relation::KRelation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use provsem_semiring::fxhash::{fx_hash_one, FxHashMap, FxHasher};
use provsem_semiring::{Portable, Semiring};
use std::borrow::Cow;
use std::hash::{Hash, Hasher};

use super::logical::LogicalPlan;

/// A positional row: one value per output column of the producing operator.
pub(crate) type Row = Box<[Value]>;

/// An annotation flowing through the pipeline. Scans lend their annotations
/// (`Cow::Borrowed`) so that rows a selection filters out — or that only
/// pass through to the root — never pay a clone of a potentially expensive
/// annotation (an expanded ℕ\[X\] polynomial, say); ownership materializes
/// only where an operator actually combines annotations.
type Ann<'a, K> = Cow<'a, K>;

/// Where a hash join output column comes from.
#[derive(Clone, Debug)]
pub enum ColSource {
    /// Column index into the build-side row.
    Build(usize),
    /// Column index into the probe-side row.
    Probe(usize),
}

/// A selection predicate compiled to column indices. Attributes missing
/// from the operator's schema compile to constant `false` comparisons,
/// mirroring [`Predicate::eval`]'s missing-attribute semantics.
#[derive(Clone, Debug)]
pub(crate) enum CompiledPredicate {
    /// A constant.
    Const(bool),
    /// Column equals a constant value.
    ColEqValue(usize, Value),
    /// Column differs from a constant value.
    ColNeValue(usize, Value),
    /// Two columns are equal.
    ColEqCol(usize, usize),
    /// Conjunction.
    And(Box<CompiledPredicate>, Box<CompiledPredicate>),
    /// Disjunction.
    Or(Box<CompiledPredicate>, Box<CompiledPredicate>),
}

impl CompiledPredicate {
    /// Compiles a named predicate against a schema, resolving attributes to
    /// column positions and constant-folding where possible.
    pub(crate) fn compile(predicate: &Predicate, schema: &Schema) -> CompiledPredicate {
        use CompiledPredicate as C;
        match predicate {
            Predicate::True => C::Const(true),
            Predicate::False => C::Const(false),
            Predicate::AttrEqValue(a, v) => match schema.position(a) {
                Some(i) => C::ColEqValue(i, v.clone()),
                None => C::Const(false),
            },
            Predicate::AttrNeValue(a, v) => match schema.position(a) {
                Some(i) => C::ColNeValue(i, v.clone()),
                None => C::Const(false),
            },
            Predicate::AttrEqAttr(a, b) => match (schema.position(a), schema.position(b)) {
                (Some(i), Some(j)) => C::ColEqCol(i, j),
                _ => C::Const(false),
            },
            Predicate::And(p, q) => match (C::compile(p, schema), C::compile(q, schema)) {
                (C::Const(false), _) | (_, C::Const(false)) => C::Const(false),
                (C::Const(true), other) | (other, C::Const(true)) => other,
                (cp, cq) => C::And(Box::new(cp), Box::new(cq)),
            },
            Predicate::Or(p, q) => match (C::compile(p, schema), C::compile(q, schema)) {
                (C::Const(true), _) | (_, C::Const(true)) => C::Const(true),
                (C::Const(false), other) | (other, C::Const(false)) => other,
                (cp, cq) => C::Or(Box::new(cp), Box::new(cq)),
            },
        }
    }

    /// Evaluates the compiled predicate on a row.
    pub(crate) fn eval(&self, row: &[Value]) -> bool {
        match self {
            CompiledPredicate::Const(b) => *b,
            CompiledPredicate::ColEqValue(i, v) => row[*i] == *v,
            CompiledPredicate::ColNeValue(i, v) => row[*i] != *v,
            CompiledPredicate::ColEqCol(i, j) => row[*i] == row[*j],
            CompiledPredicate::And(p, q) => p.eval(row) && q.eval(row),
            CompiledPredicate::Or(p, q) => p.eval(row) || q.eval(row),
        }
    }
}

/// A physical operator tree, structurally parallel to the optimized
/// [`LogicalPlan`] it was compiled from.
#[derive(Clone, Debug)]
pub(crate) enum PhysOp {
    /// Scan of a base relation; rows follow the relation's sorted schema.
    Scan {
        /// Relation name to resolve against the [`RelationSource`].
        name: String,
        /// Expected schema (checked against the source at execution time).
        schema: Schema,
    },
    /// Produces no rows.
    Empty,
    /// Pipelined filter.
    Select {
        /// Input operator.
        input: Box<PhysOp>,
        /// Compiled predicate.
        predicate: CompiledPredicate,
    },
    /// Pipelined column projection: output column `j` is input column
    /// `keep[j]`. Duplicate rows are *not* summed here — that happens at
    /// the next materialization point (join build side or plan root).
    Project {
        /// Input operator.
        input: Box<PhysOp>,
        /// Input column index per output column.
        keep: Vec<usize>,
    },
    /// Pipelined column permutation (the physical form of a renaming:
    /// renamed attributes sort differently, so columns move).
    Permute {
        /// Input operator.
        input: Box<PhysOp>,
        /// Input column index per output column.
        perm: Vec<usize>,
    },
    /// Pipelined concatenation; duplicate-row summation happens at the next
    /// materialization point.
    Union {
        /// Left input.
        left: Box<PhysOp>,
        /// Right input.
        right: Box<PhysOp>,
    },
    /// Hash aggregation: materializes the input, summing the annotations of
    /// duplicate rows (the `Σ` of Definition 3.2's projection). Inserted
    /// below join inputs that could stream duplicate rows (per the logical
    /// [`LogicalPlan::may_produce_duplicate_rows`] analysis: unions, and
    /// projections that drop a column not determined by the kept ones), so
    /// joins always see distinct rows — without this, pipelined projections
    /// would feed every un-collapsed duplicate into the join and the output
    /// blows up multiplicatively.
    Aggregate {
        /// Input operator.
        input: Box<PhysOp>,
    },
    /// Hash join: materializes the build side indexed by its key columns,
    /// then streams the probe side.
    HashJoin {
        /// Build-side operator (fully materialized into the hash index).
        build: Box<PhysOp>,
        /// Probe-side operator (streamed).
        probe: Box<PhysOp>,
        /// Key column indices on the build side.
        build_keys: Vec<usize>,
        /// Key column indices on the probe side.
        probe_keys: Vec<usize>,
        /// Source of each output column.
        output: Vec<ColSource>,
        /// `true` when build = the *right* logical input, in which case the
        /// annotation product is `probe · build` to preserve the
        /// left-times-right order of Definition 3.2.
        swapped: bool,
    },
}

impl PhysOp {
    /// Wraps a join input in an [`PhysOp::Aggregate`] when the logical
    /// analysis ([`LogicalPlan::may_produce_duplicate_rows`]) says it could
    /// stream duplicate rows. The analysis lives on the logical plan
    /// because it needs schemas and selection predicates — it keeps
    /// rename-like projections (dropping only constant-pinned or
    /// equality-determined columns) pipelined.
    fn collapsed_if(self, may_duplicate: bool) -> PhysOp {
        if may_duplicate {
            PhysOp::Aggregate {
                input: Box::new(self),
            }
        } else {
            self
        }
    }

    /// Renders the physical operator tree — the body of
    /// [`Plan::explain_physical`](crate::plan::Plan::explain_physical).
    /// Unlike the logical `explain`, this shows the materialization points:
    /// `agg` nodes (pre-join aggregations) and hash-join build sides. With
    /// `threads > 1` the parallel operators additionally show how execution
    /// fans out: scans their morsel count, hash joins and aggregations
    /// their hash-partition count. Under the batch engine (`batch_rows` set)
    /// scans also show the batch row budget.
    pub(crate) fn render(&self, threads: usize, batch_rows: Option<usize>) -> String {
        let mut out = String::new();
        self.render_node(&mut out, "", "", threads, batch_rows);
        out
    }

    fn describe(&self, threads: usize, batch_rows: Option<usize>) -> String {
        let fanout = |label: &str| {
            if threads > 1 {
                format!(" [{label}={threads}]")
            } else {
                String::new()
            }
        };
        match self {
            PhysOp::Scan { name, schema } => {
                let batch = match batch_rows {
                    Some(n) => format!(" [batch={n}]"),
                    None => String::new(),
                };
                format!("scan {name} {schema:?}{batch}{}", fanout("morsels"))
            }
            PhysOp::Empty => "∅".to_string(),
            PhysOp::Select { .. } => "σ".to_string(),
            PhysOp::Project { keep, .. } => format!("π cols{keep:?}"),
            PhysOp::Permute { perm, .. } => format!("permute{perm:?}"),
            PhysOp::Union { .. } => "∪".to_string(),
            PhysOp::Aggregate { .. } => format!("agg{}", fanout("partitions")),
            PhysOp::HashJoin {
                build_keys,
                probe_keys,
                swapped,
                ..
            } => {
                let side = if *swapped { "right" } else { "left" };
                format!(
                    "hash-join build={side} keys{build_keys:?}/{probe_keys:?}{}",
                    fanout("partitions")
                )
            }
        }
    }

    fn children(&self) -> Vec<&PhysOp> {
        match self {
            PhysOp::Scan { .. } | PhysOp::Empty => Vec::new(),
            PhysOp::Select { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::Permute { input, .. }
            | PhysOp::Aggregate { input } => vec![input],
            PhysOp::Union { left, right } => vec![left, right],
            PhysOp::HashJoin { build, probe, .. } => vec![build, probe],
        }
    }

    fn render_node(
        &self,
        out: &mut String,
        prefix: &str,
        child_prefix: &str,
        threads: usize,
        batch_rows: Option<usize>,
    ) {
        out.push_str(prefix);
        out.push_str(&self.describe(threads, batch_rows));
        out.push('\n');
        let children = self.children();
        for (i, child) in children.iter().enumerate() {
            let last = i + 1 == children.len();
            let (branch, extension) = if last {
                ("└─ ", "   ")
            } else {
                ("├─ ", "│  ")
            };
            child.render_node(
                out,
                &format!("{child_prefix}{branch}"),
                &format!("{child_prefix}{extension}"),
                threads,
                batch_rows,
            );
        }
    }
}

/// Walks the physical tree and describes, per scan, the columnar layout the
/// batch engine will build against `source`: row count, batch count, and
/// each column's encoding — the body of
/// [`Plan::explain_batches`](crate::plan::Plan::explain_batches).
pub(crate) fn describe_scan_batches<K, S>(op: &PhysOp, source: &S) -> String
where
    K: Semiring,
    S: RelationSource<K>,
{
    fn walk<K, S>(op: &PhysOp, source: &S, out: &mut String)
    where
        K: Semiring,
        S: RelationSource<K>,
    {
        if let PhysOp::Scan { name, schema } = op {
            use crate::column::BatchProvenance;
            let relation = scan_relation(name, schema, source);
            let cached = source.batch_cache().and_then(|(cache, _)| {
                source
                    .relation_shared(name)
                    .and_then(|shared| cache.peek(&shared))
            });
            let (batches, provenance) = match cached {
                Some((batches, provenance)) => (batches, provenance),
                None => (
                    std::sync::Arc::new(crate::column::relation_to_batches(relation)),
                    BatchProvenance::Converted,
                ),
            };
            let provenance = match provenance {
                BatchProvenance::Converted => "converted".to_string(),
                BatchProvenance::Cached => "cached".to_string(),
                BatchProvenance::Patched(n) => format!("patched({n})"),
            };
            let encodings: Vec<String> = match batches.first() {
                Some(batch) => schema
                    .attributes()
                    .iter()
                    .zip(batch.columns())
                    .map(|(attr, col)| format!("{attr:?}={}", col.encoding()))
                    .collect(),
                None => schema
                    .attributes()
                    .iter()
                    .map(|attr| format!("{attr:?}=empty"))
                    .collect(),
            };
            out.push_str(&format!(
                "scan {name}: rows={} batches={} cols[{}] source={provenance}\n",
                relation.len(),
                batches.len(),
                encodings.join(", ")
            ));
        }
        for child in op.children() {
            walk(child, source, out);
        }
    }
    let mut out = String::new();
    walk(op, source, &mut out);
    out
}

/// Compiles an optimized logical plan into a physical operator tree.
pub(crate) fn compile(plan: &LogicalPlan) -> PhysOp {
    match plan {
        LogicalPlan::Scan { name, schema, .. } => PhysOp::Scan {
            name: name.clone(),
            schema: schema.clone(),
        },
        LogicalPlan::Empty { .. } => PhysOp::Empty,
        LogicalPlan::Union { left, right } => PhysOp::Union {
            left: Box::new(compile(left)),
            right: Box::new(compile(right)),
        },
        LogicalPlan::Select { predicate, input } => PhysOp::Select {
            predicate: CompiledPredicate::compile(predicate, input.schema()),
            input: Box::new(compile(input)),
        },
        LogicalPlan::Project { schema, input } => {
            let source = input.schema();
            let keep = schema
                .attributes()
                .iter()
                .map(|a| {
                    source
                        .position(a)
                        .expect("validated projection targets exist in the input schema")
                })
                .collect();
            PhysOp::Project {
                input: Box::new(compile(input)),
                keep,
            }
        }
        LogicalPlan::Rename {
            renaming,
            schema,
            input,
        } => {
            // Output column j holds the input column whose renamed image is
            // the j-th output attribute.
            let source = input.schema();
            let mut image_to_source = vec![usize::MAX; schema.arity()];
            for (i, a) in source.attributes().iter().enumerate() {
                let target = renaming.apply(a);
                let j = schema
                    .position(&target)
                    .expect("validated renaming maps the input schema onto the output schema");
                image_to_source[j] = i;
            }
            PhysOp::Permute {
                input: Box::new(compile(input)),
                perm: image_to_source,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            schema,
        } => {
            let shared = left.schema().intersection(right.schema());
            let builds_left = LogicalPlan::join_builds_left(left, right);
            let (build, probe) = if builds_left {
                (left, right)
            } else {
                (right, left)
            };
            let key_positions = |side: &LogicalPlan| {
                shared
                    .attributes()
                    .iter()
                    .map(|a| {
                        side.schema()
                            .position(a)
                            .expect("join keys exist on both inputs")
                    })
                    .collect::<Vec<usize>>()
            };
            let output = schema
                .attributes()
                .iter()
                .map(|a| match build.schema().position(a) {
                    Some(i) => ColSource::Build(i),
                    None => ColSource::Probe(
                        probe
                            .schema()
                            .position(a)
                            .expect("every join output attribute comes from an input"),
                    ),
                })
                .collect();
            PhysOp::HashJoin {
                build_keys: key_positions(build),
                probe_keys: key_positions(probe),
                build: Box::new(compile(build).collapsed_if(build.may_produce_duplicate_rows())),
                probe: Box::new(compile(probe).collapsed_if(probe.may_produce_duplicate_rows())),
                output,
                swapped: !builds_left,
            }
        }
    }
}

/// Streams the `(row, annotation)` pairs produced by an operator.
/// Annotations are [`Cow`]s borrowed from the scanned relations until an
/// operator combines them (see [`Ann`]).
///
/// # Panics
/// Panics if a scanned relation is missing from `source` or its schema
/// differs from the one the plan was built against — both indicate the plan
/// is being executed against a source inconsistent with its catalog.
fn stream<'a, K, S>(
    op: &'a PhysOp,
    source: &'a S,
) -> Box<dyn Iterator<Item = (Row, Ann<'a, K>)> + 'a>
where
    K: Semiring + 'a,
    S: RelationSource<K>,
{
    match op {
        PhysOp::Scan { name, schema } => {
            let relation = scan_relation(name, schema, source);
            Box::new(relation.iter().map(|(tuple, k)| {
                // Tuple fields iterate in sorted attribute order, which is
                // exactly the positional column order. The annotation is
                // lent, not cloned: ownership materializes only where an
                // operator combines annotations.
                let row: Row = tuple.values().cloned().collect();
                (row, Cow::Borrowed(k))
            }))
        }
        PhysOp::Empty => Box::new(std::iter::empty()),
        PhysOp::Select { input, predicate } => {
            Box::new(stream(input, source).filter(move |(row, _)| predicate.eval(row)))
        }
        PhysOp::Project { input, keep } => Box::new(stream(input, source).map(move |(row, k)| {
            let out: Row = keep.iter().map(|&i| row[i].clone()).collect();
            (out, k)
        })),
        PhysOp::Permute { input, perm } => Box::new(stream(input, source).map(move |(row, k)| {
            let out: Row = perm.iter().map(|&i| row[i].clone()).collect();
            (out, k)
        })),
        PhysOp::Union { left, right } => {
            Box::new(stream(left, source).chain(stream(right, source)))
        }
        PhysOp::Aggregate { input } => {
            let mut groups: FxHashMap<Row, K> = FxHashMap::default();
            for (row, k) in stream(input, source) {
                match groups.get_mut(&row) {
                    Some(existing) => existing.plus_assign(k.as_ref()),
                    None => {
                        groups.insert(row, k.into_owned());
                    }
                }
            }
            // Zero-summed rows are dropped: they cannot contribute to any
            // downstream product or materialization.
            Box::new(
                groups
                    .into_iter()
                    .filter(|(_, k)| !k.is_zero())
                    .map(|(row, k)| (row, Cow::Owned(k))),
            )
        }
        PhysOp::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            output,
            swapped,
        } => {
            let mut index: FxHashMap<Row, Vec<(Row, K)>> = FxHashMap::default();
            for (row, k) in stream(build, source) {
                let key: Row = build_keys.iter().map(|&i| row[i].clone()).collect();
                index.entry(key).or_default().push((row, k.into_owned()));
            }
            let probe_rows = stream(probe, source);
            // The probe key is assembled in a scratch buffer reused across
            // probe rows; the index is queried through `Borrow<[Value]>`,
            // so no per-row key allocation happens.
            let mut key_buf: Vec<Value> = Vec::with_capacity(probe_keys.len());
            Box::new(probe_rows.flat_map(move |(prow, pk)| {
                key_buf.clear();
                key_buf.extend(probe_keys.iter().map(|&i| prow[i].clone()));
                let mut matches = Vec::new();
                if let Some(entries) = index.get(key_buf.as_slice()) {
                    matches.reserve(entries.len());
                    for (brow, bk) in entries {
                        let row: Row = output
                            .iter()
                            .map(|src| match src {
                                ColSource::Build(i) => brow[*i].clone(),
                                ColSource::Probe(i) => prow[*i].clone(),
                            })
                            .collect();
                        let k = if *swapped {
                            pk.as_ref().times(bk)
                        } else {
                            bk.times(pk.as_ref())
                        };
                        matches.push((row, Cow::Owned(k)));
                    }
                }
                matches
            }))
        }
    }
}

/// Resolves a scanned relation against the execution source, with the
/// consistency panics shared by [`stream`] and the [`execute`] fast path.
pub(crate) fn scan_relation<'a, K, S>(
    name: &str,
    schema: &Schema,
    source: &'a S,
) -> &'a KRelation<K>
where
    K: Semiring,
    S: RelationSource<K>,
{
    let relation = source
        .relation(name)
        .unwrap_or_else(|| panic!("relation {name} missing from the execution source"));
    assert_eq!(
        relation.schema(),
        schema,
        "relation {name} changed schema between planning and execution"
    );
    relation
}

/// Runs a physical plan to completion (summing the annotations of duplicate
/// rows, per Definition 3.2) and hands back the result in the form the
/// engine left it: borrowed for a bare scan, columns from the batch engine,
/// a merged relation from the row engine.
///
/// With `ctx.threads == 1` — or for a semiring that cannot cross threads
/// ([`Semiring::is_portable`] is `false`) — this is the serial pipelined
/// path. Otherwise execution is morsel-driven (see [`exec_partitions`]) and
/// the partitions are folded into the result in partition order, which
/// together with commutativity of `+` makes the output identical to the
/// serial run.
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
    // no row round-trip, no copy — the result borrows it.
    if let PhysOp::Scan { name, schema: s } = op {
        return QueryResult::from(Cow::Borrowed(scan_relation(name, s, source)));
    }
    if ctx.mode == crate::plan::ExecMode::Batch {
        return super::batch::execute(op, schema, source, ctx);
    }
    let mut result = KRelation::empty(schema.clone());
    if ctx.threads > 1 && K::is_portable() {
        for chunk in exec_partitions(op, source, ctx.threads) {
            for (row, k) in chunk {
                result.insert(Tuple::from_schema_row(schema, row), k);
            }
        }
    } else {
        for (row, k) in stream(op, source) {
            let tuple = Tuple::from_schema_row(schema, row);
            result.insert(tuple, k.into_owned());
        }
    }
    QueryResult::from(Cow::Owned(result))
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel execution
// ---------------------------------------------------------------------------
//
// The parallel executor works partition-at-a-time instead of row-at-a-time:
// every operator produces a list of materialized partitions (`Vec<Chunk>`),
// and the work *between* materialization points runs one scoped worker per
// partition. Scans split into contiguous morsels; hash joins and pre-join
// aggregations re-partition their inputs by FxHash of the key (an
// "exchange"), so each worker owns a complete key range and builds/probes —
// or aggregates — its partition independently, with no shared mutable state
// and no locks.
//
// Determinism: partitioning is by the seedless FxHash, exchanges preserve
// the relative row order of their input, workers are pure functions of
// their partition, and every merge walks partitions in index order. Two
// duplicate output rows either live in the same partition (equal rows hash
// equal) where their relative order matches the serial stream, or are
// summed at the root in partition order — and semiring `+` is commutative
// (a law, property-tested), so the folded annotation is the same value the
// serial path computes. Hence `execute` returns identical `KRelation`s at
// every thread count.
//
// Annotations cross the worker boundary through the semiring's portable
// encoding (`Semiring::to_portable` / `from_portable`): plain data
// semirings travel as-is, circuit handles travel as node ids into the
// process-wide arena and are re-stamped with the receiving thread's
// generation (see "Crossing threads" in `provsem_semiring::circuit`).

/// A materialized slice of an operator's output: rows with owned
/// annotations.
pub(crate) type Chunk<K> = Vec<(Row, K)>;

/// What an exchange hash-partitions on.
enum PartitionKey<'a> {
    /// The values at these column indices (join keys).
    Columns(&'a [usize]),
    /// Every column (pre-join aggregation: duplicates of a row must meet in
    /// one partition).
    WholeRow,
}

/// Hash-partitions materialized chunks into exactly `partitions` output
/// partitions, preserving the relative order of rows within each partition.
/// Rows with equal keys always land in the same partition; an empty column
/// key sends everything to partition 0 (a cross join cannot be split by
/// key).
///
/// The pass is a coordinator-side move (hash + `Vec` push per row, no
/// annotation clones and no semiring ops), but it is still a serial
/// O(rows) fraction of every pipeline breaker — pushing the partitioning
/// into the producing workers (each returning `partitions` sub-chunks,
/// concatenated per index in producer order) is the known next step if
/// multi-core profiles show exchanges on the critical path.
fn exchange<K>(chunks: Vec<Chunk<K>>, partitions: usize, key: PartitionKey<'_>) -> Vec<Chunk<K>> {
    let mut out: Vec<Chunk<K>> = (0..partitions).map(|_| Vec::new()).collect();
    for chunk in chunks {
        for (row, k) in chunk {
            let h = match key {
                PartitionKey::Columns(cols) => {
                    let mut hasher = FxHasher::default();
                    for &c in cols {
                        row[c].hash(&mut hasher);
                    }
                    hasher.finish()
                }
                PartitionKey::WholeRow => fx_hash_one(&row),
            };
            out[crate::par::part_of(h, partitions)].push((row, k));
        }
    }
    out
}

/// Seals a chunk for transport to another thread: rows are plain `Send`
/// data, annotations go through the semiring's portable encoding.
fn seal<K: Semiring>(chunk: Chunk<K>) -> (Vec<Row>, Portable) {
    let (rows, anns): (Vec<Row>, Vec<K>) = chunk.into_iter().unzip();
    let token = K::to_portable(anns);
    (rows, token)
}

/// Opens a sealed chunk in the current thread.
fn open<K: Semiring>((rows, token): (Vec<Row>, Portable)) -> Chunk<K> {
    rows.into_iter().zip(K::from_portable(token)).collect()
}

/// Caps the number of partitions at `parts` by concatenating runs of
/// adjacent partitions (order-preserving), so a deep union tree cannot
/// oversubscribe the thread budget.
fn coalesce<K>(chunks: Vec<Chunk<K>>, parts: usize) -> Vec<Chunk<K>> {
    if chunks.len() <= parts {
        return chunks;
    }
    let per = chunks.len().div_ceil(parts);
    let mut out: Vec<Chunk<K>> = Vec::with_capacity(parts);
    for (i, chunk) in chunks.into_iter().enumerate() {
        if i % per == 0 {
            out.push(chunk);
        } else {
            out.last_mut().expect("pushed above").extend(chunk);
        }
    }
    out
}

/// Maps `work` over the chunks — one scoped worker per chunk when the input
/// is large enough, inline otherwise — returning output chunks in input
/// order. The annotation batches cross the thread boundary sealed
/// ([`seal`]/[`open`]), so this compiles for *every* semiring; callers gate
/// on [`Semiring::is_portable`].
pub(crate) fn par_map_chunks<K, F>(chunks: Vec<Chunk<K>>, threads: usize, work: F) -> Vec<Chunk<K>>
where
    K: Semiring,
    F: Fn(usize, Chunk<K>) -> Chunk<K> + Sync,
{
    let chunks = coalesce(chunks, threads);
    let total: usize = chunks.iter().map(Vec::len).sum();
    if chunks.len() <= 1 || total < crate::par::SPAWN_THRESHOLD {
        return chunks
            .into_iter()
            .enumerate()
            .map(|(i, chunk)| work(i, chunk))
            .collect();
    }
    let sealed: Vec<_> = chunks.into_iter().map(seal::<K>).enumerate().collect();
    let outputs = crate::par::spawn_map(sealed, |(i, payload)| seal(work(i, open::<K>(payload))));
    outputs.into_iter().map(open::<K>).collect()
}

/// [`par_map_chunks`] for operators with two inputs per partition (the
/// partitioned hash join: build chunk + probe chunk, one worker per key
/// partition).
fn par_map_chunk_pairs<K, F>(pairs: Vec<(Chunk<K>, Chunk<K>)>, work: F) -> Vec<Chunk<K>>
where
    K: Semiring,
    F: Fn(Chunk<K>, Chunk<K>) -> Chunk<K> + Sync,
{
    let total: usize = pairs.iter().map(|(b, p)| b.len() + p.len()).sum();
    if pairs.len() <= 1 || total < crate::par::SPAWN_THRESHOLD {
        return pairs
            .into_iter()
            .map(|(build, probe)| work(build, probe))
            .collect();
    }
    let sealed: Vec<_> = pairs
        .into_iter()
        .map(|(build, probe)| (seal::<K>(build), seal::<K>(probe)))
        .collect();
    let outputs = crate::par::spawn_map(sealed, |(build, probe)| {
        seal(work(open::<K>(build), open::<K>(probe)))
    });
    outputs.into_iter().map(open::<K>).collect()
}

/// Aggregates one partition: duplicates of a row were exchanged into the
/// same partition, so a per-partition hash aggregation is globally exact.
/// Output follows the deterministic FxHash map iteration order.
pub(crate) fn aggregate_chunk<K: Semiring>(chunk: Chunk<K>) -> Chunk<K> {
    let mut groups: FxHashMap<Row, K> = FxHashMap::default();
    for (row, k) in chunk {
        match groups.get_mut(&row) {
            Some(existing) => existing.plus_assign(&k),
            None => {
                groups.insert(row, k);
            }
        }
    }
    groups.into_iter().filter(|(_, k)| !k.is_zero()).collect()
}

/// Joins one key partition: build a local hash index over the build chunk
/// (in chunk order), stream the probe chunk through it (in chunk order) —
/// the per-partition mirror of the serial [`PhysOp::HashJoin`] streaming.
fn join_chunk<K: Semiring>(
    build: Chunk<K>,
    probe: Chunk<K>,
    build_keys: &[usize],
    probe_keys: &[usize],
    output: &[ColSource],
    swapped: bool,
) -> Chunk<K> {
    let mut index: FxHashMap<Row, Vec<(Row, K)>> = FxHashMap::default();
    for (row, k) in build {
        let key: Row = build_keys.iter().map(|&i| row[i].clone()).collect();
        index.entry(key).or_default().push((row, k));
    }
    let mut out: Chunk<K> = Vec::new();
    let mut key_buf: Vec<Value> = Vec::with_capacity(probe_keys.len());
    for (prow, pk) in probe {
        key_buf.clear();
        key_buf.extend(probe_keys.iter().map(|&i| prow[i].clone()));
        if let Some(entries) = index.get(key_buf.as_slice()) {
            out.reserve(entries.len());
            for (brow, bk) in entries {
                let row: Row = output
                    .iter()
                    .map(|src| match src {
                        ColSource::Build(i) => brow[*i].clone(),
                        ColSource::Probe(i) => prow[*i].clone(),
                    })
                    .collect();
                let k = if swapped { pk.times(bk) } else { bk.times(&pk) };
                out.push((row, k));
            }
        }
    }
    out
}

/// One step of a pipelined unary chain (σ/π/permute), compiled to row form.
/// Projection and permutation are the same physical operation — gather
/// columns by index — so the chain is just filters and gathers.
enum RowStep<'a> {
    /// Keep the row iff the predicate holds.
    Filter(&'a CompiledPredicate),
    /// Rebuild the row from the given input column indices.
    Gather(&'a [usize]),
}

/// Applies a unary chain (innermost step first) to one row; `None` when a
/// filter rejects it. Annotations are untouched — callers clone or move the
/// annotation only for rows that survive.
fn apply_steps(mut row: Row, steps: &[RowStep<'_>]) -> Option<Row> {
    for step in steps {
        match step {
            RowStep::Filter(predicate) => {
                if !predicate.eval(&row) {
                    return None;
                }
            }
            RowStep::Gather(cols) => row = cols.iter().map(|&i| row[i].clone()).collect(),
        }
    }
    Some(row)
}

/// Recursively executes an operator into materialized partitions.
///
/// * scans split into (up to) `threads` contiguous morsels;
/// * chains of σ/π/permute are **fused**: peeled off the operator tree into
///   a [`RowStep`] list and applied in a single per-partition pass — during
///   morsel materialization when they sit directly over a scan (so filtered
///   rows never clone their annotation, mirroring the serial path's
///   borrowed-`Cow` discipline), or in one worker wave above a pipeline
///   breaker (never one wave per operator);
/// * ∪ concatenates its inputs' partitions (left before right);
/// * aggregation exchanges on the whole row, then aggregates per partition;
/// * hash joins exchange both inputs on the join key and run one
///   build+probe worker per key partition.
fn exec_partitions<K, S>(op: &PhysOp, source: &S, threads: usize) -> Vec<Chunk<K>>
where
    K: Semiring,
    S: RelationSource<K>,
{
    // Peel the unary streaming chain off the top of `op`, outermost first…
    let mut steps: Vec<RowStep<'_>> = Vec::new();
    let mut op = op;
    loop {
        match op {
            PhysOp::Select { input, predicate } => {
                steps.push(RowStep::Filter(predicate));
                op = input;
            }
            PhysOp::Project { input, keep } => {
                steps.push(RowStep::Gather(keep));
                op = input;
            }
            PhysOp::Permute { input, perm } => {
                steps.push(RowStep::Gather(perm));
                op = input;
            }
            _ => break,
        }
    }
    // …then flip it so `apply_steps` runs innermost-first.
    steps.reverse();

    match op {
        PhysOp::Scan { name, schema } => {
            // The *filter prefix* of the chain (selections pushed to the
            // bottom by the optimizer) runs during morsel materialization,
            // so rejected rows never clone their annotation — the parallel
            // counterpart of the serial path's borrowed-`Cow` discipline.
            // Everything after the first gather runs in the workers.
            let filters = steps
                .iter()
                .take_while(|step| matches!(step, RowStep::Filter(_)))
                .count();
            let (prefix, rest) = steps.split_at(filters);
            let relation = scan_relation(name, schema, source);
            let rows: Chunk<K> = relation
                .iter()
                .filter_map(|(tuple, k)| {
                    let row: Row = tuple.values().cloned().collect();
                    apply_steps(row, prefix).map(|row| (row, k.clone()))
                })
                .collect();
            let parts = crate::par::chunked(rows, threads);
            if rest.is_empty() {
                return parts;
            }
            par_map_chunks(parts, threads, |_, chunk: Chunk<K>| {
                chunk
                    .into_iter()
                    .filter_map(|(row, k)| apply_steps(row, rest).map(|row| (row, k)))
                    .collect()
            })
        }
        PhysOp::Empty => Vec::new(),
        breaker => {
            let parts = exec_breaker(breaker, source, threads);
            if steps.is_empty() {
                return parts;
            }
            par_map_chunks(parts, threads, |_, chunk: Chunk<K>| {
                chunk
                    .into_iter()
                    .filter_map(|(row, k)| apply_steps(row, &steps).map(|row| (row, k)))
                    .collect()
            })
        }
    }
}

/// Executes a pipeline breaker (∪/aggregation/hash join) into partitions;
/// the unary chains above it were already peeled off by
/// [`exec_partitions`].
fn exec_breaker<K, S>(op: &PhysOp, source: &S, threads: usize) -> Vec<Chunk<K>>
where
    K: Semiring,
    S: RelationSource<K>,
{
    match op {
        PhysOp::Scan { .. }
        | PhysOp::Empty
        | PhysOp::Select { .. }
        | PhysOp::Project { .. }
        | PhysOp::Permute { .. } => {
            unreachable!("exec_partitions handles scans and peels unary operators")
        }
        PhysOp::Union { left, right } => {
            let mut parts = exec_partitions(left, source, threads);
            parts.extend(exec_partitions(right, source, threads));
            parts
        }
        PhysOp::Aggregate { input } => {
            let parts = exchange(
                exec_partitions(input, source, threads),
                threads,
                PartitionKey::WholeRow,
            );
            par_map_chunks(parts, threads, |_, chunk| aggregate_chunk(chunk))
        }
        PhysOp::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            output,
            swapped,
        } => {
            let build_parts = exchange(
                exec_partitions(build, source, threads),
                threads,
                PartitionKey::Columns(build_keys),
            );
            let probe_parts = exchange(
                exec_partitions(probe, source, threads),
                threads,
                PartitionKey::Columns(probe_keys),
            );
            let pairs: Vec<_> = build_parts.into_iter().zip(probe_parts).collect();
            par_map_chunk_pairs(pairs, |bchunk, pchunk| {
                join_chunk(bchunk, pchunk, build_keys, probe_keys, output, *swapped)
            })
        }
    }
}
