//! The physical operator tree: what the planner compiles an optimized
//! [`LogicalPlan`] into and the columnar executor (`super::batch`) runs.
//!
//! At plan time every attribute is resolved to a column index, so nothing
//! below this point touches attribute names: an operator's columns follow
//! its output schema (attributes in sorted order, matching
//! [`Schema::attributes`]), and predicates are compiled to column-index form
//! ([`CompiledPredicate`]).
//!
//! The tree fixes the plan's *shape*, independent of the annotation
//! semiring: σ, π, ρ (a column permutation) and ∪ are pipelined, and
//! materialization happens in exactly three places — the **build side of a
//! hash join**, a **pre-join aggregation** on any join input that could
//! stream duplicate rows per [`LogicalPlan::may_produce_duplicate_rows`] (so
//! joins always see distinct, annotation-summed rows — see
//! [`PhysOp::Aggregate`]; rename-like projections that only drop
//! constant-pinned or equality-determined columns stay pipelined), and the
//! **plan root** (the final `Σ` of duplicate rows). This module also holds
//! the tree's renderings ([`PhysOp::render`], [`describe_scan_batches`]) and
//! the scan-time consistency check ([`scan_relation`]); how the operators
//! execute — batches, kernels, the morsel exchange — is `super::batch`.

use crate::plan::RelationSource;
use crate::predicate::Predicate;
use crate::relation::KRelation;
use crate::schema::Schema;
use crate::value::Value;
use provsem_semiring::Semiring;

use super::logical::LogicalPlan;

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
    /// their hash-partition count. Scans also show the batch row budget.
    pub(crate) fn render(&self, threads: usize) -> String {
        let mut out = String::new();
        self.render_node(&mut out, "", "", threads);
        out
    }

    fn describe(&self, threads: usize) -> String {
        let fanout = |label: &str| {
            if threads > 1 {
                format!(" [{label}={threads}]")
            } else {
                String::new()
            }
        };
        match self {
            PhysOp::Scan { name, schema } => format!(
                "scan {name} {schema:?} [batch={}]{}",
                crate::column::BATCH_ROWS,
                fanout("morsels")
            ),
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

    fn render_node(&self, out: &mut String, prefix: &str, child_prefix: &str, threads: usize) {
        out.push_str(prefix);
        out.push_str(&self.describe(threads));
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
            );
        }
    }
}

/// Walks the physical tree and describes, per scan, the columnar layout the
/// executor will build against `source`: row count, batch count, and
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
            // A non-converting read: a version without a form is converted
            // here for the description only.
            let (batches, provenance) = match relation.form() {
                Some(form) => (form.batches.clone(), form.provenance()),
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

/// A scan's batches: the relation version's columnar form, read through the
/// source's [`BatchCache`](crate::column::BatchCache) — which counts the read
/// — when the source has one.
pub(crate) fn scan_batches<K, S>(
    relation: &KRelation<K>,
    source: &S,
) -> std::sync::Arc<Vec<crate::column::Batch<K>>>
where
    K: Semiring,
    S: RelationSource<K>,
{
    match source.batch_cache() {
        Some((cache, _)) => cache.scan(relation),
        None => relation.batches(),
    }
}

/// Resolves a scanned relation against the execution source.
///
/// # Panics
/// Panics if the relation is missing from `source` or its schema differs
/// from the one the plan was built against — both mean the plan is being
/// executed against a source inconsistent with its catalog.
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
