//! Logical query plans: validated, schema-annotated RA⁺ trees plus the
//! rewrite rules applied before physical compilation.
//!
//! A [`LogicalPlan`] is an [`RaExpr`] that has been
//! checked once against a [`Catalog`]: every node knows its output schema,
//! and all the error cases of [`RaExpr::eval`](crate::expr::RaExpr::eval)
//! (unknown relations, union schema mismatches, invalid projections,
//! non-injective renamings) have been ruled out up front. Because validation
//! mirrors `RaExpr::output_schema` exactly — bottom-up, left to right — the
//! planner reports the same [`EvalError`] the tree-walking interpreter
//! would.
//!
//! [`optimize`] then applies the classical RA⁺ rewrites, all of which are
//! annotation-correct for **any** commutative semiring because they only
//! rely on the semiring laws (Proposition 3.4 of the paper):
//!
//! * **rename fusion** — `ρ_β₁(ρ_β₂(e))` becomes a single renaming, and
//!   identity renamings disappear;
//! * **selection pushdown** — conjuncts of `σ_P` move below projections,
//!   renamings and unions, and onto the join input that covers their
//!   attributes; `σ_false` collapses to `∅` and `σ_true` disappears;
//! * **empty propagation** — `∅` absorbs joins and selections and is the
//!   identity of union;
//! * **projection pushdown / join-input pruning** — a top-down pass narrows
//!   every node to the columns actually needed above it (for a join input:
//!   the columns needed upstream plus the join keys), collapsing cascaded
//!   projections along the way. Pushing a projection below a join is sound
//!   in any commutative semiring: `(Σᵢ rᵢ)·(Σⱼ sⱼ) = Σᵢⱼ rᵢ·sⱼ` by
//!   distributivity.

use crate::expr::{EvalError, RaExpr};
use crate::plan::Catalog;
use crate::predicate::Predicate;
use crate::schema::{Attribute, Renaming, Schema};
use std::collections::{BTreeMap, BTreeSet};

/// A validated, schema-annotated RA⁺ plan node.
#[derive(Clone, PartialEq, Debug)]
pub enum LogicalPlan {
    /// A scan of a named base relation.
    Scan {
        /// The relation name.
        name: String,
        /// The relation's schema (from the catalog).
        schema: Schema,
        /// The relation's cardinality (from the catalog), used to pick hash
        /// join build sides.
        estimate: usize,
    },
    /// The empty relation over a schema.
    Empty {
        /// The output schema.
        schema: Schema,
    },
    /// Union of two plans with identical schemas.
    Union {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Projection onto a subset of the input schema.
    Project {
        /// The projection target (the output schema).
        schema: Schema,
        /// The input plan.
        input: Box<LogicalPlan>,
    },
    /// Selection by a predicate.
    Select {
        /// The predicate.
        predicate: Predicate,
        /// The input plan.
        input: Box<LogicalPlan>,
    },
    /// Natural join.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// The output schema (union of the input schemas).
        schema: Schema,
    },
    /// Renaming of attributes.
    Rename {
        /// The renaming (injective on the input schema).
        renaming: Renaming,
        /// The renamed (output) schema.
        schema: Schema,
        /// The input plan.
        input: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Builds and validates a logical plan for `expr` against `catalog`.
    ///
    /// Validation order mirrors `RaExpr::eval` / `RaExpr::output_schema`
    /// (bottom-up, left to right), so the reported error is identical to the
    /// interpreter's.
    pub fn from_expr(expr: &RaExpr, catalog: &Catalog) -> Result<LogicalPlan, EvalError> {
        match expr {
            RaExpr::Relation(name) => match catalog.get(name) {
                Some((schema, estimate)) => Ok(LogicalPlan::Scan {
                    name: name.clone(),
                    schema: schema.clone(),
                    estimate,
                }),
                None => Err(EvalError::UnknownRelation(name.clone())),
            },
            RaExpr::Empty(schema) => Ok(LogicalPlan::Empty {
                schema: schema.clone(),
            }),
            RaExpr::Union(a, b) => {
                let left = LogicalPlan::from_expr(a, catalog)?;
                let right = LogicalPlan::from_expr(b, catalog)?;
                if left.schema() != right.schema() {
                    return Err(EvalError::SchemaMismatch {
                        left: left.schema().clone(),
                        right: right.schema().clone(),
                    });
                }
                Ok(LogicalPlan::Union {
                    left: Box::new(left),
                    right: Box::new(right),
                })
            }
            RaExpr::Project(schema, e) => {
                let input = LogicalPlan::from_expr(e, catalog)?;
                if !input.schema().contains_all(schema) {
                    return Err(EvalError::InvalidProjection {
                        requested: schema.clone(),
                        available: input.schema().clone(),
                    });
                }
                Ok(LogicalPlan::Project {
                    schema: schema.clone(),
                    input: Box::new(input),
                })
            }
            RaExpr::Select(p, e) => {
                let input = LogicalPlan::from_expr(e, catalog)?;
                Ok(LogicalPlan::Select {
                    predicate: p.clone(),
                    input: Box::new(input),
                })
            }
            RaExpr::Join(a, b) => {
                let left = LogicalPlan::from_expr(a, catalog)?;
                let right = LogicalPlan::from_expr(b, catalog)?;
                let schema = left.schema().union(right.schema());
                Ok(LogicalPlan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    schema,
                })
            }
            RaExpr::Rename(rho, e) => {
                let input = LogicalPlan::from_expr(e, catalog)?;
                match rho.apply_schema(input.schema()) {
                    Some(schema) => Ok(LogicalPlan::Rename {
                        renaming: rho.clone(),
                        schema,
                        input: Box::new(input),
                    }),
                    None => Err(EvalError::InvalidRenaming(input.schema().clone())),
                }
            }
        }
    }

    /// The node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Empty { schema }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Rename { schema, .. } => schema,
            LogicalPlan::Union { left, .. } => left.schema(),
            LogicalPlan::Select { input, .. } => input.schema(),
        }
    }

    /// A crude cardinality estimate, used only to choose hash join build
    /// sides (the smaller estimated input is materialized).
    pub fn estimate(&self) -> usize {
        match self {
            LogicalPlan::Scan { estimate, .. } => *estimate,
            LogicalPlan::Empty { .. } => 0,
            LogicalPlan::Union { left, right } => left.estimate().saturating_add(right.estimate()),
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Select { input, .. }
            | LogicalPlan::Rename { input, .. } => input.estimate(),
            LogicalPlan::Join { left, right, .. } => {
                if left.schema().is_disjoint(right.schema()) {
                    left.estimate().saturating_mul(right.estimate())
                } else {
                    left.estimate().max(right.estimate())
                }
            }
        }
    }

    /// Does the hash join for this `Join` node build on the left input?
    /// (The smaller estimated side is materialized; ties build left.)
    pub(crate) fn join_builds_left(left: &LogicalPlan, right: &LogicalPlan) -> bool {
        left.estimate() <= right.estimate()
    }

    /// Renders the plan as an indented tree — the body of
    /// [`Plan::explain`](crate::plan::Plan::explain).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(&mut out, "", "");
        out
    }

    fn describe(&self) -> String {
        match self {
            LogicalPlan::Scan { name, schema, .. } => format!("scan {name} {schema:?}"),
            LogicalPlan::Empty { schema } => format!("∅ {schema:?}"),
            LogicalPlan::Union { .. } => "∪".to_string(),
            LogicalPlan::Project { schema, .. } => format!("π {schema:?}"),
            LogicalPlan::Select { predicate, .. } => format!("σ {predicate}"),
            LogicalPlan::Join { left, right, .. } => {
                let keys = left.schema().intersection(right.schema());
                let side = if LogicalPlan::join_builds_left(left, right) {
                    "left"
                } else {
                    "right"
                };
                format!("⋈ on {keys:?} (build: {side})")
            }
            LogicalPlan::Rename {
                renaming, input, ..
            } => {
                let pairs: Vec<String> = input
                    .schema()
                    .attributes()
                    .iter()
                    .filter_map(|a| {
                        let b = renaming.apply(a);
                        (b != *a).then(|| format!("{a}→{b}"))
                    })
                    .collect();
                format!("ρ {}", pairs.join(", "))
            }
        }
    }

    fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Empty { .. } => Vec::new(),
            LogicalPlan::Union { left, right } | LogicalPlan::Join { left, right, .. } => {
                vec![left, right]
            }
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Select { input, .. }
            | LogicalPlan::Rename { input, .. } => vec![input],
        }
    }

    fn render_node(&self, out: &mut String, prefix: &str, child_prefix: &str) {
        out.push_str(prefix);
        out.push_str(&self.describe());
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
            );
        }
    }
}

/// What the planner knows about the rows a (sub)plan emits, used to decide
/// where the physical compiler must insert pre-join aggregations.
///
/// `groups` records attribute classes known **pairwise equal on every
/// emitted row** (from `a=b` selection conjuncts below); a group with
/// `pinned = true` is additionally equal to one constant (from `a=v`
/// conjuncts). These facts come only from selections *below* the operator,
/// so they hold on every row the operator streams.
pub(crate) struct RowFacts {
    /// Can the operator emit the same row more than once?
    pub(crate) may_duplicate: bool,
    groups: Vec<(BTreeSet<Attribute>, bool)>,
}

impl RowFacts {
    fn distinct() -> RowFacts {
        RowFacts {
            may_duplicate: false,
            groups: Vec::new(),
        }
    }

    fn duplicating() -> RowFacts {
        RowFacts {
            may_duplicate: true,
            groups: Vec::new(),
        }
    }

    fn group_of(&self, attr: &Attribute) -> Option<usize> {
        self.groups.iter().position(|(g, _)| g.contains(attr))
    }

    /// Records `attr = constant` on every row.
    fn pin(&mut self, attr: &Attribute) {
        match self.group_of(attr) {
            Some(i) => self.groups[i].1 = true,
            None => self.groups.push((BTreeSet::from([attr.clone()]), true)),
        }
    }

    /// Records `a = b` on every row.
    fn equate(&mut self, a: &Attribute, b: &Attribute) {
        if a == b {
            return;
        }
        match (self.group_of(a), self.group_of(b)) {
            (Some(i), Some(j)) if i == j => {}
            (Some(i), Some(j)) => {
                let (merged, pinned) = self.groups.remove(j.max(i));
                let keep = &mut self.groups[j.min(i)];
                keep.0.extend(merged);
                keep.1 |= pinned;
            }
            (Some(i), None) => {
                self.groups[i].0.insert(b.clone());
            }
            (None, Some(j)) => {
                self.groups[j].0.insert(a.clone());
            }
            (None, None) => self
                .groups
                .push((BTreeSet::from([a.clone(), b.clone()]), false)),
        }
    }

    /// Is `attr`'s value on every row determined by the attributes of
    /// `kept` (directly, via an equality chain, or by being constant)?
    fn determined_by(&self, attr: &Attribute, kept: &Schema) -> bool {
        self.group_of(attr)
            .map(|i| {
                let (group, pinned) = &self.groups[i];
                *pinned || group.iter().any(|a| kept.contains(a))
            })
            .unwrap_or(false)
    }

    /// Keeps only facts about the attributes of `kept` (after a projection).
    fn restrict(&mut self, kept: &Schema) {
        for (group, _) in &mut self.groups {
            group.retain(|a| kept.contains(a));
        }
        self.groups
            .retain(|(group, pinned)| group.len() >= 2 || (*pinned && !group.is_empty()));
    }

    /// Relabels the facts through a renaming.
    fn rename(&mut self, renaming: &Renaming) {
        for (group, _) in &mut self.groups {
            *group = group.iter().map(|a| renaming.apply(a)).collect();
        }
    }

    /// Merges another operator's facts in (for joins: both hold on the
    /// combined row).
    fn absorb(&mut self, other: RowFacts) {
        for (group, pinned) in other.groups {
            let mut members = group.into_iter();
            let Some(first) = members.next() else {
                continue;
            };
            for member in members {
                self.equate(&first, &member);
            }
            if pinned {
                self.pin(&first);
            }
        }
    }
}

/// Collects per-row equality facts from the top-level conjuncts of a
/// selection predicate. Only conjuncts whose attributes all exist in
/// `schema` are recorded: a comparison against a missing attribute is
/// constant-`false` (no rows at all), which yields no usable fact.
fn collect_predicate_facts(predicate: &Predicate, schema: &Schema, facts: &mut RowFacts) {
    match predicate {
        Predicate::And(p, q) => {
            collect_predicate_facts(p, schema, facts);
            collect_predicate_facts(q, schema, facts);
        }
        Predicate::AttrEqValue(a, _) if schema.contains(a) => facts.pin(a),
        Predicate::AttrEqAttr(a, b) if schema.contains(a) && schema.contains(b) => {
            facts.equate(a, b)
        }
        _ => {}
    }
}

impl LogicalPlan {
    /// Can this operator stream the same row more than once? Drives the
    /// physical compiler's pre-join aggregation decision.
    ///
    /// Scans emit distinct rows; selections and renamings preserve
    /// distinctness; joins emit distinct rows because the compiler
    /// aggregates any duplicate-streaming join input; unions duplicate. A
    /// **projection** duplicates only if it actually loses information:
    /// dropping an attribute that is *determined* by the kept ones — pinned
    /// to a constant by a selection below (`σ_{c=v}` then `π` dropping `c`,
    /// the shape column pruning produces constantly) or chained by `a=b`
    /// equalities to a kept attribute — preserves distinctness, and such
    /// rename-like projections stay pipelined.
    ///
    /// The analysis is conservative in the safe direction: a false
    /// `may_duplicate` answer can only ever cost an avoidable aggregation,
    /// never correctness (duplicate rows through a join are still summed at
    /// the next materialization point).
    pub(crate) fn may_produce_duplicate_rows(&self) -> bool {
        self.row_facts().may_duplicate
    }

    fn row_facts(&self) -> RowFacts {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Empty { .. } => RowFacts::distinct(),
            LogicalPlan::Union { .. } => RowFacts::duplicating(),
            LogicalPlan::Select { predicate, input } => {
                let mut facts = input.row_facts();
                collect_predicate_facts(predicate, input.schema(), &mut facts);
                facts
            }
            LogicalPlan::Rename {
                renaming, input, ..
            } => {
                let mut facts = input.row_facts();
                facts.rename(renaming);
                facts
            }
            LogicalPlan::Project { schema, input } => {
                let mut facts = input.row_facts();
                let drops_information = input
                    .schema()
                    .attributes()
                    .iter()
                    .any(|a| !schema.contains(a) && !facts.determined_by(a, schema));
                facts.may_duplicate |= drops_information;
                facts.restrict(schema);
                facts
            }
            LogicalPlan::Join { left, right, .. } => {
                // The compiler aggregates duplicate-streaming join inputs,
                // so the join sees distinct sides — and a join of distinct
                // inputs is distinct (the output row determines the pair).
                let mut facts = left.row_facts();
                facts.absorb(right.row_facts());
                facts.may_duplicate = false;
                facts
            }
        }
    }
}

/// Applies every rewrite pass in order: rename fusion, selection pushdown,
/// empty propagation, and column pruning (projection pushdown).
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    let plan = fuse_renames(plan);
    let plan = push_selections(plan);
    let plan = propagate_empty(plan);
    let needed = plan.schema().clone();
    prune_columns(plan, &needed)
}

/// Rebuilds a unary/binary node with already-rewritten children.
fn map_children(plan: LogicalPlan, f: &impl Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { .. } | LogicalPlan::Empty { .. } => plan,
        LogicalPlan::Union { left, right } => LogicalPlan::Union {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
        },
        LogicalPlan::Project { schema, input } => LogicalPlan::Project {
            schema,
            input: Box::new(f(*input)),
        },
        LogicalPlan::Select { predicate, input } => LogicalPlan::Select {
            predicate,
            input: Box::new(f(*input)),
        },
        LogicalPlan::Join {
            left,
            right,
            schema,
        } => LogicalPlan::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            schema,
        },
        LogicalPlan::Rename {
            renaming,
            schema,
            input,
        } => LogicalPlan::Rename {
            renaming,
            schema,
            input: Box::new(f(*input)),
        },
    }
}

/// Bottom-up rename fusion: `ρ_β₁(ρ_β₂(e))` becomes one composed renaming,
/// and renamings that act as the identity on their input schema disappear.
fn fuse_renames(plan: LogicalPlan) -> LogicalPlan {
    let plan = map_children(plan, &fuse_renames);
    match plan {
        LogicalPlan::Rename {
            renaming,
            schema,
            input,
        } => match *input {
            LogicalPlan::Rename {
                renaming: inner_rho,
                input: inner_input,
                ..
            } => {
                let pairs: Vec<(Attribute, Attribute)> = inner_input
                    .schema()
                    .attributes()
                    .iter()
                    .filter_map(|a| {
                        let composed = renaming.apply(&inner_rho.apply(a));
                        (composed != *a).then_some((a.clone(), composed))
                    })
                    .collect();
                if pairs.is_empty() {
                    *inner_input
                } else {
                    LogicalPlan::Rename {
                        renaming: Renaming::new(pairs),
                        schema,
                        input: inner_input,
                    }
                }
            }
            other => {
                let identity = other
                    .schema()
                    .attributes()
                    .iter()
                    .all(|a| renaming.apply(a) == *a);
                if identity {
                    other
                } else {
                    LogicalPlan::Rename {
                        renaming,
                        schema,
                        input: Box::new(other),
                    }
                }
            }
        },
        other => other,
    }
}

/// Splits a predicate into its top-level conjuncts, dropping `true`.
fn split_conjuncts(predicate: Predicate, out: &mut Vec<Predicate>) {
    match predicate {
        Predicate::And(p, q) => {
            split_conjuncts(*p, out);
            split_conjuncts(*q, out);
        }
        Predicate::True => {}
        other => out.push(other),
    }
}

/// Re-assembles conjuncts into a single predicate (`true` when empty).
fn and_all(mut conjuncts: Vec<Predicate>) -> Predicate {
    match conjuncts.pop() {
        None => Predicate::True,
        Some(last) => conjuncts
            .into_iter()
            .rev()
            .fold(last, |acc, c| Predicate::And(Box::new(c), Box::new(acc))),
    }
}

/// Wraps `input` in a selection over `conjuncts` (no-op when empty).
fn wrap_select(conjuncts: Vec<Predicate>, input: LogicalPlan) -> LogicalPlan {
    if conjuncts.is_empty() {
        input
    } else {
        LogicalPlan::Select {
            predicate: and_all(conjuncts),
            input: Box::new(input),
        }
    }
}

/// Top-down selection pushdown.
fn push_selections(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Select { predicate, input } => {
            let input = push_selections(*input);
            let mut conjuncts = Vec::new();
            split_conjuncts(predicate, &mut conjuncts);
            push_conjuncts(conjuncts, input)
        }
        other => map_children(other, &push_selections),
    }
}

/// Pushes a set of conjuncts as far down into `input` as attribute coverage
/// allows. `input` has already been processed by [`push_selections`].
///
/// The "missing attribute" semantics of [`Predicate::eval`] (comparisons
/// against absent attributes are `false`, not errors) constrain when a
/// conjunct may move: it must see exactly the same set of present/absent
/// attributes below the operator as above it.
fn push_conjuncts(mut conjuncts: Vec<Predicate>, input: LogicalPlan) -> LogicalPlan {
    if conjuncts.iter().any(|c| matches!(c, Predicate::False)) {
        // σ_false(e) = ∅ over e's schema.
        return LogicalPlan::Empty {
            schema: input.schema().clone(),
        };
    }
    match input {
        LogicalPlan::Select {
            predicate,
            input: inner,
        } => {
            // Fuse stacked selections, then retry as one conjunct set.
            split_conjuncts(predicate, &mut conjuncts);
            push_conjuncts(conjuncts, *inner)
        }
        LogicalPlan::Union { left, right } => {
            // σ_P(A ∪ B) = σ_P(A) ∪ σ_P(B): annotations distribute over +.
            LogicalPlan::Union {
                left: Box::new(push_conjuncts(conjuncts.clone(), *left)),
                right: Box::new(push_conjuncts(conjuncts, *right)),
            }
        }
        LogicalPlan::Project { schema, input } => {
            // A conjunct moves below π_V iff every attribute it references
            // that exists in the input schema is kept by V (otherwise the
            // attribute would flip from "missing" to "present").
            let inner_schema = input.schema().clone();
            let (push, stay): (Vec<_>, Vec<_>) = conjuncts.into_iter().partition(|c| {
                c.referenced_attributes()
                    .iter()
                    .all(|a| !inner_schema.contains(a) || schema.contains(a))
            });
            wrap_select(
                stay,
                LogicalPlan::Project {
                    schema,
                    input: Box::new(push_conjuncts(push, *input)),
                },
            )
        }
        LogicalPlan::Rename {
            renaming,
            schema,
            input,
        } => {
            // Build the inverse of the renaming restricted to the input
            // schema (the renaming may mention attributes outside it, whose
            // "inverse" must not leak in).
            let inner_schema = input.schema().clone();
            let mut back: BTreeMap<Attribute, Attribute> = BTreeMap::new();
            for a in inner_schema.attributes() {
                back.insert(renaming.apply(a), a.clone());
            }
            // A conjunct moves below ρ iff each referenced attribute is
            // either produced by the renaming (then rewrite it through the
            // inverse) or absent from both sides.
            let (push, stay): (Vec<_>, Vec<_>) = conjuncts.into_iter().partition(|c| {
                c.referenced_attributes()
                    .iter()
                    .all(|a| schema.contains(a) || !inner_schema.contains(a))
            });
            let push: Vec<Predicate> = push
                .into_iter()
                .map(|c| c.map_attributes(&|a| back.get(a).cloned().unwrap_or_else(|| a.clone())))
                .collect();
            wrap_select(
                stay,
                LogicalPlan::Rename {
                    renaming,
                    schema,
                    input: Box::new(push_conjuncts(push, *input)),
                },
            )
        }
        LogicalPlan::Join {
            left,
            right,
            schema,
        } => {
            // A conjunct moves onto the input covering all its attributes
            // that exist in the join schema (attributes absent from the join
            // schema are absent from both inputs, so they stay "missing").
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut stay = Vec::new();
            for c in conjuncts {
                let refs = c.referenced_attributes();
                let present: Vec<&Attribute> = refs.iter().filter(|a| schema.contains(a)).collect();
                if present.iter().all(|a| left.schema().contains(a)) {
                    to_left.push(c);
                } else if present.iter().all(|a| right.schema().contains(a)) {
                    to_right.push(c);
                } else {
                    stay.push(c);
                }
            }
            wrap_select(
                stay,
                LogicalPlan::Join {
                    left: Box::new(push_conjuncts(to_left, *left)),
                    right: Box::new(push_conjuncts(to_right, *right)),
                    schema,
                },
            )
        }
        leaf => wrap_select(conjuncts, leaf),
    }
}

/// Bottom-up `∅` propagation: `∅` is the identity of `∪` and absorbs `σ`,
/// `π`, `ρ` and `⋈` (Proposition 3.4 identities).
fn propagate_empty(plan: LogicalPlan) -> LogicalPlan {
    let plan = map_children(plan, &propagate_empty);
    let is_empty = |p: &LogicalPlan| matches!(p, LogicalPlan::Empty { .. });
    match plan {
        LogicalPlan::Union { left, right } if is_empty(&left) => *right,
        LogicalPlan::Union { left, right } if is_empty(&right) => *left,
        LogicalPlan::Join {
            left,
            right,
            schema,
        } if is_empty(&left) || is_empty(&right) => LogicalPlan::Empty { schema },
        LogicalPlan::Select { input, .. } if is_empty(&input) => *input,
        LogicalPlan::Project { schema, input } if is_empty(&input) => LogicalPlan::Empty { schema },
        LogicalPlan::Rename { schema, input, .. } if is_empty(&input) => {
            LogicalPlan::Empty { schema }
        }
        other => other,
    }
}

/// Top-down column pruning (projection pushdown + join-input pruning).
///
/// Returns a plan whose output schema is exactly `needed` (a subset of
/// `plan`'s schema). Cascaded projections collapse because the `Project` arm
/// recurses straight into its input.
fn prune_columns(plan: LogicalPlan, needed: &Schema) -> LogicalPlan {
    debug_assert!(
        plan.schema().contains_all(needed),
        "pruning target must be a subset of the plan schema"
    );
    match plan {
        LogicalPlan::Scan { .. } => {
            if plan.schema() == needed {
                plan
            } else {
                LogicalPlan::Project {
                    schema: needed.clone(),
                    input: Box::new(plan),
                }
            }
        }
        LogicalPlan::Empty { .. } => LogicalPlan::Empty {
            schema: needed.clone(),
        },
        LogicalPlan::Project { input, .. } => prune_columns(*input, needed),
        LogicalPlan::Select { predicate, input } => {
            // The selection additionally needs the predicate's attributes
            // (those that exist below; absent ones evaluate to "missing"
            // either way).
            let child_needed = Schema::new(
                needed.attributes().iter().cloned().chain(
                    predicate
                        .referenced_attributes()
                        .into_iter()
                        .filter(|a| input.schema().contains(a)),
                ),
            );
            let pruned = LogicalPlan::Select {
                predicate,
                input: Box::new(prune_columns(*input, &child_needed)),
            };
            if child_needed == *needed {
                pruned
            } else {
                LogicalPlan::Project {
                    schema: needed.clone(),
                    input: Box::new(pruned),
                }
            }
        }
        LogicalPlan::Union { left, right } => LogicalPlan::Union {
            left: Box::new(prune_columns(*left, needed)),
            right: Box::new(prune_columns(*right, needed)),
        },
        LogicalPlan::Join { left, right, .. } => {
            // Each input keeps the columns needed upstream plus the join
            // keys; everything else is pruned before the join runs.
            let shared = left.schema().intersection(right.schema());
            let with_keys = needed.union(&shared);
            let left_needed = with_keys.intersection(left.schema());
            let right_needed = with_keys.intersection(right.schema());
            let schema = left_needed.union(&right_needed);
            let joined = LogicalPlan::Join {
                left: Box::new(prune_columns(*left, &left_needed)),
                right: Box::new(prune_columns(*right, &right_needed)),
                schema: schema.clone(),
            };
            if schema == *needed {
                joined
            } else {
                LogicalPlan::Project {
                    schema: needed.clone(),
                    input: Box::new(joined),
                }
            }
        }
        LogicalPlan::Rename {
            renaming, input, ..
        } => {
            // Keep exactly the input attributes whose renamed image is
            // needed; the restriction of an injective renaming stays
            // injective.
            let mut child_attrs = Vec::new();
            let mut pairs = Vec::new();
            for a in input.schema().attributes() {
                let b = renaming.apply(a);
                if needed.contains(&b) {
                    child_attrs.push(a.clone());
                    if b != *a {
                        pairs.push((a.clone(), b));
                    }
                }
            }
            let child_needed = Schema::new(child_attrs);
            let pruned = prune_columns(*input, &child_needed);
            if pairs.is_empty() {
                pruned
            } else {
                LogicalPlan::Rename {
                    renaming: Renaming::new(pairs),
                    schema: needed.clone(),
                    input: Box::new(pruned),
                }
            }
        }
    }
}
