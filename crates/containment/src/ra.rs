//! Translating conjunctive queries to RA⁺ and evaluating them on the
//! planned K-relation engine of [`provsem_core::plan`].
//!
//! A safe non-recursive rule `Q(x̄) :- A₁(t̄₁), …, Aₙ(t̄ₙ)` is exactly a
//! select-project-join expression (Section 5 of the paper relates the two
//! formalisms; Propositions 5.2/5.3 translate RA⁺ ↔ datalog). We use that
//! correspondence in the *other* direction here: instead of grounding the
//! rule and running the datalog fixpoint machinery for what is a single
//! non-recursive rule, build the RA⁺ expression once and let the planner's
//! rewrites (selection pushdown, join-input pruning) and positional hash
//! joins evaluate it.
//!
//! The translation, per body atom `Aᵢ`:
//!
//! * the positional columns of `Aᵢ`'s relation are renamed so that the
//!   first occurrence of each variable `x` (within the atom) becomes the
//!   attribute `?x` — shared variables across atoms then join naturally;
//! * a repeated variable within the atom gets a fresh column equated to
//!   `?x` by a selection, and a constant gets a fresh column equated to the
//!   constant;
//! * the join of all atoms is projected onto the head variables, which
//!   performs datalog's sum over valuations of the product of body
//!   annotations — the Definition 3.2 semantics on both sides, so
//!   annotations agree for **every** semiring (checked by the differential
//!   suite in `tests/ra_vs_datalog.rs`).
//!
//! Relations are keyed by `(predicate, arity)` (a [`FactStore`] may hold
//! facts of mixed arity under one predicate); an atom whose `(predicate,
//! arity)` has no facts scans an empty relation.

use provsem_core::{
    Attribute, Database, KRelation, Plan, Predicate, RaExpr, RelationSource, Renaming, Schema,
    Tuple, Value,
};
use provsem_datalog::{Fact, FactStore, Rule, Term};
use provsem_semiring::Semiring;
use std::collections::BTreeSet;

/// Which RA evaluation path to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RaRoute {
    /// The planned engine (logical plan → optimizer → physical operators).
    Planned,
    /// The tree-walking reference interpreter
    /// ([`RaExpr::eval_interpreted`]); kept for differential testing and
    /// benchmarking against the planned engine.
    Interpreted,
}

/// The attribute holding column `j` of a positional relation. Zero-padded
/// so attribute (string) order equals positional order.
fn col_attr(j: usize) -> Attribute {
    debug_assert!(j < 100, "positional translation supports arity < 100");
    Attribute::new(format!("c{j:02}"))
}

/// The attribute carrying datalog variable `x` (the `?` prefix cannot occur
/// in column or fresh-attribute names).
fn var_attr(name: &str) -> Attribute {
    Attribute::new(format!("?{name}"))
}

/// A fresh attribute for body position `(i, j)` (constants and repeated
/// variables).
fn tmp_attr(i: usize, j: usize) -> Attribute {
    Attribute::new(format!("#{i}.{j}"))
}

/// The relation name for `(predicate, arity)`.
fn rel_name(predicate: &str, arity: usize) -> String {
    format!("{predicate}#{arity}")
}

/// A rule translated to RA⁺: the expression, plus how to rebuild head facts
/// from output tuples.
struct CompiledRule {
    expr: RaExpr,
    head_predicate: String,
    head_cols: Vec<HeadCol>,
}

enum HeadCol {
    Attr(Attribute),
    Const(Value),
}

/// Is the rule expressible as a single select-project-join over the edb?
/// (Everything except bodyless rules, rules whose own head predicate
/// appears in the body, and atoms too wide for the two-digit column
/// naming — those stay on the datalog route.)
fn translatable(rule: &Rule) -> bool {
    !rule.body.is_empty()
        && rule
            .body
            .iter()
            .all(|atom| atom.predicate != rule.head.predicate && atom.arity() < 100)
}

/// Translates one rule; `relations` collects the `(predicate, arity)` pairs
/// its body scans.
fn compile_rule(rule: &Rule, relations: &mut BTreeSet<(String, usize)>) -> CompiledRule {
    let mut expr: Option<RaExpr> = None;
    for (i, atom) in rule.body.iter().enumerate() {
        relations.insert((atom.predicate.clone(), atom.arity()));
        let mut pairs: Vec<(Attribute, Attribute)> = Vec::new();
        let mut equalities: Vec<Predicate> = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for (j, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Var(x) => {
                    if seen.insert(&x.0) {
                        pairs.push((col_attr(j), var_attr(&x.0)));
                    } else {
                        let tmp = tmp_attr(i, j);
                        equalities.push(Predicate::eq_attrs(var_attr(&x.0), tmp.clone()));
                        pairs.push((col_attr(j), tmp));
                    }
                }
                Term::Const(v) => {
                    let tmp = tmp_attr(i, j);
                    equalities.push(Predicate::eq_value(tmp.clone(), v.clone()));
                    pairs.push((col_attr(j), tmp));
                }
            }
        }
        let mut atom_expr =
            RaExpr::relation(rel_name(&atom.predicate, atom.arity())).rename(Renaming::new(pairs));
        for p in equalities {
            atom_expr = atom_expr.select(p);
        }
        expr = Some(match expr {
            None => atom_expr,
            Some(joined) => joined.join(atom_expr),
        });
    }
    let body = expr.expect("translatable rules have a non-empty body");
    let head_vars: BTreeSet<Attribute> = rule
        .head
        .terms
        .iter()
        .filter_map(|t| t.as_var().map(|x| var_attr(&x.0)))
        .collect();
    let expr = RaExpr::Project(Schema::new(head_vars), Box::new(body));
    let head_cols = rule
        .head
        .terms
        .iter()
        .map(|t| match t {
            Term::Var(x) => HeadCol::Attr(var_attr(&x.0)),
            Term::Const(v) => HeadCol::Const(v.clone()),
        })
        .collect();
    CompiledRule {
        expr,
        head_predicate: rule.head.predicate.clone(),
        head_cols,
    }
}

/// Imports the `(predicate, arity)` relations a translated query scans into
/// a positional-column [`Database`].
fn edb_database<K: Semiring>(
    edb: &FactStore<K>,
    relations: &BTreeSet<(String, usize)>,
) -> Database<K> {
    let mut db = Database::new();
    for (predicate, arity) in relations {
        let schema = Schema::new((0..*arity).map(col_attr));
        let mut relation = KRelation::empty(schema.clone());
        for (fact, k) in edb.facts_of(predicate) {
            if fact.arity() == *arity {
                relation.insert(
                    Tuple::from_values(&schema, fact.values.iter().cloned()),
                    k.clone(),
                );
            }
        }
        db.insert(rel_name(predicate, *arity), relation);
    }
    db
}

/// Evaluates a set of safe non-recursive rules (the disjuncts of a UCQ)
/// over `edb` via RA⁺, summing the per-disjunct results into one fact
/// store. Returns `None` when some rule is not translatable (the caller
/// falls back to the datalog route).
pub(crate) fn evaluate_rules<K: Semiring>(
    rules: &[&Rule],
    edb: &FactStore<K>,
    route: RaRoute,
) -> Option<FactStore<K>> {
    if !rules.iter().all(|r| translatable(r)) {
        return None;
    }
    let mut relations = BTreeSet::new();
    let compiled: Vec<CompiledRule> = rules
        .iter()
        .map(|rule| compile_rule(rule, &mut relations))
        .collect();
    let db = edb_database(edb, &relations);
    let catalog = db.catalog();
    let mut out = FactStore::new();
    for rule in &compiled {
        let result = match route {
            RaRoute::Planned => Plan::new(&rule.expr, &catalog)
                .expect("translated conjunctive queries are well-typed")
                .execute(&db),
            RaRoute::Interpreted => rule
                .expr
                .eval_interpreted(&db)
                .expect("translated conjunctive queries are well-typed"),
        };
        for (tuple, k) in result.iter() {
            let values: Vec<Value> = rule
                .head_cols
                .iter()
                .map(|col| match col {
                    HeadCol::Attr(a) => tuple
                        .get(a)
                        .expect("head variables survive the projection")
                        .clone(),
                    HeadCol::Const(v) => v.clone(),
                })
                .collect();
            out.insert(Fact::new(rule.head_predicate.clone(), values), k.clone());
        }
    }
    Some(out)
}

/// The RA⁺ expression a single rule translates to (for inspection, e.g.
/// `Plan::explain`), or `None` when the rule is not translatable.
pub fn rule_to_ra_expr(rule: &Rule) -> Option<RaExpr> {
    translatable(rule).then(|| {
        let mut relations = BTreeSet::new();
        compile_rule(rule, &mut relations).expr
    })
}
