//! Event tables and tuple-independent probabilistic databases (Figure 4 of
//! the paper).
//!
//! A probabilistic database annotates each tuple with an event over a finite
//! sample space Ω of possible worlds; the Fuhr–Rölleke–Zimányi query
//! answering algorithm *is* the generalized RA⁺ of Definition 3.2 at
//! `K = (P(Ω), ∪, ∩, ∅, Ω)` (the [`provsem_semiring::Event`] semiring).
//! Probabilities of output tuples are obtained by summing world
//! probabilities over the output events.

use provsem_core::par;
use provsem_core::{
    Catalog, Database, EvalError, ExecContext, KRelation, Plan, RaExpr, Schema, Tuple,
};
use provsem_semiring::{Circuit, CircuitEval, Event, PosBool, Valuation, Variable};
use std::collections::BTreeMap;

/// A probabilistic database in the *tuple-independent* model: each tuple is
/// present independently with its own marginal probability.
///
/// Internally the sample space Ω is the set of all `2^n` joint outcomes of
/// the `n` uncertain tuples; each tuple's event is "the worlds in which my
/// bit is set". This is exactly how the paper sets up Figure 4 (events `x`,
/// `y`, `z` assumed independent).
#[derive(Clone, Debug, Default)]
pub struct TupleIndependentDb {
    tuples: Vec<(String, Tuple, f64)>,
    schemas: BTreeMap<String, Schema>,
}

impl TupleIndependentDb {
    /// An empty probabilistic database.
    pub fn new() -> Self {
        TupleIndependentDb::default()
    }

    /// Adds a tuple to relation `name` with marginal probability `p ∈ [0,1]`.
    pub fn insert(&mut self, name: &str, tuple: Tuple, p: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.schemas
            .entry(name.to_string())
            .or_insert_with(|| tuple.schema());
        self.tuples.push((name.to_string(), tuple, p));
        self
    }

    /// The number of uncertain tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The number of possible worlds `2^n`.
    pub fn num_worlds(&self) -> u32 {
        1u32 << self.tuples.len()
    }

    /// The probability of world `w` (bit `i` of `w` says whether tuple `i`
    /// is present), assuming independence.
    pub fn world_probability(&self, w: u32) -> f64 {
        self.tuples
            .iter()
            .enumerate()
            .map(|(i, (_, _, p))| if w & (1 << i) != 0 { *p } else { 1.0 - *p })
            .product()
    }

    /// All world probabilities, indexed by world id.
    pub fn world_probabilities(&self) -> Vec<f64> {
        (0..self.num_worlds())
            .map(|w| self.world_probability(w))
            .collect()
    }

    /// The event of uncertain tuple `i`: "worlds whose bit `i` is set" —
    /// the single place encoding the world-id bit convention.
    fn tuple_event(&self, i: usize) -> Event {
        assert!(
            self.tuples.len() < 25,
            "event-table construction limited to < 25 uncertain tuples"
        );
        let n = self.num_worlds();
        Event::of_worlds((0..n).filter(|w| w & (1 << i) != 0))
    }

    /// The planner's view of this database (schemas + per-relation
    /// cardinalities), shared by every query-answering route.
    fn catalog(&self) -> Catalog {
        let mut catalog = Catalog::new();
        for (name, schema) in &self.schemas {
            let cardinality = self.tuples.iter().filter(|(n, _, _)| n == name).count();
            catalog.add(name.clone(), schema.clone(), cardinality);
        }
        catalog
    }

    /// The event-annotated database: tuple `i` is annotated with the event
    /// "worlds whose bit `i` is set".
    pub fn to_event_database(&self) -> Database<Event> {
        let mut db = Database::new();
        for (name, schema) in &self.schemas {
            db.insert(name.clone(), KRelation::<Event>::empty(schema.clone()));
        }
        for (i, (name, tuple, _)) in self.tuples.iter().enumerate() {
            db.get_mut(name)
                .expect("relation created above")
                .insert(tuple.clone(), self.tuple_event(i));
        }
        db
    }

    /// The boolean-provenance view: tuple `i` is annotated with a fresh
    /// boolean variable; useful for the PosBool route to probabilities.
    pub fn to_posbool_database(&self) -> (Database<PosBool>, Vec<(Variable, f64)>) {
        let mut db = Database::new();
        for (name, schema) in &self.schemas {
            db.insert(name.clone(), KRelation::<PosBool>::empty(schema.clone()));
        }
        let mut vars = Vec::new();
        for (i, (name, tuple, p)) in self.tuples.iter().enumerate() {
            let var = Variable::indexed("t", i);
            vars.push((var.clone(), *p));
            db.get_mut(name)
                .expect("relation created above")
                .insert(tuple.clone(), PosBool::var(var));
        }
        (db, vars)
    }

    /// Answers an RA⁺ query, returning for every output tuple its event and
    /// its exact probability (sum of the probabilities of the worlds in the
    /// event).
    ///
    /// Evaluation goes through the planned engine of
    /// [`provsem_core::plan`]. Plans only need schemas, so the query is
    /// validated and optimized *before* the (exponential in `n`) event
    /// table is constructed — an invalid query fails fast.
    pub fn answer_query(&self, query: &RaExpr) -> Result<Vec<(Tuple, Event, f64)>, EvalError> {
        self.answer_query_with(query, &ExecContext::default())
    }

    /// [`TupleIndependentDb::answer_query`] with an explicit thread budget:
    /// the query itself runs on the morsel-driven parallel executor, and the
    /// per-tuple event probabilities (a sum over the worlds of each event —
    /// the expensive step once Ω is large) are computed by scoped workers
    /// over contiguous chunks of the output, reassembled in tuple order.
    pub fn answer_query_with(
        &self,
        query: &RaExpr,
        ctx: &ExecContext,
    ) -> Result<Vec<(Tuple, Event, f64)>, EvalError> {
        let plan = Plan::new(query, &self.catalog())?;
        let db = self.to_event_database();
        let out = plan.execute_with(&db, ctx);
        let probs = self.world_probabilities();
        let pairs: Vec<(&Tuple, &Event)> = out.iter().collect();
        let answers = par::par_map_chunks(par::chunked(pairs, ctx.threads), |_, chunk| {
            chunk
                .into_iter()
                .map(|(t, e)| (t.clone(), e.clone(), e.probability(&probs)))
                .collect::<Vec<_>>()
        });
        Ok(answers.into_iter().flatten().collect())
    }

    /// Like [`TupleIndependentDb::answer_query`], but the query runs over
    /// **provenance circuits** (one hash-consed variable per uncertain
    /// tuple) and the output events are produced by a single memoized
    /// `Eval_v : ℕ\[X\] → P(Ω)` pass shared across all output tuples — event
    /// subexpressions common to several answers (shared join subplans) are
    /// intersected/unioned once instead of once per tuple.
    ///
    /// Exactly the factorization theorem run at `K = P(Ω)`: the answers are
    /// identical to the direct event-table route (pinned by tests), but the
    /// per-row algebra during evaluation is O(1) node interning instead of
    /// world-set operations.
    ///
    /// The circuit nodes live in the process-wide arena of
    /// [`provsem_semiring::circuit`], which is append-only: a long-lived
    /// process answering many structurally different queries should call
    /// `provsem_semiring::circuit::vacuum()` at a quiescent point to reclaim
    /// it (vacuuming invalidates the circuit handles every thread still
    /// holds — this method returns none).
    pub fn answer_query_via_circuit(
        &self,
        query: &RaExpr,
    ) -> Result<Vec<(Tuple, Event, f64)>, EvalError> {
        self.answer_query_via_circuit_with(query, &ExecContext::default())
    }

    /// [`TupleIndependentDb::answer_query_via_circuit`] with an explicit
    /// thread budget: the circuit query runs on the parallel executor, the
    /// ℕ\[X\] → P(Ω) specialization is one memoized pass
    /// ([`provsem_core::provenance::specialize_circuit_with`]), and the
    /// probabilities are summed by the same workers as
    /// [`TupleIndependentDb::answer_query_with`]. Answers are identical to
    /// the serial route at every thread count.
    pub fn answer_query_via_circuit_with(
        &self,
        query: &RaExpr,
        ctx: &ExecContext,
    ) -> Result<Vec<(Tuple, Event, f64)>, EvalError> {
        // Plans only need schemas: validate/optimize before building
        // anything per-world, so invalid queries fail fast.
        let plan = Plan::new(query, &self.catalog())?;

        let mut db = Database::new();
        for (name, schema) in &self.schemas {
            db.insert(name.clone(), KRelation::<Circuit>::empty(schema.clone()));
        }
        // Tuple `i` is `t_i`: one leaf range and one valuation column.
        let mut valuation: Valuation<Event> = Valuation::new();
        valuation.assign_indexed("t", (0..self.tuples.len()).map(|i| self.tuple_event(i)));
        let leaves = Circuit::indexed_vars("t", self.tuples.len());
        for ((name, tuple, _), leaf) in self.tuples.iter().zip(leaves) {
            db.get_mut(name)
                .expect("relation created above")
                .insert(tuple.clone(), leaf);
        }
        let out = plan.execute_with(&db, ctx);
        let probs = self.world_probabilities();
        if ctx.threads > 1 {
            let events = provsem_core::specialize_circuit_with(&out, &valuation, ctx);
            // Answers follow `out`'s tuples (a K-relation drops zero
            // annotations, the answer list never does); an event that
            // specialized to 0 reads back as `Event::never()`.
            let pairs: Vec<(&Tuple, Event)> =
                out.iter().map(|(t, _)| (t, events.annotation(t))).collect();
            let answers = par::par_map_chunks(par::chunked(pairs, ctx.threads), |_, chunk| {
                chunk
                    .into_iter()
                    .map(|(t, e)| {
                        let p = e.probability(&probs);
                        (t.clone(), e, p)
                    })
                    .collect::<Vec<_>>()
            });
            return Ok(answers.into_iter().flatten().collect());
        }
        let circuits: Vec<Circuit> = out.iter().map(|(_, c)| *c).collect();
        let events = CircuitEval::new(&valuation).eval_all(&circuits);
        Ok(out
            .iter()
            .zip(events)
            .map(|((t, _), event)| {
                let p = event.probability(&probs);
                (t.clone(), event, p)
            })
            .collect())
    }

    /// The probability of one output tuple under the query (0 if absent).
    pub fn tuple_probability(&self, query: &RaExpr, tuple: &Tuple) -> Result<f64, EvalError> {
        Ok(self
            .answer_query(query)?
            .into_iter()
            .find(|(t, _, _)| t == tuple)
            .map(|(_, _, p)| p)
            .unwrap_or(0.0))
    }

    /// The Figure 4(a) instance: the Section 2 relation with
    /// `P(x)=0.6, P(y)=0.5, P(z)=0.1`.
    pub fn figure4() -> TupleIndependentDb {
        let mut db = TupleIndependentDb::new();
        let tuples = provsem_core::paper::section2_tuples();
        let probs = [0.6, 0.5, 0.1];
        for (t, p) in tuples.into_iter().zip(probs) {
            db.insert("R", t, p);
        }
        db
    }
}

/// Computes the probability that a positive boolean event expression holds,
/// given independent variable marginals — by Shannon expansion over the
/// variables (exact, exponential in the number of *distinct variables in the
/// expression*, which is what the intensional Fuhr–Rölleke–Zimányi route
/// requires in general).
pub fn posbool_probability(expr: &PosBool, marginals: &BTreeMap<Variable, f64>) -> f64 {
    fn go(expr: &PosBool, vars: &[(&Variable, f64)], assignment: &mut Valuation<bool>) -> f64 {
        match vars.split_first() {
            None => {
                if expr.evaluate(assignment) {
                    1.0
                } else {
                    0.0
                }
            }
            Some(((var, p), rest)) => {
                assignment.assign((*var).clone(), true);
                let with = go(expr, rest, assignment);
                assignment.assign((*var).clone(), false);
                let without = go(expr, rest, assignment);
                p * with + (1.0 - p) * without
            }
        }
    }
    let vars: Vec<(Variable, f64)> = expr
        .variables()
        .into_iter()
        .map(|v| {
            let p = marginals.get(&v).copied().unwrap_or(0.0);
            (v, p)
        })
        .collect();
    // Hold references alive while recursing.
    let var_refs: Vec<(&Variable, f64)> = vars.iter().map(|(v, p)| (v, *p)).collect();
    go(expr, &var_refs, &mut Valuation::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use provsem_core::paper::section2_query;
    use provsem_semiring::Semiring;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn figure4_events_and_probabilities() {
        // Figure 4(b): the output events are x, x∩y, x∩y, y, z; with
        // P(x)=0.6, P(y)=0.5, P(z)=0.1 the probabilities are
        // 0.6, 0.3, 0.3, 0.5, 0.1.
        let db = TupleIndependentDb::figure4();
        let answer = db.answer_query(&section2_query()).unwrap();
        assert_eq!(answer.len(), 5);
        let prob = |a: &str, c: &str| {
            answer
                .iter()
                .find(|(t, _, _)| t == &Tuple::new([("a", a), ("c", c)]))
                .map(|(_, _, p)| *p)
                .unwrap()
        };
        assert!(close(prob("a", "c"), 0.6));
        assert!(close(prob("a", "e"), 0.3));
        assert!(close(prob("d", "c"), 0.3));
        assert!(close(prob("d", "e"), 0.5));
        assert!(close(prob("f", "e"), 0.1));
    }

    #[test]
    fn circuit_route_agrees_with_event_table_route() {
        // The memoized circuit pass must produce the exact same events and
        // probabilities as the direct P(Ω) evaluation, tuple for tuple.
        let db = TupleIndependentDb::figure4();
        let direct = db.answer_query(&section2_query()).unwrap();
        let via_circuit = db.answer_query_via_circuit(&section2_query()).unwrap();
        assert_eq!(direct.len(), via_circuit.len());
        for ((t1, e1, p1), (t2, e2, p2)) in direct.iter().zip(via_circuit.iter()) {
            assert_eq!(t1, t2);
            assert_eq!(e1, e2, "{t1:?}");
            assert!(close(*p1, *p2), "{t1:?}: {p1} vs {p2}");
        }
        // Invalid queries fail fast with the planner's error, like
        // `answer_query`.
        let bad = provsem_core::RaExpr::relation("Missing");
        assert_eq!(
            db.answer_query_via_circuit(&bad).unwrap_err(),
            db.answer_query(&bad).unwrap_err()
        );
    }

    #[test]
    fn world_probabilities_sum_to_one() {
        let db = TupleIndependentDb::figure4();
        assert_eq!(db.num_worlds(), 8);
        let total: f64 = db.world_probabilities().iter().sum();
        assert!(close(total, 1.0));
    }

    #[test]
    fn tuple_probability_of_absent_tuple_is_zero() {
        let db = TupleIndependentDb::figure4();
        let p = db
            .tuple_probability(&section2_query(), &Tuple::new([("a", "z"), ("c", "z")]))
            .unwrap();
        assert_eq!(p, 0.0);
    }

    #[test]
    fn event_route_agrees_with_posbool_route() {
        // Intensional evaluation via PosBool provenance + Shannon expansion
        // gives the same probabilities as the event-table route — an instance
        // of Proposition 3.5 (the map PosBool → P(Ω) sending each variable to
        // its event is a homomorphism).
        let db = TupleIndependentDb::figure4();
        let (posbool_db, vars) = db.to_posbool_database();
        let marginals: BTreeMap<Variable, f64> = vars.into_iter().collect();
        let out = section2_query().eval(&posbool_db).unwrap();
        for (tuple, expr) in out.iter() {
            let p_posbool = posbool_probability(expr, &marginals);
            let p_event = db.tuple_probability(&section2_query(), tuple).unwrap();
            assert!(
                close(p_posbool, p_event),
                "{tuple:?}: {p_posbool} vs {p_event}"
            );
        }
    }

    #[test]
    fn posbool_probability_basic_cases() {
        let marginals: BTreeMap<Variable, f64> =
            [(Variable::new("x"), 0.5), (Variable::new("y"), 0.5)]
                .into_iter()
                .collect();
        let x = PosBool::var("x");
        let y = PosBool::var("y");
        assert!(close(posbool_probability(&PosBool::tt(), &marginals), 1.0));
        assert!(close(posbool_probability(&PosBool::ff(), &marginals), 0.0));
        assert!(close(posbool_probability(&x, &marginals), 0.5));
        assert!(close(posbool_probability(&x.times(&y), &marginals), 0.25));
        assert!(close(posbool_probability(&x.plus(&y), &marginals), 0.75));
    }

    #[test]
    fn independence_is_respected_by_world_construction() {
        let mut db = TupleIndependentDb::new();
        db.insert("R", Tuple::new([("x", "1")]), 0.25);
        db.insert("R", Tuple::new([("x", "2")]), 0.5);
        let events = db.to_event_database();
        let rel = events.get("R").unwrap();
        let probs = db.world_probabilities();
        let e1 = rel.annotation(&Tuple::new([("x", "1")]));
        let e2 = rel.annotation(&Tuple::new([("x", "2")]));
        assert!(close(e1.probability(&probs), 0.25));
        assert!(close(e2.probability(&probs), 0.5));
        // Joint event probability is the product (independence).
        assert!(close(e1.times(&e2).probability(&probs), 0.125));
    }
}
