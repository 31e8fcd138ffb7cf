//! Sessions: the request dispatcher tying snapshots, plans, and the cache
//! together.
//!
//! A [`Service`] owns (shares) one [`SharedDatabase`] and one [`PlanCache`];
//! each client connection gets a [`Session`]. Sessions are where the
//! isolation story becomes user-visible:
//!
//! * Reads (`QUERY`, `DATALOG`, `READ`, `VIEW`) run against the session's
//!   **snapshot** — the live one by default, or a fixed one after `PIN` —
//!   so a query never observes half of a concurrent commit.
//! * Writes (`COMMIT`, `DEFINE`, `DROP`) always go to the head of the
//!   shared database and report the epoch they published, even while the
//!   session is pinned.
//! * Plans are fetched from the epoch-keyed [`PlanCache`], so a repeated
//!   query at an unchanged epoch replans nothing, and any commit
//!   invalidates implicitly.
//!
//! Every reply carries the epoch it was computed at, which is what lets the
//! differential harness replay a concurrent run serially: re-issue each
//! logged request pinned to the epoch its original reply reported, and the
//! rendered bytes must match.

use crate::cache::PlanCache;
use crate::protocol::{CommitItem, ErrorKind, Request, Response, RowSink, RowWriter, RowsBuilder};
use crate::ra_parse::{normalize, parse_ra};
use crate::wire::WireSemiring;
use provsem_core::prelude::{
    Database, DbSnapshot, DeltaBatch, EvalError, ExecContext, Plan, QueryResult, RelationSource,
    SharedDatabase, Tuple,
};
use provsem_datalog::{
    evaluate_with_context, parse_program, EvalStrategy, FactStore, Program, DEFAULT_FALLBACK_BOUND,
};
use std::sync::Arc;

/// A query service over one shared database: hands out [`Session`]s that
/// share its snapshot store and plan cache. Cloning is cheap (two `Arc`
/// bumps) — clones serve the same database.
pub struct Service<K: WireSemiring> {
    shared: Arc<SharedDatabase<K>>,
    cache: Arc<PlanCache>,
    ctx: ExecContext,
}

impl<K: WireSemiring> Clone for Service<K> {
    fn clone(&self) -> Self {
        Service {
            shared: Arc::clone(&self.shared),
            cache: Arc::clone(&self.cache),
            ctx: self.ctx,
        }
    }
}

impl<K: WireSemiring> Service<K> {
    /// Serves `db`, executing with the default (env-configured) thread
    /// budget.
    pub fn new(db: Database<K>) -> Self {
        Service::with_context(db, ExecContext::default())
    }

    /// Serves `db` with an explicit per-query thread budget.
    pub fn with_context(db: Database<K>, ctx: ExecContext) -> Self {
        Service {
            shared: Arc::new(SharedDatabase::new(db)),
            cache: Arc::new(PlanCache::new()),
            ctx,
        }
    }

    /// The underlying snapshot store (for tests and embedding callers that
    /// want to commit or snapshot outside the protocol).
    pub fn shared(&self) -> &Arc<SharedDatabase<K>> {
        &self.shared
    }

    /// The plan cache shared by all sessions.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Opens a session. Sessions are independent: each tracks its own pin
    /// state, while commits and the plan cache are shared.
    pub fn session(&self) -> Session<K> {
        Session {
            service: self.clone(),
            pinned: None,
        }
    }
}

/// One client's protocol state: a handle on the service plus an optional
/// pinned snapshot. Drive it with [`Session::handle_line`].
pub struct Session<K: WireSemiring> {
    service: Service<K>,
    pinned: Option<DbSnapshot<K>>,
}

impl<K: WireSemiring> Session<K> {
    /// The snapshot reads run against: the pinned one, or the live head.
    pub fn snapshot(&self) -> DbSnapshot<K> {
        self.pinned
            .clone()
            .unwrap_or_else(|| self.service.shared.snapshot())
    }

    /// Pins the session to an explicit snapshot. This is the replay hook:
    /// the differential harness re-executes logged requests pinned to the
    /// epoch their original replies reported.
    pub fn pin_to(&mut self, snapshot: DbSnapshot<K>) {
        self.pinned = Some(snapshot);
    }

    /// Parses and executes one request line. Never panics on client input —
    /// every failure is a structured [`Response::Error`].
    ///
    /// This is the embedding API: row-bearing replies come back as a
    /// structured [`Response::Rows`] (one `Vec<Value>` and one annotation
    /// string per row). A connection uses [`Session::handle_line_into`]
    /// instead, which renders the same rows without building them.
    pub fn handle_line(&mut self, line: &str) -> Response {
        match Request::parse(line) {
            Ok(request) => self.handle(request),
            Err((kind, message)) => Response::Error { kind, message },
        }
    }

    /// Executes one parsed request.
    pub fn handle(&mut self, request: Request) -> Response {
        let mut rows = RowsBuilder::default();
        match self.dispatch(request, &mut rows) {
            Some(response) => response,
            None => rows.finish(),
        }
    }

    /// Parses and executes one request line and appends the reply's wire
    /// form (no trailing newline) to `out` — byte for byte what
    /// `handle_line(line).render()` returns, but `QUERY`, `READ`, `VIEW` and
    /// `DATALOG` rows are written straight from the result's columns (or the
    /// relation's tuples) into `out` through the one row writer
    /// [`Response::render`] uses: no `Response::Rows`, no per-row vector, no
    /// per-value or per-annotation string. Returns `true` when the request
    /// ended the session (`BYE`).
    pub fn handle_line_into(&mut self, line: &str, out: &mut String) -> bool {
        let response = match Request::parse(line) {
            Ok(request) => self.dispatch(request, &mut RowWriter::new(out)),
            Err((kind, message)) => Some(Response::Error { kind, message }),
        };
        match response {
            Some(response) => {
                response.render_into(out);
                matches!(response, Response::Bye)
            }
            None => false,
        }
    }

    /// Executes a request. Row-bearing replies go to `sink` and return
    /// `None`; everything else (errors of row-bearing verbs included) comes
    /// back as a structured response with `sink` untouched.
    fn dispatch(&mut self, request: Request, sink: &mut impl RowSink) -> Option<Response> {
        Some(match request {
            Request::Ping => Response::Pong,
            Request::Bye => Response::Bye,
            Request::Epoch => Response::Epoch(self.snapshot().epoch()),
            Request::Pin => {
                let snapshot = self.service.shared.snapshot();
                let epoch = snapshot.epoch();
                self.pinned = Some(snapshot);
                Response::Pinned(epoch)
            }
            Request::Unpin => {
                self.pinned = None;
                Response::Unpinned(self.service.shared.epoch())
            }
            Request::Stats => {
                let snapshot = self.snapshot();
                let stats = self.service.cache.stats();
                let batch = snapshot.batch_cache_stats();
                Response::Stats {
                    epoch: snapshot.epoch(),
                    hits: stats.hits,
                    misses: stats.misses,
                    entries: stats.entries,
                    views: snapshot.view_names().count(),
                    batch_hits: batch.hits,
                    batch_misses: batch.misses,
                    batch_patches: batch.patches,
                }
            }
            Request::Query(text) => return self.query(&text, sink),
            Request::Datalog { program, goal } => return self.datalog(&program, &goal, sink),
            Request::Commit(items) => self.commit(&items),
            Request::Define { name, expr } => self.define(&name, &expr),
            Request::Drop(name) => self.drop_view(&name),
            Request::View(name) => return self.view(&name, sink),
            Request::Read(name) => return self.read(&name, sink),
        })
    }

    fn query(&self, text: &str, sink: &mut impl RowSink) -> Option<Response> {
        let expr = match parse_ra(text) {
            Ok(expr) => expr,
            Err(e) => return Some(Response::error(ErrorKind::Parse, e)),
        };
        let snapshot = self.snapshot();
        let planned = self
            .service
            .cache
            .get_or_plan(snapshot.epoch(), &normalize(&expr), || {
                Plan::new(&expr, &snapshot.catalog())
            });
        match planned {
            Ok((plan, hit)) => {
                let result = plan.query_with(&snapshot, &self.service.ctx);
                send_rows(sink, snapshot.epoch(), Some(hit), &result);
                None
            }
            Err(e) => Some(eval_error(e)),
        }
    }

    fn read(&self, name: &str, sink: &mut impl RowSink) -> Option<Response> {
        let snapshot = self.snapshot();
        match snapshot.database().get(name) {
            Some(relation) => {
                let rows = QueryResult::from(relation);
                send_rows(sink, snapshot.epoch(), None, &rows);
                None
            }
            None => Some(Response::error(
                ErrorKind::UnknownRelation,
                format!("no base relation {name} at epoch {}", snapshot.epoch()),
            )),
        }
    }

    fn view(&self, name: &str, sink: &mut impl RowSink) -> Option<Response> {
        let snapshot = self.snapshot();
        let Some(result) = snapshot.view_shared(name) else {
            return Some(Response::error(
                ErrorKind::UnknownView,
                format!("no standing view {name} at epoch {}", snapshot.epoch()),
            ));
        };
        // A standing view's result holds a columnar form: registration
        // converts it and every commit patches it forward with the
        // view's own maintenance delta, so this read is a cache hit (never
        // a re-conversion) no matter how many commits have advanced the
        // view since registration. A patched form is the base conversion
        // plus appended deltas (deletions as inverse annotations), so the
        // rows go through the plan root's merge — group by the whole row,
        // drop zero sums, sort once — and come out byte-identical to the
        // view relation itself.
        let rows = match snapshot.batch_cache() {
            Some((cache, epoch)) => QueryResult::from_batches(
                result.schema().clone(),
                cache.get_or_convert(epoch, &result).as_ref().clone(),
            ),
            None => QueryResult::from(result.as_ref()),
        };
        send_rows(sink, snapshot.epoch(), None, &rows);
        None
    }

    fn define(&self, name: &str, text: &str) -> Response {
        let expr = match parse_ra(text) {
            Ok(expr) => expr,
            Err(e) => return Response::error(ErrorKind::Parse, e),
        };
        match self.service.shared.register_view(name, &expr) {
            Ok(epoch) => Response::Defined {
                name: name.to_string(),
                epoch,
            },
            Err(e) => eval_error(e),
        }
    }

    fn drop_view(&self, name: &str) -> Response {
        if self.service.shared.snapshot().view(name).is_none() {
            return Response::error(ErrorKind::UnknownView, format!("no standing view {name}"));
        }
        Response::Dropped {
            name: name.to_string(),
            epoch: self.service.shared.drop_view(name),
        }
    }

    fn commit(&self, items: &[CommitItem]) -> Response {
        // Deltas resolve against the live head (what the commit will apply
        // to), not the session pin: a pinned session's reads stay in the
        // past, but its writes land in the present like everyone else's.
        let head = self.service.shared.snapshot();
        let mut batch = DeltaBatch::new();
        for item in items {
            let relation = match head.database().get(&item.relation) {
                Some(relation) => relation,
                None => {
                    return Response::error(
                        ErrorKind::UnknownRelation,
                        format!("no base relation {} to commit into", item.relation),
                    )
                }
            };
            let schema = relation.schema();
            if schema.arity() != item.values.len() {
                return Response::error(
                    ErrorKind::Arity,
                    format!(
                        "{} has arity {}, got {} values",
                        item.relation,
                        schema.arity(),
                        item.values.len()
                    ),
                );
            }
            let annotation = match K::from_wire_count(item.count) {
                Ok(annotation) => annotation,
                Err(message) => return Response::error(ErrorKind::Annotation, message),
            };
            let tuple = Tuple::from_values(schema, item.values.iter().cloned());
            batch.insert(&item.relation, tuple, annotation);
        }
        Response::Committed {
            epoch: self.service.shared.commit_with(&batch, &self.service.ctx),
            changes: items.len(),
        }
    }

    fn datalog(&self, text: &str, goal: &str, sink: &mut impl RowSink) -> Option<Response> {
        let program = match parse_program(text) {
            Ok(program) => program,
            Err(e) => return Some(Response::error(ErrorKind::Parse, e)),
        };
        if !program.is_safe() {
            return Some(Response::error(
                ErrorKind::UnsafeProgram,
                "program is not range-restricted (every head variable must occur in the body)",
            ));
        }
        let Some(arity) = goal_arity(&program, goal) else {
            return Some(Response::error(
                ErrorKind::UnknownRelation,
                format!("goal {goal} is not an IDB predicate of the program (use READ for base relations)"),
            ));
        };
        let snapshot = self.snapshot();
        // Import only the relations the program actually reads — a datalog
        // goal over a small edge relation must not pay to copy every other
        // (possibly large) relation in the database. Each relation is read
        // through the snapshot's columnar batch cache: the first datalog
        // (or RA) scan of a relation version columnarizes it
        // for every later scan, and commits patch the form forward instead
        // of invalidating it — so repeated DATALOG requests share the
        // conversion across sessions and epochs (visible in STATS).
        let mut edb = FactStore::<K>::new();
        for name in program.edb_predicates() {
            let Some(shared) = snapshot.database().get_shared(&name) else {
                continue;
            };
            match snapshot.batch_cache() {
                Some((cache, epoch)) => {
                    edb.import_batches(&name, &cache.get_or_convert(epoch, &shared));
                }
                None => {
                    let order: Vec<&str> = shared
                        .schema()
                        .attributes()
                        .iter()
                        .map(|a| a.name())
                        .collect();
                    edb.import_relation(&name, &shared, &order);
                }
            }
        }
        let result = evaluate_with_context(
            &program,
            &edb,
            EvalStrategy::SemiNaive,
            DEFAULT_FALLBACK_BOUND,
            &self.service.ctx,
        );
        if !result.converged {
            return Some(Response::error(
                ErrorKind::NotConverged,
                format!(
                    "fixpoint still changing after {DEFAULT_FALLBACK_BOUND} rounds \
                     (annotations may diverge in this semiring)"
                ),
            ));
        }
        // The fact store keeps each predicate sorted by value vector, which
        // is the reply's row order.
        let schema: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
        sink.begin(snapshot.epoch(), None, schema.iter().map(String::as_str));
        for (values, k) in result.idb.rows_of(goal) {
            sink.row(values.iter().into(), k);
        }
        None
    }
}

/// The arity of `goal` if it is the head predicate of some rule.
fn goal_arity(program: &Program, goal: &str) -> Option<usize> {
    program
        .rules
        .iter()
        .find(|rule| rule.head.predicate == goal)
        .map(|rule| rule.head.arity())
}

/// Sends a result's rows to `sink`, in the result's (sorted tuple) order.
/// Schema attributes are sorted and row values follow the same order, so
/// positional values line up with the schema labels.
fn send_rows<K: WireSemiring>(
    sink: &mut impl RowSink,
    epoch: u64,
    cached: Option<bool>,
    rows: &QueryResult<'_, K>,
) {
    let names = rows.schema().attributes().iter().map(|a| a.name());
    sink.begin(epoch, cached, names);
    rows.for_each_row(|values, k| sink.row(values, k));
}

fn eval_error(e: EvalError) -> Response {
    let kind = match &e {
        EvalError::UnknownRelation(_) => ErrorKind::UnknownRelation,
        EvalError::SchemaMismatch { .. } => ErrorKind::Schema,
        EvalError::InvalidProjection { .. } => ErrorKind::Projection,
        EvalError::InvalidRenaming(_) => ErrorKind::Renaming,
    };
    Response::error(kind, e)
}
