//! The line protocol: one request line in, one response line out.
//!
//! Requests start with a command word (case-insensitive); everything after
//! it is command-specific text. Responses start with `ok` or `err`, and
//! **every** failure surfaces as a structured `err <kind>: <message>` reply
//! — a protocol error never kills the session or the connection.
//!
//! Row-bearing responses carry the epoch of the snapshot they were computed
//! against and render rows in the relation's sorted tuple order, using the
//! canonical value forms of [`crate::wire`]. That makes rendered responses
//! **byte-comparable**: the differential harness replays a recorded session
//! serially and asserts byte-equality of every reply. For the same reason
//! the rendering deliberately omits plan-cache hit/miss status (a replay
//! has a cold cache); cache behavior is observable through the structured
//! [`Response::Rows::cached`] field and the `STATS` command instead.
//!
//! ```text
//! PING | EPOCH | PIN | UNPIN | STATS | BYE
//! QUERY <ra-expression>
//! DATALOG <rules> ? <goal-predicate>
//! COMMIT R(1, 'x')=2; S(a, b)=-1
//! DEFINE <view-name> = <ra-expression>
//! DROP <view-name>
//! VIEW <view-name>
//! READ <relation-name>
//! ```

use crate::wire::{parse_value, write_value, WireSemiring};
use provsem_core::plan::RowValues;
use provsem_core::{Value, ValueRef};
use std::fmt::{self, Write as _};

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Report the current catalog epoch.
    Epoch,
    /// Pin the session to the current snapshot (repeatable reads).
    Pin,
    /// Release the pin; subsequent reads see the latest snapshot.
    Unpin,
    /// Plan-cache and catalog statistics.
    Stats,
    /// End the session.
    Bye,
    /// Evaluate an RA⁺ expression.
    Query(String),
    /// Evaluate a datalog program and report the goal predicate's facts.
    Datalog {
        /// The rule text (standard `head :- body.` syntax).
        program: String,
        /// The predicate whose fixpoint facts to return.
        goal: String,
    },
    /// Atomically apply a batch of annotated tuple deltas.
    Commit(Vec<CommitItem>),
    /// Register a standing (incrementally maintained) view.
    Define {
        /// View name.
        name: String,
        /// Defining RA⁺ expression text.
        expr: String,
    },
    /// Drop a standing view.
    Drop(String),
    /// Read a standing view's maintained contents.
    View(String),
    /// Read a base relation.
    Read(String),
}

/// One delta in a `COMMIT`: `relation(values...)=count`.
#[derive(Clone, Debug, PartialEq)]
pub struct CommitItem {
    /// Target base relation.
    pub relation: String,
    /// Tuple values, positionally matching the relation's schema.
    pub values: Vec<Value>,
    /// Signed multiplicity delta (negative = retraction, ring-only).
    pub count: i64,
}

/// Machine-readable error category, rendered as the token after `err`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Request or expression syntax error.
    Parse,
    /// A named base relation does not exist at this snapshot.
    UnknownRelation,
    /// A named standing view does not exist at this snapshot.
    UnknownView,
    /// Union operands disagree on schema.
    Schema,
    /// Projection onto attributes the input does not produce.
    Projection,
    /// Non-injective renaming.
    Renaming,
    /// A committed tuple's arity does not match the relation schema.
    Arity,
    /// An annotation count the session's semiring cannot represent.
    Annotation,
    /// The datalog program is not range-restricted (unsafe).
    UnsafeProgram,
    /// Datalog evaluation hit the round bound without converging.
    NotConverged,
    /// Anything else wrong with the request itself.
    Protocol,
}

impl ErrorKind {
    fn token(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::UnknownRelation => "unknown_relation",
            ErrorKind::UnknownView => "unknown_view",
            ErrorKind::Schema => "schema",
            ErrorKind::Projection => "projection",
            ErrorKind::Renaming => "renaming",
            ErrorKind::Arity => "arity",
            ErrorKind::Annotation => "annotation",
            ErrorKind::UnsafeProgram => "unsafe",
            ErrorKind::NotConverged => "not_converged",
            ErrorKind::Protocol => "protocol",
        }
    }
}

/// A structured reply; [`Response::render`] is the wire form.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to `PING`.
    Pong,
    /// Current catalog epoch.
    Epoch(u64),
    /// Session pinned at this epoch.
    Pinned(u64),
    /// Pin released; reads now track the live snapshot (at this epoch).
    Unpinned(u64),
    /// A commit was applied, producing this epoch.
    Committed {
        /// Epoch the commit published.
        epoch: u64,
        /// Number of deltas applied.
        changes: usize,
    },
    /// A standing view was registered.
    Defined {
        /// View name.
        name: String,
        /// Epoch the catalog change published.
        epoch: u64,
    },
    /// A standing view was dropped.
    Dropped {
        /// View name.
        name: String,
        /// Epoch the catalog change published.
        epoch: u64,
    },
    /// Query / view / relation contents, in sorted tuple order.
    Rows {
        /// Epoch of the snapshot the rows were computed against.
        epoch: u64,
        /// Whether the plan came from the cache (`None` when no plan was
        /// involved). Deliberately **not** rendered — see the module docs.
        cached: Option<bool>,
        /// Column names (positional `c0, c1, …` for datalog goals).
        schema: Vec<String>,
        /// `(values, rendered annotation)` per row.
        rows: Vec<(Vec<Value>, String)>,
    },
    /// Reply to `STATS`.
    Stats {
        /// Current catalog epoch.
        epoch: u64,
        /// Plan-cache hits so far.
        hits: u64,
        /// Plan-cache misses so far.
        misses: u64,
        /// Plans currently cached.
        entries: usize,
        /// Standing views currently registered.
        views: usize,
        /// Storage-layer batch-cache hits (scans served from a cached
        /// columnar conversion).
        batch_hits: u64,
        /// Batch-cache misses (scans that columnarized their relation).
        batch_misses: u64,
        /// Commit deltas absorbed by patching a cached conversion forward
        /// instead of invalidating it.
        batch_patches: u64,
    },
    /// Session closed.
    Bye,
    /// Any failure, as a structured reply.
    Error {
        /// Category token.
        kind: ErrorKind,
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// Convenience constructor for errors.
    pub fn error(kind: ErrorKind, message: impl fmt::Display) -> Self {
        Response::Error {
            kind,
            message: message.to_string(),
        }
    }

    /// The canonical single-line wire form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the canonical single-line wire form to `out`.
    pub fn render_into(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = match self {
            Response::Pong => write!(out, "ok pong"),
            Response::Epoch(e) => write!(out, "ok epoch {e}"),
            Response::Pinned(e) => write!(out, "ok pinned {e}"),
            Response::Unpinned(e) => write!(out, "ok unpinned {e}"),
            Response::Committed { epoch, changes } => {
                write!(out, "ok committed epoch={epoch} changes={changes}")
            }
            Response::Defined { name, epoch } => write!(out, "ok defined {name} epoch={epoch}"),
            Response::Dropped { name, epoch } => write!(out, "ok dropped {name} epoch={epoch}"),
            Response::Rows {
                epoch,
                cached: _,
                schema,
                rows,
            } => {
                let mut writer = RowWriter::new(out);
                writer.begin(*epoch, None, schema.iter().map(String::as_str));
                for (values, annotation) in rows {
                    writer.row(values.iter().map(Value::as_ref), |out| {
                        out.push_str(annotation)
                    });
                }
                Ok(())
            }
            Response::Stats {
                epoch,
                hits,
                misses,
                entries,
                views,
                batch_hits,
                batch_misses,
                batch_patches,
            } => write!(
                out,
                "ok stats epoch={epoch} hits={hits} misses={misses} entries={entries} views={views} \
                 batch_hits={batch_hits} batch_misses={batch_misses} batch_patches={batch_patches}"
            ),
            Response::Bye => write!(out, "ok bye"),
            Response::Error { kind, message } => {
                // Keep the reply on one line whatever the message contains.
                let flat = message.replace('\n', " ");
                write!(out, "err {}: {}", kind.token(), flat)
            }
        };
    }
}

/// Where a session sends the rows of a `QUERY`/`READ`/`VIEW`/`DATALOG`
/// reply as it walks its result: the connection's reply buffer
/// ([`RowWriter`]), or — for embedding callers of
/// [`Session::handle_line`](crate::service::Session::handle_line) — a
/// structured [`Response::Rows`] ([`RowsBuilder`]).
pub(crate) trait RowSink {
    /// Starts the reply. Called once, before any row.
    fn begin<'s>(
        &mut self,
        epoch: u64,
        cached: Option<bool>,
        schema: impl IntoIterator<Item = &'s str>,
    );

    /// One row, in sorted tuple order.
    fn row<K: WireSemiring>(&mut self, values: RowValues<'_>, annotation: &K);
}

/// Writes an `ok rows …` reply row by row — **the** row renderer:
/// [`Response::render_into`] drives it from a structured
/// [`Response::Rows`], the session drives it straight from result columns
/// or relation tuples, and because both go through here the bytes agree by
/// construction.
pub(crate) struct RowWriter<'o> {
    out: &'o mut String,
    rows: usize,
}

impl<'o> RowWriter<'o> {
    pub(crate) fn new(out: &'o mut String) -> Self {
        RowWriter { out, rows: 0 }
    }

    /// Writes one `(v, …)@k` row; `annotation` appends the `k`.
    fn row<'v>(
        &mut self,
        values: impl IntoIterator<Item = ValueRef<'v>>,
        annotation: impl FnOnce(&mut String),
    ) {
        self.out.push_str(if self.rows == 0 { " (" } else { "; (" });
        for (i, value) in values.into_iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            write_value(self.out, value);
        }
        self.out.push_str(")@");
        annotation(self.out);
        self.rows += 1;
    }
}

impl RowSink for RowWriter<'_> {
    /// Writes the `ok rows epoch=N [a, b]` head. The plan-cache flag is
    /// deliberately not rendered — see the module docs.
    fn begin<'s>(
        &mut self,
        epoch: u64,
        _cached: Option<bool>,
        schema: impl IntoIterator<Item = &'s str>,
    ) {
        let _ = write!(self.out, "ok rows epoch={epoch} [");
        for (i, name) in schema.into_iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.out.push_str(name);
        }
        self.out.push(']');
    }

    fn row<K: WireSemiring>(&mut self, values: RowValues<'_>, annotation: &K) {
        RowWriter::row(self, values, |out| annotation.write_annotation(out));
    }
}

/// Collects a row-bearing reply as a structured [`Response::Rows`].
#[derive(Default)]
pub(crate) struct RowsBuilder {
    epoch: u64,
    cached: Option<bool>,
    schema: Vec<String>,
    rows: Vec<(Vec<Value>, String)>,
}

impl RowsBuilder {
    pub(crate) fn finish(self) -> Response {
        Response::Rows {
            epoch: self.epoch,
            cached: self.cached,
            schema: self.schema,
            rows: self.rows,
        }
    }
}

impl RowSink for RowsBuilder {
    fn begin<'s>(
        &mut self,
        epoch: u64,
        cached: Option<bool>,
        schema: impl IntoIterator<Item = &'s str>,
    ) {
        self.epoch = epoch;
        self.cached = cached;
        self.schema = schema.into_iter().map(str::to_string).collect();
    }

    fn row<K: WireSemiring>(&mut self, values: RowValues<'_>, annotation: &K) {
        self.rows
            .push((values.to_values(), annotation.render_annotation()));
    }
}

impl Request {
    /// Parses one request line. Errors come back as `(kind, message)` so the
    /// session can turn them into structured replies.
    pub fn parse(line: &str) -> Result<Request, (ErrorKind, String)> {
        let line = line.trim();
        let (command, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let bare = |request: Request| {
            if rest.is_empty() {
                Ok(request)
            } else {
                Err((
                    ErrorKind::Protocol,
                    format!("{} takes no arguments", command.to_ascii_uppercase()),
                ))
            }
        };
        match command.to_ascii_uppercase().as_str() {
            "" => Err((ErrorKind::Protocol, "empty request".to_string())),
            "PING" => bare(Request::Ping),
            "EPOCH" => bare(Request::Epoch),
            "PIN" => bare(Request::Pin),
            "UNPIN" => bare(Request::Unpin),
            "STATS" => bare(Request::Stats),
            "BYE" => bare(Request::Bye),
            "QUERY" => {
                if rest.is_empty() {
                    Err((ErrorKind::Protocol, "QUERY needs an expression".to_string()))
                } else {
                    Ok(Request::Query(rest.to_string()))
                }
            }
            "DATALOG" => match rest.rsplit_once('?') {
                Some((program, goal)) if !goal.trim().is_empty() => Ok(Request::Datalog {
                    program: program.trim().to_string(),
                    goal: goal.trim().to_string(),
                }),
                _ => Err((
                    ErrorKind::Protocol,
                    "DATALOG needs `<rules> ? <goal-predicate>`".to_string(),
                )),
            },
            "COMMIT" if rest.is_empty() => Err((
                ErrorKind::Protocol,
                "COMMIT needs at least one `relation(values...)=count`".to_string(),
            )),
            "COMMIT" => parse_commit(rest)
                .map(Request::Commit)
                .map_err(|m| (ErrorKind::Parse, m)),
            "DEFINE" => match rest.split_once('=') {
                Some((name, expr)) if is_ident(name.trim()) && !expr.trim().is_empty() => {
                    Ok(Request::Define {
                        name: name.trim().to_string(),
                        expr: expr.trim().to_string(),
                    })
                }
                _ => Err((
                    ErrorKind::Protocol,
                    "DEFINE needs `<view-name> = <expression>`".to_string(),
                )),
            },
            "DROP" => name_arg(rest, "DROP").map(Request::Drop),
            "VIEW" => name_arg(rest, "VIEW").map(Request::View),
            "READ" => name_arg(rest, "READ").map(Request::Read),
            other => Err((ErrorKind::Protocol, format!("unknown command {other}"))),
        }
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !s.starts_with(|c: char| c.is_ascii_digit())
}

fn name_arg(rest: &str, command: &str) -> Result<String, (ErrorKind, String)> {
    if is_ident(rest) {
        Ok(rest.to_string())
    } else {
        Err((
            ErrorKind::Protocol,
            format!("{command} needs a single name"),
        ))
    }
}

/// Splits on `sep`, but not inside `'…'` string literals (where `''` is an
/// escaped quote).
fn split_outside_quotes(text: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut chars = text.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if c == '\'' {
            if in_quotes && matches!(chars.peek(), Some((_, '\''))) {
                chars.next();
            } else {
                in_quotes = !in_quotes;
            }
        } else if c == sep && !in_quotes {
            parts.push(&text[start..i]);
            start = i + c.len_utf8();
        }
    }
    parts.push(&text[start..]);
    parts
}

fn parse_commit(text: &str) -> Result<Vec<CommitItem>, String> {
    if text.trim().is_empty() {
        return Err("COMMIT needs at least one `relation(values...)=count`".to_string());
    }
    let mut items = Vec::new();
    for raw in split_outside_quotes(text, ';') {
        let item = raw.trim();
        if item.is_empty() {
            continue;
        }
        let open = item
            .find('(')
            .ok_or_else(|| format!("missing '(' in commit item {item}"))?;
        let relation = item[..open].trim();
        if !is_ident(relation) {
            return Err(format!("bad relation name in commit item {item}"));
        }
        // The ')' is the last one outside quotes; scan from the left.
        let body = &item[open + 1..];
        let mut in_quotes = false;
        let mut close = None;
        let mut chars = body.char_indices().peekable();
        while let Some((i, c)) = chars.next() {
            if c == '\'' {
                if in_quotes && matches!(chars.peek(), Some((_, '\''))) {
                    chars.next();
                } else {
                    in_quotes = !in_quotes;
                }
            } else if c == ')' && !in_quotes {
                close = Some(i);
                break;
            }
        }
        let close = close.ok_or_else(|| format!("missing ')' in commit item {item}"))?;
        let values = split_outside_quotes(&body[..close], ',')
            .into_iter()
            .map(parse_value)
            .collect::<Result<Vec<Value>, String>>()?;
        let tail = body[close + 1..].trim();
        let count = match tail.strip_prefix('=') {
            Some(count) => count
                .trim()
                .parse::<i64>()
                .map_err(|e| format!("bad count in commit item {item}: {e}"))?,
            None if tail.is_empty() => 1,
            None => return Err(format!("trailing input after ')' in commit item {item}")),
        };
        items.push(CommitItem {
            relation: relation.to_string(),
            values,
            count,
        });
    }
    if items.is_empty() {
        return Err("COMMIT needs at least one `relation(values...)=count`".to_string());
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse_case_insensitively() {
        assert_eq!(Request::parse("ping").unwrap(), Request::Ping);
        assert_eq!(Request::parse("  EPOCH  ").unwrap(), Request::Epoch);
        assert_eq!(
            Request::parse("query project[a] R").unwrap(),
            Request::Query("project[a] R".to_string())
        );
        assert_eq!(
            Request::parse("PING now").unwrap_err().0,
            ErrorKind::Protocol
        );
        assert_eq!(Request::parse("FLY").unwrap_err().0, ErrorKind::Protocol);
    }

    #[test]
    fn commit_items_honor_quoting_and_default_count() {
        let parsed = Request::parse("COMMIT R(1, 'a; b')=2; R(2, plain); S('it''s')=-1").unwrap();
        assert_eq!(
            parsed,
            Request::Commit(vec![
                CommitItem {
                    relation: "R".to_string(),
                    values: vec![Value::Int(1), Value::from("a; b")],
                    count: 2,
                },
                CommitItem {
                    relation: "R".to_string(),
                    values: vec![Value::Int(2), Value::from("plain")],
                    count: 1,
                },
                CommitItem {
                    relation: "S".to_string(),
                    values: vec![Value::from("it's")],
                    count: -1,
                },
            ])
        );
        assert_eq!(Request::parse("COMMIT").unwrap_err().0, ErrorKind::Protocol);
        assert_eq!(
            Request::parse("COMMIT R 1").unwrap_err().0,
            ErrorKind::Parse
        );
        assert_eq!(
            Request::parse("COMMIT R(1)=x").unwrap_err().0,
            ErrorKind::Parse
        );
    }

    #[test]
    fn datalog_and_define_split_correctly() {
        assert_eq!(
            Request::parse("DATALOG p(x) :- e(x). ? p").unwrap(),
            Request::Datalog {
                program: "p(x) :- e(x).".to_string(),
                goal: "p".to_string(),
            }
        );
        assert_eq!(
            Request::parse("DEFINE v = project[a] R").unwrap(),
            Request::Define {
                name: "v".to_string(),
                expr: "project[a] R".to_string(),
            }
        );
        assert_eq!(
            Request::parse("DEFINE 1v = R").unwrap_err().0,
            ErrorKind::Protocol
        );
        assert_eq!(
            Request::parse("DATALOG p(x).").unwrap_err().0,
            ErrorKind::Protocol
        );
    }

    #[test]
    fn rendering_is_single_line_and_omits_cache_status() {
        let hit = Response::Rows {
            epoch: 3,
            cached: Some(true),
            schema: vec!["a".to_string(), "b".to_string()],
            rows: vec![
                (vec![Value::Int(1), Value::from("x")], "2".to_string()),
                (vec![Value::Int(2), Value::from("y')")], "1".to_string()),
            ],
        };
        let mut miss = hit.clone();
        if let Response::Rows { cached, .. } = &mut miss {
            *cached = Some(false);
        }
        assert_eq!(hit.render(), miss.render(), "cache status must not leak");
        assert_eq!(
            hit.render(),
            "ok rows epoch=3 [a, b] (1, 'x')@2; (2, 'y'')')@1"
        );
        let empty = Response::Rows {
            epoch: 0,
            cached: None,
            schema: vec!["a".to_string()],
            rows: vec![],
        };
        assert_eq!(empty.render(), "ok rows epoch=0 [a]");
        let err = Response::error(ErrorKind::Parse, "line one\nline two");
        assert!(!err.render().contains('\n'));
        assert!(err.render().starts_with("err parse: "));
    }
}
