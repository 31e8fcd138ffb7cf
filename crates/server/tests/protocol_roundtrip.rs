//! Protocol round-trip tests: parse → plan → execute → render, the full
//! error surface as structured replies, and plan-cache hit/invalidation
//! (ISSUE satellite: the query service's conformance suite).

use provsem_core::prelude::{Database, KRelation, Schema, Tuple, Value};
use provsem_semiring::ring::Integers;
use provsem_semiring::Natural;
use provsem_server::prelude::*;

/// R(a, b) = {(1,'x')@2, (2,'y')@1}, S(b, c) = {('x',10)@1}.
fn z_db() -> Database<Integers> {
    let r = KRelation::from_tuples(
        Schema::new(["a", "b"]),
        [
            (
                Tuple::new([("a", Value::Int(1)), ("b", Value::from("x"))]),
                Integers::new(2),
            ),
            (
                Tuple::new([("a", Value::Int(2)), ("b", Value::from("y"))]),
                Integers::new(1),
            ),
        ],
    );
    let s = KRelation::from_tuples(
        Schema::new(["b", "c"]),
        [(
            Tuple::new([("b", Value::from("x")), ("c", Value::Int(10))]),
            Integers::new(1),
        )],
    );
    Database::new().with("R", r).with("S", s)
}

#[test]
fn query_round_trip_over_tcp() {
    let handle = serve(Service::new(z_db()), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    assert_eq!(client.request("PING").unwrap(), "ok pong");
    assert_eq!(client.request("EPOCH").unwrap(), "ok epoch 0");
    assert_eq!(
        client.request("QUERY R").unwrap(),
        "ok rows epoch=0 [a, b] (1, 'x')@2; (2, 'y')@1"
    );
    assert_eq!(
        client.request("QUERY project[a] R").unwrap(),
        "ok rows epoch=0 [a] (1)@2; (2)@1"
    );
    assert_eq!(
        client.request("QUERY R join S").unwrap(),
        "ok rows epoch=0 [a, b, c] (1, 'x', 10)@2"
    );
    // Reads and queries agree byte-for-byte on base relations.
    assert_eq!(
        client.request("READ R").unwrap(),
        client.request("QUERY R").unwrap()
    );
    // Commit over the wire, then observe the new epoch and data.
    assert_eq!(
        client.request("COMMIT R(3, 'z')=5").unwrap(),
        "ok committed epoch=1 changes=1"
    );
    assert_eq!(
        client.request("QUERY select[a != 2] R").unwrap(),
        "ok rows epoch=1 [a, b] (1, 'x')@2; (3, 'z')@5"
    );
    // Ring semantics: a negative count retracts.
    assert_eq!(
        client.request("COMMIT R(3, 'z')=-5").unwrap(),
        "ok committed epoch=2 changes=1"
    );
    assert_eq!(
        client.request("QUERY R").unwrap(),
        "ok rows epoch=2 [a, b] (1, 'x')@2; (2, 'y')@1"
    );
    assert_eq!(client.request("BYE").unwrap(), "ok bye");
    handle.shutdown();
}

#[test]
fn every_failure_is_a_structured_reply() {
    let service = Service::new(z_db());
    let mut session = service.session();
    let cases: &[(&str, &str)] = &[
        ("", "err protocol:"),
        ("FROB R", "err protocol:"),
        ("PING now", "err protocol:"),
        ("QUERY", "err protocol:"),
        ("QUERY select[#] R", "err parse:"),
        ("QUERY NoSuch", "err unknown_relation:"),
        ("QUERY R union S", "err schema:"),
        ("QUERY project[zzz] R", "err projection:"),
        ("QUERY rename[a -> b] R", "err renaming:"),
        ("COMMIT", "err protocol:"),
        ("COMMIT R 1", "err parse:"),
        ("COMMIT R(1)=2", "err arity:"),
        ("COMMIT T(1, 2)=1", "err unknown_relation:"),
        ("DATALOG p(x) :- R(x, y) ? p", "err parse:"),
        ("DATALOG p(x, z) :- R(x, y). ? p", "err unsafe:"),
        ("DATALOG p(x) :- R(x, y). ? q", "err unknown_relation:"),
        ("DEFINE v project[a] R", "err protocol:"),
        ("DEFINE v = NoSuch", "err unknown_relation:"),
        ("VIEW nope", "err unknown_view:"),
        ("DROP nope", "err unknown_view:"),
        ("READ nope", "err unknown_relation:"),
    ];
    for (request, prefix) in cases {
        let rendered = session.handle_line(request).render();
        assert!(
            rendered.starts_with(prefix),
            "{request:?} => {rendered:?}, expected prefix {prefix:?}"
        );
        // Errors never poison the session.
        assert_eq!(session.handle_line("PING").render(), "ok pong");
    }
    // Nothing above committed anything.
    assert_eq!(service.shared().epoch(), 0);
}

#[test]
fn natural_sessions_reject_deletions_with_a_structured_error() {
    let db: Database<Natural> = z_db().map_annotations(|k| Natural::from(k.0.unsigned_abs()));
    let service = Service::new(db);
    let mut session = service.session();
    let rendered = session.handle_line("COMMIT R(1, 'x')=-1").render();
    assert!(
        rendered.starts_with("err annotation:") && rendered.contains("additive inverses"),
        "{rendered:?}"
    );
    // Positive counts are fine in ℕ.
    assert_eq!(
        session.handle_line("COMMIT R(1, 'x')=3").render(),
        "ok committed epoch=1 changes=1"
    );
}

#[test]
fn plan_cache_hits_until_a_commit_invalidates() {
    let service = Service::new(z_db());
    let mut session = service.session();
    let cached_flag = |response: &Response| match response {
        Response::Rows { cached, .. } => cached.expect("queries always report cache status"),
        other => panic!("expected rows, got {other:?}"),
    };

    let first = session.handle_line("QUERY project[a] R");
    assert!(!cached_flag(&first), "cold cache must miss");
    // Different spelling, same normalized query: hits.
    let second = session.handle_line("QUERY project[ a ] ( R )");
    assert!(cached_flag(&second), "normalized respelling must hit");
    assert_eq!(first.render(), second.render());
    assert_eq!(
        session.handle_line("STATS").render(),
        "ok stats epoch=0 hits=1 misses=1 entries=1 views=0 \
         batch_hits=1 batch_misses=1 batch_patches=0"
    );

    // A commit bumps the epoch; the same query must replan (the catalog —
    // cardinalities included — changed), and stale entries are evicted.
    session.handle_line("COMMIT R(9, 'q')=1");
    let after = session.handle_line("QUERY project[a] R");
    assert!(
        !cached_flag(&after),
        "commit must invalidate the plan cache"
    );
    assert_eq!(
        session.handle_line("STATS").render(),
        "ok stats epoch=1 hits=1 misses=2 entries=1 views=0 \
         batch_hits=2 batch_misses=1 batch_patches=1"
    );
}

/// The storage-layer batch cache behind `STATS`: a query columnarizes its
/// scan once (a batch miss), repeated queries against the same relation
/// version hit, and a commit *patches* the cached conversion forward
/// instead of invalidating it — so the post-commit query still hits.
#[test]
fn stats_report_batch_cache_hits_and_commit_patches() {
    let service = Service::new(z_db());
    let mut session = service.session();
    // Commits before the first scan leave nothing to patch.
    for i in 10..74 {
        session.handle_line(&format!("COMMIT R({i}, 'v{i}')=1"));
    }
    session.handle_line("QUERY project[a] R"); // converts R: batch miss
    session.handle_line("QUERY project[a] R"); // same relation version: hit
    let stats = session.handle_line("STATS").render();
    assert!(
        stats.ends_with("batch_hits=1 batch_misses=1 batch_patches=0"),
        "{stats:?}"
    );
    session.handle_line("COMMIT R(99, 'z')=1");
    session.handle_line("QUERY project[a] R");
    let stats = session.handle_line("STATS").render();
    assert!(
        stats.ends_with("batch_hits=2 batch_misses=1 batch_patches=1"),
        "{stats:?}"
    );
}

#[test]
fn pinned_sessions_get_repeatable_reads() {
    let service = Service::new(z_db());
    let mut reader = service.session();
    let mut writer = service.session();

    assert_eq!(reader.handle_line("PIN").render(), "ok pinned 0");
    let before = reader.handle_line("READ R").render();
    writer.handle_line("COMMIT R(7, 'w')=1");
    // The pinned session still sees epoch 0...
    assert_eq!(reader.handle_line("EPOCH").render(), "ok epoch 0");
    assert_eq!(reader.handle_line("READ R").render(), before);
    // ...but its writes land at the head.
    assert_eq!(
        reader.handle_line("COMMIT R(8, 'v')=1").render(),
        "ok committed epoch=2 changes=1"
    );
    assert_eq!(reader.handle_line("READ R").render(), before);
    // Unpinning catches up.
    assert_eq!(reader.handle_line("UNPIN").render(), "ok unpinned 2");
    assert!(reader.handle_line("READ R").render().contains("(8, 'v')@1"));
}

/// Versions share tree nodes and annotation columns; a pinned session reads
/// an old version while 1 000 commits split, merge and delete around it —
/// rows the pin can see included. Its replies must not change by a byte.
#[test]
fn a_pin_survives_a_thousand_commits_into_what_it_reads() {
    let schema = Schema::new(["a", "b"]);
    let rows = (0..400i64).map(|a| {
        let values = [Value::Int(a * 10), Value::from(format!("t{}", a % 5))];
        (
            Tuple::from_values(&schema, values),
            Integers::new(1 + a % 3),
        )
    });
    let r = KRelation::from_tuples(schema.clone(), rows);
    let service = Service::new(Database::new().with("R", r));
    let mut reader = service.session();
    let mut writer = service.session();
    assert_eq!(
        writer.handle_line("DEFINE v = project[b] R").render(),
        "ok defined v epoch=1"
    );
    assert_eq!(reader.handle_line("PIN").render(), "ok pinned 1");
    let requests = [
        "READ R",
        "QUERY R",
        "QUERY project[b] R",
        "QUERY select[b = 't3'] R",
        "QUERY select[a = 1230] R",
        "VIEW v",
    ];
    let ask = |session: &mut Session<Integers>| -> Vec<String> {
        requests
            .iter()
            .map(|line| session.handle_line(line).render())
            .collect()
    };
    let before = ask(&mut reader);
    assert!(before
        .iter()
        .all(|reply| reply.starts_with("ok rows epoch=1 ")));
    for i in 0..1000i64 {
        let line = match i % 4 {
            // Delete a row the pin can see (all 400 go in the end)...
            0 | 1 => {
                let a = (i / 4 * 2 + i % 4) % 400;
                format!("COMMIT R({}, 't{}')={}", a * 10, a % 5, -(1 + a % 3))
            }
            // ...insert between and beyond the pinned rows...
            2 => format!("COMMIT R({}, 't{}')=2", i * 7 + 1, i % 5),
            // ...and change a count in place, down to zero now and then.
            _ => format!(
                "COMMIT R({}, 't{}')={}",
                (i - 1) * 7 + 1,
                (i - 1) % 5,
                i % 3 - 2
            ),
        };
        let reply = writer.handle_line(&line).render();
        assert_eq!(reply, format!("ok committed epoch={} changes=1", i + 2));
        if i % 100 == 0 {
            assert_eq!(ask(&mut reader), before, "after commit {i}");
        }
    }
    assert_eq!(ask(&mut reader), before);
    assert_eq!(reader.handle_line("EPOCH").render(), "ok epoch 1");
    // The head moved on, and the view with it.
    let head = ask(&mut writer);
    assert!(head
        .iter()
        .all(|reply| reply.starts_with("ok rows epoch=1001 ")));
    assert_ne!(head, before);
    assert_eq!(head[2], head[5], "the view equals recomputing it");
    assert_eq!(reader.handle_line("UNPIN").render(), "ok unpinned 1001");
    assert_eq!(ask(&mut reader), head);
}

#[test]
fn standing_views_over_the_wire() {
    let handle = serve(Service::new(z_db()), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    assert_eq!(
        client
            .request("DEFINE v = project[a] select[b != 'y'] R")
            .unwrap(),
        "ok defined v epoch=1"
    );
    assert_eq!(
        client.request("VIEW v").unwrap(),
        "ok rows epoch=1 [a] (1)@2"
    );
    // The view advances with commits...
    client.request("COMMIT R(4, 'u')=3").unwrap();
    assert_eq!(
        client.request("VIEW v").unwrap(),
        "ok rows epoch=2 [a] (1)@2; (4)@3"
    );
    // ...and always equals recomputing its definition.
    let recomputed = client
        .request("QUERY project[a] select[b != 'y'] R")
        .unwrap();
    assert_eq!(client.request("VIEW v").unwrap(), recomputed);
    assert_eq!(client.request("DROP v").unwrap(), "ok dropped v epoch=3");
    assert_eq!(
        client.request("VIEW v").unwrap(),
        "err unknown_view: no standing view v at epoch 3"
    );
    handle.shutdown();
}

#[test]
fn datalog_round_trip_computes_the_fixpoint() {
    // E(s, t): a path graph a -> b -> c, with multiplicities.
    let e = KRelation::from_tuples(
        Schema::new(["s", "t"]),
        [
            (Tuple::new([("s", "a"), ("t", "b")]), Integers::new(2)),
            (Tuple::new([("s", "b"), ("t", "c")]), Integers::new(3)),
        ],
    );
    let service = Service::new(Database::new().with("E", e));
    let mut session = service.session();
    let rendered = session
        .handle_line("DATALOG path(x, y) :- E(x, y). path(x, z) :- path(x, y), E(y, z). ? path")
        .render();
    // Bag semantics: a->c has 2 * 3 = 6 derivations.
    assert_eq!(
        rendered,
        "ok rows epoch=0 [c0, c1] ('a', 'b')@2; ('a', 'c')@6; ('b', 'c')@3"
    );
    // The goal sees the session snapshot: commits change the answer.
    session.handle_line("COMMIT E('c', 'd')=1");
    let rendered = session
        .handle_line("DATALOG path(x, y) :- E(x, y). path(x, z) :- path(x, y), E(y, z). ? path")
        .render();
    assert!(rendered.contains("('a', 'd')@6"), "{rendered:?}");
}

/// Standing-view results live in the batch cache: DEFINE seeds the entry,
/// VIEW reads hit it, and a commit patches it forward with the view's own
/// maintenance output delta — a post-commit read is served by the patched
/// entry, never by re-converting the view.
#[test]
fn view_reads_hit_the_batch_cache_and_commits_patch_it() {
    let service = Service::new(z_db());
    let mut session = service.session();
    session.handle_line("DEFINE v = project[a] select[b != 'y'] R");
    let stats = session.handle_line("STATS").render();
    // Two conversions at DEFINE: the materializing scan of R, and the seeded
    // entry for the view's own result.
    assert!(
        stats.ends_with("batch_hits=0 batch_misses=2 batch_patches=0"),
        "registration seeds the view's entry: {stats:?}"
    );
    assert_eq!(
        session.handle_line("VIEW v").render(),
        "ok rows epoch=1 [a] (1)@2"
    );
    session.handle_line("COMMIT R(4, 'u')=3");
    assert_eq!(
        session.handle_line("VIEW v").render(),
        "ok rows epoch=2 [a] (1)@2; (4)@3"
    );
    let stats = session.handle_line("STATS").render();
    // Both view reads hit; the commit patched both entries (R and the
    // view's result) forward — nothing was re-converted.
    assert!(
        stats.ends_with("batch_hits=2 batch_misses=2 batch_patches=2"),
        "both reads hit; the commit patched, not re-converted: {stats:?}"
    );
}

/// DATALOG reads its EDB through the snapshot batch cache: the first goal
/// against a relation version columnarizes it (a miss), repeats hit, and a
/// commit patches the conversion forward so post-commit goals still hit.
#[test]
fn datalog_reads_the_edb_through_the_batch_cache() {
    let service = Service::new(z_db());
    let mut session = service.session();
    assert_eq!(
        session.handle_line("DATALOG q(x) :- R(x, y). ? q").render(),
        "ok rows epoch=0 [c0] (1)@2; (2)@1"
    );
    session.handle_line("DATALOG q(x) :- R(x, y). ? q");
    let stats = session.handle_line("STATS").render();
    assert!(
        stats.ends_with("batch_hits=1 batch_misses=1 batch_patches=0"),
        "{stats:?}"
    );
    session.handle_line("COMMIT R(7, 'w')=1");
    assert_eq!(
        session.handle_line("DATALOG q(x) :- R(x, y). ? q").render(),
        "ok rows epoch=1 [c0] (1)@2; (2)@1; (7)@1"
    );
    let stats = session.handle_line("STATS").render();
    assert!(
        stats.ends_with("batch_hits=2 batch_misses=1 batch_patches=1"),
        "{stats:?}"
    );
}

/// A request line is bounded: a client that sends more than
/// `MAX_REQUEST_LINE` bytes without a newline gets one structured error and
/// is disconnected, instead of growing the connection's buffer without
/// limit. A line of exactly the maximum is still served.
#[test]
fn an_overlong_request_line_is_refused_and_the_connection_closed() {
    use provsem_server::tcp::MAX_REQUEST_LINE;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let handle = serve(Service::new(z_db()), "127.0.0.1:0").unwrap();

    // At the limit: an ordinary (if unknown) request, and the session lives on.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = vec![b'x'; MAX_REQUEST_LINE];
    line.push(b'\n');
    stream.write_all(&line).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.starts_with("err protocol: unknown command"),
        "{reply:?}"
    );
    stream.write_all(b"PING\n").unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply, "ok pong\n");

    // One byte over, never terminated: refused, then end of stream.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]).unwrap();
    let mut rest = String::new();
    stream.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "err protocol: request line too long\n");
    handle.shutdown();
}
