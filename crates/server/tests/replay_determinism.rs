//! Concurrent run, then serial replay: the determinism test of the
//! concurrent query service.
//!
//! Phase 1 (concurrent): reader sessions fire a mixed query workload
//! (`QUERY` / `READ` / `VIEW` / `DATALOG`) while writer sessions
//! continuously commit delta batches and define/drop standing views against
//! the same live [`Service`]. Every reply carries the epoch it was computed
//! at; readers log `(epoch, request, rendered reply)`, writers log their
//! catalog-changing ops the same way.
//!
//! Phase 2 (serial replay): a **fresh** service on the same seed database
//! re-applies the writer ops in epoch order — epochs are contiguous, so the
//! total commit order is fully determined — capturing a snapshot per epoch.
//! Each logged read is then re-executed single-file, pinned to the snapshot
//! of the epoch its concurrent reply reported. The rendered bytes must be
//! **identical**: any interleaving artifact (torn batch, stale view, plan
//! cached across a catalog change) shows up as a byte mismatch. A third of
//! the reads scan `F` from the snapshot batch cache while commits patch it
//! live, so cache hits must also dominate misses + patches.

use provsem_core::prelude::{Database, DbSnapshot, KRelation, Schema, Tuple, Value};
use provsem_semiring::ring::Integers;
use provsem_server::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_READERS: usize = 6;
const QUERIES_PER_READER: usize = 200;
const N_WRITERS: usize = 2;
const COMMITS_PER_WRITER: usize = 40;
/// Node ids for the edge relation; edges only go from lower to higher ids,
/// so datalog reachability always converges (the graph stays acyclic).
const N_NODES: i64 = 7;
/// Rows in the fact relation `F`: reads of it are served from the
/// snapshot-resident columnar cache, and commits into `F` patch that.
const N_FACTS: i64 = 320;
/// Distinct `v` strings in `F`: selective predicates return ~8 rows.
const N_TAGS: i64 = 40;

/// One logged interaction: the epoch the reply reported, the request line,
/// and the rendered reply.
type LogEntry = (u64, String, String);

fn seed_db() -> Database<Integers> {
    let mut r = KRelation::empty(Schema::new(["a", "b"]));
    for (a, b, k) in [(1, "x", 2), (2, "y", 1), (3, "z", 4)] {
        r.insert(
            Tuple::new([("a", Value::Int(a)), ("b", Value::from(b))]),
            Integers::new(k),
        );
    }
    let mut e = KRelation::empty(Schema::new(["s", "t"]));
    for (s, t) in [(0, 1), (1, 2), (2, 3)] {
        e.insert(
            Tuple::new([("s", Value::Int(s)), ("t", Value::Int(t))]),
            Integers::new(1),
        );
    }
    let mut f = KRelation::empty(Schema::new(["g", "v"]));
    for i in 0..N_FACTS {
        f.insert(
            Tuple::new([
                ("g", Value::Int(i)),
                ("v", Value::from(format!("w{}", i % N_TAGS).as_str())),
            ]),
            Integers::new(1 + i % 3),
        );
    }
    Database::new().with("R", r).with("E", e).with("F", f)
}

fn reply_epoch(line: &str, response: &Response) -> u64 {
    match response {
        Response::Rows { epoch, .. }
        | Response::Committed { epoch, .. }
        | Response::Defined { epoch, .. }
        | Response::Dropped { epoch, .. } => *epoch,
        other => panic!("{line:?} unexpectedly failed: {}", other.render()),
    }
}

/// Handles `line` and logs the `(epoch, request, reply)` triple.
fn run_logged(session: &mut Session<Integers>, line: String, log: &mut Vec<LogEntry>) {
    let response = session.handle_line(&line);
    let epoch = reply_epoch(&line, &response);
    log.push((epoch, line, response.render()));
}

fn writer_workload(service: &Service<Integers>, writer: usize) -> Vec<LogEntry> {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE + writer as u64);
    let mut session = service.session();
    let mut log = Vec::new();
    let mut view_defined = false;
    for round in 0..COMMITS_PER_WRITER {
        if round % 10 == 5 {
            // Exercise catalog changes mid-flight: a per-writer standing
            // view that readers never query, toggled on and off.
            let line = if view_defined {
                format!("DROP W{writer}")
            } else {
                format!("DEFINE W{writer} = select[a != 1] R")
            };
            view_defined = !view_defined;
            run_logged(&mut session, line, &mut log);
            continue;
        }
        let mut items = Vec::new();
        let batch_size = rng.gen_range(1usize..=3);
        for _ in 0..batch_size {
            match rng.gen_range(0usize..3) {
                0 => {
                    let a = rng.gen_range(1i64..=9);
                    let b = ["x", "y", "z", "w"][rng.gen_range(0usize..4)];
                    let count = [-2i64, -1, 1, 1, 2, 3][rng.gen_range(0usize..6)];
                    items.push(format!("R({a}, '{b}')={count}"));
                }
                1 => {
                    let s = rng.gen_range(0i64..N_NODES - 1);
                    let t = rng.gen_range(s + 1..N_NODES);
                    let count = [-1i64, 1, 1, 2][rng.gen_range(0usize..4)];
                    items.push(format!("E({s}, {t})={count}"));
                }
                // Commits into the batch-resident relation: each one
                // *patches* F's cached columnar conversion forward.
                _ => {
                    let g = rng.gen_range(0i64..N_FACTS);
                    let tag = rng.gen_range(0i64..N_TAGS);
                    let count = [-1i64, 1, 1, 2][rng.gen_range(0usize..4)];
                    items.push(format!("F({g}, 'w{tag}')={count}"));
                }
            }
        }
        run_logged(
            &mut session,
            format!("COMMIT {}", items.join("; ")),
            &mut log,
        );
    }
    log
}

fn reader_workload(service: &Service<Integers>, reader: usize) -> Vec<LogEntry> {
    let mut rng = StdRng::seed_from_u64(0xBEEF + reader as u64);
    let mut session = service.session();
    let mut log = Vec::new();
    for _ in 0..QUERIES_PER_READER {
        let line = match rng.gen_range(0usize..12) {
            0 => "READ R".to_string(),
            1 => "QUERY R".to_string(),
            2 => "QUERY project[a] R".to_string(),
            3 => format!("QUERY select[a != {}] R", rng.gen_range(1i64..=4)),
            4 => "QUERY project[t] E join rename[t -> s] project[t] E".to_string(),
            5 => "VIEW V".to_string(),
            6 => "READ E".to_string(),
            7 => "DATALOG path(x, y) :- E(x, y). path(x, z) :- path(x, y), E(y, z). ? path"
                .to_string(),
            // These scans serve from the snapshot's columnar cache (hit
            // after the first conversion per relation version, patched
            // across commits rather than invalidated).
            8 | 9 => format!("QUERY select[v = 'w{}'] F", rng.gen_range(0i64..N_TAGS)),
            10 => format!(
                "QUERY project[g] select[v = 'w{}'] F",
                rng.gen_range(0i64..N_TAGS)
            ),
            _ => format!("QUERY select[g = {}] F", rng.gen_range(0i64..N_FACTS)),
        };
        run_logged(&mut session, line, &mut log);
    }
    log
}

#[test]
fn concurrent_replies_equal_their_serial_replay_byte_for_byte() {
    // --- Phase 1: concurrent load against a live-committing database. ---
    let service = Service::new(seed_db());
    let mut setup_log = Vec::new();
    run_logged(
        &mut service.session(),
        "DEFINE V = project[a] select[b != 'y'] R".to_string(),
        &mut setup_log,
    );

    let (mut write_log, read_logs) = std::thread::scope(|scope| {
        let service = &service;
        let writers: Vec<_> = (0..N_WRITERS)
            .map(|w| scope.spawn(move || writer_workload(service, w)))
            .collect();
        let readers: Vec<_> = (0..N_READERS)
            .map(|r| scope.spawn(move || reader_workload(service, r)))
            .collect();
        let mut write_log = setup_log;
        for handle in writers {
            write_log.extend(handle.join().expect("writer panicked"));
        }
        let read_logs: Vec<Vec<LogEntry>> = readers
            .into_iter()
            .map(|handle| handle.join().expect("reader panicked"))
            .collect();
        (write_log, read_logs)
    });
    assert_eq!(
        read_logs.iter().map(Vec::len).sum::<usize>(),
        N_READERS * QUERIES_PER_READER
    );

    let batch = service.shared().snapshot().batch_cache_stats();
    assert!(
        batch.hits > batch.misses + batch.patches,
        "batch-cache hits must dominate: {batch:?}"
    );

    // --- Phase 2: single-file replay on a fresh service. ---
    write_log.sort_by_key(|(epoch, _, _)| *epoch);
    for (i, (epoch, line, _)) in write_log.iter().enumerate() {
        assert_eq!(
            *epoch,
            i as u64 + 1,
            "epochs must be contiguous, but op {line:?} published epoch {epoch}"
        );
    }

    let replay = Service::new(seed_db());
    let mut replay_writer = replay.session();
    let mut snapshots: Vec<DbSnapshot<Integers>> = vec![replay.shared().snapshot()];
    for (epoch, line, expected) in &write_log {
        let rendered = replay_writer.handle_line(line).render();
        assert_eq!(rendered, *expected, "write at epoch {epoch}: {line}");
        let snapshot = replay.shared().snapshot();
        assert_eq!(snapshot.epoch(), *epoch, "replay epoch drift at {line:?}");
        snapshots.push(snapshot);
    }

    let mut replay_reader = replay.session();
    for log in &read_logs {
        for (epoch, line, expected) in log {
            replay_reader.pin_to(snapshots[*epoch as usize].clone());
            let rendered = replay_reader.handle_line(line).render();
            assert_eq!(rendered, *expected, "read at epoch {epoch}: {line}");
        }
    }
}
