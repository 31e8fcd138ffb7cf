//! The two service workloads, `svc_read` and `svc_mixed`: one in-process
//! server, two closed-loop client connections over TCP.

use crate::model::{
    commit_line, reply_epoch, schema_of, split_epoch, tag, Delta, Kind, Model, Read, SvcSizes,
    RELATIONS, R_ROWS, VIEWS,
};
use crate::util::{
    cpu_seconds, median, ms, peak_rss_mb, percentile, quiet_decile, timed, Outcome, Rng,
};
use provsem_core::prelude::{Database, ExecContext, KRelation, Schema, Tuple, Value};
use provsem_semiring::ring::Integers;
use provsem_server::{parse_ra, serve, Client, ServerHandle, Service};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client connections, each a closed loop: the line protocol is strictly
/// one request in, one reply out, so a caller that waits is the truthful
/// client model. Two, because the machine has two cores.
pub const CONNECTIONS: usize = 2;
/// How many times a run sets the system up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Operations in one cycle of a script; the mixes below are shares of it.
pub const CYCLE: u64 = 100;

/// Request mix in percent, per workload.
pub fn mix(mixed: bool) -> &'static [(Kind, u64)] {
    if mixed {
        &[
            (Kind::Tiny, 20),
            (Kind::Point, 42),
            (Kind::View, 10),
            (Kind::Agg, 8),
            (Kind::Datalog, 4),
            (Kind::CommitSmall, 12),
            (Kind::CommitBig, 4),
        ]
    } else {
        &[
            (Kind::Tiny, 30),
            (Kind::Point, 45),
            (Kind::View, 10),
            (Kind::Agg, 10),
            (Kind::Wide, 5),
        ]
    }
}

/// One distinct read request of the pool.
pub struct Entry {
    pub read: Read,
    pub line: String,
    /// The reply the oracle expects at the post-setup epoch, and its row
    /// count. Only meaningful while nothing commits.
    pub expected: String,
    pub rows: usize,
}

/// The distinct read requests a script draws from, by kind. A fixed pool
/// keeps the plan cache's working set a property of the workload, and lets
/// the oracle answer each distinct request once instead of once per send.
pub struct Pool {
    pub entries: Vec<Entry>,
    by_kind: Vec<Vec<usize>>,
}

/// Epoch after the three standing views are registered.
pub const SETUP_EPOCH: u64 = VIEWS.len() as u64;

impl Pool {
    pub fn generate(seed: u64, sizes: &SvcSizes, model: &Model) -> Pool {
        let mut rng = Rng::new(seed ^ 0x9001);
        let mut reads = vec![
            Read::Relation("R"),
            Read::Relation("S"),
            Read::Scan("R"),
            Read::Scan("S"),
            Read::ProjectA,
            Read::RJoinS,
            Read::AggTag,
            Read::AggLabel,
            Read::Paths,
        ];
        reads.extend((1..=8).map(|_| Read::SelectANe(rng.range(1, R_ROWS))));
        for _ in 0..sizes.points {
            reads.push(Read::PointG(rng.range(0, sizes.f_rows - 1)));
            reads.push(Read::PointV(rng.range(0, sizes.tags - 1)));
            reads.push(Read::PointGOfV(rng.range(0, sizes.tags - 1)));
        }
        reads.extend((0..sizes.labels).map(Read::Wide));
        reads.extend(VIEWS.iter().map(|(name, _)| Read::View(name)));
        // Sources in every layer but the last.
        let sources = (sizes.layers - 1) * sizes.width;
        reads.extend((0..3 * sizes.points / 10).map(|_| Read::Reach(rng.range(0, sources - 1))));
        let mut by_kind = vec![Vec::new(); Kind::ALL.len()];
        let entries: Vec<Entry> = reads
            .into_iter()
            .enumerate()
            .map(|(i, read)| {
                by_kind[read.kind() as usize].push(i);
                let (expected, rows) = read.expected(model, SETUP_EPOCH);
                Entry {
                    line: read.line(),
                    read,
                    expected,
                    rows,
                }
            })
            .collect();
        Pool { entries, by_kind }
    }

    /// `--self-test`: one request of the most frequent kind now expects a
    /// reply the service will not give.
    pub fn corrupt_one(&mut self) {
        let victim = self.by_kind[Kind::Point as usize][0];
        self.entries[victim].expected.push('!');
    }
}

/// One thread per query: two connections already occupy both cores.
pub fn service_ctx() -> ExecContext {
    ExecContext::with_threads(1)
}

pub fn database(model: &Model) -> Database<Integers> {
    let mut db = Database::new();
    for name in RELATIONS {
        let schema = Schema::new(schema_of(name).iter().copied());
        let mut relation = KRelation::empty(schema.clone());
        for (row, k) in model.rel(name) {
            relation.insert(
                Tuple::from_values(&schema, row.iter().cloned()),
                Integers::new(*k),
            );
        }
        db.insert(name, relation);
    }
    db
}

/// A served system ready for timed requests.
pub struct System {
    pub service: Service<Integers>,
    /// Held for its `Drop`, which stops the accept loop.
    _server: ServerHandle,
    pub clients: Vec<Client>,
    pub load_ms: f64,
    pub register_view_ms: f64,
    pub warmup_ms: f64,
    pub warmup_failed: u64,
}

/// Loads the database, registers the standing views, starts the server,
/// connects the clients and sends every distinct pool request once, so the
/// plan cache and the columnar batch cache are full before timing starts.
pub fn build_system(model: &Model, pool: &Pool) -> System {
    let (db, load) = timed(|| database(model));
    let service = Service::with_context(db, service_ctx());
    let (_, register) = timed(|| {
        for (name, expr) in VIEWS {
            let expr = parse_ra(expr).expect("view expression parses");
            service
                .shared()
                .register_view(name, &expr)
                .expect("view registers");
        }
    });
    let server = serve(service.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    let mut warmup_failed = 0;
    let warmup_started = Instant::now();
    for entry in &pool.entries {
        let reply = clients[0].request(&entry.line).expect("warm-up request");
        if reply != entry.expected {
            warmup_failed += 1;
        }
    }
    for client in &mut clients[1..] {
        client.request("PING").expect("ping");
    }
    System {
        service,
        _server: server,
        clients,
        load_ms: ms(load),
        register_view_ms: ms(register),
        warmup_ms: ms(warmup_started.elapsed()),
        warmup_failed,
    }
}

/// One connection's script: a deterministic stream of operations drawn from
/// the seed, plus what the connection saw when it sent them.
///
/// The mix is exact, not sampled: operations come in cycles of 100 whose
/// kinds are the workload's percentages in a shuffled order, and each kind
/// walks its pool entries round-robin, so two runs of the same length do the
/// same work whatever their seeds. Deletions only ever cancel an insert this
/// connection made earlier, so every count stays positive under any
/// interleaving and the relations stay bounded however long the run lasts.
pub struct Script<'a> {
    rng: Rng,
    conn: usize,
    mixed: bool,
    pool: &'a Pool,
    model: &'a Model,
    sizes: SvcSizes,
    cycle: Vec<Kind>,
    /// Per kind, the pool entries in this connection's order, and how many
    /// have been used.
    order: Vec<(Vec<usize>, usize)>,
    fresh: i64,
    outstanding: Vec<Delta>,
    last_epoch: u64,
    reads: usize,
    pub log: ConnLog,
}

pub enum Op {
    Read(usize),
    Commit(Kind, Vec<Delta>),
}

/// What one connection saw.
#[derive(Default)]
pub struct ConnLog {
    pub latencies: Vec<(Kind, f64)>,
    pub commits: Vec<(u64, Vec<Delta>)>,
    /// Every 50th read of a run that commits: `(pool index, reply)`.
    pub sampled: Vec<(usize, String)>,
    pub failed: u64,
    pub notes: Vec<String>,
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

impl<'a> Script<'a> {
    pub fn new(
        seed: u64,
        conn: usize,
        mixed: bool,
        sizes: &SvcSizes,
        pool: &'a Pool,
        model: &'a Model,
    ) -> Script<'a> {
        let mut rng = Rng::new(seed ^ (0xc0_ffee + conn as u64));
        let order = Kind::ALL
            .iter()
            .map(|kind| {
                let mut entries = pool.by_kind[*kind as usize].clone();
                if *kind == Kind::Datalog {
                    // The closure (listed first) is every fourth request.
                    let closure = entries.remove(0);
                    shuffle(&mut entries, &mut rng);
                    entries = entries
                        .chunks(3)
                        .flat_map(|three| three.iter().copied().chain([closure]))
                        .collect();
                } else {
                    shuffle(&mut entries, &mut rng);
                }
                (entries, 0)
            })
            .collect();
        Script {
            rng,
            conn,
            mixed,
            pool,
            model,
            sizes: *sizes,
            cycle: Vec::new(),
            order,
            fresh: 0,
            outstanding: Vec::new(),
            last_epoch: 0,
            reads: 0,
            log: ConnLog::default(),
        }
    }

    /// Did the operation `next` just returned open a new cycle?
    fn opened_cycle(&self) -> bool {
        self.cycle.len() as u64 == CYCLE - 1
    }

    pub fn next(&mut self) -> Op {
        if self.cycle.is_empty() {
            for (kind, share) in mix(self.mixed) {
                self.cycle.extend((0..*share).map(|_| *kind));
            }
            shuffle(&mut self.cycle, &mut self.rng);
        }
        let kind = self.cycle.pop().expect("cycle refilled");
        if !kind.is_commit() {
            let (entries, used) = &mut self.order[kind as usize];
            *used += 1;
            return Op::Read(entries[(*used - 1) % entries.len()]);
        }
        let items = self.rng.range(1, 3);
        let deltas = (0..items)
            .map(|i| self.delta(kind == Kind::CommitBig && i == 0, kind == Kind::CommitSmall))
            .collect();
        Op::Commit(kind, deltas)
    }

    /// One commit item. `must_be_f` forces the big relation, `never_f`
    /// excludes it.
    fn delta(&mut self, must_be_f: bool, never_f: bool) -> Delta {
        let on_f = must_be_f || (!never_f && self.rng.below(2) == 0);
        let cancellable: Vec<usize> = (0..self.outstanding.len())
            .filter(|&i| (self.outstanding[i].relation == "F") == on_f)
            .collect();
        if !cancellable.is_empty() && self.rng.below(2) == 0 {
            let mut undo = self.outstanding.swap_remove(*self.rng.pick(&cancellable));
            undo.count = -undo.count;
            return undo;
        }
        let count = self.rng.range(1, 3);
        let (relation, row) = if on_f {
            if self.rng.below(2) == 0 {
                // A new row, with an id no other connection uses.
                self.fresh += 1;
                let g = self.sizes.f_rows + self.conn as i64 * 100_000_000 + self.fresh;
                (
                    "F",
                    vec![Value::Int(g), tag(self.rng.range(0, self.sizes.tags - 1))],
                )
            } else {
                let g = self.rng.range(0, self.sizes.f_rows - 1);
                ("F", vec![Value::Int(g), tag(self.model.f_tags[g as usize])])
            }
        } else {
            match self.rng.below(3) {
                0 => {
                    let layer = self.rng.range(0, self.sizes.layers - 2);
                    let s = layer * self.sizes.width + self.rng.range(0, self.sizes.width - 1);
                    let t = self
                        .rng
                        .range((layer + 1) * self.sizes.width, self.sizes.nodes() - 1);
                    ("E", vec![Value::Int(s), Value::Int(t)])
                }
                // Existing rows only: `R` and `S` keep their row counts, so
                // `tiny` plans stay on one side of the `auto` threshold.
                1 => ("R", random_row(self.model, "R", &mut self.rng)),
                _ => ("S", random_row(self.model, "S", &mut self.rng)),
            }
        };
        let delta = Delta {
            relation,
            row,
            count,
        };
        self.outstanding.push(delta.clone());
        delta
    }

    pub fn kind_of(&self, op: &Op) -> Kind {
        match op {
            Op::Read(i) => self.pool.entries[*i].read.kind(),
            Op::Commit(kind, _) => *kind,
        }
    }

    pub fn line_of(&self, op: &Op) -> String {
        match op {
            Op::Read(i) => self.pool.entries[*i].line.clone(),
            Op::Commit(_, deltas) => commit_line(deltas),
        }
    }

    /// Logs one completed operation and checks its reply: against the
    /// oracle where that is possible at once (nothing commits), otherwise
    /// for `ok` and a non-decreasing epoch. The rest of the checking
    /// happens after the run, off the clock.
    pub fn record(&mut self, op: Op, line: &str, reply: std::io::Result<String>, latency_ms: f64) {
        self.log.latencies.push((self.kind_of(&op), latency_ms));
        let Ok(reply) = reply else {
            self.log.failed += 1;
            self.log.notes.push(format!("I/O error on {line}"));
            return;
        };
        let epoch = reply_epoch(&reply);
        let ok = match (&op, epoch) {
            (_, None) => false,
            (_, Some(e)) if e < self.last_epoch => false,
            (Op::Read(i), Some(_)) if !self.mixed => reply == self.pool.entries[*i].expected,
            _ => reply.starts_with("ok"),
        };
        if !ok {
            self.log.failed += 1;
            if self.log.notes.len() < 3 {
                let shown: String = reply.chars().take(120).collect();
                self.log.notes.push(format!("bad reply to {line}: {shown}"));
            }
        }
        self.last_epoch = epoch.unwrap_or(self.last_epoch);
        match op {
            Op::Commit(_, deltas) => self.log.commits.push((self.last_epoch, deltas)),
            Op::Read(i) => {
                self.reads += 1;
                if self.mixed && self.reads.is_multiple_of(50) && self.pool.entries[i].rows < 2_000
                {
                    self.log.sampled.push((i, reply));
                }
            }
        }
    }
}

fn random_row(model: &Model, relation: &str, rng: &mut Rng) -> Vec<Value> {
    let rel = model.rel(relation);
    let nth = rng.below(rel.len() as u64) as usize;
    rel.keys().nth(nth).expect("row exists").clone()
}

/// One timed stretch of closed-loop load.
pub struct Phase {
    pub wall: Duration,
    pub latencies: Vec<(Kind, f64)>,
    connections: usize,
    cpu_s: f64,
    /// Seconds each complete cycle of 100 operations took, any connection.
    cycle_seconds: Vec<f64>,
    /// Process CPU milliseconds per completed request (all connections),
    /// over each of the first connection's cycles.
    cycle_cpu_ms_per_op: Vec<f64>,
}

impl Phase {
    pub fn of_kind(&self, kind: Kind) -> Vec<f64> {
        self.all(|k| k == kind)
    }

    pub fn all(&self, keep: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.latencies
            .iter()
            .filter(|(k, _)| keep(*k))
            .map(|(_, ms)| *ms)
            .collect()
    }

    /// Seconds one cycle of 100 operations takes a connection: the lowest
    /// decile over the cycles (every cycle is the same mix, so cycles are
    /// comparable units of work), or the average when the stretch was too
    /// short to hold a few.
    fn cycle_time(&self) -> f64 {
        if self.cycle_seconds.len() < 4 {
            let per_connection = self.latencies.len() as f64 / self.connections as f64;
            return self.wall.as_secs_f64() * CYCLE as f64 / per_connection.max(1.0);
        }
        quiet_decile(&self.cycle_seconds)
    }

    /// Operations per second, all connections.
    pub fn throughput(&self) -> f64 {
        self.connections as f64 * CYCLE as f64 / self.cycle_time()
    }

    /// Mean milliseconds per operation of the mix, as a connection sees it.
    pub fn mean_latency_ms(&self) -> f64 {
        self.cycle_time() * 1e3 / CYCLE as f64
    }
}

/// Process CPU milliseconds per request: the lowest decile over the cycles
/// of all the stretches, or the plain ratio when they were too short to
/// hold a few.
pub fn cpu_ms_per_op(phases: &[&Phase]) -> f64 {
    let cycles: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.cycle_cpu_ms_per_op.iter().copied())
        .collect();
    if cycles.len() < 4 {
        let cpu_s: f64 = phases.iter().map(|p| p.cpu_s).sum();
        let requests: usize = phases.iter().map(|p| p.latencies.len()).sum();
        return cpu_s * 1e3 / requests.max(1) as f64;
    }
    quiet_decile(&cycles)
}

/// Runs one script per client for `seconds`, each a closed loop, timing
/// every request from send to the full reply line read.
pub fn closed_loop(clients: &mut [Client], scripts: &mut [Script], seconds: f64) -> Phase {
    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let completed = AtomicU64::new(0);
    // Per connection, at each cycle start: when, process CPU so far, and
    // requests completed so far by all connections.
    let marks: Vec<Vec<(Instant, f64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(scripts.iter_mut())
            .map(|(client, script)| {
                let completed = &completed;
                scope.spawn(move || {
                    let mut marks = Vec::new();
                    while Instant::now() < deadline {
                        let op = script.next();
                        if script.opened_cycle() {
                            let done = completed.load(Ordering::Relaxed);
                            marks.push((Instant::now(), cpu_seconds(), done));
                        }
                        let line = script.line_of(&op);
                        let sent = Instant::now();
                        let reply = client.request(&line);
                        let failed = reply.is_err();
                        script.record(op, &line, reply, ms(sent.elapsed()));
                        completed.fetch_add(1, Ordering::Relaxed);
                        if failed {
                            break;
                        }
                    }
                    marks
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        wall: started.elapsed(),
        cpu_s: cpu_seconds() - cpu_before,
        connections: scripts.len(),
        cycle_seconds: marks
            .iter()
            .flat_map(|m| m.windows(2).map(|w| (w[1].0 - w[0].0).as_secs_f64()))
            .collect(),
        cycle_cpu_ms_per_op: marks[0]
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) * 1e3 / (w[1].2 - w[0].2).max(1) as f64)
            .collect(),
        latencies: scripts
            .iter_mut()
            .flat_map(|s| std::mem::take(&mut s.log.latencies))
            .collect(),
    }
}

/// After a run that committed: the final state of every base relation and
/// standing view must equal the model after all deltas (ℤ deltas commute,
/// so the final state does not depend on the interleaving), commit epochs
/// must be contiguous, and up to 200 sampled reads must equal the oracle's
/// answer on the model rebuilt at the epoch their reply reported.
pub fn check_final_state(
    client: &mut Client,
    base: &Model,
    pool: &Pool,
    logs: &[&ConnLog],
    corrupt: bool,
    outcome: &mut Outcome,
) {
    let mut commits: Vec<&(u64, Vec<Delta>)> = logs.iter().flat_map(|l| l.commits.iter()).collect();
    commits.sort_by_key(|(epoch, _)| *epoch);
    let contiguous = commits
        .iter()
        .enumerate()
        .all(|(i, (epoch, _))| *epoch == SETUP_EPOCH + 1 + i as u64);
    outcome.check(contiguous, || {
        "commit epochs are not contiguous".to_string()
    });

    let mut sampled: Vec<(u64, usize, String)> = logs
        .iter()
        .flat_map(|l| l.sampled.iter())
        .filter_map(|(i, reply)| split_epoch(reply).map(|(e, blanked)| (e, *i, blanked)))
        .collect();
    sampled.sort_by_key(|(epoch, _, _)| *epoch);
    let stride = sampled.len().div_ceil(200).max(1);
    let mut model = base.clone();
    let mut applied = 0;
    for (epoch, i, blanked) in sampled.into_iter().step_by(stride) {
        while applied < commits.len() && commits[applied].0 <= epoch {
            for delta in &commits[applied].1 {
                model.apply(delta);
            }
            applied += 1;
        }
        let entry = &pool.entries[i];
        let (expected, _) = entry.read.expected(&model, epoch);
        let expected = split_epoch(&expected).expect("rendered epoch").1;
        outcome.check(blanked == expected, || {
            format!("{} at epoch {epoch} differs from the model", entry.line)
        });
    }
    for (_, deltas) in &commits[applied..] {
        for delta in deltas {
            model.apply(delta);
        }
    }
    if corrupt {
        // --self-test: the model now disagrees with the service on one row.
        model.apply(&Delta {
            relation: "R",
            row: random_row(base, "R", &mut Rng::new(1)),
            count: 1,
        });
    }
    let final_epoch = SETUP_EPOCH + commits.len() as u64;
    let finals = RELATIONS
        .iter()
        .map(|name| Read::Relation(name))
        .chain(VIEWS.iter().map(|(name, _)| Read::View(name)));
    for read in finals {
        let line = read.line();
        let reply = client.request(&line).unwrap_or_default();
        let (expected, _) = read.expected(&model, final_epoch);
        outcome.check(reply == expected, || {
            format!("final {line} differs from the model after all deltas")
        });
    }
}

/// Runs the scripts for `solo_seconds` on the first connection alone, then
/// for `duo_seconds` on all of them, and books what they attempted and what
/// failed.
pub fn run_phases(
    system: &mut System,
    scripts: &mut [Script],
    solo_seconds: f64,
    duo_seconds: f64,
    outcome: &mut Outcome,
) -> (Phase, Phase) {
    let solo = closed_loop(&mut system.clients[..1], &mut scripts[..1], solo_seconds);
    let duo = closed_loop(&mut system.clients, scripts, duo_seconds);
    outcome.attempted += (solo.latencies.len() + duo.latencies.len()) as u64;
    for script in scripts.iter() {
        outcome.failed += script.log.failed;
        outcome.notes.extend(script.log.notes.iter().cloned());
    }
    (solo, duo)
}

/// Share of a run's seconds spent with one connection alone; the rest runs
/// both. Latencies come from the first stretch, where the two connections do
/// not compete for the two cores; throughput and CPU per operation come from
/// the second.
pub const SOLO_SHARE: f64 = 0.5;

/// The user-visible slow operation of each mix: the ~100 kB reply when
/// nothing commits, the commit into the 100 000-row relation otherwise.
pub fn heavy_kind(mixed: bool) -> Kind {
    if mixed {
        Kind::CommitBig
    } else {
        Kind::Wide
    }
}

/// `svc_read` / `svc_mixed`, end-to-end metrics (tracing off).
pub fn run(mixed: bool, seed: u64, seconds: f64, smoke: bool, self_test: bool) -> Outcome {
    let sizes = SvcSizes::new(smoke);
    let model = Model::generate(seed, &sizes);
    let mut pool = Pool::generate(seed, &sizes, &model);
    let mut outcome = Outcome::default();

    // The first set-up is the one measured on: setting up again before the
    // run would leave the heap fragmented in a way that differs from run to
    // run (server threads free concurrently), which moved every latency by
    // up to a third. The repeats happen after the run.
    let (mut system, first_setup) = timed(|| build_system(&model, &pool));
    let mut setups = vec![first_setup.as_secs_f64()];
    outcome.check(system.warmup_failed == 0, || {
        format!(
            "{} warm-up replies differ from the oracle",
            system.warmup_failed
        )
    });
    if self_test && !mixed {
        pool.corrupt_one();
    }

    let mut scripts: Vec<Script> = (0..CONNECTIONS)
        .map(|conn| Script::new(seed, conn, mixed, &sizes, &pool, &model))
        .collect();
    let (solo, duo) = run_phases(
        &mut system,
        &mut scripts,
        seconds * SOLO_SHARE,
        seconds * (1.0 - SOLO_SHARE),
        &mut outcome,
    );
    if mixed {
        let logs: Vec<&ConnLog> = scripts.iter().map(|s| &s.log).collect();
        check_final_state(
            &mut system.clients[0],
            &model,
            &pool,
            &logs,
            self_test,
            &mut outcome,
        );
    }

    drop(system);
    for _ in 1..SETUPS {
        setups.push(timed(|| build_system(&model, &pool)).1.as_secs_f64());
    }

    // The heavy operation's quiet decile is over the whole run: with twice
    // the samples it repeats better, and the contended ones are not in it.
    let mut heavy = solo.of_kind(heavy_kind(mixed));
    heavy.extend(duo.of_kind(heavy_kind(mixed)));
    outcome.metric("setup_s", median(&setups), "s");
    outcome.metric("throughput_ops_s", duo.throughput(), "1/s");
    outcome.metric("op_latency_ms", solo.mean_latency_ms(), "ms");
    outcome.metric("heavy_p10_ms", quiet_decile(&heavy), "ms");
    outcome.metric("cpu_ms_per_op", cpu_ms_per_op(&[&solo, &duo]), "ms");
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");

    outcome.notes.push(format!(
        "sizes: F {} rows, {} tags, {} labels, E {} nodes / {} edges, pool {} distinct reads; \
         1 connection for {:.2} s ({} requests), then {CONNECTIONS} for {:.2} s ({} requests)",
        sizes.f_rows,
        sizes.tags,
        sizes.labels,
        sizes.nodes(),
        model.rel("E").len(),
        pool.entries.len(),
        solo.wall.as_secs_f64(),
        solo.latencies.len(),
        duo.wall.as_secs_f64(),
        duo.latencies.len(),
    ));
    outcome.notes.push(format!(
        "op_latency_ms over {} cycles of {CYCLE} requests; heavy_p10_ms over {} {:?} requests",
        solo.cycle_seconds.len(),
        heavy.len(),
        heavy_kind(mixed)
    ));
    for (phase, name) in [(&solo, "1 connection"), (&duo, "2 connections")] {
        for kind in Kind::ALL {
            let samples = phase.of_kind(kind);
            if !samples.is_empty() {
                outcome.notes.push(format!(
                    "  {name} {kind:?}: n={} p50={:.3} ms p95={:.3} ms",
                    samples.len(),
                    median(&samples),
                    percentile(&samples, 95.0)
                ));
            }
        }
    }
    outcome
}
