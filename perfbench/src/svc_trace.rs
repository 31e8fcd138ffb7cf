//! The traced run of the service workloads.
//!
//! A deterministic sample — the first [`REPLAY_OPS`] operations of
//! connection 0's script — is replayed serially on a fresh service. Every
//! read runs at three depths back to back on the same snapshot: depth 0 is
//! `Client::request` over TCP, depth 1 `Session::handle_line` plus
//! `Response::render`, depth 2 the public stage calls the handler makes. A
//! layer's self time is a depth minus the depth below it. Each commit runs
//! once, at depth (index mod 3), so the state evolves exactly as in an
//! untraced run. Counts are read from the caches' public counters before and
//! after; because the sample is a fixed number of operations, they repeat
//! exactly from run to run.
//!
//! Afterwards a second service takes the untraced closed-loop load, for the
//! `client.*` diagnostics and the traced-versus-untraced comparison.

use crate::metrics::Layers;
use crate::model::{schema_of, Delta, Kind, Model, SvcSizes, VIEWS};
use crate::svc::{
    build_system, check_final_state, cpu_ms_per_op, heavy_kind, run_phases, service_ctx, ConnLog,
    Op, Pool, Script, System, CONNECTIONS,
};
use crate::trace::{kernel_rates, semiring_rates, Spans, NO_PARENT};
use crate::util::{median, percentile, timed, Outcome};
use provsem_core::prelude::{
    DbSnapshot, DeltaBatch, ExecContext, MaterializedView, Plan, RelationSource, Schema, Tuple,
};
use provsem_datalog::{
    evaluate_with_context, parse_program, EvalStrategy, FactStore, DEFAULT_FALLBACK_BOUND,
};
use provsem_semiring::ring::Integers;
use provsem_server::{normalize, parse_ra, Request, Response};
use std::collections::BTreeMap;

/// Operations in the replayed sample.
fn replay_ops(smoke: bool) -> usize {
    if smoke {
        200
    } else {
        1_000
    }
}

#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn p50(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }

    fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

fn delta_batch(snapshot: &DbSnapshot<Integers>, deltas: &[Delta]) -> DeltaBatch<Integers> {
    let mut batch = DeltaBatch::new();
    for delta in deltas {
        let schema = Schema::new(schema_of(delta.relation).iter().copied());
        debug_assert_eq!(
            Some(&schema),
            snapshot.database().schema_of(delta.relation),
            "model and service agree on the schema"
        );
        batch.insert(
            delta.relation,
            Tuple::from_values(&schema, delta.row.iter().cloned()),
            Integers::new(delta.count),
        );
    }
    batch
}

/// The benchmark's own copies of the standing views, maintained beside the
/// service's so `Plan::maintain` can be timed on the same deltas.
struct ShadowViews {
    views: Vec<(Plan, MaterializedView<Integers>, Vec<String>)>,
}

impl ShadowViews {
    fn materialize(snapshot: &DbSnapshot<Integers>, layers: &mut Layers) -> ShadowViews {
        let (views, took) = timed(|| {
            VIEWS
                .iter()
                .map(|(_, text)| {
                    let expr = parse_ra(text).expect("view expression parses");
                    let plan = Plan::new(&expr, &snapshot.catalog()).expect("view plans");
                    let view = plan.materialize(snapshot);
                    (plan, view, expr.base_relations())
                })
                .collect()
        });
        layers.set("maintain.materialize_ms", took.as_secs_f64() * 1e3);
        ShadowViews { views }
    }

    /// Absorbs one commit into every view over a touched relation; returns
    /// the microseconds `Plan::maintain` took in total.
    fn maintain(&mut self, batch: &DeltaBatch<Integers>, deltas: &[Delta]) -> f64 {
        let mut total = 0.0;
        for (plan, view, bases) in &mut self.views {
            if deltas.iter().any(|d| bases.iter().any(|b| b == d.relation)) {
                total += timed(|| plan.maintain(view, batch)).1.as_secs_f64() * 1e6;
            }
        }
        total
    }
}

struct Replay<'a> {
    system: &'a mut System,
    ctx: ExecContext,
    spans: Spans,
    samples: Samples,
    shadow: ShadowViews,
    rendered_bytes: f64,
    reply_bytes: f64,
    rounds: f64,
    idb_facts: f64,
}

fn kind_stage(kind: Kind) -> &'static str {
    match kind {
        Kind::Tiny => "plan.execute_tiny_us",
        Kind::Point => "plan.execute_point_us",
        Kind::Agg => "plan.execute_agg_us",
        Kind::Wide => "plan.execute_wide_us",
        _ => "plan.execute_other_us",
    }
}

impl Replay<'_> {
    /// One read at the three depths. Returns the depth-0 reply.
    fn read(&mut self, request: u32, kind: Kind, line: &str) -> std::io::Result<String> {
        let wide = kind == Kind::Wide;
        let root = self.spans.open("op", NO_PARENT, request);

        // Depth 0: over TCP.
        let (reply, d0) = self.spans.time("tcp.request", root, request, || {
            self.system.clients[0].request(line)
        });
        let reply = reply?;
        self.reply_bytes += reply.len() as f64 + 1.0;
        self.samples.push(depth0_name(kind), d0 / 1e3);

        // Depth 1: the handler and the renderer, in this thread.
        let mut session = self.system.service.session();
        let (response, handle) = self.spans.time("session.handle_line", root, request, || {
            session.handle_line(line)
        });
        let (rendered, render) = self
            .spans
            .time("protocol.render", root, request, || response.render());
        self.rendered_bytes += rendered.len() as f64;
        self.samples
            .push(if wide { "render_wide_us" } else { "render_us" }, render);
        self.samples.push(
            if wide {
                "tcp_wide_self_us"
            } else {
                "tcp_self_us"
            },
            d0 - handle - render,
        );

        // Depth 2: the stages.
        let stages = self.spans.open("stages", root, request);
        let (parsed, parse) = self
            .spans
            .time("protocol.parse", stages, request, || Request::parse(line));
        self.samples.push("protocol_parse_us", parse);
        let mut staged = parse;
        let shared = self.system.service.shared().clone();
        let (snapshot, acquire) = self
            .spans
            .time("snapshot.acquire", stages, request, || shared.snapshot());
        self.samples.push("snapshot_acquire_ns", acquire * 1e3);
        match parsed.expect("generated requests parse") {
            Request::Query(text) => {
                let (expr, ra) = self.spans.time("ra_parse.parse", stages, request, || {
                    let expr = parse_ra(&text).expect("generated queries parse");
                    let normalized = normalize(&expr);
                    (expr, normalized)
                });
                let (expr, normalized) = expr;
                self.samples.push("ra_parse_us", ra);
                let (_, build) = self.spans.time("plan.build", stages, request, || {
                    Plan::new(&expr, &snapshot.catalog()).expect("generated queries plan")
                });
                self.samples.push("plan_build_us", build);
                let cache = self.system.service.cache().clone();
                let (looked_up, lookup) =
                    self.spans.time("plan_cache.lookup", stages, request, || {
                        cache.get_or_plan(snapshot.epoch(), &normalized, || {
                            Plan::new(&expr, &snapshot.catalog())
                        })
                    });
                let (plan, hit) = looked_up.expect("generated queries plan");
                if hit {
                    self.samples.push("plan_cache_lookup_us", lookup);
                }
                let ctx = self.ctx;
                let (result, execute) = self.spans.time("plan.execute", stages, request, || {
                    plan.execute_with(&snapshot, &ctx)
                });
                std::hint::black_box(result.len());
                self.samples.push(kind_stage(kind), execute);
                staged += ra + lookup + execute;
                // What the handler does besides the stages: snapshot clone,
                // `KRelation` → rows. Only comparable when depth 1 hit the
                // plan cache too.
                if matches!(
                    response,
                    Response::Rows {
                        cached: Some(true),
                        ..
                    }
                ) && hit
                {
                    self.samples.push(
                        if wide {
                            "session_other_wide_us"
                        } else {
                            "session_other_us"
                        },
                        handle - staged,
                    );
                }
            }
            Request::Datalog { program, goal } => {
                let (program, parse) = self.spans.time("datalog.parse", stages, request, || {
                    parse_program(&program).expect("generated programs parse")
                });
                self.samples.push("datalog_parse_us", parse);
                let (edb, import) = self.spans.time("datalog.import", stages, request, || {
                    let mut edb = FactStore::<Integers>::new();
                    for name in program.edb_predicates() {
                        let shared = snapshot.database().get_shared(&name).expect("E exists");
                        let (cache, epoch) = snapshot.batch_cache().expect("snapshots cache");
                        edb.import_batches(&name, &cache.get_or_convert(epoch, &shared));
                    }
                    edb
                });
                self.samples.push("datalog_import_us", import);
                let ctx = self.ctx;
                let (result, eval) = self.spans.time("datalog.eval", stages, request, || {
                    evaluate_with_context(
                        &program,
                        &edb,
                        EvalStrategy::SemiNaive,
                        DEFAULT_FALLBACK_BOUND,
                        &ctx,
                    )
                });
                self.samples.push("datalog_eval_us", eval);
                self.rounds += result.iterations as f64;
                self.idb_facts += result.idb.facts_of(&goal).count() as f64;
            }
            _ => self.samples.push("session_other_us", handle - staged),
        }
        self.spans.close(stages);
        self.spans.close(root);
        Ok(reply)
    }

    /// One commit, at the depth its index selects. Returns the reply line.
    fn commit(
        &mut self,
        index: usize,
        kind: Kind,
        line: &str,
        deltas: &[Delta],
    ) -> std::io::Result<String> {
        let request = index as u32;
        let root = self.spans.open("op", NO_PARENT, request);
        let head = self.system.service.shared().snapshot();
        let batch = delta_batch(&head, deltas);
        let reply = match index % 3 {
            0 => {
                let (reply, d0) = self.spans.time("tcp.request", root, request, || {
                    self.system.clients[0].request(line)
                });
                self.samples.push(depth0_name(kind), d0 / 1e3);
                reply?
            }
            1 => {
                let mut session = self.system.service.session();
                let (response, _) = self.spans.time("session.handle_line", root, request, || {
                    session.handle_line(line)
                });
                response.render()
            }
            _ => {
                let (parsed, parse) = self
                    .spans
                    .time("protocol.parse", root, request, || Request::parse(line));
                self.samples.push("protocol_parse_us", parse);
                std::hint::black_box(parsed.expect("generated commits parse"));
                let shared = self.system.service.shared().clone();
                let ctx = self.ctx;
                let (epoch, took) = self.spans.time("snapshot.commit", root, request, || {
                    shared.commit_with(&batch, &ctx)
                });
                let big = kind == Kind::CommitBig;
                self.samples.push(
                    if big {
                        "commit_big_us"
                    } else {
                        "commit_small_us"
                    },
                    took,
                );
                let maintained = self.shadow.maintain(&batch, deltas);
                if maintained > 0.0 {
                    self.samples.push("maintain_us", maintained);
                }
                self.spans.close(root);
                return Ok(Response::Committed {
                    epoch,
                    changes: deltas.len(),
                }
                .render());
            }
        };
        self.shadow.maintain(&batch, deltas);
        self.spans.close(root);
        Ok(reply)
    }
}

fn depth0_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Tiny => "depth0_tiny_ms",
        Kind::Point => "depth0_point_ms",
        Kind::Agg => "depth0_agg_ms",
        Kind::Wide => "depth0_wide_ms",
        Kind::View => "depth0_view_ms",
        Kind::Datalog => "depth0_datalog_ms",
        Kind::CommitSmall => "depth0_commit_small_ms",
        Kind::CommitBig => "depth0_commit_big_ms",
    }
}

pub fn run(
    mixed: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
    self_test: bool,
    spans_path: Option<&str>,
) -> Outcome {
    let sizes = SvcSizes::new(smoke);
    let model = Model::generate(seed, &sizes);
    let mut pool = Pool::generate(seed, &sizes, &model);
    let mut outcome = Outcome::default();
    let mut layers = Layers::default();

    // --- The serial replay, on a fresh service. ---
    let mut system = build_system(&model, &pool);
    layers.set("setup.load_ms", system.load_ms);
    layers.set("setup.warmup_ms", system.warmup_ms);
    layers.set("snapshot.register_view_ms", system.register_view_ms);
    let snapshot = system.service.shared().snapshot();
    let shadow = ShadowViews::materialize(&snapshot, &mut layers);
    let plans_before = system.service.cache().stats();
    let batches_before = snapshot.batch_cache_stats();
    drop(snapshot);

    if self_test && !mixed {
        pool.corrupt_one();
    }
    let mut script = Script::new(seed, 0, mixed, &sizes, &pool, &model);
    let mut replay = Replay {
        system: &mut system,
        ctx: service_ctx(),
        spans: Spans::new(),
        samples: Samples::default(),
        shadow,
        rendered_bytes: 0.0,
        reply_bytes: 0.0,
        rounds: 0.0,
        idb_facts: 0.0,
    };
    let ops = replay_ops(smoke);
    let mut reads = 0.0f64;
    for index in 0..ops {
        let op = script.next();
        let kind = script.kind_of(&op);
        let line = script.line_of(&op);
        let (reply, took) = timed(|| match &op {
            Op::Read(_) => {
                reads += 1.0;
                replay.read(index as u32, kind, &line)
            }
            Op::Commit(_, deltas) => replay.commit(index, kind, &line, deltas),
        });
        script.record(op, &line, reply, took.as_secs_f64() * 1e3);
    }
    let Replay {
        spans,
        samples,
        rendered_bytes,
        reply_bytes,
        rounds,
        idb_facts,
        ..
    } = replay;
    outcome.attempted += ops as u64;
    outcome.failed += script.log.failed;
    outcome.notes.extend(script.log.notes.iter().cloned());

    let snapshot = system.service.shared().snapshot();
    let plans = system.service.cache().stats();
    let batches = snapshot.batch_cache_stats();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    layers.set(
        "plan_cache.hit_ratio",
        ratio(
            plans.hits - plans_before.hits,
            plans.misses - plans_before.misses,
        ),
    );
    layers.set("plan_cache.entries_end", plans.entries as f64);
    layers.set(
        "batch_cache.hit_ratio",
        ratio(
            batches.hits - batches_before.hits,
            batches.misses - batches_before.misses,
        ),
    );
    layers.set(
        "batch_cache.misses",
        (batches.misses - batches_before.misses) as f64,
    );
    layers.set(
        "batch_cache.patches",
        (batches.patches - batches_before.patches) as f64,
    );
    let f = snapshot.database().get_shared("F").expect("F exists");
    let (cache, epoch) = snapshot.batch_cache().expect("snapshots cache");
    layers.set(
        "batch_cache.batches_per_scan_end",
        cache.get_or_convert(epoch, &f).len() as f64,
    );
    if mixed {
        let logs: Vec<&ConnLog> = vec![&script.log];
        check_final_state(
            &mut system.clients[0],
            &model,
            &pool,
            &logs,
            self_test,
            &mut outcome,
        );
    }

    layers.set("tcp.self_us_p50", samples.p50("tcp_self_us"));
    layers.set(
        "tcp.wide_self_ms_p50",
        samples.p50("tcp_wide_self_us") / 1e3,
    );
    layers.set("tcp.bytes_out_per_req", reply_bytes / reads.max(1.0));
    layers.set("protocol.parse_us_p50", samples.p50("protocol_parse_us"));
    layers.set("protocol.render_us_p50", samples.p50("render_us"));
    layers.set(
        "protocol.render_wide_ms_p50",
        samples.p50("render_wide_us") / 1e3,
    );
    layers.set(
        "protocol.render_mb_per_s",
        rendered_bytes / (samples.sum("render_us") + samples.sum("render_wide_us")).max(1e-9),
    );
    layers.set("ra_parse.parse_us_p50", samples.p50("ra_parse_us"));
    layers.set(
        "plan_cache.lookup_us_p50",
        samples.p50("plan_cache_lookup_us"),
    );
    layers.set("plan.build_us_p50", samples.p50("plan_build_us"));
    layers.set(
        "plan.execute_tiny_us_p50",
        samples.p50("plan.execute_tiny_us"),
    );
    layers.set(
        "plan.execute_point_us_p50",
        samples.p50("plan.execute_point_us"),
    );
    layers.set(
        "plan.execute_agg_ms_p50",
        samples.p50("plan.execute_agg_us") / 1e3,
    );
    layers.set(
        "plan.execute_wide_ms_p50",
        samples.p50("plan.execute_wide_us") / 1e3,
    );
    layers.set("session.other_us_p50", samples.p50("session_other_us"));
    layers.set(
        "session.other_wide_ms_p50",
        samples.p50("session_other_wide_us") / 1e3,
    );
    layers.set(
        "snapshot.commit_big_ms_p50",
        samples.p50("commit_big_us") / 1e3,
    );
    layers.set(
        "snapshot.commit_small_us_p50",
        samples.p50("commit_small_us"),
    );
    layers.set(
        "snapshot.acquire_ns_p50",
        samples.p50("snapshot_acquire_ns"),
    );
    layers.set("maintain.delta_us_p50", samples.p50("maintain_us"));
    layers.set(
        "maintain.share_of_commit",
        samples.sum("maintain_us")
            / (samples.sum("commit_big_us") + samples.sum("commit_small_us")).max(1e-9),
    );
    layers.set("datalog.parse_us_p50", samples.p50("datalog_parse_us"));
    layers.set("datalog.import_us_p50", samples.p50("datalog_import_us"));
    layers.set("datalog.eval_ms_p50", samples.p50("datalog_eval_us") / 1e3);
    layers.set("datalog.rounds", rounds);
    layers.set("datalog.idb_facts", idb_facts);
    layers.set(
        "datalog.derived_facts_per_s",
        idb_facts / (samples.sum("datalog_eval_us") / 1e6).max(1e-9),
    );
    layers.set("trace.spans", spans.list.len() as f64);
    layers.set("trace.span_cost_ns", Spans::cost_ns());
    layers.set("trace.replayed_ops", ops as f64);

    // --- Kernels and semiring operations, on this workload's own data. ---
    let d = snapshot.database().get("D").expect("D exists");
    kernel_rates(&mut layers, &f, 1, 1, d, 1);
    semiring_rates(&mut layers);
    drop((f, snapshot, system));

    // --- Untraced closed-loop load on a second service. ---
    let mut system = build_system(&model, &pool);
    let mut scripts: Vec<Script> = (0..CONNECTIONS)
        .map(|conn| Script::new(seed, conn, mixed, &sizes, &pool, &model))
        .collect();
    let (solo, duo) = run_phases(
        &mut system,
        &mut scripts,
        seconds * 0.25,
        seconds * 0.25,
        &mut outcome,
    );
    layers.set("process.cpu_ms_per_req", cpu_ms_per_op(&[&duo]));
    layers.set("client.throughput_ops_s", duo.throughput());
    for (name, kind) in [
        ("client.tiny_p50_ms", Kind::Tiny),
        ("client.point_p50_ms", Kind::Point),
        ("client.agg_p50_ms", Kind::Agg),
        ("client.wide_p50_ms", Kind::Wide),
        ("client.view_p50_ms", Kind::View),
        ("client.datalog_p50_ms", Kind::Datalog),
        ("client.commit_small_p50_ms", Kind::CommitSmall),
        ("client.commit_big_p50_ms", Kind::CommitBig),
    ] {
        layers.set(name, median(&duo.of_kind(kind)));
    }
    layers.set(
        "client.point_p95_ms",
        percentile(&duo.of_kind(Kind::Point), 95.0),
    );
    layers.set(
        "client.point_p99_ms",
        percentile(&duo.of_kind(Kind::Point), 99.0),
    );
    layers.set(
        "client.read_p99_ms",
        percentile(&duo.all(|k| !k.is_commit()), 99.0),
    );
    layers.set(
        "client.commit_big_p95_ms",
        percentile(&duo.of_kind(Kind::CommitBig), 95.0),
    );
    layers.set(
        "client.commit_p99_ms",
        percentile(&duo.all(Kind::is_commit), 99.0),
    );
    // How long a small commit waits behind the writer lock: its contended
    // tail over what the same commit costs alone.
    let small_alone = median(&solo.of_kind(Kind::CommitSmall));
    layers.set(
        "client.commit_wait_ms_p95",
        (percentile(&duo.of_kind(Kind::CommitSmall), 95.0) - small_alone).max(0.0),
    );
    let untraced_point = median(&solo.of_kind(Kind::Point));
    layers.set(
        "trace.depth0_vs_untraced_ratio",
        samples.p50("depth0_point_ms") / untraced_point.max(1e-9),
    );
    outcome.notes.push(format!(
        "replayed {ops} operations serially at three depths ({} spans); then 1 connection for \
         {:.2} s and {CONNECTIONS} for {:.2} s untraced; heavy kind {:?}: depth-0 p50 {:.3} ms",
        spans.list.len(),
        solo.wall.as_secs_f64(),
        duo.wall.as_secs_f64(),
        heavy_kind(mixed),
        samples.p50(depth0_name(heavy_kind(mixed))),
    ));
    if let Some(path) = spans_path {
        match spans.write_jsonl(path) {
            Ok(()) => outcome.notes.push(format!("spans written to {path}")),
            Err(e) => outcome
                .notes
                .push(format!("could not write spans to {path}: {e}")),
        }
    }
    layers.report(&mut outcome);
    outcome
}
