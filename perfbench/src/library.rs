//! The two library workloads: one caller, no server.
//!
//! `fig5_ra` runs the paper's Section 2 query four ways on a large ternary
//! bag (direct ℕ evaluation, circuit tagging, the same plan over circuit
//! annotations, specialisation back to ℕ — Theorem 4.3's factorisation).
//! `fig6_tc` runs Figure 7's transitive closure under bag semantics (ℕ∞, on
//! an acyclic graph) and under the tropical semiring (on a cyclic one).
//! Both check every pass against an oracle written here in plain Rust.

use crate::metrics::Layers;
use crate::trace::{kernel_rates, semiring_rates, Spans, NO_PARENT};
use crate::util::{cpu_seconds, median, peak_rss_mb, quiet_decile, timed, Outcome, Rng};
use provsem_core::paper::section2_query;
use provsem_core::prelude::{
    specialize_circuit_with, tag_database_circuit, Database, ExecContext, KRelation, Plan,
    RelationSource, Schema, Tuple, Value,
};
use provsem_datalog::{
    seminaive_idempotent_with, seminaive_iterate_with, Fact, FactStore, Program,
    DEFAULT_FALLBACK_BOUND,
};
use provsem_semiring::circuit::{self, CircuitSession};
use provsem_semiring::{NatInf, Natural, Semiring, Tropical};
use std::collections::BTreeMap;
use std::time::Instant;

/// Library callers get both cores.
fn ctx() -> ExecContext {
    ExecContext::with_threads(2)
}

/// How many times a run sets the workload up; `setup_s` is the median.
const SETUPS: usize = 3;
/// A run times at least this many passes, however long they take.
const MIN_PASSES: usize = 3;

/// One workload: `pass` runs every stage once, checks the results, and
/// returns the seconds each stage took.
trait Workload {
    const STAGES: &'static [&'static str];
    /// Index into `STAGES` of the stage `heavy_p10_ms` reports.
    const HEAVY: usize;
    fn describe(&self) -> String;
    fn pass(&mut self, outcome: &mut Outcome, spans: &mut Spans, request: u32) -> Vec<f64>;
    fn layers(&self, layers: &mut Layers, stage_p50: &[f64]);
}

/// Sets the workload up (build the engine's structures from the generated
/// rows, then one untimed pass so lazy work is done), runs passes for
/// `seconds`, and reports. The set-up is repeated after the timed passes,
/// not before them, so they run on a heap no earlier set-up has fragmented.
fn drive<W: Workload>(
    mut build: impl FnMut() -> W,
    seconds: f64,
    trace: bool,
    spans_path: Option<&str>,
) -> Outcome {
    let mut outcome = Outcome::default();
    let mut spans = Spans::new();
    let warm = |w: &mut W, outcome: &mut Outcome| {
        w.pass(outcome, &mut Spans::new(), 0);
    };
    let (mut workload, first) = timed(|| {
        let mut w = build();
        warm(&mut w, &mut outcome);
        w
    });
    let mut setups = vec![first.as_secs_f64()];

    let started = Instant::now();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut pass_cpu_ms: Vec<f64> = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let cpu_before = cpu_seconds();
        passes.push(workload.pass(&mut outcome, &mut spans, passes.len() as u32));
        pass_cpu_ms.push((cpu_seconds() - cpu_before) * 1e3);
    }
    let wall = started.elapsed().as_secs_f64();

    let totals: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
    let stage_p50: Vec<f64> = (0..W::STAGES.len())
        .map(|s| median(&passes.iter().map(|p| p[s]).collect::<Vec<_>>()))
        .collect();
    outcome.notes.push(format!(
        "{}; {} timed passes in {wall:.2} s",
        workload.describe(),
        passes.len()
    ));
    for (stage, p50) in W::STAGES.iter().zip(&stage_p50) {
        outcome.notes.push(format!("  {stage}: p50 {p50:.4} s"));
    }
    if trace {
        let mut layers = Layers::default();
        workload.layers(&mut layers, &stage_p50);
        semiring_rates(&mut layers);
        layers.set("pass.p50_s", median(&totals));
        layers.set("pass.count", passes.len() as f64);
        layers.set("trace.spans", spans.list.len() as f64);
        layers.set("trace.span_cost_ns", Spans::cost_ns());
        layers.report(&mut outcome);
        if let Some(path) = spans_path {
            if let Err(e) = spans.write_jsonl(path) {
                outcome
                    .notes
                    .push(format!("could not write spans to {path}: {e}"));
            }
        }
        return outcome;
    }
    drop(workload);
    for _ in 1..SETUPS {
        let (_, took) = timed(|| warm(&mut build(), &mut outcome));
        setups.push(took.as_secs_f64());
    }
    outcome.metric("setup_s", median(&setups), "s");
    // One caller, so passes per second is the reciprocal of a pass's time.
    let heavy: Vec<f64> = passes.iter().map(|p| p[W::HEAVY]).collect();
    outcome.metric("throughput_ops_s", 1.0 / quiet_decile(&totals), "1/s");
    outcome.metric("op_latency_ms", quiet_decile(&totals) * 1e3, "ms");
    outcome.metric("heavy_p10_ms", quiet_decile(&heavy) * 1e3, "ms");
    // The CPU clock ticks every 10 ms: a smoke-sized pass can read 0.
    let cpu_ms = match quiet_decile(&pass_cpu_ms) {
        zero if zero <= 0.0 => pass_cpu_ms.iter().sum::<f64>() / passes.len() as f64,
        decile => decile,
    };
    outcome.metric("cpu_ms_per_op", cpu_ms, "ms");
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
    outcome.notes.push(format!(
        "an operation is one full pass; heavy_p10_ms is the {} stage",
        W::STAGES[W::HEAVY]
    ));
    outcome
}

// --- fig5_ra ----------------------------------------------------------------

struct Fig5 {
    draws: usize,
    domain: usize,
    db: Database<Natural>,
    plan: Plan,
    /// The oracle's answer: `(a, c)` rows in reply order with multiplicities.
    expected: Vec<(Vec<Value>, u64)>,
    circuit_nodes: usize,
}

/// `draws` rows over `{a, b, c}`, each value uniform in `v0..v{domain-1}`,
/// multiplicity 1–3; drawing a row twice sums (bag union).
fn ternary_rows(seed: u64, draws: usize, domain: usize) -> BTreeMap<[usize; 3], u64> {
    let mut rng = Rng::new(seed ^ 0xf195);
    let mut rows = BTreeMap::new();
    for _ in 0..draws {
        let row = [0; 3].map(|_| rng.below(domain as u64) as usize);
        *rows.entry(row).or_insert(0) += rng.range(1, 3) as u64;
    }
    rows
}

/// The Section 2 query, `π_ac(π_ab R ⋈ π_bc R ∪ π_ac R ⋈ π_bc R)`, by
/// array arithmetic: `out(a,c) = Σ_b ab(a,b)·bc(b,c) + ac(a,c)·Σ_b bc(b,c)`.
fn section2_oracle(rows: &BTreeMap<[usize; 3], u64>, domain: usize) -> Vec<(Vec<Value>, u64)> {
    let n = domain;
    let (mut ab, mut bc, mut ac) = (vec![0u64; n * n], vec![0u64; n * n], vec![0u64; n * n]);
    for (&[a, b, c], &m) in rows {
        ab[a * n + b] += m;
        bc[b * n + c] += m;
        ac[a * n + c] += m;
    }
    let name = |i: usize| Value::str(format!("v{i}"));
    let mut out = BTreeMap::new();
    for a in 0..n {
        for c in 0..n {
            let through_b: u64 = (0..n).map(|b| ab[a * n + b] * bc[b * n + c]).sum();
            let all_b: u64 = (0..n).map(|b| bc[b * n + c]).sum();
            let k = through_b + ac[a * n + c] * all_b;
            if k != 0 {
                out.insert(vec![name(a), name(c)], k);
            }
        }
    }
    out.into_iter().collect()
}

fn rows_of(relation: &KRelation<Natural>) -> Vec<(Vec<Value>, u64)> {
    relation
        .iter()
        .map(|(tuple, k)| (tuple.values().cloned().collect(), k.0))
        .collect()
}

impl Fig5 {
    fn build(seed: u64, smoke: bool, self_test: bool) -> Fig5 {
        let (draws, domain) = if smoke { (1_000, 10) } else { (30_000, 60) };
        let rows = ternary_rows(seed, draws, domain);
        let mut expected = section2_oracle(&rows, domain);
        if self_test {
            expected[0].1 += 1;
        }
        let schema = Schema::new(["a", "b", "c"]);
        let mut relation = KRelation::empty(schema.clone());
        for (row, m) in &rows {
            relation.insert(
                Tuple::from_values(&schema, row.iter().map(|i| format!("v{i}"))),
                Natural::from(*m),
            );
        }
        // A plain `Database`, not a snapshot: no batch cache, so every pass
        // pays the row→column conversion.
        let db = Database::new().with("R", relation);
        let plan = Plan::new(&section2_query(), &db.catalog()).expect("the paper's query plans");
        Fig5 {
            draws,
            domain,
            db,
            plan,
            expected,
            circuit_nodes: 0,
        }
    }
}

impl Workload for Fig5 {
    const STAGES: &'static [&'static str] = &[
        "plan.execute (ℕ)",
        "provenance.tag",
        "plan.execute (circuit)",
        "provenance.specialize",
    ];
    const HEAVY: usize = 2;

    fn describe(&self) -> String {
        format!(
            "Section 2 query on {} draws over a domain of {} ({} distinct rows, {} result rows)",
            self.draws,
            self.domain,
            self.db.get("R").map_or(0, KRelation::len),
            self.expected.len()
        )
    }

    fn pass(&mut self, outcome: &mut Outcome, spans: &mut Spans, request: u32) -> Vec<f64> {
        let ctx = ctx();
        let root = spans.open("pass", NO_PARENT, request);
        let session = CircuitSession::begin();
        let (direct, bag) = spans.time("plan.execute_bag", root, request, || {
            self.plan.execute_with(&self.db, &ctx)
        });
        let (tagged, tag) = spans.time("provenance.tag", root, request, || {
            tag_database_circuit(&self.db)
        });
        let (provenance, query) = spans.time("plan.execute_circuit", root, request, || {
            self.plan.execute_with(&tagged.database, &ctx)
        });
        let (specialized, specialize) = spans.time("provenance.specialize", root, request, || {
            specialize_circuit_with(&provenance, &tagged.valuation, &ctx)
        });
        spans.close(root);
        self.circuit_nodes = circuit::arena_node_count();
        outcome.check(rows_of(&direct) == self.expected, || {
            "direct ℕ evaluation differs from the oracle".to_string()
        });
        outcome.check(specialized == direct, || {
            "specialised circuit provenance differs from direct evaluation (Theorem 4.3)"
                .to_string()
        });
        // Every pass starts from an empty arena, as a first query would.
        drop((provenance, tagged, session));
        circuit::vacuum();
        [bag, tag, query, specialize]
            .iter()
            .map(|us| us / 1e6)
            .collect()
    }

    fn layers(&self, layers: &mut Layers, stage_p50: &[f64]) {
        layers.set("plan.execute_bag_s_p50", stage_p50[0]);
        layers.set("provenance.tag_s_p50", stage_p50[1]);
        layers.set("plan.execute_circuit_s_p50", stage_p50[2]);
        layers.set("provenance.specialize_s_p50", stage_p50[3]);
        layers.set("circuit.nodes", self.circuit_nodes as f64);
        layers.set(
            "circuit.nodes_per_s",
            self.circuit_nodes as f64 / (stage_p50[1] + stage_p50[2]),
        );
        // The query's own shapes: group on b, join π_ab with π_bc on b.
        let r = self.db.get("R").expect("R exists");
        kernel_rates(layers, r, 1, 1, &small_side(r), 1);
    }
}

/// The distinct `(b, c)`-shaped build side for the join kernel: a thousand
/// rows of `r`, so the pair count stays near the probe's row count.
fn small_side(r: &KRelation<Natural>) -> KRelation<Natural> {
    let mut out = KRelation::empty(r.schema().clone());
    for (tuple, k) in r.iter().take(1_000) {
        out.insert(tuple.clone(), *k);
    }
    out
}

pub fn fig5_ra(
    seed: u64,
    seconds: f64,
    smoke: bool,
    self_test: bool,
    trace: bool,
    spans_path: Option<&str>,
) -> Outcome {
    drive(
        || Fig5::build(seed, smoke, self_test),
        seconds,
        trace,
        spans_path,
    )
}

// --- fig6_tc ----------------------------------------------------------------

struct Fig6 {
    shape: String,
    program: Program,
    dag: FactStore<NatInf>,
    graph: FactStore<Tropical>,
    /// Derivation-tree counts of `Q` over the acyclic graph.
    expected_trees: BTreeMap<(usize, usize), u64>,
    /// Cheapest non-empty path costs over the cyclic graph.
    expected_costs: BTreeMap<(usize, usize), u64>,
    rounds: usize,
    idb_facts: usize,
}

fn node(i: usize) -> Value {
    Value::str(format!("n{i}"))
}

impl Fig6 {
    fn build(seed: u64, smoke: bool, self_test: bool) -> Fig6 {
        let (layers, width, nodes, out_degree) = if smoke { (4, 5, 20, 3) } else { (6, 24, 90, 3) };
        let mut rng = Rng::new(seed ^ 0xf196);

        // Acyclic: every forward edge between consecutive layers with
        // probability ½ (the shape of Figure 7's bag-semantics experiments),
        // so every fact has finitely many derivation trees.
        let n = layers * width;
        let mut edge = vec![false; n * n];
        let mut dag = FactStore::new();
        for layer in 0..layers - 1 {
            for i in 0..width {
                for j in 0..width {
                    if rng.below(2) == 0 {
                        let (s, t) = (layer * width + i, (layer + 1) * width + j);
                        edge[s * n + t] = true;
                        dag.insert(Fact::new("R", [node(s), node(t)]), NatInf::Fin(1));
                    }
                }
            }
        }
        // Trees of Q(x,y) under Q(x,y) :- R(x,y). Q(x,y) :- Q(x,z), Q(z,y):
        // t(x,y) = r(x,y) + Σ_z t(x,z)·t(z,y), by increasing layer distance.
        let mut trees = vec![0u64; n * n];
        for gap in 1..layers {
            for x in 0..n - gap * width {
                let lx = x / width;
                for y in (lx + gap) * width..(lx + gap + 1) * width {
                    let split: u64 = ((lx + 1) * width..(lx + gap) * width)
                        .map(|z| trees[x * n + z] * trees[z * n + y])
                        .sum();
                    trees[x * n + y] = u64::from(edge[x * n + y]) + split;
                }
            }
        }
        let mut expected_trees: BTreeMap<(usize, usize), u64> = (0..n * n)
            .filter(|&i| trees[i] != 0)
            .map(|i| ((i / n, i % n), trees[i]))
            .collect();

        // Cyclic: a ring, so every pair is reachable whatever the seed, plus
        // random chords; edge costs 1–3, parallel edges keep the cheapest.
        let mut cost = vec![u64::MAX; nodes * nodes];
        let mut graph = FactStore::new();
        for s in 0..nodes {
            let targets = std::iter::once((s + 1) % nodes)
                .chain((1..out_degree).map(|_| rng.below(nodes as u64) as usize));
            for t in targets.collect::<Vec<_>>() {
                let c = rng.range(1, 3) as u64;
                cost[s * nodes + t] = cost[s * nodes + t].min(c);
                graph.insert(Fact::new("R", [node(s), node(t)]), Tropical::cost(c));
            }
        }
        // Floyd–Warshall over non-empty paths (the diagonal starts at ∞).
        for k in 0..nodes {
            for i in 0..nodes {
                let ik = cost[i * nodes + k];
                if ik == u64::MAX {
                    continue;
                }
                for j in 0..nodes {
                    let kj = cost[k * nodes + j];
                    if kj != u64::MAX && ik + kj < cost[i * nodes + j] {
                        cost[i * nodes + j] = ik + kj;
                    }
                }
            }
        }
        let expected_costs = (0..nodes * nodes)
            .filter(|&i| cost[i] != u64::MAX)
            .map(|i| ((i / nodes, i % nodes), cost[i]))
            .collect();
        if self_test {
            *expected_trees
                .values_mut()
                .next()
                .expect("the graph has edges") += 1;
        }
        Fig6 {
            shape: format!(
                "ℕ∞ closure of a {layers}×{width} layered DAG ({} edges), tropical closure of a \
                 {nodes}-node cyclic graph ({} edges)",
                dag.len(),
                graph.len()
            ),
            program: Program::transitive_closure("R", "Q"),
            dag,
            graph,
            expected_trees,
            expected_costs,
            rounds: 0,
            idb_facts: 0,
        }
    }
}

/// Does the closure `idb` hold exactly the oracle's facts and annotations?
fn closure_matches<K: Semiring>(
    idb: &FactStore<K>,
    expected: &BTreeMap<(usize, usize), u64>,
    annotation: impl Fn(u64) -> K,
) -> bool {
    idb.len() == expected.len()
        && expected.iter().all(|(&(s, t), &k)| {
            idb.annotation(&Fact::new("Q", [node(s), node(t)])) == annotation(k)
        })
}

impl Workload for Fig6 {
    const STAGES: &'static [&'static str] = &["datalog.tc (ℕ∞)", "datalog.tc (tropical)"];
    const HEAVY: usize = 1;

    fn describe(&self) -> String {
        self.shape.clone()
    }

    fn pass(&mut self, outcome: &mut Outcome, spans: &mut Spans, request: u32) -> Vec<f64> {
        let ctx = ctx();
        let root = spans.open("pass", NO_PARENT, request);
        let (bag, natinf) = spans.time("datalog.tc_natinf", root, request, || {
            seminaive_iterate_with(&self.program, &self.dag, DEFAULT_FALLBACK_BOUND, &ctx)
        });
        let (cheapest, tropical) = spans.time("datalog.tc_trop", root, request, || {
            seminaive_idempotent_with(&self.program, &self.graph, DEFAULT_FALLBACK_BOUND, &ctx)
        });
        spans.close(root);
        self.rounds = bag.iterations + cheapest.iterations;
        self.idb_facts = bag.idb.len() + cheapest.idb.len();
        outcome.check(
            bag.converged && closure_matches(&bag.idb, &self.expected_trees, NatInf::Fin),
            || "ℕ∞ closure differs from the derivation-tree oracle".to_string(),
        );
        outcome.check(
            cheapest.converged
                && closure_matches(&cheapest.idb, &self.expected_costs, Tropical::cost),
            || "tropical closure differs from Floyd–Warshall".to_string(),
        );
        vec![natinf / 1e6, tropical / 1e6]
    }

    fn layers(&self, layers: &mut Layers, stage_p50: &[f64]) {
        layers.set("datalog.tc_natinf_s_p50", stage_p50[0]);
        layers.set("datalog.tc_trop_s_p50", stage_p50[1]);
        layers.set("datalog.rounds", self.rounds as f64);
        layers.set("datalog.idb_facts", self.idb_facts as f64);
        layers.set(
            "datalog.derived_facts_per_s",
            self.idb_facts as f64 / (stage_p50[0] + stage_p50[1]),
        );
    }
}

pub fn fig6_tc(
    seed: u64,
    seconds: f64,
    smoke: bool,
    self_test: bool,
    trace: bool,
    spans_path: Option<&str>,
) -> Outcome {
    drive(
        || Fig6::build(seed, smoke, self_test),
        seconds,
        trace,
        spans_path,
    )
}
