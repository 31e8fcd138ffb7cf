//! Wire differential: what a connection receives for `QUERY`, `READ`, `VIEW`
//! and `DATALOG` must be, byte for byte, a `Response::Rows` rendered from the
//! reference interpreters (`RaExpr::eval_interpreted`, `kleene_iterate`) run
//! on a model of the database kept beside the server.
//!
//! The service renders those replies straight from result columns or
//! relation tuples; this pins that path against the structured one for
//! random RA⁺ queries over relations from one row to hundreds (a bare scan
//! borrows the relation, everything else arrives as columns), over both
//! [`WireSemiring`]s, at several points of a commit sequence whose deletes
//! cancel earlier rows — so scans read commit-patched batch lists holding
//! delete-to-zero pairs, and standing views are read from patched entries —
//! with empty results, a zero-arity relation and strings that need escaping.
//!
//! Two of the fixed queries have the shapes whose kernels work on dictionary
//! codes instead of rows (`core::column`): a group-by on one string column
//! and a join on a string column under a selective build side. They are read
//! after commits — so the scan of `Big` holds its conversion's dictionary
//! plus one per delta batch — including a commit of a string no cached
//! dictionary holds and one that deletes a whole group, on the live snapshot
//! and on a connection pinned before those two commits.

use provsem_core::prelude::{
    Database, DeltaBatch, KRelation, Predicate, RaExpr, Renaming, Schema, Tuple, Value,
};
use provsem_datalog::{kleene_iterate, parse_program, FactStore};
use provsem_semiring::ring::Integers;
use provsem_semiring::Natural;
use provsem_server::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strings that exercise the value escaping and the reply's own delimiters.
const STRINGS: [&str; 10] = [
    "plain",
    "",
    "it's",
    "'",
    "a''b",
    "semi; colon",
    "paren)@1",
    "comma, x",
    "naïve ünï",
    "w7",
];

/// `(name, attributes in schema order)`.
const RELATIONS: [(&str, &[&str]); 5] = [
    ("Big", &["a", "s"]),
    ("Small", &["s", "t"]),
    ("Edge", &["x", "y"]),
    ("Empty", &["a"]),
    ("Unit", &[]),
];

const VIEWS: [(&str, &str); 4] = [
    ("Vbig", "project[s] Big"),
    ("Vjoin", "project[a, t] (Big join Small)"),
    ("Vsmall", "select[t != 1] Small"),
    ("Vunit", "Unit join Unit"),
];

const PROGRAMS: [(&str, &str); 3] = [
    (
        "path(x, y) :- Edge(x, y). path(x, z) :- path(x, y), Edge(y, z).",
        "path",
    ),
    ("lab(s, y) :- Edge(x, y), Small(s, x).", "lab"),
    ("from0(y) :- Edge(0, y).", "from0"),
];

fn string(rng: &mut StdRng) -> Value {
    Value::str(STRINGS[rng.gen_range(0..STRINGS.len())])
}

/// A random row of `relation`. `Big` has 20 × 10 possible rows and starts
/// with 150 draws, so it stays well above the 64-row threshold whatever the
/// deletes do; `Small` has at most 40 and `Edge` at most 15.
fn row_of(relation: &str, rng: &mut StdRng) -> Vec<Value> {
    match relation {
        "Big" => vec![Value::int(rng.gen_range(0..20)), string(rng)],
        "Small" => vec![string(rng), Value::int(rng.gen_range(0..4))],
        // Forward edges over six nodes only: acyclic, so ℕ and ℤ converge.
        "Edge" => {
            let x = rng.gen_range(0..5);
            vec![Value::int(x), Value::int(rng.gen_range(x + 1..6))]
        }
        other => panic!("no rows for {other}"),
    }
}

fn schema_of(relation: &str) -> Schema {
    let (_, attrs) = RELATIONS
        .iter()
        .find(|(name, _)| *name == relation)
        .expect("known relation");
    Schema::new(attrs.iter().copied())
}

fn initial_db<K: WireSemiring>(rng: &mut StdRng) -> Database<K> {
    let mut db = Database::new();
    for (name, _) in RELATIONS {
        db.insert(name, KRelation::empty(schema_of(name)));
    }
    let count = |rng: &mut StdRng| K::from_wire_count(rng.gen_range(1..4)).unwrap();
    for (name, draws) in [("Big", 150), ("Small", 12), ("Edge", 9)] {
        for _ in 0..draws {
            let tuple = Tuple::from_values(&schema_of(name), row_of(name, rng));
            db.insert_tuple(name, tuple, count(rng));
        }
    }
    db.insert_tuple("Unit", Tuple::empty(), count(rng));
    db
}

// --- the oracle --------------------------------------------------------------

fn render_rows<'a, K: WireSemiring + 'a>(
    epoch: u64,
    schema: Vec<String>,
    rows: impl Iterator<Item = (Vec<Value>, &'a K)>,
) -> String {
    Response::Rows {
        epoch,
        cached: None,
        schema,
        rows: rows.map(|(v, k)| (v, k.render_annotation())).collect(),
    }
    .render()
}

fn render_relation<K: WireSemiring>(epoch: u64, relation: &KRelation<K>) -> String {
    let names = relation.schema().attributes().iter();
    render_rows(
        epoch,
        names.map(|a| a.name().to_string()).collect(),
        relation
            .iter()
            .map(|(tuple, k)| (tuple.values().cloned().collect(), k)),
    )
}

fn expected_query<K: WireSemiring>(epoch: u64, expr: &RaExpr, model: &Database<K>) -> String {
    let relation = expr
        .eval_interpreted(model)
        .unwrap_or_else(|e| panic!("generated query {} is valid: {e:?}", normalize(expr)));
    render_relation(epoch, &relation)
}

fn expected_datalog<K: WireSemiring>(
    epoch: u64,
    text: &str,
    goal: &str,
    model: &Database<K>,
) -> String {
    let program = parse_program(text).unwrap();
    let mut edb = FactStore::new();
    for name in program.edb_predicates() {
        let relation = model.get(&name).unwrap();
        let order: Vec<&str> = relation
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name())
            .collect();
        edb.import_relation(&name, relation, &order);
    }
    let result = kleene_iterate(&program, &edb, 64);
    assert!(result.converged, "acyclic edges converge");
    let head = program.rules.iter().find(|r| r.head.predicate == goal);
    let arity = head.expect("goal is a head").head.arity();
    let facts: Vec<_> = result.idb.facts_of(goal).collect();
    render_rows(
        epoch,
        (0..arity).map(|i| format!("c{i}")).collect(),
        facts.iter().map(|(fact, k)| (fact.values.clone(), *k)),
    )
}

// --- random valid RA⁺ expressions -------------------------------------------

/// An expression with its output attributes (sorted) and an upper bound on
/// its row count, which keeps random joins from exploding.
struct Generated {
    expr: RaExpr,
    attrs: Vec<String>,
    rows: usize,
}

struct Generator<'a, K: WireSemiring> {
    rng: StdRng,
    model: &'a Database<K>,
    fresh: usize,
}

impl<K: WireSemiring> Generator<'_, K> {
    fn leaf(&mut self) -> Generated {
        let (name, attrs) = RELATIONS[self.rng.gen_range(0..RELATIONS.len())];
        Generated {
            expr: RaExpr::relation(name),
            attrs: attrs.iter().map(|a| a.to_string()).collect(),
            rows: self.model.get(name).unwrap().len().max(1),
        }
    }

    fn value(&mut self) -> Value {
        if self.rng.gen_bool(0.5) {
            string(&mut self.rng)
        } else {
            // The query syntax has no negative literals.
            Value::int(self.rng.gen_range(0..20))
        }
    }

    fn predicate(&mut self, attrs: &[String], depth: usize) -> Predicate {
        let pick = |rng: &mut StdRng| attrs[rng.gen_range(0..attrs.len())].clone();
        if attrs.is_empty() {
            return if self.rng.gen_bool(0.7) {
                Predicate::True
            } else {
                Predicate::False
            };
        }
        match self.rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
            0 | 1 => Predicate::eq_value(pick(&mut self.rng), self.value()),
            2 => Predicate::ne_value(pick(&mut self.rng), self.value()),
            3 => Predicate::eq_attrs(pick(&mut self.rng), pick(&mut self.rng)),
            4 => Predicate::And(
                Box::new(self.predicate(attrs, depth - 1)),
                Box::new(self.predicate(attrs, depth - 1)),
            ),
            _ => Predicate::Or(
                Box::new(self.predicate(attrs, depth - 1)),
                Box::new(self.predicate(attrs, depth - 1)),
            ),
        }
    }

    fn expr(&mut self, depth: usize) -> Generated {
        if depth == 0 {
            return self.leaf();
        }
        let input = self.expr(depth - 1);
        match self.rng.gen_range(0..6) {
            0 => {
                let predicate = self.predicate(&input.attrs, 1);
                Generated {
                    expr: input.expr.select(predicate),
                    ..input
                }
            }
            // The query syntax needs at least one projected attribute.
            1 if !input.attrs.is_empty() => {
                let keep: Vec<String> = input
                    .attrs
                    .iter()
                    .filter(|_| self.rng.gen_bool(0.5))
                    .cloned()
                    .collect();
                let keep = if keep.is_empty() {
                    vec![input.attrs[0].clone()]
                } else {
                    keep
                };
                Generated {
                    expr: input.expr.project(keep.iter().map(String::as_str)),
                    attrs: keep,
                    rows: input.rows,
                }
            }
            // Rename to a fresh name, which may move the column.
            2 if !input.attrs.is_empty() => {
                let from = input.attrs[self.rng.gen_range(0..input.attrs.len())].clone();
                self.fresh += 1;
                let prefix = ["aa", "m", "zz"][self.rng.gen_range(0..3usize)];
                let to = format!("{prefix}{}", self.fresh);
                let mut attrs: Vec<String> = input
                    .attrs
                    .iter()
                    .map(|a| if *a == from { to.clone() } else { a.clone() })
                    .collect();
                attrs.sort();
                Generated {
                    expr: input.expr.rename(Renaming::new([(from, to)])),
                    attrs,
                    rows: input.rows,
                }
            }
            3 | 4 => {
                let other = self.expr(depth - 1);
                if input.rows * other.rows > 40_000 {
                    return input;
                }
                let mut attrs = input.attrs.clone();
                attrs.extend(other.attrs.iter().cloned());
                attrs.sort();
                attrs.dedup();
                Generated {
                    expr: input.expr.join(other.expr),
                    attrs,
                    rows: input.rows * other.rows,
                }
            }
            // A union needs equal schemas: the input with a filtered copy of
            // itself (which also doubles annotations of the rows that pass).
            _ => {
                let predicate = self.predicate(&input.attrs, 0);
                Generated {
                    expr: input
                        .expr
                        .clone()
                        .union(input.expr.clone().select(predicate)),
                    attrs: input.attrs,
                    rows: input.rows * 2,
                }
            }
        }
    }
}

/// Queries every run checks besides the random ones: empty results,
/// zero arity, escaping, bare scans and planned queries.
const FIXED_QUERIES: [&str; 14] = [
    "Big",
    "select[false] Big",
    "select[a = 999] Big",
    "Empty",
    "Empty join Big",
    "Unit",
    "Unit join Small",
    "select[false] Unit",
    "select[s = 'it''s'] Big",
    "project[s] (Big join Small)",
    "project[s] Small union project[s] Small",
    "rename[a -> z] select[s != ''''] Big",
    "project[s] Big",
    "project[a] select[t = 1] (rename[s -> v] Big join rename[s -> v] Small)",
];

// --- the run -----------------------------------------------------------------

struct Harness<K: WireSemiring> {
    client: Client,
    model: Database<K>,
    rng: StdRng,
    checked: usize,
}

impl<K: WireSemiring> Harness<K> {
    fn epoch(&mut self) -> u64 {
        let reply = self.client.request("EPOCH").unwrap();
        reply.strip_prefix("ok epoch ").unwrap().parse().unwrap()
    }

    fn check(&mut self, request: &str, expected: String) {
        let reply = self.client.request(request).unwrap();
        assert_eq!(reply, expected, "reply to {request:?}");
        self.checked += 1;
    }

    /// Every read verb against the oracle at the current epoch.
    fn check_everything(&mut self, random_queries: usize) {
        let epoch = self.epoch();
        for (name, _) in RELATIONS {
            let expected = render_relation(epoch, self.model.get(name).unwrap());
            self.check(&format!("READ {name}"), expected);
        }
        for (name, text) in VIEWS {
            let expected = expected_query(epoch, &parse_ra(text).unwrap(), &self.model);
            self.check(&format!("VIEW {name}"), expected);
        }
        for (text, goal) in PROGRAMS {
            let expected = expected_datalog(epoch, text, goal, &self.model);
            self.check(&format!("DATALOG {text} ? {goal}"), expected);
        }
        self.checked += check_fixed_queries(&mut self.client, epoch, &self.model);
        let seed = self.rng.gen_range(0..u64::MAX);
        let mut generator = Generator {
            rng: StdRng::seed_from_u64(seed),
            model: &self.model,
            fresh: 0,
        };
        let queries: Vec<RaExpr> = (0..random_queries)
            .map(|i| generator.expr(1 + i % 3).expr)
            .collect();
        for expr in queries {
            let text = normalize(&expr);
            assert_eq!(parse_ra(&text).unwrap(), expr, "{text} round-trips");
            let expected = expected_query(epoch, &expr, &self.model);
            self.check(&format!("QUERY {text}"), expected);
        }
    }

    /// One `COMMIT` of 1–3 deltas, mirrored on the model. With `deletes`, a
    /// delta may remove an existing row entirely (a delete-to-zero pair in
    /// the patched batch list), lower its count, or re-add a removed row.
    fn commit(&mut self, deletes: bool) {
        let mut items = Vec::new();
        for _ in 0..self.rng.gen_range(1..4) {
            let name = ["Big", "Big", "Small", "Edge"][self.rng.gen_range(0..4usize)];
            let existing = self.model.get(name).unwrap();
            let (row, count): (Vec<Value>, i64) = if deletes && self.rng.gen_bool(0.5) {
                let at = self.rng.gen_range(0..existing.len());
                let (tuple, k) = existing.iter().nth(at).unwrap();
                let held: i64 = k.render_annotation().parse().unwrap();
                let take = if self.rng.gen_bool(0.7) {
                    held
                } else {
                    self.rng.gen_range(1..held + 1)
                };
                (tuple.values().cloned().collect(), -take)
            } else {
                (row_of(name, &mut self.rng), self.rng.gen_range(1..4))
            };
            // Applied item by item, so a later item of this commit sees it.
            items.push(self.apply(name, row, count));
        }
        self.send_commit(&items);
    }

    /// Applies one delta to the model; its `COMMIT` item text.
    fn apply(&mut self, name: &str, row: Vec<Value>, count: i64) -> String {
        let values: Vec<String> = row.iter().map(render_value).collect();
        let mut delta = DeltaBatch::new();
        delta.insert(
            name,
            Tuple::from_values(&schema_of(name), row),
            K::from_wire_count(count).unwrap(),
        );
        delta.apply_to(&mut self.model);
        format!("{name}({})={count}", values.join(", "))
    }

    fn send_commit(&mut self, items: &[String]) {
        let reply = self.client.request(&format!("COMMIT {}", items.join("; ")));
        assert!(reply.unwrap().starts_with("ok committed"), "{items:?}");
    }

    /// One `COMMIT` of the given `(relation, row, count)` deltas, mirrored
    /// on the model.
    fn commit_items(&mut self, deltas: Vec<(&str, Vec<Value>, i64)>) {
        let items: Vec<String> = deltas
            .into_iter()
            .map(|(name, row, count)| self.apply(name, row, count))
            .collect();
        self.send_commit(&items);
    }
}

/// `FIXED_QUERIES` over `client` against the oracle on `model`; the number
/// of replies checked.
fn check_fixed_queries<K: WireSemiring>(
    client: &mut Client,
    epoch: u64,
    model: &Database<K>,
) -> usize {
    for text in FIXED_QUERIES {
        let expected = expected_query(epoch, &parse_ra(text).unwrap(), model);
        let reply = client.request(&format!("QUERY {text}")).unwrap();
        assert_eq!(reply, expected, "reply to QUERY {text:?} at epoch {epoch}");
    }
    FIXED_QUERIES.len()
}

fn run<K: WireSemiring + 'static>(seed: u64, deletes: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model: Database<K> = initial_db(&mut rng);
    let server = serve(Service::new(model.clone()), "127.0.0.1:0").unwrap();
    let mut harness = Harness {
        client: Client::connect(server.addr()).unwrap(),
        model,
        rng,
        checked: 0,
    };
    for (name, text) in VIEWS {
        let reply = harness.client.request(&format!("DEFINE {name} = {text}"));
        assert!(reply.unwrap().starts_with("ok defined"));
    }
    // The first round also fills the batch cache, so that the commits below
    // patch cached batch lists instead of leaving them to be re-converted.
    harness.check_everything(60);
    for _ in 0..4 {
        for _ in 0..12 {
            harness.commit(deletes);
        }
        harness.check_everything(60);
    }
    // A second connection stays on this epoch while the live one moves on:
    // its scans keep reading the batch lists as patched up to here.
    let mut pinned = Client::connect(server.addr()).unwrap();
    let pinned_epoch = harness.epoch();
    assert_eq!(
        pinned.request("PIN").unwrap(),
        format!("ok pinned {pinned_epoch}")
    );
    let pinned_model = harness.model.clone();
    // A string no dictionary of the cached conversions holds, on both sides
    // of the string-keyed join.
    harness.commit_items(vec![
        ("Big", vec![Value::int(3), Value::str("brand new")], 2),
        ("Small", vec![Value::str("brand new"), Value::int(1)], 1),
    ]);
    harness.check_everything(60);
    // Empty a whole `s` group of Big, so a view row and a group disappear.
    if deletes {
        let doomed: Vec<(&str, Vec<Value>, i64)> = harness
            .model
            .get("Big")
            .unwrap()
            .iter()
            .filter(|(tuple, _)| tuple.get_named("s") == Some(&Value::str("it's")))
            .map(|(tuple, k)| {
                let held: i64 = k.render_annotation().parse().unwrap();
                ("Big", tuple.values().cloned().collect(), -held)
            })
            .collect();
        assert!(!doomed.is_empty());
        harness.commit_items(doomed);
        harness.check_everything(60);
    }
    harness.checked += check_fixed_queries(&mut pinned, pinned_epoch, &pinned_model);
    let stats = harness.client.request("STATS").unwrap();
    let patches: u64 = stats.rsplit('=').next().unwrap().parse().unwrap();
    assert!(patches > 0, "commits patched cached batch lists: {stats:?}");
    assert!(
        harness.checked >= 400,
        "{} replies checked",
        harness.checked
    );
    server.shutdown();
}

#[test]
fn integer_replies_match_the_interpreters_through_cancelling_commits() {
    run::<Integers>(17, true);
}

#[test]
fn natural_replies_match_the_interpreters_through_commits() {
    run::<Natural>(23, false);
}
