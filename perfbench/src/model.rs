//! The service workloads' data and their oracle.
//!
//! Everything here is plain Rust over `BTreeMap`s: the generator builds the
//! five base relations from the seed, and [`Read::eval`] answers every read
//! request with filter / group / join loops of its own. The only engine
//! types used are [`Value`] (as data, and for its ordering, which fixes the
//! row order of a reply) and `Response::Rows` (to render an answer in the
//! wire form); no planner, kernel or fixpoint code is called.

use crate::util::Rng;
use provsem_core::Value;
use provsem_server::{render_value, Response};
use std::collections::BTreeMap;

pub type Row = Vec<Value>;
/// A ℤ-relation: rows in schema (sorted attribute) order, zero rows absent.
pub type Rel = BTreeMap<Row, i64>;

#[derive(Clone, Copy, Debug)]
pub struct SvcSizes {
    pub f_rows: i64,
    pub tags: i64,
    pub labels: i64,
    pub layers: i64,
    pub width: i64,
    /// Distinct `point` requests of each of the three shapes in the pool.
    pub points: i64,
}

impl SvcSizes {
    pub fn new(smoke: bool) -> SvcSizes {
        if smoke {
            SvcSizes {
                f_rows: 1_000,
                tags: 50,
                labels: 5,
                layers: 4,
                width: 6,
                points: 10,
            }
        } else {
            SvcSizes {
                f_rows: 100_000,
                tags: 1_000,
                labels: 10,
                layers: 6,
                width: 24,
                points: 100,
            }
        }
    }

    pub fn nodes(&self) -> i64 {
        self.layers * self.width
    }
}

pub const RELATIONS: [&str; 5] = ["D", "E", "F", "R", "S"];
pub const B_VALUES: [&str; 4] = ["w", "x", "y", "z"];
/// Rows of `R` and `S`: together under the planner's 64-row `auto`
/// threshold, so `tiny` requests (even `R join S`) stay on the row engine.
pub const R_ROWS: i64 = 30;
pub const S_C_VALUES: i64 = 7;

/// The standing views, as `(name, defining expression)`.
pub const VIEWS: [(&str, &str); 3] = [
    ("Vtag", "project[v] F"),
    ("Vjoin", "project[label] (F join rename[t -> v] D)"),
    ("Vsmall", "project[a] select[b != 'y'] R"),
];

/// The database state the oracle answers from: `F(g, v)`, `D(label, t)`,
/// `E(s, t)`, `R(a, b)`, `S(b, c)`, each in sorted-attribute column order.
#[derive(Clone)]
pub struct Model {
    pub rels: BTreeMap<&'static str, Rel>,
    /// The tag of base row `g` of `F`, so a script can address an existing
    /// row without searching for it.
    pub f_tags: Vec<i64>,
}

pub fn tag(n: i64) -> Value {
    Value::str(format!("w{n}"))
}

pub fn label(n: i64) -> Value {
    Value::str(format!("k{n}"))
}

impl Model {
    pub fn generate(seed: u64, sizes: &SvcSizes) -> Model {
        let mut rng = Rng::new(seed ^ 0x5eed_da7a);
        let f_tags: Vec<i64> = (0..sizes.f_rows)
            .map(|_| rng.range(0, sizes.tags - 1))
            .collect();
        let f = (0..sizes.f_rows)
            .map(|g| {
                (
                    vec![Value::Int(g), tag(f_tags[g as usize])],
                    rng.range(1, 3),
                )
            })
            .collect();
        let d = (0..sizes.tags)
            .map(|t| (vec![label(t % sizes.labels), tag(t)], 1))
            .collect();
        // Layered and acyclic, edges only from a layer to the next: datalog
        // over ℤ converges, and path counts stay far below 2⁶³.
        let mut e = Rel::new();
        for layer in 0..sizes.layers - 1 {
            for i in 0..sizes.width {
                for j in 0..sizes.width {
                    if rng.below(100) < 26 {
                        let s = layer * sizes.width + i;
                        let t = (layer + 1) * sizes.width + j;
                        e.insert(vec![Value::Int(s), Value::Int(t)], 1);
                    }
                }
            }
        }
        let r = (1..=R_ROWS)
            .map(|a| {
                let b = *rng.pick(&B_VALUES);
                (vec![Value::Int(a), Value::str(b)], rng.range(1, 3))
            })
            .collect();
        let mut s = Rel::new();
        for b in B_VALUES {
            for c in 1..=S_C_VALUES {
                s.insert(vec![Value::str(b), Value::Int(c)], rng.range(1, 3));
            }
        }
        Model {
            rels: BTreeMap::from([("D", d), ("E", e), ("F", f), ("R", r), ("S", s)]),
            f_tags,
        }
    }

    pub fn rel(&self, name: &str) -> &Rel {
        &self.rels[name]
    }

    /// `new = old + Δ` per row; a row whose count reaches zero leaves.
    pub fn apply(&mut self, delta: &Delta) {
        let rel = self.rels.get_mut(delta.relation).expect("known relation");
        let count = rel.entry(delta.row.clone()).or_insert(0);
        *count += delta.count;
        if *count == 0 {
            rel.remove(&delta.row);
        }
    }
}

pub fn schema_of(relation: &str) -> &'static [&'static str] {
    match relation {
        "D" => &["label", "t"],
        "E" => &["s", "t"],
        "F" => &["g", "v"],
        "R" => &["a", "b"],
        "S" => &["b", "c"],
        other => panic!("unknown relation {other}"),
    }
}

/// One item of a `COMMIT`: a signed count on one row of one base relation.
#[derive(Clone, Debug)]
pub struct Delta {
    pub relation: &'static str,
    pub row: Row,
    pub count: i64,
}

/// The `COMMIT` line for a batch of deltas.
pub fn commit_line(deltas: &[Delta]) -> String {
    let items: Vec<String> = deltas
        .iter()
        .map(|d| {
            let values: Vec<String> = d.row.iter().map(render_value).collect();
            format!("{}({})={}", d.relation, values.join(", "), d.count)
        })
        .collect();
    format!("COMMIT {}", items.join("; "))
}

/// Request kinds; classification is fixed by the generator, not inferred
/// from timings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Tiny,
    Point,
    Agg,
    Wide,
    View,
    Datalog,
    CommitSmall,
    CommitBig,
}

impl Kind {
    pub const ALL: [Kind; 8] = [
        Kind::Tiny,
        Kind::Point,
        Kind::Agg,
        Kind::Wide,
        Kind::View,
        Kind::Datalog,
        Kind::CommitSmall,
        Kind::CommitBig,
    ];

    pub fn is_commit(self) -> bool {
        matches!(self, Kind::CommitSmall | Kind::CommitBig)
    }
}

/// A read request the oracle can answer.
#[derive(Clone, Debug)]
pub enum Read {
    /// `READ <relation>`
    Relation(&'static str),
    /// `QUERY <relation>`
    Scan(&'static str),
    /// `QUERY project[a] R`
    ProjectA,
    /// `QUERY select[a != n] R`
    SelectANe(i64),
    /// `QUERY R join S`
    RJoinS,
    /// `QUERY select[g = n] F`
    PointG(i64),
    /// `QUERY select[v = 'wN'] F`
    PointV(i64),
    /// `QUERY project[g] select[v = 'wN'] F`
    PointGOfV(i64),
    /// `QUERY project[v] F`
    AggTag,
    /// `QUERY project[label] (F join rename[t -> v] D)`
    AggLabel,
    /// `QUERY project[g] select[label = 'kN'] (F join rename[t -> v] D)`
    Wide(i64),
    /// `VIEW <name>`
    View(&'static str),
    /// Reachability with path counts from one source node of `E`.
    Reach(i64),
    /// The full linear `path` closure over `E`.
    Paths,
}

type Answer = (Vec<&'static str>, Vec<(Row, i64)>);

fn group(rows: impl Iterator<Item = (Row, i64)>) -> Vec<(Row, i64)> {
    let mut out = Rel::new();
    for (row, k) in rows {
        *out.entry(row).or_insert(0) += k;
    }
    out.into_iter().filter(|(_, k)| *k != 0).collect()
}

/// `(g, label, count)` for every pair of an `F` row and a `D` row agreeing
/// on the tag.
fn f_join_d(model: &Model) -> impl Iterator<Item = (&Value, &Value, i64)> {
    let mut labels: BTreeMap<&Value, Vec<(&Value, i64)>> = BTreeMap::new();
    for (row, k) in model.rel("D") {
        labels.entry(&row[1]).or_default().push((&row[0], *k));
    }
    model.rel("F").iter().flat_map(move |(row, k)| {
        let matches = labels.get(&&row[1]).cloned().unwrap_or_default();
        matches
            .into_iter()
            .map(move |(label, dk)| (&row[0], label, k * dk))
    })
}

/// Weighted path counts from `source` along `E`. Edges only go from a lower
/// to a higher node id, so by the time the ordered scan reaches the edges
/// out of a node, that node's own count is final.
fn reach(e: &Rel, source: i64) -> BTreeMap<i64, i64> {
    let mut count: BTreeMap<i64, i64> = BTreeMap::new();
    for (row, k) in e {
        let (s, t) = (row[0].as_int().expect("int"), row[1].as_int().expect("int"));
        let into = if s == source {
            *k
        } else {
            count.get(&s).copied().unwrap_or(0) * k
        };
        if into != 0 {
            *count.entry(t).or_insert(0) += into;
        }
    }
    count.retain(|_, k| *k != 0);
    count
}

impl Read {
    pub fn kind(&self) -> Kind {
        match self {
            Read::Relation(_)
            | Read::Scan(_)
            | Read::ProjectA
            | Read::SelectANe(_)
            | Read::RJoinS => Kind::Tiny,
            Read::PointG(_) | Read::PointV(_) | Read::PointGOfV(_) => Kind::Point,
            Read::AggTag | Read::AggLabel => Kind::Agg,
            Read::Wide(_) => Kind::Wide,
            Read::View(_) => Kind::View,
            Read::Reach(_) | Read::Paths => Kind::Datalog,
        }
    }

    pub fn line(&self) -> String {
        match self {
            Read::Relation(name) => format!("READ {name}"),
            Read::Scan(name) => format!("QUERY {name}"),
            Read::ProjectA => "QUERY project[a] R".to_string(),
            Read::SelectANe(n) => format!("QUERY select[a != {n}] R"),
            Read::RJoinS => "QUERY R join S".to_string(),
            Read::PointG(n) => format!("QUERY select[g = {n}] F"),
            Read::PointV(n) => format!("QUERY select[v = 'w{n}'] F"),
            Read::PointGOfV(n) => format!("QUERY project[g] select[v = 'w{n}'] F"),
            Read::AggTag => "QUERY project[v] F".to_string(),
            Read::AggLabel => "QUERY project[label] (F join rename[t -> v] D)".to_string(),
            Read::Wide(n) => {
                format!("QUERY project[g] select[label = 'k{n}'] (F join rename[t -> v] D)")
            }
            Read::View(name) => format!("VIEW {name}"),
            Read::Reach(n) => {
                format!("DATALOG r(y) :- E({n}, y). r(z) :- r(y), E(y, z). ? r")
            }
            Read::Paths => {
                "DATALOG path(x, y) :- E(x, y). path(x, z) :- path(x, y), E(y, z). ? path"
                    .to_string()
            }
        }
    }

    fn eval(&self, model: &Model) -> Answer {
        let all = |name: &str| {
            model
                .rel(name)
                .iter()
                .map(|(r, k)| (r.clone(), *k))
                .collect()
        };
        let f = model.rel("F");
        match self {
            Read::Relation(name) | Read::Scan(name) => (schema_of(name).to_vec(), all(name)),
            Read::ProjectA => (
                vec!["a"],
                group(model.rel("R").iter().map(|(r, k)| (vec![r[0].clone()], *k))),
            ),
            Read::SelectANe(n) => (
                vec!["a", "b"],
                group(
                    model
                        .rel("R")
                        .iter()
                        .filter(|(r, _)| r[0] != Value::Int(*n))
                        .map(|(r, k)| (r.clone(), *k)),
                ),
            ),
            Read::RJoinS => (
                vec!["a", "b", "c"],
                group(model.rel("R").iter().flat_map(|(r, rk)| {
                    model
                        .rel("S")
                        .iter()
                        .filter(move |(s, _)| s[0] == r[1])
                        .map(move |(s, sk)| {
                            (vec![r[0].clone(), r[1].clone(), s[1].clone()], rk * sk)
                        })
                })),
            ),
            Read::PointG(n) => (
                vec!["g", "v"],
                group(
                    f.iter()
                        .filter(|(r, _)| r[0] == Value::Int(*n))
                        .map(|(r, k)| (r.clone(), *k)),
                ),
            ),
            Read::PointV(n) => {
                let v = tag(*n);
                (
                    vec!["g", "v"],
                    group(
                        f.iter()
                            .filter(|(r, _)| r[1] == v)
                            .map(|(r, k)| (r.clone(), *k)),
                    ),
                )
            }
            Read::PointGOfV(n) => {
                let v = tag(*n);
                (
                    vec!["g"],
                    group(
                        f.iter()
                            .filter(|(r, _)| r[1] == v)
                            .map(|(r, k)| (vec![r[0].clone()], *k)),
                    ),
                )
            }
            Read::AggTag | Read::View("Vtag") => (
                vec!["v"],
                group(f.iter().map(|(r, k)| (vec![r[1].clone()], *k))),
            ),
            Read::AggLabel | Read::View("Vjoin") => (
                vec!["label"],
                group(f_join_d(model).map(|(_, label, k)| (vec![label.clone()], k))),
            ),
            Read::Wide(n) => {
                let wanted = label(*n);
                (
                    vec!["g"],
                    group(
                        f_join_d(model)
                            .filter(|(_, label, _)| **label == wanted)
                            .map(|(g, _, k)| (vec![g.clone()], k)),
                    ),
                )
            }
            Read::View("Vsmall") => (
                vec!["a"],
                group(
                    model
                        .rel("R")
                        .iter()
                        .filter(|(r, _)| r[1] != Value::str("y"))
                        .map(|(r, k)| (vec![r[0].clone()], *k)),
                ),
            ),
            Read::View(other) => panic!("unknown view {other}"),
            Read::Reach(n) => (
                vec!["c0"],
                reach(model.rel("E"), *n)
                    .into_iter()
                    .map(|(t, k)| (vec![Value::Int(t)], k))
                    .collect(),
            ),
            Read::Paths => {
                let e = model.rel("E");
                let sources: std::collections::BTreeSet<i64> =
                    e.keys().map(|r| r[0].as_int().expect("int")).collect();
                let mut rows = Vec::new();
                for s in sources {
                    for (t, k) in reach(e, s) {
                        rows.push((vec![Value::Int(s), Value::Int(t)], k));
                    }
                }
                (vec!["c0", "c1"], rows)
            }
        }
    }

    /// The reply the service must give at `epoch`, and its row count.
    pub fn expected(&self, model: &Model, epoch: u64) -> (String, usize) {
        let (schema, rows) = self.eval(model);
        let count = rows.len();
        let reply = Response::Rows {
            epoch,
            cached: None,
            schema: schema.into_iter().map(str::to_string).collect(),
            rows: rows
                .into_iter()
                .map(|(row, k)| (row, k.to_string()))
                .collect(),
        }
        .render();
        (reply, count)
    }
}

/// Where the digits of `epoch=N` sit in a reply, and `N`.
fn epoch_digits(reply: &str) -> Option<(std::ops::Range<usize>, u64)> {
    let at = reply.find("epoch=")? + "epoch=".len();
    let digits = reply[at..].bytes().take_while(u8::is_ascii_digit).count();
    Some((at..at + digits, reply[at..at + digits].parse().ok()?))
}

/// The epoch a reply reports.
pub fn reply_epoch(reply: &str) -> Option<u64> {
    epoch_digits(reply).map(|(_, epoch)| epoch)
}

/// Splits `ok … epoch=N …` into `N` and the reply with the epoch blanked,
/// so replies computed at different epochs compare equal when their rows do.
pub fn split_epoch(reply: &str) -> Option<(u64, String)> {
    let (digits, epoch) = epoch_digits(reply)?;
    Some((
        epoch,
        format!("{}{}", &reply[..digits.start], &reply[digits.end..]),
    ))
}
