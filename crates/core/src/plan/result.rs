//! What executing a plan produces, before anyone asks for a [`KRelation`].

use crate::column::{batch_into_relation, group_batches, Batch, Column};
use crate::relation::KRelation;
use crate::schema::Schema;
use crate::value::{Value, ValueRef};
use provsem_semiring::Semiring;

/// The result of [`Plan::query_with`](super::Plan::query_with): the output
/// rows in canonical (sorted tuple) order, duplicates summed and zero sums
/// dropped, in the form the executor left them.
///
/// * The executor's root groups its output batches by the whole row and
///   sorts the groups once, columnarly ([`Grouped::into_sorted`]); the
///   result stays **columns** — no [`Tuple`](crate::tuple::Tuple) and no
///   tree node exists per row.
/// * A plan that is a bare scan *borrows* the scanned relation, as does a
///   caller that reads a base relation or maintained view as it stands.
///
/// Consumers that only walk the rows — the query service renders them
/// straight into its reply buffer — use [`QueryResult::for_each_row`];
/// [`QueryResult::into_relation`] is the API-edge materialization for
/// callers that want the paper's finite map.
///
/// [`Grouped::into_sorted`]: crate::column::Grouped::into_sorted
#[derive(Debug)]
pub struct QueryResult<'a, K: Semiring>(Rows<'a, K>);

#[derive(Debug)]
enum Rows<'a, K: Semiring> {
    Relation(&'a KRelation<K>),
    /// Canonical order, distinct rows, no zero annotation, no selection.
    Sorted(Schema, Batch<K>),
}

/// A relation that already is the result: a base relation or maintained
/// view read as it stands.
impl<'a, K: Semiring> From<&'a KRelation<K>> for QueryResult<'a, K> {
    fn from(relation: &'a KRelation<K>) -> Self {
        QueryResult(Rows::Relation(relation))
    }
}

impl<'a, K: Semiring> QueryResult<'a, K> {
    /// The root merge: groups `batches` (columns in `schema`'s attribute
    /// order) by the whole row, summing duplicates — which is also what
    /// folds a commit-patched cached batch list, deletions included, back to
    /// the relation it stands for — and sorts the surviving groups.
    pub fn from_batches(schema: Schema, batches: Vec<Batch<K>>) -> Self {
        let keys: Vec<usize> = (0..schema.arity()).collect();
        let sorted = group_batches(batches, &keys).into_sorted(schema.arity());
        QueryResult(Rows::Sorted(schema, sorted))
    }

    /// The result's schema; row values follow its attribute order.
    pub fn schema(&self) -> &Schema {
        match &self.0 {
            Rows::Relation(relation) => relation.schema(),
            Rows::Sorted(schema, _) => schema,
        }
    }

    /// Number of rows (the size of the support).
    pub fn len(&self) -> usize {
        match &self.0 {
            Rows::Relation(relation) => relation.len(),
            Rows::Sorted(_, batch) => batch.phys_rows(),
        }
    }

    /// Is the result empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every row in canonical order with its annotation.
    pub fn for_each_row(&self, mut visit: impl FnMut(RowValues<'_>, &K)) {
        match &self.0 {
            Rows::Relation(relation) => {
                for (tuple, k) in relation.iter() {
                    visit(tuple.values().into(), k);
                }
            }
            Rows::Sorted(_, batch) => {
                for (row, k) in batch.anns().iter().enumerate() {
                    let cells = Cells::Columns(batch.columns().iter(), row as u32);
                    visit(RowValues(cells), k);
                }
            }
        }
    }

    /// Materializes the result as a [`KRelation`]: a clone (shared tree
    /// nodes) for a borrowed relation, and for columns one tuple per row
    /// bulk-built into the tree from the already sorted stream.
    pub fn into_relation(self) -> KRelation<K> {
        match self.0 {
            Rows::Relation(relation) => relation.clone(),
            Rows::Sorted(schema, batch) => batch_into_relation(batch, &schema),
        }
    }
}

/// The values of one result row, in schema attribute order.
#[derive(Clone, Debug)]
pub struct RowValues<'r>(Cells<'r>);

#[derive(Clone, Debug)]
enum Cells<'r> {
    /// A tuple's stored values.
    Values(std::slice::Iter<'r, Value>),
    /// One physical row across typed columns.
    Columns(std::slice::Iter<'r, Column>, u32),
}

impl<'r> RowValues<'r> {
    /// The remaining values, owned (an `Arc` bump per string, whichever
    /// form the row is in).
    pub fn to_values(self) -> Vec<Value> {
        match self.0 {
            Cells::Values(values) => values.cloned().collect(),
            Cells::Columns(columns, row) => columns.map(|c| c.value_at(row)).collect(),
        }
    }
}

/// A row that is already a slice of values (a tuple's, a datalog fact's).
impl<'r> From<std::slice::Iter<'r, Value>> for RowValues<'r> {
    fn from(values: std::slice::Iter<'r, Value>) -> Self {
        RowValues(Cells::Values(values))
    }
}

impl<'r> Iterator for RowValues<'r> {
    type Item = ValueRef<'r>;

    fn next(&mut self) -> Option<ValueRef<'r>> {
        match &mut self.0 {
            Cells::Values(values) => values.next().map(Value::as_ref),
            Cells::Columns(columns, row) => columns.next().map(|c| c.value_ref_at(*row)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use provsem_semiring::ring::Integers;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Row = (Box<[Value]>, Integers);

    /// Values whose canonical order needs every rule: strings before
    /// integers, the empty string first, negative integers, a shared prefix.
    fn value(pick: u8) -> Value {
        match pick % 7 {
            0 => Value::str(""),
            1 => Value::str("a"),
            2 => Value::str("ab"),
            3 => Value::str("b"),
            4 => Value::int(-3),
            5 => Value::int(0),
            _ => Value::int(12),
        }
    }

    fn walked(result: &QueryResult<'_, Integers>) -> Vec<(Vec<Value>, Integers)> {
        let mut rows = Vec::new();
        result.for_each_row(|values, k| rows.push((values.to_values(), *k)));
        assert_eq!(rows.len(), result.len());
        rows
    }

    /// The columnar root merge — rows spread over several batches (so
    /// string columns sit under different dictionaries), typed and
    /// mixed-type columns, duplicates, pairs that cancel to zero — walks in
    /// exactly the order, and materializes to exactly the relation, that
    /// inserting the same rows one by one produces.
    #[test]
    fn sorted_columns_agree_with_the_relation_built_row_by_row() {
        let mut rng = StdRng::seed_from_u64(5);
        for case in 0..200 {
            let arity = case % 4;
            let schema = Schema::new(["c0", "c1", "c2"].into_iter().take(arity));
            // Column 0 all strings, column 1 all integers, column 2 mixed.
            let cell = |col: usize, rng: &mut StdRng| match col {
                0 => value(rng.gen_range(0..4)),
                1 => value(rng.gen_range(4..7)),
                _ => value(rng.gen_range(0..7)),
            };
            let mut expected = KRelation::empty(schema.clone());
            let batches: Vec<Batch<Integers>> = (0..rng.gen_range(0..4))
                .map(|_| {
                    let rows: Vec<Row> = (0..rng.gen_range(0..12))
                        .map(|_| {
                            let row: Box<[Value]> = (0..arity).map(|c| cell(c, &mut rng)).collect();
                            let k = Integers::new(rng.gen_range(-2..3));
                            expected.insert(Tuple::from_schema_row(&schema, row.clone()), k);
                            (row, k)
                        })
                        .collect();
                    Batch::from_rows(arity, rows)
                })
                .collect();
            let result = QueryResult::from_batches(schema, batches);
            let from_relation = QueryResult::from(&expected);
            assert_eq!(walked(&result), walked(&from_relation), "case {case}");
            assert_eq!(result.into_relation(), expected, "case {case}");
        }
    }
}
