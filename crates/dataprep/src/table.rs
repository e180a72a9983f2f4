//! The in-memory columnar table that carries the prepared dataset.

use crate::column::Column;
use crate::schema::{DataType, Schema};
use crate::value::Value;
use crate::{PrepError, Result};

/// An in-memory columnar table: a schema plus one [`Column`] per field.
///
/// # Example
///
/// ```
/// use vup_dataprep::{Schema, DataType, Table, Value};
///
/// let mut t = Table::new(Schema::of(&[("id", DataType::Int), ("hours", DataType::Float)]));
/// t.push_row(vec![Value::Int(1), Value::Float(7.5)]).unwrap();
/// t.push_row(vec![Value::Int(2), Value::Null]).unwrap();
/// assert_eq!(t.n_rows(), 2);
/// assert_eq!(t.get(1, "hours").unwrap(), Value::Null);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Table {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        Table {
            schema,
            columns,
            n_rows: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Appends a row; values must match the schema arity and column types.
    /// On error the table is left unchanged.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(PrepError::ArityMismatch {
                expected: self.columns.len(),
                actual: values.len(),
            });
        }
        // Validate all values first so a failure cannot leave ragged columns.
        for (value, field) in values.iter().zip(self.schema.fields()) {
            let compatible = matches!(
                (field.dtype, value),
                (_, Value::Null)
                    | (DataType::Int, Value::Int(_))
                    | (DataType::Float, Value::Float(_) | Value::Int(_))
                    | (DataType::Str, Value::Str(_))
                    | (DataType::Bool, Value::Bool(_))
            );
            if !compatible {
                return Err(PrepError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.dtype.name(),
                    actual: value.type_name(),
                });
            }
        }
        for ((column, value), field) in self
            .columns
            .iter_mut()
            .zip(values)
            .zip(self.schema.fields())
        {
            column.push(value, &field.name).expect("pre-validated");
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Reads one cell by row index and column name.
    pub fn get(&self, row: usize, column: &str) -> Result<Value> {
        if row >= self.n_rows {
            return Err(PrepError::RowOutOfBounds {
                row,
                len: self.n_rows,
            });
        }
        let idx = self.schema.index_of(column)?;
        Ok(self.columns[idx].get(row))
    }

    /// Borrow of a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// The full row as values, in schema order.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.n_rows {
            return Err(PrepError::RowOutOfBounds {
                row,
                len: self.n_rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.get(row)).collect())
    }

    /// Float view of a column (`None` per null; ints coerce). Errors on
    /// non-numeric columns.
    pub fn float_column(&self, name: &str) -> Result<Vec<Option<f64>>> {
        let col = self.column(name)?;
        match col.dtype() {
            DataType::Float | DataType::Int => {
                Ok((0..self.n_rows).map(|i| col.get_float(i)).collect())
            }
            other => Err(PrepError::UnsupportedType {
                op: "float_column",
                dtype: other.name(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage_table() -> Table {
        let mut t = Table::new(Schema::of(&[
            ("vid", DataType::Int),
            ("hours", DataType::Float),
            ("country", DataType::Str),
        ]));
        for (vid, hours, country) in [
            (1, Some(5.0), "IT"),
            (2, Some(2.0), "FR"),
            (1, Some(7.0), "IT"),
            (2, None, "FR"),
            (3, Some(4.0), "IT"),
        ] {
            t.push_row(vec![
                Value::Int(vid),
                hours.map(Value::Float).unwrap_or(Value::Null),
                Value::Str(country.into()),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn push_validates_arity_and_types_atomically() {
        let mut t = usage_table();
        assert!(matches!(
            t.push_row(vec![Value::Int(1)]),
            Err(PrepError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.push_row(vec![
                Value::Str("x".into()),
                Value::Float(1.0),
                Value::Str("IT".into())
            ]),
            Err(PrepError::TypeMismatch { .. })
        ));
        // Failed pushes must not corrupt the table.
        assert_eq!(t.n_rows(), 5);
        assert_eq!(t.column("vid").unwrap().len(), 5);
    }

    #[test]
    fn cell_and_row_access() {
        let t = usage_table();
        assert_eq!(t.get(0, "hours").unwrap(), Value::Float(5.0));
        assert_eq!(t.get(3, "hours").unwrap(), Value::Null);
        assert!(t.get(9, "hours").is_err());
        assert!(t.get(0, "nope").is_err());
        let row = t.row(4).unwrap();
        assert_eq!(row[0], Value::Int(3));
    }

    #[test]
    fn float_column_views() {
        let t = usage_table();
        let h = t.float_column("hours").unwrap();
        assert_eq!(h[0], Some(5.0));
        assert_eq!(h[3], None);
        let ids = t.float_column("vid").unwrap();
        assert_eq!(ids[4], Some(3.0));
        assert!(t.float_column("country").is_err());
    }

    #[test]
    fn doc_example_compiles() {
        let mut t = Table::new(Schema::of(&[
            ("id", DataType::Int),
            ("hours", DataType::Float),
        ]));
        t.push_row(vec![Value::Int(1), Value::Float(7.5)]).unwrap();
        t.push_row(vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(t.n_rows(), 2);
    }
}
