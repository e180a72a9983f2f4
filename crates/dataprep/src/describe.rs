//! Column summary statistics (`Table::describe`-style profiling).
//!
//! Data profiling is the first step of any preparation pipeline review:
//! per-column row/null counts and, for numeric columns, min/mean/max.
//! `vup simulate` prints it to stderr next to the exported CSV.

use crate::schema::DataType;
use crate::table::Table;
use crate::Result;

/// Summary of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// Column name.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
    /// Non-null values.
    pub count: usize,
    /// Null values.
    pub nulls: usize,
    /// Minimum (numeric columns with data only).
    pub min: Option<f64>,
    /// Mean (numeric columns with data only).
    pub mean: Option<f64>,
    /// Maximum (numeric columns with data only).
    pub max: Option<f64>,
}

/// Profiles every column of a table.
pub fn describe(table: &Table) -> Result<Vec<ColumnSummary>> {
    let mut out = Vec::with_capacity(table.n_cols());
    for field in table.schema().fields() {
        let column = table.column(&field.name)?;
        let nulls = column.null_count();
        let count = column.len() - nulls;
        let (min, mean, max) = match field.dtype {
            DataType::Float | DataType::Int => {
                let values: Vec<f64> = (0..column.len())
                    .filter_map(|i| column.get_float(i))
                    .collect();
                if values.is_empty() {
                    (None, None, None)
                } else {
                    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let mean = values.iter().sum::<f64>() / values.len() as f64;
                    (Some(min), Some(mean), Some(max))
                }
            }
            _ => (None, None, None),
        };
        out.push(ColumnSummary {
            name: field.name.clone(),
            dtype: field.dtype,
            count,
            nulls,
            min,
            mean,
            max,
        });
    }
    Ok(out)
}

/// Renders a describe report as an aligned text table.
pub fn describe_text(table: &Table) -> Result<String> {
    let summaries = describe(table)?;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>6} {:>7} {:>6} {:>10} {:>10} {:>10}\n",
        "column", "type", "count", "nulls", "min", "mean", "max"
    ));
    for s in summaries {
        let fmt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.2}"),
            None => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<24} {:>6} {:>7} {:>6} {:>10} {:>10} {:>10}\n",
            s.name,
            s.dtype.name(),
            s.count,
            s.nulls,
            fmt(s.min),
            fmt(s.mean),
            fmt(s.max)
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

    fn table() -> Table {
        let mut t = Table::new(Schema::of(&[
            ("hours", DataType::Float),
            ("label", DataType::Str),
        ]));
        for h in [Some(2.0), None, Some(6.0)] {
            t.push_row(vec![Value::from(h), Value::Str("x".into())])
                .unwrap();
        }
        t
    }

    #[test]
    fn numeric_columns_get_statistics() {
        let s = describe(&table()).unwrap();
        assert_eq!(s.len(), 2);
        let hours = &s[0];
        assert_eq!(hours.count, 2);
        assert_eq!(hours.nulls, 1);
        assert_eq!(hours.min, Some(2.0));
        assert_eq!(hours.mean, Some(4.0));
        assert_eq!(hours.max, Some(6.0));
    }

    #[test]
    fn string_columns_get_counts_only() {
        let s = describe(&table()).unwrap();
        let label = &s[1];
        assert_eq!(label.count, 3);
        assert_eq!(label.nulls, 0);
        assert_eq!(label.min, None);
        assert_eq!(label.mean, None);
    }

    #[test]
    fn all_null_numeric_column() {
        let mut t = Table::new(Schema::of(&[("x", DataType::Float)]));
        t.push_row(vec![Value::Null]).unwrap();
        let s = describe(&t).unwrap();
        assert_eq!(s[0].count, 0);
        assert_eq!(s[0].nulls, 1);
        assert_eq!(s[0].mean, None);
    }

    #[test]
    fn text_report_is_aligned_and_complete() {
        let text = describe_text(&table()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 columns
        assert!(lines[0].contains("column"));
        assert!(lines[1].contains("hours"));
        assert!(lines[2].contains("label"));
    }
}
