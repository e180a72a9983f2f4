//! CSV export for [`Table`] (RFC-4180-style quoting).
//!
//! Export writes a header row of column names, then one line per row.
//! Null cells are empty.

use crate::table::Table;

fn needs_quoting(s: &str) -> bool {
    s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r')
}

fn quote(s: &str) -> String {
    if needs_quoting(s) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Serializes a table to CSV text (header + one line per row, `\n` ends).
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    let names: Vec<String> = table
        .schema()
        .fields()
        .iter()
        .map(|f| quote(&f.name))
        .collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for i in 0..table.n_rows() {
        let row = table.row(i).expect("row in range");
        let cells: Vec<String> = row.iter().map(|v| quote(&v.to_string())).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::value::Value;

    fn sample() -> Table {
        let mut t = Table::new(Schema::of(&[
            ("id", DataType::Int),
            ("hours", DataType::Float),
            ("note", DataType::Str),
            ("ok", DataType::Bool),
        ]));
        t.push_row(vec![
            Value::Int(1),
            Value::Float(7.5),
            Value::Str("plain".into()),
            Value::Bool(true),
        ])
        .unwrap();
        t.push_row(vec![
            Value::Int(-2),
            Value::Null,
            Value::Str("has,comma and \"quote\"".into()),
            Value::Bool(false),
        ])
        .unwrap();
        t.push_row(vec![
            Value::Null,
            Value::Float(0.1 + 0.2),
            Value::Str("two\nlines".into()),
            Value::Null,
        ])
        .unwrap();
        t.push_row(vec![
            Value::Int(3),
            Value::Int(4),
            Value::Null,
            Value::Bool(true),
        ])
        .unwrap();
        t
    }

    #[test]
    fn roundtrip_preserves_data_and_types() {
        // Every cell is written exactly: ints and bools as their literals,
        // floats in shortest round-trip form (an int in a float column
        // widens to `4`), nulls as empty cells, and quoted strings.
        assert_eq!(
            to_csv(&sample()),
            "id,hours,note,ok\n\
             1,7.5,plain,true\n\
             -2,,\"has,comma and \"\"quote\"\"\",false\n\
             ,0.30000000000000004,\"two\nlines\",\n\
             3,4,,true\n"
        );
        let empty = Table::new(Schema::of(&[("x", DataType::Int)]));
        assert_eq!(to_csv(&empty), "x\n");
    }

    #[test]
    fn quoting_rules() {
        assert_eq!(quote("plain"), "plain");
        assert_eq!(quote(""), "");
        assert_eq!(quote("a,b"), "\"a,b\"");
        assert_eq!(quote("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(quote("a\nb"), "\"a\nb\"");
        assert_eq!(quote("a\rb"), "\"a\rb\"");
        // Header names are quoted by the same rule.
        let t = Table::new(Schema::of(&[("a,b", DataType::Str), ("c", DataType::Bool)]));
        assert_eq!(to_csv(&t), "\"a,b\",c\n");
    }
}
