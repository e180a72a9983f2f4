use std::fmt;

/// Errors produced by the columnar table and preparation pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrepError {
    /// A referenced column does not exist in the schema.
    UnknownColumn {
        /// The missing column name.
        name: String,
    },
    /// A value's type does not match the column's declared type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Declared column type.
        expected: &'static str,
        /// Type of the offending value.
        actual: &'static str,
    },
    /// A row has the wrong number of values for the schema.
    ArityMismatch {
        /// Columns in the schema.
        expected: usize,
        /// Values supplied.
        actual: usize,
    },
    /// A row index is out of bounds.
    RowOutOfBounds {
        /// Requested row.
        row: usize,
        /// Number of rows in the table.
        len: usize,
    },
    /// A requested operation is invalid for the column's type.
    UnsupportedType {
        /// The operation attempted.
        op: &'static str,
        /// The column's type name.
        dtype: &'static str,
    },
}

impl fmt::Display for PrepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrepError::UnknownColumn { name } => write!(f, "unknown column '{name}'"),
            PrepError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch in column '{column}': expected {expected}, got {actual}"
            ),
            PrepError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "row has {actual} values but schema has {expected} columns"
                )
            }
            PrepError::RowOutOfBounds { row, len } => {
                write!(f, "row {row} out of bounds (table has {len} rows)")
            }
            PrepError::UnsupportedType { op, dtype } => {
                write!(f, "operation {op} is not supported for {dtype} columns")
            }
        }
    }
}

impl std::error::Error for PrepError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        assert!(PrepError::UnknownColumn { name: "x".into() }
            .to_string()
            .contains("'x'"));
        assert!(PrepError::TypeMismatch {
            column: "hours".into(),
            expected: "float",
            actual: "str"
        }
        .to_string()
        .contains("hours"));
        assert!(PrepError::ArityMismatch {
            expected: 3,
            actual: 2
        }
        .to_string()
        .contains("3"));
        assert!(PrepError::UnsupportedType {
            op: "float_column",
            dtype: "str"
        }
        .to_string()
        .contains("float_column"));
        assert!(PrepError::RowOutOfBounds { row: 9, len: 3 }
            .to_string()
            .contains("9"));
    }
}
