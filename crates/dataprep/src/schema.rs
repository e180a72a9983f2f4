//! Table schemas: ordered, named, typed columns.

use crate::{PrepError, Result};

/// Column data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Short lowercase name used in error messages and CSV headers.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bool => "bool",
        }
    }
}

/// One named, typed column slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (unique within a schema).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Field {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered list of fields with unique names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Builds a schema, enforcing name uniqueness.
    ///
    /// # Panics
    /// Panics on duplicate column names — schemas are built from literals
    /// in this workspace, so a duplicate is a programming error.
    pub fn new(fields: Vec<Field>) -> Schema {
        for (i, f) in fields.iter().enumerate() {
            for g in &fields[..i] {
                assert_ne!(f.name, g.name, "duplicate column name '{}'", f.name);
            }
        }
        Schema { fields }
    }

    /// Convenience constructor from `(name, dtype)` pairs.
    pub fn of(pairs: &[(&str, DataType)]) -> Schema {
        Schema::new(pairs.iter().map(|&(n, t)| Field::new(n, t)).collect())
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The ordered field list.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| PrepError::UnknownColumn { name: name.into() })
    }

    /// The field named `name`.
    pub fn field(&self, name: &str) -> Result<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::of(&[
            ("vehicle_id", DataType::Int),
            ("hours", DataType::Float),
            ("country", DataType::Str),
            ("is_holiday", DataType::Bool),
        ])
    }

    #[test]
    fn lookups_by_name() {
        let s = sample();
        assert_eq!(s.len(), 4);
        assert_eq!(s.index_of("hours").unwrap(), 1);
        assert_eq!(s.field("country").unwrap().dtype, DataType::Str);
        assert!(matches!(
            s.index_of("nope"),
            Err(PrepError::UnknownColumn { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_rejected() {
        Schema::of(&[("a", DataType::Int), ("a", DataType::Float)]);
    }

    #[test]
    fn type_names() {
        assert_eq!(DataType::Int.name(), "int");
        assert_eq!(DataType::Float.name(), "float");
        assert_eq!(DataType::Str.name(), "str");
        assert_eq!(DataType::Bool.name(), "bool");
    }
}
