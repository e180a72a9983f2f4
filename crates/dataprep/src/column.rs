//! Typed column storage with bit-packed null bitmaps.

use crate::schema::DataType;
use crate::value::Value;
use crate::{PrepError, Result};

/// Bit-packed validity bitmap: bit `i` set ⇔ row `i` is non-null.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Number of tracked rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one validity bit.
    pub fn push(&mut self, valid: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Whether row `i` is valid (non-null).
    ///
    /// # Panics
    /// Panics when `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bitmap index {i} out of bounds ({})",
            self.len
        );
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of valid (non-null) rows.
    pub fn count_valid(&self) -> usize {
        let full_words = self.len / 64;
        let mut count: u32 = self.words[..full_words]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        let rem = self.len % 64;
        if rem > 0 {
            let mask = (1_u64 << rem) - 1;
            count += (self.words[full_words] & mask).count_ones();
        }
        count as usize
    }
}

/// A typed column: dense storage plus a validity bitmap. Null slots hold a
/// type-default placeholder in the storage vector.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(Vec<i64>, Bitmap),
    /// Float column.
    Float(Vec<f64>, Bitmap),
    /// String column.
    Str(Vec<String>, Bitmap),
    /// Boolean column.
    Bool(Vec<bool>, Bitmap),
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn empty(dtype: DataType) -> Column {
        match dtype {
            DataType::Int => Column::Int(Vec::new(), Bitmap::new()),
            DataType::Float => Column::Float(Vec::new(), Bitmap::new()),
            DataType::Str => Column::Str(Vec::new(), Bitmap::new()),
            DataType::Bool => Column::Bool(Vec::new(), Bitmap::new()),
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int(..) => DataType::Int,
            Column::Float(..) => DataType::Float,
            Column::Str(..) => DataType::Str,
            Column::Bool(..) => DataType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v, _) => v.len(),
            Column::Float(v, _) => v.len(),
            Column::Str(v, _) => v.len(),
            Column::Bool(v, _) => v.len(),
        }
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        let bitmap = self.bitmap();
        bitmap.len() - bitmap.count_valid()
    }

    fn bitmap(&self) -> &Bitmap {
        match self {
            Column::Int(_, b) | Column::Float(_, b) | Column::Str(_, b) | Column::Bool(_, b) => b,
        }
    }

    /// Appends a value, type-checking against the column type. `Null` is
    /// accepted by every column.
    pub fn push(&mut self, value: Value, column_name: &str) -> Result<()> {
        let mismatch = |expected: &'static str, v: &Value| PrepError::TypeMismatch {
            column: column_name.to_owned(),
            expected,
            actual: v.type_name(),
        };
        match self {
            Column::Int(v, b) => match value {
                Value::Int(x) => {
                    v.push(x);
                    b.push(true);
                }
                Value::Null => {
                    v.push(0);
                    b.push(false);
                }
                other => return Err(mismatch("int", &other)),
            },
            Column::Float(v, b) => match value {
                Value::Float(x) => {
                    v.push(x);
                    b.push(true);
                }
                // Integers widen losslessly into float columns.
                Value::Int(x) => {
                    v.push(x as f64);
                    b.push(true);
                }
                Value::Null => {
                    v.push(0.0);
                    b.push(false);
                }
                other => return Err(mismatch("float", &other)),
            },
            Column::Str(v, b) => match value {
                Value::Str(x) => {
                    v.push(x);
                    b.push(true);
                }
                Value::Null => {
                    v.push(String::new());
                    b.push(false);
                }
                other => return Err(mismatch("str", &other)),
            },
            Column::Bool(v, b) => match value {
                Value::Bool(x) => {
                    v.push(x);
                    b.push(true);
                }
                Value::Null => {
                    v.push(false);
                    b.push(false);
                }
                other => return Err(mismatch("bool", &other)),
            },
        }
        Ok(())
    }

    /// Reads row `i` as a [`Value`] (`Null` when the bitmap says so).
    ///
    /// # Panics
    /// Panics when `i >= len`.
    pub fn get(&self, i: usize) -> Value {
        if !self.bitmap().get(i) {
            return Value::Null;
        }
        match self {
            Column::Int(v, _) => Value::Int(v[i]),
            Column::Float(v, _) => Value::Float(v[i]),
            Column::Str(v, _) => Value::Str(v[i].clone()),
            Column::Bool(v, _) => Value::Bool(v[i]),
        }
    }

    /// Float view of row `i`: `None` for nulls; integers coerce.
    pub fn get_float(&self, i: usize) -> Option<f64> {
        if !self.bitmap().get(i) {
            return None;
        }
        match self {
            Column::Float(v, _) => Some(v[i]),
            Column::Int(v, _) => Some(v[i] as f64),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bitmap_push_get_count() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 != 0);
        }
        assert_eq!(b.len(), 130);
        assert!(!b.get(0));
        assert!(b.get(1));
        assert!(!b.get(129)); // a multiple of 3
        let expected_valid = (0..130).filter(|i| i % 3 != 0).count();
        assert_eq!(b.count_valid(), expected_valid);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bitmap_bounds_checked() {
        Bitmap::new().get(0);
    }

    #[test]
    fn typed_pushes_and_gets() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Float(1.5), "h").unwrap();
        c.push(Value::Int(2), "h").unwrap(); // widening
        c.push(Value::Null, "h").unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(0), Value::Float(1.5));
        assert_eq!(c.get(1), Value::Float(2.0));
        assert_eq!(c.get(2), Value::Null);
        assert_eq!(c.get_float(1), Some(2.0));
        assert_eq!(c.get_float(2), None);
    }

    #[test]
    fn type_mismatches_are_named() {
        let mut c = Column::empty(DataType::Int);
        let err = c.push(Value::Str("x".into()), "vid").unwrap_err();
        match err {
            PrepError::TypeMismatch {
                column,
                expected,
                actual,
            } => {
                assert_eq!(column, "vid");
                assert_eq!(expected, "int");
                assert_eq!(actual, "str");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Floats do NOT narrow silently into int columns.
        assert!(c.push(Value::Float(1.0), "vid").is_err());
    }

    #[test]
    fn all_types_roundtrip() {
        for (dtype, value) in [
            (DataType::Int, Value::Int(-7)),
            (DataType::Float, Value::Float(0.25)),
            (DataType::Str, Value::Str("abc".into())),
            (DataType::Bool, Value::Bool(true)),
        ] {
            let mut c = Column::empty(dtype);
            c.push(value.clone(), "c").unwrap();
            c.push(Value::Null, "c").unwrap();
            assert_eq!(c.dtype(), dtype);
            assert_eq!(c.get(0), value);
            assert_eq!(c.get(1), Value::Null);
        }
    }

    proptest! {
        #[test]
        fn prop_bitmap_count_matches_gets(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
            let mut b = Bitmap::new();
            for &bit in &bits {
                b.push(bit);
            }
            let by_get = (0..bits.len()).filter(|&i| b.get(i)).count();
            prop_assert_eq!(b.count_valid(), by_get);
            prop_assert_eq!(by_get, bits.iter().filter(|&&x| x).count());
        }
    }
}
