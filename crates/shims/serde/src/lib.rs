//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! The real serde models serialization through visitor traits; this shim
//! uses a much simpler contract — every [`Serialize`] type renders itself
//! to a [`Content`] tree, and every [`Deserialize`] type rebuilds itself
//! from one. `serde_json` (also vendored) converts `Content` to and from
//! JSON text; [`Content::encode_binary`] and [`Content::decode_binary`]
//! convert it to and from a compact tagged byte encoding that keeps
//! every float's exact bits. The
//! `#[derive(Serialize, Deserialize)]` macros come from the vendored
//! `serde_derive` proc-macro crate and target this contract.
//!
//! Supported shapes (everything the workspace derives): structs with
//! named fields, unit structs, enums with unit / tuple / struct
//! variants, and the primitive, `String`, `Vec`, `Option`, array, tuple
//! and map field types below.

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

mod binary;

/// The self-describing value tree both traits speak.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer (also covers unsigned values up to `i64::MAX`).
    I64(i64),
    /// Unsigned integer above `i64::MAX`.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence (arrays, `Vec`, tuples).
    Seq(Vec<Content>),
    /// Ordered string-keyed map (structs, maps, tagged enum variants).
    Map(Vec<(String, Content)>),
}

impl Content {
    /// Map lookup; absent keys read as `Null` (lets `Option` fields
    /// default to `None`).
    pub fn field<'a>(&'a self, name: &str) -> &'a Content {
        static NULL: Content = Content::Null;
        match self {
            Content::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// The map entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Content)]> {
        match self {
            Content::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// The sequence elements, if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// Short name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::I64(_) | Content::U64(_) => "integer",
            Content::F64(_) => "float",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

/// Deserialization error: what was expected and what was found.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    /// Human-readable description.
    pub message: String,
}

impl DeError {
    /// Builds an error from any displayable message.
    pub fn new(message: impl fmt::Display) -> DeError {
        DeError {
            message: message.to_string(),
        }
    }

    /// Standard "expected X, found Y" error.
    pub fn expected(what: &str, found: &Content) -> DeError {
        DeError::new(format!("expected {what}, found {}", found.kind()))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for DeError {}

/// A value that can render itself to a [`Content`] tree.
pub trait Serialize {
    /// Renders the value.
    fn to_content(&self) -> Content;
}

/// A value that can rebuild itself from a [`Content`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds the value; fails with a descriptive error on shape
    /// mismatch.
    fn from_content(content: &Content) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------- impls

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                let v = *self as i128;
                if v >= 0 && v > i64::MAX as i128 {
                    Content::U64(*self as u64)
                } else {
                    Content::I64(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                let wide: i128 = match content {
                    Content::I64(v) => *v as i128,
                    Content::U64(v) => *v as i128,
                    Content::F64(v) if v.fract() == 0.0 && v.abs() < 2e18 => *v as i128,
                    other => return Err(DeError::expected("integer", other)),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::new(format!(
                        "integer {wide} out of range for {}",
                        stringify!($t)
                    )))
            }
        }
    )*};
}
impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::F64(v) => Ok(*v),
            Content::I64(v) => Ok(*v as f64),
            Content::U64(v) => Ok(*v as f64),
            Content::Null => Ok(f64::NAN), // serde_json writes non-finite floats as null
            other => Err(DeError::expected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        f64::from_content(content).map(|v| v as f32)
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_owned())
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError::expected("single-character string", other)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content
            .as_seq()
            .ok_or_else(|| DeError::expected("sequence", content))?
            .iter()
            .map(T::from_content)
            .collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize + Copy + Default, const N: usize> Deserialize for [T; N] {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let seq = content
            .as_seq()
            .ok_or_else(|| DeError::expected("sequence", content))?;
        if seq.len() != N {
            return Err(DeError::new(format!(
                "expected array of {N} elements, found {}",
                seq.len()
            )));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(seq) {
            *slot = T::from_content(item)?;
        }
        Ok(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            None => Content::Null,
            Some(v) => v.to_content(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        match content {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$idx.to_content()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_content(content: &Content) -> Result<Self, DeError> {
                let seq = content
                    .as_seq()
                    .ok_or_else(|| DeError::expected("tuple sequence", content))?;
                let expected = [$($idx),+].len();
                if seq.len() != expected {
                    return Err(DeError::new(format!(
                        "expected tuple of {expected}, found sequence of {}",
                        seq.len()
                    )));
                }
                Ok(($($name::from_content(&seq[$idx])?,)+))
            }
        }
    )*};
}
impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_content()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content
            .as_map()
            .ok_or_else(|| DeError::expected("map", content))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_content(v)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_content(&self) -> Content {
        // Sorted for deterministic output.
        let mut entries: Vec<(String, Content)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_content()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Content::Map(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        content
            .as_map()
            .ok_or_else(|| DeError::expected("map", content))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_content(v)?)))
            .collect()
    }
}

impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
}

impl Deserialize for Content {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(content.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_content(&42u32.to_content()).unwrap(), 42);
        assert_eq!(i64::from_content(&(-7i64).to_content()).unwrap(), -7);
        assert_eq!(f64::from_content(&1.5f64.to_content()).unwrap(), 1.5);
        assert!(bool::from_content(&true.to_content()).unwrap());
        assert_eq!(
            String::from_content(&"hi".to_string().to_content()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_content(&v.to_content()).unwrap(), v);
        let o: Option<f64> = Some(2.5);
        assert_eq!(Option::<f64>::from_content(&o.to_content()).unwrap(), o);
        let none: Option<f64> = None;
        assert_eq!(
            Option::<f64>::from_content(&none.to_content()).unwrap(),
            none
        );
        let arr = [1.0f64, 2.0, 3.0];
        assert_eq!(<[f64; 3]>::from_content(&arr.to_content()).unwrap(), arr);
        let pair = (3usize, vec![1usize, 2]);
        assert_eq!(
            <(usize, Vec<usize>)>::from_content(&pair.to_content()).unwrap(),
            pair
        );
    }

    #[test]
    fn missing_map_fields_read_as_null() {
        let c = Content::Map(vec![("a".into(), Content::I64(1))]);
        assert_eq!(c.field("a"), &Content::I64(1));
        assert_eq!(c.field("b"), &Content::Null);
        assert_eq!(Option::<u32>::from_content(c.field("b")).unwrap(), None);
        assert!(u32::from_content(c.field("b")).is_err());
    }

    #[test]
    fn shape_mismatches_error() {
        assert!(u32::from_content(&Content::Str("x".into())).is_err());
        assert!(Vec::<u32>::from_content(&Content::Bool(true)).is_err());
        assert!(u8::from_content(&Content::I64(300)).is_err());
    }
}
