//! A compact binary encoding of the [`Content`] tree.
//!
//! Every value is one tag byte followed by its body:
//!
//! | tag | value | body |
//! |---|---|---|
//! | 0 | `Null` | — |
//! | 1 | `Bool(false)` | — |
//! | 2 | `Bool(true)` | — |
//! | 3 | `I64` | zigzag varint |
//! | 4 | `U64` | varint |
//! | 5 | `F64` | 8 bytes, little-endian: the raw [`f64::to_bits`] |
//! | 6 | `Str` | varint byte length, then UTF-8 bytes |
//! | 7 | `Seq` | varint item count, then each item |
//! | 8 | `Map` | varint entry count, then per entry a varint key length, the UTF-8 key and the value |
//!
//! A varint is LEB128: seven bits per byte, the least significant group
//! first, the high bit set on every byte but the last; zigzag maps
//! signed values to unsigned ones (0, −1, 1, −2 → 0, 1, 2, 3) so small
//! magnitudes stay short. Integers and lengths in a model are mostly
//! small — counts, indices, config fields — and take one or two bytes.
//!
//! Floats keep their exact bits (NaN payloads and `-0.0` included), so a
//! decoded tree equals the encoded one bit for bit with no decimal round
//! trip.
//!
//! The decoder treats its input as untrusted: it returns an error, never
//! panics, on any truncation, unknown tag, invalid UTF-8 or trailing
//! byte; it checks every length and count against the bytes left, and
//! grows its containers item by item rather than reserving a declared
//! count up front, so its memory stays proportional to the input; and it
//! refuses trees nested deeper than `MAX_DEPTH` (128) instead of
//! recursing without bound.

use crate::{Content, DeError};

/// Deepest nesting of sequences and maps the decoder accepts.
const MAX_DEPTH: usize = 128;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_U64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

/// Smallest encoding of one sequence item (a bare tag).
const MIN_ITEM_LEN: usize = 1;
/// Smallest encoding of one map entry (an empty key and a bare tag).
const MIN_ENTRY_LEN: usize = 2;

impl Content {
    /// Appends the binary encoding of this tree to `out`.
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        match self {
            Content::Null => out.push(TAG_NULL),
            Content::Bool(false) => out.push(TAG_FALSE),
            Content::Bool(true) => out.push(TAG_TRUE),
            Content::I64(v) => {
                out.push(TAG_I64);
                put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
            }
            Content::U64(v) => {
                out.push(TAG_U64);
                put_varint(out, *v);
            }
            Content::F64(v) => {
                out.push(TAG_F64);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Content::Str(s) => {
                out.push(TAG_STR);
                put_str(out, s);
            }
            Content::Seq(items) => {
                out.push(TAG_SEQ);
                put_varint(out, items.len() as u64);
                for item in items {
                    item.encode_binary(out);
                }
            }
            Content::Map(entries) => {
                out.push(TAG_MAP);
                put_varint(out, entries.len() as u64);
                for (key, value) in entries {
                    put_str(out, key);
                    value.encode_binary(out);
                }
            }
        }
    }

    /// Decodes a tree written by [`Content::encode_binary`]. The input
    /// must hold exactly one tree: trailing bytes are an error.
    pub fn decode_binary(bytes: &[u8]) -> Result<Content, DeError> {
        let mut reader = Reader { bytes, pos: 0 };
        let content = reader.content(0)?;
        if reader.pos != bytes.len() {
            return Err(reader.error("trailing bytes after the value"));
        }
        Ok(content)
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over the bytes being decoded.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, what: &str) -> DeError {
        DeError::new(format!("binary content: {what} at byte {}", self.pos))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&[u8], DeError> {
        if n > self.remaining() {
            return Err(self.error("truncated value"));
        }
        let taken = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(taken)
    }

    fn varint(&mut self) -> Result<u64, DeError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1)?[0];
            let bits = u64::from(byte & 0x7F);
            // The tenth byte holds bit 63 alone.
            if shift == 63 && bits > 1 {
                return Err(self.error("varint overflows 64 bits"));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(self.error("varint longer than 10 bytes"))
    }

    /// Reads the count of elements that each take at least `min_len`
    /// bytes, rejecting a count the bytes left cannot hold.
    fn count(&mut self, min_len: usize) -> Result<usize, DeError> {
        let count = self.varint()?;
        if count > (self.remaining() / min_len) as u64 {
            return Err(self.error("length larger than the bytes left"));
        }
        Ok(count as usize)
    }

    fn string(&mut self) -> Result<String, DeError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(self.error("invalid UTF-8 in string")),
        }
    }

    fn content(&mut self, depth: usize) -> Result<Content, DeError> {
        let tag = self.take(1)?[0];
        Ok(match tag {
            TAG_NULL => Content::Null,
            TAG_FALSE => Content::Bool(false),
            TAG_TRUE => Content::Bool(true),
            TAG_I64 => {
                let z = self.varint()?;
                Content::I64((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            TAG_U64 => Content::U64(self.varint()?),
            TAG_F64 => {
                let mut bits = [0u8; 8];
                bits.copy_from_slice(self.take(8)?);
                Content::F64(f64::from_bits(u64::from_le_bytes(bits)))
            }
            TAG_STR => Content::Str(self.string()?),
            TAG_SEQ | TAG_MAP if depth >= MAX_DEPTH => {
                return Err(self.error("nesting deeper than the limit"))
            }
            TAG_SEQ => {
                let count = self.count(MIN_ITEM_LEN)?;
                let mut items = Vec::new();
                for _ in 0..count {
                    items.push(self.content(depth + 1)?);
                }
                Content::Seq(items)
            }
            TAG_MAP => {
                let count = self.count(MIN_ENTRY_LEN)?;
                let mut entries = Vec::new();
                for _ in 0..count {
                    let key = self.string()?;
                    entries.push((key, self.content(depth + 1)?));
                }
                Content::Map(entries)
            }
            _ => {
                self.pos -= 1;
                return Err(self.error("unknown tag"));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(content: &Content) -> Vec<u8> {
        let mut out = Vec::new();
        content.encode_binary(&mut out);
        out
    }

    /// A tree with every variant, extreme integers and awkward floats.
    fn sample() -> Content {
        Content::Map(vec![
            ("null".into(), Content::Null),
            (
                "flags".into(),
                Content::Seq(vec![Content::Bool(false), Content::Bool(true)]),
            ),
            (
                "ints".into(),
                Content::Seq(vec![Content::I64(i64::MIN), Content::U64(u64::MAX)]),
            ),
            (
                "floats".into(),
                Content::Seq(
                    [0.1 + 0.2, -0.0, f64::MAX, 5e-324, f64::INFINITY, f64::NAN]
                        .into_iter()
                        .map(Content::F64)
                        .collect(),
                ),
            ),
            ("".into(), Content::Str("héllo".into())),
            ("empty".into(), Content::Map(Vec::new())),
        ])
    }

    #[test]
    fn the_layout_is_pinned() {
        let tree = Content::Map(vec![(
            "a".into(),
            Content::Seq(vec![Content::I64(-2), Content::F64(1.5), Content::Null]),
        )]);
        // -2 zigzags to 3.
        let mut expected = vec![TAG_MAP, 1, 1, b'a', TAG_SEQ, 3, TAG_I64, 3, TAG_F64];
        expected.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        expected.push(TAG_NULL);
        assert_eq!(encode(&tree), expected);
    }

    #[test]
    fn varints_are_leb128_with_zigzag_signs() {
        let cases: [(Content, &[u8]); 7] = [
            (Content::U64(0), &[TAG_U64, 0]),
            (Content::U64(300), &[TAG_U64, 0xAC, 0x02]),
            (Content::I64(-1), &[TAG_I64, 1]),
            (Content::I64(64), &[TAG_I64, 0x80, 0x01]),
            (
                Content::U64(u64::MAX),
                &[
                    TAG_U64, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
                ],
            ),
            (
                Content::I64(i64::MAX),
                &[
                    TAG_I64, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
                ],
            ),
            (
                Content::I64(i64::MIN),
                &[
                    TAG_I64, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
                ],
            ),
        ];
        for (value, bytes) in cases {
            assert_eq!(encode(&value), bytes, "{value:?}");
            assert_eq!(Content::decode_binary(bytes).unwrap(), value);
        }
        // Past 64 bits: a tenth byte above 1, or an eleventh byte.
        let mut overflow = vec![TAG_U64];
        overflow.extend_from_slice(&[0xFF; 9]);
        overflow.push(0x02);
        assert!(Content::decode_binary(&overflow).is_err());
        let mut long = vec![TAG_U64];
        long.extend_from_slice(&[0x80; 10]);
        long.push(0x00);
        assert!(Content::decode_binary(&long).is_err());
    }

    #[test]
    fn every_variant_round_trips_with_exact_float_bits() {
        let bytes = encode(&sample());
        let back = Content::decode_binary(&bytes).unwrap();
        // `Content`'s `==` fails on NaN, so compare re-encoded bytes:
        // they hold the raw bits of every float.
        assert_eq!(encode(&back), bytes);
        let floats = back.field("floats").as_seq().unwrap();
        assert!(matches!(floats[1], Content::F64(z) if z.to_bits() == (-0.0f64).to_bits()));
        assert!(matches!(floats[5], Content::F64(n) if n.is_nan()));
    }

    #[test]
    fn malformed_input_is_an_error() {
        let bytes = encode(&sample());
        let mut trailing = bytes.clone();
        trailing.push(TAG_NULL);
        assert!(Content::decode_binary(&trailing).is_err());
        assert!(Content::decode_binary(&[]).is_err());
        assert!(Content::decode_binary(&[9]).is_err(), "unknown tag");
        assert!(
            Content::decode_binary(&[TAG_STR, 2, 0xC3, 0x28]).is_err(),
            "UTF-8"
        );
        // A count of u64::MAX with nothing behind it.
        for tag in [TAG_STR, TAG_SEQ, TAG_MAP] {
            let mut huge = vec![tag];
            put_varint(&mut huge, u64::MAX);
            assert!(Content::decode_binary(&huge).is_err());
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| {
            let mut bytes = Vec::new();
            for _ in 0..depth {
                bytes.extend_from_slice(&[TAG_SEQ, 1]);
            }
            bytes.push(TAG_NULL);
            bytes
        };
        assert!(Content::decode_binary(&nested(MAX_DEPTH)).is_ok());
        assert!(Content::decode_binary(&nested(MAX_DEPTH + 1)).is_err());
        // Far past the bound: an error, not a stack overflow.
        assert!(Content::decode_binary(&nested(100_000)).is_err());
    }

    /// Random trees: a mix of leaves and small nested containers.
    fn tree(seed: u64, depth: u32) -> Content {
        let pick = seed % if depth == 0 { 7 } else { 9 };
        let next = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        match pick {
            0 => Content::Null,
            1 => Content::Bool(seed & 1 == 1),
            2 => Content::I64(next as i64),
            3 => Content::U64(next),
            4 | 5 => Content::F64(f64::from_bits(next)),
            6 => Content::Str(format!("k{}é", next % 1000)),
            7 => Content::Seq(
                (0..next % 5)
                    .map(|i| tree(next ^ i.wrapping_mul(0xA5A5), depth - 1))
                    .collect(),
            ),
            _ => Content::Map(
                (0..next % 4)
                    .map(|i| {
                        (
                            format!("f{i}"),
                            tree(next.rotate_left(i as u32 + 1), depth - 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_trees_round_trip(seed in any::<u64>(), depth in 0_u32..5) {
            let bytes = encode(&tree(seed, depth));
            let back = Content::decode_binary(&bytes);
            prop_assert!(back.is_ok(), "{:?}", back);
            prop_assert_eq!(encode(&back.unwrap()), bytes);
        }

        #[test]
        fn every_truncation_of_a_valid_payload_is_an_error(seed in any::<u64>(), depth in 0_u32..5) {
            let bytes = encode(&tree(seed, depth));
            for cut in 0..bytes.len() {
                prop_assert!(Content::decode_binary(&bytes[..cut]).is_err(), "cut at {}", cut);
            }
        }

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Either outcome is fine; reaching here means no panic and no
            // runaway allocation.
            let _ = Content::decode_binary(&bytes);
        }

        #[test]
        fn oversized_lengths_are_errors(
            tag in prop_oneof![Just(TAG_STR), Just(TAG_SEQ), Just(TAG_MAP)],
            excess in 1_u64..1_000_000,
            tail in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            // A length or count the bytes after it cannot hold.
            for claimed in [tail.len() as u64 + excess, u64::MAX] {
                let mut bytes = vec![tag];
                put_varint(&mut bytes, claimed);
                bytes.extend_from_slice(&tail);
                prop_assert!(Content::decode_binary(&bytes).is_err(), "{}", claimed);
            }
        }

        #[test]
        fn corrupted_payloads_never_panic(pos in any::<usize>(), byte in any::<u8>()) {
            let mut bytes = encode(&sample());
            let n = bytes.len();
            bytes[pos % n] = byte;
            let _ = Content::decode_binary(&bytes);
        }
    }
}
