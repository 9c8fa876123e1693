//! Tuple ⇄ record serialization.
//!
//! Format (little-endian throughout):
//!
//! ```text
//! [null bitmap: ceil(n/8) bytes] [field 0] [field 1] ... [field n-1]
//! ```
//!
//! Null fields occupy no bytes. `INT` and `FLOAT` are 8 bytes; `VARCHAR` is
//! a `u32` length prefix plus UTF-8 bytes. [`wsq_common::Value::Pending`]
//! values are a logic error at the storage boundary (placeholders must be
//! resolved by `ReqSync` before a tuple can be materialized) and are
//! rejected.

use wsq_common::{DataType, Result, Schema, Tuple, Value, WsqError};

/// Serialize a tuple to record bytes according to `schema`.
pub fn encode(schema: &Schema, tuple: &Tuple) -> Result<Vec<u8>> {
    if tuple.len() != schema.len() {
        return Err(WsqError::Storage(format!(
            "tuple arity {} does not match schema arity {}",
            tuple.len(),
            schema.len()
        )));
    }
    let bitmap_len = schema.len().div_ceil(8);
    let mut out = vec![0u8; bitmap_len];
    for (i, (value, col)) in tuple.values().iter().zip(schema.columns()).enumerate() {
        match value {
            Value::Null => {
                out[i / 8] |= 1 << (i % 8);
            }
            Value::Int(v) => {
                expect_type(col.dtype, DataType::Int, i)?;
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Float(v) => {
                expect_type(col.dtype, DataType::Float, i)?;
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(s) => {
                expect_type(col.dtype, DataType::Varchar, i)?;
                let len = u32::try_from(s.len())
                    .map_err(|_| WsqError::Storage("string longer than u32::MAX".to_string()))?;
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Pending(p) => {
                return Err(WsqError::Storage(format!(
                    "cannot materialize unresolved placeholder {p}"
                )));
            }
        }
    }
    Ok(out)
}

fn expect_type(declared: DataType, actual: DataType, col: usize) -> Result<()> {
    if declared != actual {
        return Err(WsqError::Storage(format!(
            "column {col}: cannot store {actual} value in {declared} column"
        )));
    }
    Ok(())
}

/// Deserialize record bytes back into a tuple according to `schema`.
pub fn decode(schema: &Schema, bytes: &[u8]) -> Result<Tuple> {
    decode_live(schema, bytes, |_| true)
}

/// [`decode`] that builds only the columns `live` accepts: every other
/// column decodes to `Value::Null`. A dead column is still length- and
/// UTF-8-checked, so a record decodes without error exactly when
/// [`decode`] accepts it; it is only not allocated.
pub fn decode_live(schema: &Schema, bytes: &[u8], live: impl Fn(usize) -> bool) -> Result<Tuple> {
    let n = schema.len();
    let bitmap_len = n.div_ceil(8);
    if bytes.len() < bitmap_len {
        return Err(WsqError::Storage(
            "record shorter than null bitmap".to_string(),
        ));
    }
    let (bitmap, mut rest) = bytes.split_at(bitmap_len);
    let mut values = Vec::with_capacity(n);
    for (i, col) in schema.columns().iter().enumerate() {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            values.push(Value::Null);
            continue;
        }
        let dead = !live(i);
        match col.dtype {
            DataType::Int => {
                let (head, tail) = take(rest, 8, i)?;
                values.push(if dead {
                    Value::Null
                } else {
                    Value::Int(i64::from_le_bytes(head.try_into().unwrap()))
                });
                rest = tail;
            }
            DataType::Float => {
                let (head, tail) = take(rest, 8, i)?;
                values.push(if dead {
                    Value::Null
                } else {
                    Value::Float(f64::from_le_bytes(head.try_into().unwrap()))
                });
                rest = tail;
            }
            DataType::Varchar => {
                let (lenb, tail) = take(rest, 4, i)?;
                let len = u32::from_le_bytes(lenb.try_into().unwrap()) as usize;
                let (sb, tail) = take(tail, len, i)?;
                let s = std::str::from_utf8(sb).map_err(|_| {
                    WsqError::Storage(format!("column {i}: invalid UTF-8 in record"))
                })?;
                values.push(if dead { Value::Null } else { Value::from(s) });
                rest = tail;
            }
        }
    }
    if !rest.is_empty() {
        return Err(WsqError::Storage(format!(
            "{} trailing bytes after decoding record",
            rest.len()
        )));
    }
    Ok(Tuple::new(values))
}

/// Encode a value as bytes whose lexicographic order matches
/// [`Value::compare`] — the key format for B+-tree indexes.
///
/// * Type tag first (NULL < numbers < strings, as in `Value::compare`).
/// * Integers: offset-binary (sign bit flipped), big-endian.
/// * Floats: IEEE-754 total-order trick (flip all bits for negatives, flip
///   the sign bit for positives), big-endian; `-0.0` is keyed as `0.0`.
///   Ints and floats encode under the same numeric tag via the float
///   path so `2` and `2.5` order correctly against each other. The map is
///   monotone but not injective — integers beyond 2^53 that round to one
///   `f64` share a key — so a key range is a *superset* of the value
///   range and index readers re-check the values they fetch.
/// * Strings: raw UTF-8 bytes (prefix ordering is correct for keys that
///   are compared in full).
pub fn encode_key(value: &Value) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(10);
    match value {
        Value::Null => out.push(0x00),
        Value::Int(i) => {
            out.push(0x01);
            out.extend_from_slice(&total_order_f64(*i as f64));
        }
        Value::Float(f) => {
            out.push(0x01);
            // `-0.0` compares equal to `0`, so it must share its key: a
            // range ending at `0` would otherwise miss it.
            let f = if *f == 0.0 { 0.0 } else { *f };
            out.extend_from_slice(&total_order_f64(f));
        }
        Value::Str(s) => {
            out.push(0x02);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Pending(p) => {
            return Err(WsqError::Storage(format!(
                "cannot index unresolved placeholder {p}"
            )));
        }
    }
    Ok(out)
}

/// The byte bounds [`crate::BTree::scan_range`] takes for the inclusive
/// value range `[lo, hi]`; `None` is an open end (below the NULL tag, above
/// the string tag).
pub fn encode_key_range(lo: Option<&Value>, hi: Option<&Value>) -> Result<(Vec<u8>, Vec<u8>)> {
    Ok((
        lo.map(encode_key).transpose()?.unwrap_or_default(),
        hi.map(encode_key)
            .transpose()?
            .unwrap_or_else(|| vec![0xFF]),
    ))
}

/// IEEE-754 total-order encoding: big-endian bits, with all bits flipped
/// for negative values and the sign bit flipped for non-negatives.
fn total_order_f64(f: f64) -> [u8; 8] {
    let bits = f.to_bits();
    let ordered = if bits & 0x8000_0000_0000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000_0000_0000
    };
    ordered.to_be_bytes()
}

fn take(bytes: &[u8], n: usize, col: usize) -> Result<(&[u8], &[u8])> {
    if bytes.len() < n {
        return Err(WsqError::Storage(format!(
            "column {col}: record truncated (need {n} bytes, have {})",
            bytes.len()
        )));
    }
    Ok(bytes.split_at(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsq_common::{CallId, Column, PendingCol, Placeholder};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("name", DataType::Varchar),
            Column::new("pop", DataType::Int),
            Column::new("ratio", DataType::Float),
        ])
    }

    #[test]
    fn roundtrip_basic() {
        let s = schema();
        let t = Tuple::new(vec![
            Value::from("California"),
            Value::Int(32_682_794),
            Value::Float(0.125),
        ]);
        let bytes = encode(&s, &t).unwrap();
        assert_eq!(decode(&s, &bytes).unwrap(), t);
    }

    /// The record format is a disk format: these bytes were captured
    /// before `Value::Str` became reference-counted and must never move.
    #[test]
    fn record_bytes_are_golden() {
        let s = Schema::new(vec![
            Column::new("n", DataType::Int),
            Column::new("i", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("e", DataType::Varchar),
            Column::new("s", DataType::Varchar),
        ]);
        let t = Tuple::new(vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::from(""),
            Value::from("snake \u{1F40D} river"),
        ]);
        let bytes = encode(&s, &t).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "01d6ffffffffffffff00000000000004400000000010000000\
             736e616b6520f09f908d207269766572"
        );
        assert_eq!(decode(&s, &bytes).unwrap(), t);
    }

    #[test]
    fn roundtrip_nulls_everywhere() {
        let s = schema();
        let t = Tuple::new(vec![Value::Null, Value::Null, Value::Null]);
        let bytes = encode(&s, &t).unwrap();
        assert_eq!(bytes.len(), 1); // just the bitmap
        assert_eq!(decode(&s, &bytes).unwrap(), t);
    }

    #[test]
    fn roundtrip_empty_and_unicode_strings() {
        let s = Schema::new(vec![Column::new("s", DataType::Varchar)]);
        for text in ["", "héllo wörld", "四つ角", "a\nb\tc"] {
            let t = Tuple::new(vec![Value::from(text)]);
            let bytes = encode(&s, &t).unwrap();
            assert_eq!(decode(&s, &bytes).unwrap(), t);
        }
    }

    #[test]
    fn arity_mismatch_rejected() {
        let s = schema();
        let t = Tuple::new(vec![Value::Int(1)]);
        assert!(encode(&s, &t).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = schema();
        let t = Tuple::new(vec![Value::Int(1), Value::Int(2), Value::Float(3.0)]);
        let err = encode(&s, &t).unwrap_err();
        assert!(err.to_string().contains("column 0"));
    }

    #[test]
    fn pending_values_rejected() {
        let s = Schema::new(vec![Column::new("c", DataType::Int)]);
        let t = Tuple::new(vec![Value::Pending(Placeholder {
            call: CallId(1),
            col: PendingCol::Count,
        })]);
        assert!(encode(&s, &t).is_err());
    }

    #[test]
    fn truncated_records_rejected() {
        let s = schema();
        let t = Tuple::new(vec![Value::from("abc"), Value::Int(5), Value::Null]);
        let bytes = encode(&s, &t).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode(&s, &bytes[..cut]).is_err(),
                "decoding a {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn dead_columns_decode_to_null_but_are_still_checked() {
        let s = schema();
        let t = Tuple::new(vec![Value::from("abc"), Value::Int(5), Value::Float(0.5)]);
        let bytes = encode(&s, &t).unwrap();
        let only_pop = |i| i == 1;
        assert_eq!(
            decode_live(&s, &bytes, only_pop).unwrap(),
            Tuple::new(vec![Value::Null, Value::Int(5), Value::Null])
        );
        assert_eq!(decode_live(&s, &bytes, |_| true).unwrap(), t);
        for cut in 0..bytes.len() {
            assert!(decode_live(&s, &bytes[..cut], only_pop).is_err());
        }
        // "abc" sits after the bitmap byte and the u32 length.
        let mut bad = bytes.clone();
        bad[5] = 0xFF;
        let err = decode_live(&s, &bad, only_pop).unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8"), "{err}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let s = Schema::new(vec![Column::new("c", DataType::Int)]);
        let t = Tuple::new(vec![Value::Int(7)]);
        let mut bytes = encode(&s, &t).unwrap();
        bytes.push(0xFF);
        assert!(decode(&s, &bytes).is_err());
    }

    #[test]
    fn key_encoding_preserves_value_order() {
        let values = vec![
            Value::Null,
            Value::Float(f64::NEG_INFINITY),
            Value::Int(i64::MIN / 2),
            Value::Float(-1e18),
            Value::Int(-42),
            Value::Float(-1.5),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(0.5),
            Value::Int(1),
            Value::Float(1.5),
            Value::Int(2),
            Value::Int(1_000_000),
            Value::Float(f64::INFINITY),
            Value::Str("".into()),
            Value::Str("a".into()),
            Value::Str("ab".into()),
            Value::Str("b".into()),
        ];
        let keys: Vec<Vec<u8>> = values.iter().map(|v| encode_key(v).unwrap()).collect();
        for i in 0..values.len() {
            for j in 0..values.len() {
                let vo = values[i].compare(&values[j]).unwrap();
                let ko = keys[i].cmp(&keys[j]);
                // -0.0 and 0 compare Equal as values but differ as keys;
                // allow key order to refine value ties.
                if vo != std::cmp::Ordering::Equal {
                    assert_eq!(ko, vo, "{} vs {}", values[i], values[j]);
                }
            }
        }
    }

    #[test]
    fn equal_values_share_a_key_and_open_ends_bracket_every_key() {
        let key = |v: Value| encode_key(&v).unwrap();
        assert_eq!(key(Value::Float(-0.0)), key(Value::Int(0)));
        // Lossy, but monotone: 2^53 + 1 rounds onto 2^53's key.
        let big = 1i64 << 53;
        assert_eq!(key(Value::Int(big + 1)), key(Value::Int(big)));
        assert!(key(Value::Int(big + 2)) > key(Value::Int(big)));
        let (lo, hi) = encode_key_range(None, None).unwrap();
        for v in [Value::Null, Value::Int(i64::MAX), Value::from("\u{10FFFF}")] {
            assert!(lo <= key(v.clone()) && key(v) <= hi);
        }
        let (lo, hi) = encode_key_range(Some(&Value::Int(3)), None).unwrap();
        assert_eq!(lo, key(Value::Int(3)));
        assert!(hi > key(Value::from("z")));
    }

    #[test]
    fn key_encoding_rejects_pending() {
        let v = Value::Pending(Placeholder {
            call: CallId(1),
            col: PendingCol::Count,
        });
        assert!(encode_key(&v).is_err());
    }

    #[test]
    fn extreme_numeric_values() {
        let s = Schema::new(vec![
            Column::new("i", DataType::Int),
            Column::new("f", DataType::Float),
        ]);
        for (i, f) in [
            (i64::MIN, f64::MIN),
            (i64::MAX, f64::MAX),
            (0, -0.0),
            (-1, f64::INFINITY),
        ] {
            let t = Tuple::new(vec![Value::Int(i), Value::Float(f)]);
            let bytes = encode(&s, &t).unwrap();
            assert_eq!(decode(&s, &bytes).unwrap(), t);
        }
    }
}
