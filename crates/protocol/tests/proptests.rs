//! Property tests for the wire codec.
//!
//! 1. `decode(encode(f)) == f` for arbitrary frames (round-trip).
//! 2. The decoder never panics on arbitrary byte soup — it returns a
//!    structured `DecodeError` instead.
//! 3. Flipping any single byte of a valid encoding either still decodes
//!    (to *some* frame) or fails cleanly — but never panics.

use proptest::prelude::*;
use wsq_common::{Column, DataType, Schema, Tuple, Value};
use wsq_protocol::{Frame, MetricsFormat};

fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        1 => Just(Value::Null),
        3 => any::<i64>().prop_map(Value::Int),
        2 => any::<i64>().prop_map(|b| Value::Float(b as f64 / 128.0)),
        3 => "[a-zA-Z0-9 .:%-]{0,24}".prop_map(Value::from),
    ]
    .boxed()
}

fn arb_dtype() -> BoxedStrategy<DataType> {
    prop_oneof![
        Just(DataType::Int),
        Just(DataType::Float),
        Just(DataType::Varchar),
    ]
    .boxed()
}

fn arb_schema() -> BoxedStrategy<Schema> {
    proptest::collection::vec(
        ("[A-Za-z][A-Za-z0-9_]{0,10}", any::<bool>(), arb_dtype()),
        0..6,
    )
    .prop_map(|cols| {
        Schema::new(
            cols.into_iter()
                .map(|(name, qualified, dtype)| Column {
                    qualifier: qualified.then(|| format!("T{}", name.len()).into()),
                    name: name.into(),
                    dtype,
                })
                .collect(),
        )
    })
    .boxed()
}

fn arb_rows() -> BoxedStrategy<Vec<Tuple>> {
    proptest::collection::vec(
        proptest::collection::vec(arb_value(), 0..5).prop_map(Tuple::new),
        0..8,
    )
    .boxed()
}

fn arb_sql() -> BoxedStrategy<String> {
    "[A-Za-z0-9 '*=,().]{0,60}".boxed()
}

fn arb_frame() -> BoxedStrategy<Frame> {
    prop_oneof![
        (any::<u32>(), arb_sql()).prop_map(|(version, client)| Frame::Hello { version, client }),
        arb_sql().prop_map(|sql| Frame::Query { sql }),
        arb_sql().prop_map(|sql| Frame::Execute { sql }),
        arb_sql().prop_map(|sql| Frame::Analyze { sql }),
        (arb_sql(), any::<bool>()).prop_map(|(sql, verify)| Frame::Explain { sql, verify }),
        prop_oneof![Just(MetricsFormat::Text), Just(MetricsFormat::Json)]
            .prop_map(|format| Frame::Metrics { format }),
        Just(Frame::Ping),
        Just(Frame::Goodbye),
        (any::<u32>(), any::<u64>(), arb_sql()).prop_map(|(version, session, server)| {
            Frame::Welcome {
                version,
                session,
                server,
            }
        }),
        arb_schema().prop_map(|schema| Frame::Schema { schema }),
        arb_rows().prop_map(|rows| Frame::Rows { rows }),
        arb_sql().prop_map(|report| Frame::Footer { report }),
        any::<u64>().prop_map(|rows| Frame::Done { rows }),
        any::<u64>().prop_map(|rows| Frame::Affected { rows }),
        (any::<u16>(), arb_sql()).prop_map(|(code, message)| Frame::Error { code, message }),
        arb_sql().prop_map(|text| Frame::Info { text }),
        Just(Frame::Pong),
        any::<u32>().prop_map(|statements| Frame::ScriptDone { statements }),
    ]
    .boxed()
}

proptest! {
    /// encode ∘ decode == id, and decode consumes exactly the bytes
    /// encode produced.
    #[test]
    fn round_trip(frame in arb_frame()) {
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    /// Arbitrary byte soup never panics the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Frame::decode(&bytes);
        let _ = Frame::decode_payload(&bytes);
    }

    /// Single-byte corruption of a valid frame either re-decodes or
    /// fails cleanly — never panics, and never reads past the buffer.
    #[test]
    fn bit_flips_fail_cleanly(frame in arb_frame(), pos in any::<u16>(), flip in any::<u8>()) {
        let mut bytes = frame.encode();
        let idx = pos as usize % bytes.len();
        bytes[idx] ^= flip | 1;
        let _ = Frame::decode(&bytes);
    }

    /// Truncating a valid frame at any point yields `Truncated`-class
    /// errors, not panics; prefixes shorter than the header included.
    #[test]
    fn truncations_fail_cleanly(frame in arb_frame(), keep in any::<u16>()) {
        let bytes = frame.encode();
        let cut = keep as usize % bytes.len();
        let _ = Frame::decode(&bytes[..cut]);
    }
}
