//! Deterministic codec tests: golden byte layouts (pinning the wire
//! format documented in DESIGN.md §15), pending-value rejection, and
//! the framed transport's length-cap / EOF behavior.

use std::io::Cursor;
use wsq_common::{
    CallId, Column, DataType, PendingCol, Placeholder, Schema, Tuple, Value, WsqError,
};
use wsq_protocol::{
    error_code, error_from_wire, read_frame, write_frame, Frame, MetricsFormat, MAX_FRAME,
    PROTOCOL_VERSION,
};

/// Golden bytes for `Query { sql: "SELECT 1" }`.  If this test breaks,
/// the wire format changed: bump [`PROTOCOL_VERSION`] and update
/// DESIGN.md §15.
#[test]
fn golden_query_frame_bytes() {
    let frame = Frame::Query {
        sql: "SELECT 1".to_string(),
    };
    let bytes = frame.encode();
    let expected: Vec<u8> = {
        let mut v = Vec::new();
        v.extend_from_slice(&13u32.to_le_bytes()); // payload = tag + u32 len + 8 bytes
        v.push(0x02); // TAG_QUERY
        v.extend_from_slice(&8u32.to_le_bytes());
        v.extend_from_slice(b"SELECT 1");
        v
    };
    assert_eq!(bytes, expected);
}

/// Golden bytes for a one-column, one-row result stream header + batch.
#[test]
fn golden_schema_and_rows_bytes() {
    let schema = Frame::Schema {
        schema: Schema::new(vec![Column {
            qualifier: Some("S".into()),
            name: "N".into(),
            dtype: DataType::Int,
        }]),
    };
    let mut expected = Vec::new();
    expected.extend_from_slice(&17u32.to_le_bytes());
    expected.push(0x82); // TAG_SCHEMA
    expected.extend_from_slice(&1u32.to_le_bytes()); // 1 column
    expected.push(1); // qualifier present
    expected.extend_from_slice(&1u32.to_le_bytes());
    expected.push(b'S');
    expected.extend_from_slice(&1u32.to_le_bytes());
    expected.push(b'N');
    expected.push(0); // dtype Int
    assert_eq!(schema.encode(), expected);

    let rows = Frame::Rows {
        rows: vec![Tuple::new(vec![Value::Int(7)])],
    };
    let mut expected = Vec::new();
    expected.extend_from_slice(&18u32.to_le_bytes());
    expected.push(0x83); // TAG_ROWS
    expected.extend_from_slice(&1u32.to_le_bytes()); // 1 row
    expected.extend_from_slice(&1u32.to_le_bytes()); // width 1
    expected.push(1); // value tag Int
    expected.extend_from_slice(&7i64.to_le_bytes());
    assert_eq!(rows.encode(), expected);
}

#[test]
fn golden_hello_welcome_bytes() {
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        client: "repl".to_string(),
    };
    let mut expected = Vec::new();
    expected.extend_from_slice(&13u32.to_le_bytes());
    expected.push(0x01);
    expected.extend_from_slice(&1u32.to_le_bytes());
    expected.extend_from_slice(&4u32.to_le_bytes());
    expected.extend_from_slice(b"repl");
    assert_eq!(hello.encode(), expected);

    let welcome = Frame::Welcome {
        version: PROTOCOL_VERSION,
        session: 42,
        server: "wsq".to_string(),
    };
    let mut expected = Vec::new();
    expected.extend_from_slice(&20u32.to_le_bytes());
    expected.push(0x81);
    expected.extend_from_slice(&1u32.to_le_bytes());
    expected.extend_from_slice(&42u64.to_le_bytes());
    expected.extend_from_slice(&3u32.to_le_bytes());
    expected.extend_from_slice(b"wsq");
    assert_eq!(welcome.encode(), expected);
}

#[test]
fn every_value_kind_round_trips() {
    let frame = Frame::Rows {
        rows: vec![Tuple::new(vec![
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Float(1.5e300),
            Value::from(String::new()),
            Value::from("snake \u{1F40D} river"),
        ])],
    };
    let bytes = frame.encode();
    let (decoded, used) = Frame::decode(&bytes).unwrap();
    assert_eq!(used, bytes.len());
    assert_eq!(decoded, frame);
}

/// The frame layout is a wire format: these bytes were captured before
/// `Value::Str` became reference-counted and must never move.
#[test]
fn rows_frame_bytes_are_golden() {
    let frame = Frame::Rows {
        rows: vec![Tuple::new(vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::from(""),
            Value::from("snake \u{1F40D} river"),
        ])],
    };
    let bytes = frame.encode();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "360000008301000000050000000001d6ffffffffffffff0200000000000004400300000000\
         0310000000736e616b6520f09f908d207269766572"
    );
    assert_eq!(Frame::decode(&bytes).unwrap(), (frame, bytes.len()));
}

#[test]
fn pending_value_is_unencodable() {
    let frame = Frame::Rows {
        rows: vec![Tuple::new(vec![Value::Pending(Placeholder {
            call: CallId(1),
            col: PendingCol::Count,
        })])],
    };
    assert!(frame.try_encode().is_err());
}

#[test]
fn error_codes_round_trip() {
    let cases = vec![
        WsqError::Io("x".into()),
        WsqError::Storage("x".into()),
        WsqError::Catalog("x".into()),
        WsqError::Parse("x".into()),
        WsqError::Plan("x".into()),
        WsqError::Exec("x".into()),
        WsqError::Search("x".into()),
        WsqError::PumpShutdown,
        WsqError::Type("x".into()),
        WsqError::Other("x".into()),
    ];
    for e in cases {
        let code = error_code(&e);
        let back = error_from_wire(code, format!("{e}"));
        assert_eq!(error_code(&back), code, "code {code} unstable");
    }
    // Unknown (future) codes degrade to Other rather than failing.
    assert!(matches!(
        error_from_wire(999, "future".into()),
        WsqError::Other(_)
    ));
}

#[test]
fn framed_transport_round_trips_a_conversation() {
    let frames = vec![
        Frame::Hello {
            version: PROTOCOL_VERSION,
            client: "test".to_string(),
        },
        Frame::Metrics {
            format: MetricsFormat::Json,
        },
        Frame::Ping,
        Frame::Done { rows: 3 },
    ];
    let mut wire = Vec::new();
    for f in &frames {
        write_frame(&mut wire, f).unwrap();
    }
    let mut stream = Cursor::new(wire);
    for f in &frames {
        assert_eq!(read_frame(&mut stream).unwrap().as_ref(), Some(f));
    }
    // Clean EOF at a frame boundary is `None`, not an error.
    assert!(read_frame(&mut stream).unwrap().is_none());
}

#[test]
fn eof_mid_frame_is_an_error() {
    let bytes = Frame::Ping.encode();
    let mut stream = Cursor::new(&bytes[..bytes.len() - 1]);
    assert!(read_frame(&mut stream).is_err());
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocating() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
    wire.push(0x07);
    let mut stream = Cursor::new(wire);
    let err = read_frame(&mut stream).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn hostile_count_cannot_force_huge_allocation() {
    // A Rows payload announcing u32::MAX rows with no bytes behind it
    // must fail as Truncated, not attempt a giant Vec::with_capacity.
    let mut payload = vec![0x83];
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(Frame::decode_payload(&payload).is_err());
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = Frame::Ping.encode();
    // Grow the payload by one byte and fix the length prefix.
    bytes.push(0xFF);
    let len = (bytes.len() - 4) as u32;
    bytes[..4].copy_from_slice(&len.to_le_bytes());
    assert!(Frame::decode(&bytes).is_err());
}
