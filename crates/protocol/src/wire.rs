//! Low-level wire primitives: a bounds-checked byte reader, a byte
//! writer, and the encodings shared by several frame types (values,
//! columns, schemas, tuples, error codes).
//!
//! Every multi-byte integer on the wire is little-endian.  Strings are
//! a `u32` byte length followed by UTF-8 bytes.  The decoder never
//! panics: every read is bounds-checked and every allocation is capped
//! by the number of bytes actually remaining in the payload.

use wsq_common::{Column, DataType, Schema, Tuple, Value, WsqError};

/// A structural error while decoding a frame payload.
///
/// `DecodeError` means the *bytes* were malformed (truncated payload,
/// unknown tag, invalid UTF-8) — as opposed to [`crate::Frame::Error`],
/// which is a well-formed frame carrying a
/// server-side [`WsqError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the announced structure was complete.
    Truncated,
    /// The frame tag byte is not one the protocol defines.
    UnknownTag(u8),
    /// A value tag byte is not one the protocol defines.
    UnknownValueTag(u8),
    /// A string field did not contain valid UTF-8.
    InvalidUtf8,
    /// Bytes were left over after the announced structure was complete.
    TrailingBytes(usize),
    /// A `Value::Pending` placeholder was asked to cross the wire.
    ///
    /// Pending values are an engine-internal artifact of asynchronous
    /// iteration (DESIGN.md §5) and must be patched out by ReqSync
    /// before a tuple reaches a result stream; meeting one here is a
    /// server bug, not a client error.
    PendingValue,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame payload truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown frame tag 0x{t:02X}"),
            DecodeError::UnknownValueTag(t) => write!(f, "unknown value tag 0x{t:02X}"),
            DecodeError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after frame payload"),
            DecodeError::PendingValue => {
                write!(f, "Value::Pending must never cross the wire")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for WsqError {
    fn from(e: DecodeError) -> Self {
        WsqError::Io(format!("protocol decode: {e}"))
    }
}

// ---------------------------------------------------------------------
// Reader / writer
// ---------------------------------------------------------------------

/// Bounds-checked cursor over a frame payload.  All `read_*` methods
/// return [`DecodeError::Truncated`] instead of panicking when the
/// payload is shorter than the announced structure.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail with `TrailingBytes` unless the payload is fully consumed.
    pub(crate) fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn read_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn read_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn read_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn read_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.read_u64()? as i64)
    }

    pub(crate) fn read_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// A length-prefixed string, borrowed from the payload: the caller
    /// makes the one allocation, in the representation it keeps.
    pub(crate) fn read_str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.read_u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| DecodeError::InvalidUtf8)
    }

    pub(crate) fn read_string(&mut self) -> Result<String, DecodeError> {
        Ok(self.read_str()?.to_string())
    }

    pub(crate) fn read_opt_string(&mut self) -> Result<Option<String>, DecodeError> {
        match self.read_u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.read_string()?)),
        }
    }

    /// Read a `u32` element count, capped by the bytes actually
    /// remaining so a hostile length can never trigger a huge
    /// allocation: each element of any wire collection occupies at
    /// least one byte, so `count > remaining` is always `Truncated`.
    pub(crate) fn read_count(&mut self) -> Result<usize, DecodeError> {
        let n = self.read_u32()? as usize;
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }
}

/// Growable little-endian byte writer; the exact inverse of [`Reader`].
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    pub(crate) fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub(crate) fn put_string(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn put_opt_string(&mut self, s: Option<&str>) {
        match s {
            None => self.put_u8(0),
            Some(s) => {
                self.put_u8(1);
                self.put_string(s);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shared encodings: values, columns, schemas, tuples
// ---------------------------------------------------------------------

const VALUE_NULL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_FLOAT: u8 = 2;
const VALUE_STR: u8 = 3;

pub(crate) fn put_value(w: &mut Writer, v: &Value) -> Result<(), DecodeError> {
    match v {
        Value::Null => w.put_u8(VALUE_NULL),
        Value::Int(i) => {
            w.put_u8(VALUE_INT);
            w.put_i64(*i);
        }
        Value::Float(f) => {
            w.put_u8(VALUE_FLOAT);
            w.put_f64(*f);
        }
        Value::Str(s) => {
            w.put_u8(VALUE_STR);
            w.put_string(s);
        }
        Value::Pending(_) => return Err(DecodeError::PendingValue),
    }
    Ok(())
}

pub(crate) fn read_value(r: &mut Reader<'_>) -> Result<Value, DecodeError> {
    match r.read_u8()? {
        VALUE_NULL => Ok(Value::Null),
        VALUE_INT => Ok(Value::Int(r.read_i64()?)),
        VALUE_FLOAT => Ok(Value::Float(r.read_f64()?)),
        VALUE_STR => Ok(Value::from(r.read_str()?)),
        t => Err(DecodeError::UnknownValueTag(t)),
    }
}

fn dtype_code(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Varchar => 2,
    }
}

fn dtype_from(code: u8) -> Result<DataType, DecodeError> {
    match code {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Varchar),
        t => Err(DecodeError::UnknownValueTag(t)),
    }
}

pub(crate) fn put_schema(w: &mut Writer, schema: &Schema) {
    w.put_u32(schema.columns().len() as u32);
    for c in schema.columns() {
        w.put_opt_string(c.qualifier.as_deref());
        w.put_string(&c.name);
        w.put_u8(dtype_code(c.dtype));
    }
}

pub(crate) fn read_schema(r: &mut Reader<'_>) -> Result<Schema, DecodeError> {
    let n = r.read_count()?;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let qualifier = r.read_opt_string()?;
        let name = r.read_string()?;
        let dtype = dtype_from(r.read_u8()?)?;
        cols.push(Column {
            qualifier: qualifier.map(Into::into),
            name: name.into(),
            dtype,
        });
    }
    Ok(Schema::new(cols))
}

pub(crate) fn put_rows(w: &mut Writer, rows: &[Tuple]) -> Result<(), DecodeError> {
    w.put_u32(rows.len() as u32);
    for t in rows {
        w.put_u32(t.values().len() as u32);
        for v in t.values() {
            put_value(w, v)?;
        }
    }
    Ok(())
}

pub(crate) fn read_rows(r: &mut Reader<'_>) -> Result<Vec<Tuple>, DecodeError> {
    let n = r.read_count()?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let width = r.read_count()?;
        let mut values = Vec::with_capacity(width);
        for _ in 0..width {
            values.push(read_value(r)?);
        }
        rows.push(Tuple::new(values));
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------

/// Map a [`WsqError`] to its stable wire code.
///
/// Codes are part of the protocol (DESIGN.md §15) and must never be
/// renumbered; new variants append.
pub fn error_code(e: &WsqError) -> u16 {
    match e {
        WsqError::Io(_) => 1,
        WsqError::Storage(_) => 2,
        WsqError::Catalog(_) => 3,
        WsqError::Parse(_) => 4,
        WsqError::Plan(_) => 5,
        WsqError::Exec(_) => 6,
        WsqError::Search(_) => 7,
        WsqError::PumpShutdown => 8,
        WsqError::Type(_) => 9,
        WsqError::Other(_) => 10,
    }
}

/// Rebuild a [`WsqError`] from a wire `(code, message)` pair.
///
/// Unknown codes (from a newer server) degrade to [`WsqError::Other`]
/// rather than failing, so old clients keep working across upgrades.
pub fn error_from_wire(code: u16, message: String) -> WsqError {
    match code {
        1 => WsqError::Io(message),
        2 => WsqError::Storage(message),
        3 => WsqError::Catalog(message),
        4 => WsqError::Parse(message),
        5 => WsqError::Plan(message),
        6 => WsqError::Exec(message),
        7 => WsqError::Search(message),
        8 => WsqError::PumpShutdown,
        9 => WsqError::Type(message),
        _ => WsqError::Other(message),
    }
}
