//! Wire protocol for the WSQ client/server split.
//!
//! The protocol is deliberately small: every message is a single
//! length-prefixed *frame* — a little-endian `u32` payload length, a
//! one-byte tag, then a tag-specific payload (see [`Frame`] for the
//! per-tag byte layout).  There is no compression, no TLS and no
//! negotiation beyond a version byte in the handshake; the goal is a
//! codec simple enough to verify by hand and to fuzz exhaustively.
//!
//! Frames split into a client→server half (tags `0x01..=0x7F`) and a
//! server→client half (tags `0x81..=0xFF`).  A query executes as a
//! *result stream*:
//!
//! ```text
//! Query   -> Schema Rows* Done
//! Analyze -> Schema Rows* Footer Done
//! Execute -> (Schema Rows* Done | Affected)* ScriptDone
//! ```
//!
//! Any response position may instead carry an [`Frame::Error`], which
//! terminates the stream for that request.  Connections are strictly
//! request/response: the client never pipelines, so the server can
//! stream rows without flow-control frames.
//!
//! # Round-trip example
//!
//! Encoding is exact: `decode(encode(f)) == f` for every frame.
//!
//! ```
//! use wsq_protocol::Frame;
//!
//! let frame = Frame::Query { sql: "SELECT * FROM States".to_string() };
//! let bytes = frame.encode();
//! let (decoded, used) = Frame::decode(&bytes).unwrap();
//! assert_eq!(decoded, frame);
//! assert_eq!(used, bytes.len());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod frame;
mod io;
mod rowset;
mod wire;

pub use frame::{Frame, MetricsFormat, PROTOCOL_VERSION};
pub use io::{read_frame, read_frame_into, write_frame, MAX_FRAME};
pub use rowset::RowSet;
pub use wire::{error_code, error_from_wire, DecodeError};
