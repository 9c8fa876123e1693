//! Shared foundation types for the WSQ/DSQ workspace.
//!
//! This crate defines the value model ([`Value`], [`DataType`]), the tuple
//! and schema representations used throughout the query engine, the
//! *placeholder* machinery that asynchronous iteration relies on
//! ([`Placeholder`], [`CallId`], [`PendingCol`]), and the workspace-wide
//! error type [`WsqError`].
//!
//! Placeholders are the heart of the paper's Section 4.1: during
//! asynchronous iteration, an `AEVScan` returns tuples whose
//! externally-supplied attribute values are [`Value::Pending`] markers that
//! (a) flag the tuple as incomplete and (b) name the pending `ReqPump` call
//! that will eventually supply the real value.

pub mod error;
pub mod idhash;
pub mod schema;
pub mod tuple;
pub mod value;

pub use error::{Result, WsqError};
pub use idhash::{IdHasher, IdMap};
pub use schema::{with_ascii_lowercase, Column, Schema};
pub use tuple::Tuple;
pub use value::{CallId, DataType, GroupKey, PendingCol, Placeholder, Value};
