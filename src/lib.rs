//! # WSQ/DSQ
//!
//! A Rust implementation of *WSQ/DSQ: A Practical Approach for Combined
//! Querying of Databases and the Web* (Goldman & Widom, SIGMOD 2000).
//!
//! This umbrella crate re-exports the whole workspace. Most users want
//! [`wsq_core::Wsq`]:
//!
//! ```no_run
//! use wsqdsq::prelude::*;
//!
//! let mut wsq = Wsq::open_in_memory(WsqConfig::default()).unwrap();
//! wsq.execute("CREATE TABLE States (Name VARCHAR(32), Population INT, Capital VARCHAR(32))").unwrap();
//! ```

pub use wsq_common as common;
pub use wsq_core as core;
pub use wsq_engine as engine;
pub use wsq_pump as pump;
pub use wsq_sql as sql;
pub use wsq_storage as storage;
pub use wsq_websim as websim;

/// Convenience re-exports covering the common entry points.
pub mod prelude {
    pub use wsq_common::{DataType, Schema, Tuple, Value};
    pub use wsq_core::{
        DsqExplorer, ExecutionMode, PlacementStrategy, QueryOptions, QueryResult, StatementResult,
        Wsq, WsqConfig,
    };
    pub use wsq_pump::{PumpConfig, ReqPump};
    pub use wsq_websim::{CacheConfig, CacheStats, CorpusConfig, EngineKind, LatencyModel, SimWeb};
}
