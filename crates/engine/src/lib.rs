//! The WSQ query engine: catalog, planner, Volcano executors, and the
//! paper's asynchronous-iteration machinery (`AEVScan`, `ReqSync`, plan
//! transformation).
//!
//! The crate mirrors the architecture of the paper's prototype (Redbase +
//! WSQ extensions):
//!
//! * [`catalog`] — `relcat`/`attrcat`-style system catalog.
//! * [`builder`] — AST → physical plan, with virtual-table binding
//!   analysis (§3).
//! * [`plan`] — the physical plan tree, including [`plan::EvSpec`] (the
//!   `WebCount`/`WebPages` scan specification) and EXPLAIN rendering.
//! * [`mod@asyncify`] — ReqSync Insertion / Percolation / Consolidation
//!   (§4.5).
//! * [`exec`] — iterator-model executors, including the dependent join,
//!   `EVScan`/`AEVScan`, and `ReqSync` (§4.1–§4.4).
//! * [`db`] — the database driver ([`db::Database`]).
//! * [`engines`] — the search-engine registry.

pub mod asyncify;
pub mod builder;
pub mod catalog;
pub mod cost;
pub mod db;
pub mod engines;
pub mod exec;
pub mod expr;
pub mod plan;
pub mod verify_gate;

pub use asyncify::asyncify;
pub use builder::{parse_virtual_name, plan_select, DEFAULT_RANK_LIMIT};
pub use cost::{estimate, CostEstimate, CostParams};
pub use db::{Database, QueryOptions, QueryResult, StatementResult};
pub use engines::{EngineEntry, EngineRegistry};
pub use plan::{ExecutionMode, PhysPlan, PlacementStrategy};
