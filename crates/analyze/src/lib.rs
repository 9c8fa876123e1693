#![deny(missing_docs)]

//! Static analysis for WSQ/DSQ.
//!
//! Three machine-checked safety nets over the paper's correctness story:
//!
//! - [`verify()`] / [`verify_async`] ([`mod@verify`]): a bottom-up
//!   abstract interpretation over [`PhysPlan`] computing the
//!   may-be-placeholder attribute set at every operator, rejecting plans
//!   that violate the clash rules of §4.5.2 or the structural invariants
//!   of ReqSync placement — and, via [`verify::verify_bounds`], a
//!   resource-bound pass proving the symbolic peak of ReqSync
//!   buffering (and so of in-flight calls) stays within the caps stamped
//!   at plan time. Installed as a debug-assert gate after
//!   `asyncify` via [`install_plan_gate`].
//! - `models` (tests only): deterministic-schedule (loom-style) models of
//!   the obs trace ring, whose atomics the in-tree `schedcheck` checker
//!   cannot reach in the product; the ReqPump is checked as itself, in
//!   `wsq-pump`'s `tests/schedcheck.rs`.
//! - [`lint`]: source-level lints (panic-site burn-down budget) behind
//!   `cargo xtask lint`.
//!
//! The [`mutate`] module seeds plan corruptions so the test suite can
//! prove the verifier rejects each class of invalid plan. Lock order and
//! guards held across a call out are not analysed here: the lock shim
//! checks them at run time in every debug build (DESIGN.md §13).

pub mod lint;
#[cfg(test)]
mod models;
pub mod mutate;
pub mod verify;

pub use mutate::{apply as apply_mutation, Mutation, ALL_MUTATIONS};
pub use verify::{
    verify, verify_async, verify_bounds, Bound, Bounds, Report, Rule, VerifyError, Violation,
};

use wsq_engine::plan::PhysPlan;

/// Install [`verify_async`] + [`verify_bounds`] as the engine's
/// post-`asyncify` plan gate (checked in debug builds only — see
/// `wsq_engine::verify_gate`). Idempotent; called by `Wsq::build`.
pub fn install_plan_gate() {
    wsq_engine::verify_gate::install(gate);
}

fn gate(plan: &PhysPlan, declared_cap: Option<usize>) -> Result<(), String> {
    verify_async(plan).map_err(|e| e.to_string())?;
    verify_bounds(plan, declared_cap).map_err(|e| e.to_string())?;
    Ok(())
}
