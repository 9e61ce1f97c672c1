//! Verified node-lifecycle state machine (ROADMAP item 4).
//!
//! SuperBench's core promise is that proactive validation never makes the
//! fleet *less* reliable: nodes move healthy → suspect → validating →
//! quarantined → repaired without deadlocking capacity or skipping a
//! crossed risk threshold. This crate makes that loop explicit and
//! auditable:
//!
//! - [`machine`] defines [`NodeState`], [`LifecycleEvent`], and the
//!   **single** [`transition`] function every state change in the
//!   workspace must route through. The `A005` analysis pass
//!   (`cargo xtask analyze`) rejects any other crate that constructs or
//!   mutates a `NodeState` directly.
//! - [`table`] holds a whole fleet's states in one flat table, with
//!   incremental per-state counts and an optional transition journal.
//!   `anubis-fleetd`'s coordinator keeps its decision state there, and
//!   `cargo xtask modelcheck` checks that coordinator's liveness and
//!   safety properties by driving its real tick phases.
//!
//! Outside this crate, code interrogates state through the predicate
//! methods ([`NodeState::is_healthy`] and friends) and changes it through
//! [`NodeLifecycle::apply`]; naming a `NodeState` variant anywhere else is
//! an A005 finding.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod machine;
pub mod table;

pub use machine::{transition, LifecycleEvent, NodeLifecycle, NodeState, TransitionError};
pub use table::{LifecycleTable, StateCounts, TransitionRecord};
