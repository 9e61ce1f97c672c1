//! Workspace tooling behind `cargo xtask` (subcommands in `main.rs`).
//!
//! Each workspace invariant has one enforcer. Clippy holds the
//! type-resolved ones: the root `clippy.toml` bans wall-clock types and raw
//! threads, and the gated crates' `lib.rs` headers deny `unwrap`/`expect`/
//! `panic!`. This crate holds the rest: the call-graph passes of
//! [`passes`] (A001–A009) behind `analyze`, next to the model checker
//! over fleetd's coordinator ([`modelcheck`]), the trace profiler ([`profile`]) and the
//! perf-regression gate ([`perf`]).

pub mod callgraph;
pub mod dataflow;
pub mod json;
pub mod mask;
pub mod model;
pub mod modelcheck;
pub mod passes;
pub mod perf;
pub mod profile;
pub mod report;
pub mod spans;
pub mod walk;
