//! The ANUBIS Selector (paper Section 3.3).
//!
//! The Selector decides *when* to validate and *which* benchmark subset to
//! run:
//!
//! - [`status`]: node status covariates (uptime, incident history, MTBI per
//!   category) — the survival models' feature vector;
//! - [`survival`]: the survival-model interface, the three exponential
//!   baselines from Table 3, and the TBNI accuracy metric;
//! - [`coxtime`]: the Cox-Time model (Kvamme et al.) — an MLP relative-risk
//!   function `g(t, x)` trained with a case-control partial likelihood plus
//!   a Breslow baseline hazard;
//! - [`coverage`]: historical defect-coverage bookkeeping per benchmark;
//! - [`select`]: Algorithm 1 — greedy Δp/t benchmark selection, with a
//!   lazy-greedy (CELF) fast path over coverage bitmasks that provably
//!   returns the eager scan's exact sequence.

// Panic-freedom: this crate runs in the fleet-facing validation path, so
// clippy (`-D warnings` in CI) rejects unwrap/expect/panic outside tests.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod coverage;
pub mod coxtime;
pub mod select;
pub mod status;
pub mod survival;

pub use coverage::CoverageTable;
pub use coxtime::{warmstart_merge_into, CoxTimeConfig, CoxTimeModel, CoxTimeTrainer};
pub use select::{
    celf_core, select_benchmarks, select_benchmarks_celf, select_benchmarks_eager, CelfScratch,
    CoverageMasks, Selector, SelectorConfig,
};
pub use status::NodeStatus;
pub use survival::{
    concordance_index, model_accuracy, ExponentialModel, ExponentialPerCountModel,
    ExponentialPerHourModel, SurvivalModel, SurvivalSample, TBNI_CAP_HOURS,
};
