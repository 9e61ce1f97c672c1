//! Gate fixture: every public function below breaks one invariant on
//! purpose, and `undocumented` breaks doc coverage.

// The header every panic-gated crate carries.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::time::{Instant, SystemTime};

pub mod undocumented;

/// Determinism: reads the wall clock.
pub fn monotonic_nanos() -> u128 {
    Instant::now().elapsed().as_nanos()
}

/// Determinism: reads the system clock.
pub fn after_epoch() -> bool {
    SystemTime::now() > SystemTime::UNIX_EPOCH
}

/// Raw threading: spawns a detached OS thread.
pub fn spawn_raw() -> bool {
    std::thread::spawn(|| ()).join().is_ok()
}

/// Raw threading: opens a thread scope.
pub fn scope_raw() {
    std::thread::scope(|_| ());
}

/// Raw threading: spawns through a thread builder.
pub fn builder_raw() -> bool {
    std::thread::Builder::new().spawn(|| ()).is_ok()
}

/// Panic-freedom: `.unwrap()`.
pub fn first(values: &[u8]) -> u8 {
    *values.first().unwrap()
}

/// Panic-freedom: `.expect(..)`.
pub fn last(values: &[u8]) -> u8 {
    *values.last().expect("non-empty")
}

/// Panic-freedom: `panic!`.
pub fn fail() {
    panic!("gate fixture");
}

/// NaN safety: a `partial_cmp` comparator that panics on NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

/// NaN safety: equality against a float literal.
pub fn is_half(x: f64) -> bool {
    x == 0.5
}
