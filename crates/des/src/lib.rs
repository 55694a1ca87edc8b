//! # des — deterministic discrete-event simulation engine
//!
//! The substrate every experiment runs on:
//!
//! - [`EventQueue`]: exact-time event queue with deterministic
//!   tie-breaking (schedule order) and a causality check,
//! - [`SimRng`]: seeded randomness whose durations are quantized to
//!   nanoseconds so they stay exact rationals downstream.
//!
//! The engine is intentionally synchronous and single-threaded: the
//! paper's results are statements about exact schedules, and an async
//! runtime or thread pool would only add nondeterminism (cf. the Tokio
//! guide's own advice on when not to use an async runtime).

#![warn(missing_docs)]
// Panic-free outside tests, like `sfq-core` (docs/robustness.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod queue;
mod rng;

pub use queue::EventQueue;
pub use rng::SimRng;
