//! # traffic — workload generators for the SFQ reproduction
//!
//! - [`CbrSource`], [`PoissonSource`], [`OnOffSource`]: the standard
//!   arrival processes used across the paper's experiments,
//! - [`ScriptSource`]: explicit arrival lists for the worked examples,
//! - [`VbrVideoSource`]: synthetic multi-timescale MPEG VBR video
//!   (documented substitute for the paper's *Frasier* trace),
//! - [`ParetoOnOffSource`]: heavy-tailed on-off traffic (the
//!   long-range-dependent stress case),
//! - [`LeakyBucket`]: (σ, ρ) shaping and exact conformance checking.
//!
//! All sources are deterministic given a seed and quantize random times
//! to nanoseconds, keeping downstream arithmetic exact.

#![warn(missing_docs)]
// Panic-free outside tests, like `sfq-core` (docs/robustness.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod leaky;
mod pareto;
mod sources;
mod vbr;

pub use leaky::LeakyBucket;
pub use pareto::ParetoOnOffSource;
pub use sources::{
    arrivals_until, merge, to_packets, CbrSource, OnOffSource, PoissonSource, ScriptSource, Source,
};
pub use vbr::VbrVideoSource;
