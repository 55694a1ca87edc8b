//! # servers — constant, Fluctuation Constrained, and EBF server models
//!
//! A server is a piecewise-constant [`RateProfile`] plus a
//! work-conserving drain loop ([`run_server`]). The FC (Definition 1)
//! and EBF (Definition 2) builders produce profiles that provably /
//! statistically satisfy their definitions, and exact validators
//! ([`max_interval_deficit_bits`], [`ebf_tail_estimate`]) let property
//! tests confirm it.

#![warn(missing_docs)]
// Panic-free outside tests, like `sfq-core` (docs/robustness.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod fc;
mod profile;
mod run;

pub use fc::{
    ebf_catch_up, ebf_tail_estimate, fc_on_off, max_interval_deficit_bits, EbfParams, FcParams,
};
pub use profile::{RateProfile, Segment};
pub use run::{
    run_server, run_server_by, run_server_faulted, Departure, ExecReport, FaultAction, TimedFault,
};
