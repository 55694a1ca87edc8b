//! `sfqbench` — the repository's benchmark.
//!
//! One ruler for scheduler → engine → forwarding graph, measured from
//! outside by timing calls into the program's public functions. See
//! `README.md` for every metric, workload and the estimator.
//!
//! The modules the end-to-end binary uses ([`closed`], [`graph_path`],
//! [`run`]) lean on a deliberately narrow part of the program's API;
//! the per-layer probes ([`probes`], driven by [`traced`]) reach wider
//! and only the traced binary runs them.

#![warn(missing_docs)]

pub mod alloc;
pub mod closed;
pub mod compare;
pub mod graph_path;
pub mod inputs;
pub mod json;
pub mod probes;
pub mod run;
pub mod stats;
pub mod traced;
pub mod tracer;
pub mod verify;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
