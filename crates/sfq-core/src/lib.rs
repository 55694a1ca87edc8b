//! # sfq-core — Start-time Fair Queuing
//!
//! Reproduction of the scheduling algorithms contributed by
//! *Start-time Fair Queuing: A Scheduling Algorithm for Integrated
//! Services Packet Switching Networks* (Goyal, Vin, Cheng; SIGCOMM '96):
//!
//! - [`Sfq`]: the SFQ scheduler of Section 2, including the generalized
//!   per-packet variable-rate form (Eq. 36) and pluggable tie-breaking
//!   (Section 2.3) — one instantiation of [`TagSched`], the single
//!   tag-scheduler core whose other three are the fixed-point
//!   [`SfqFast`] and the SCFQ pair [`Scfq`] / [`ScfqFast`],
//! - [`HierSfq`]: the hierarchical link-sharing scheduler of Section 3,
//! - [`FairAirport`]: the Fair Airport combination of Appendix B,
//! - the [`Scheduler`] trait and [`Packet`] vocabulary shared with the
//!   baseline disciplines in the `baselines` crate.
//!
//! A scheduler is a pure data structure: its server (constant-rate,
//! Fluctuation Constrained, or EBF — see the `servers` crate) decides
//! *when* transmissions happen; the discipline decides *order*. Tag
//! arithmetic sits behind the [`TagArith`] seam: [`Exact`]
//! (`simtime::Ratio`) lets the paper's fairness and delay theorems be
//! verified as exact inequalities in the test suite, [`Fixed`] (u64
//! fixed point) is the production fast path proven against it
//! (docs/fixed_point.md). [`HierSfq`] and [`FairAirport`] are exact
//! only.
//!
//! Every scheduler is generic over an observer (see [`obs`]): the
//! default [`NoopObserver`] compiles away; the `sfq-obs` crate provides
//! tracing and metrics implementations.

#![warn(missing_docs)]
// Non-test code must stay panic-free on fallible paths: route failures
// through `SchedError` instead (see docs/robustness.md). Unit tests may
// unwrap freely — the cfg_attr drops the lint under `cfg(test)`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arith;
mod fair_airport;
pub mod fixed;
pub mod flowq;
mod headheap;
mod hier;
pub mod obs;
mod packet;
pub mod pool;
pub mod prefetch;
mod sched;
mod tagsched;

pub use arith::{Exact, TagArith, TieKey};
pub use fair_airport::{FairAirport, ServedVia};
pub use fixed::{Fixed, FixedInc, FixedTag, DEFAULT_SHIFT, ISM_SHIFT, MAX_REBASE_BITS, MAX_SHIFT};
pub use flowq::FifoBackend;
pub use hier::{ClassId, HierSfq};
pub use obs::{Backpressure, FlowChange, NoopObserver, SchedEvent, SchedObserver};
pub use packet::{FlowId, Packet, PacketFactory};
pub use pool::{FlowMap, PktPool, PktRef, PoolStats, SlabPool};
pub use sched::{ReconfigCmd, SchedError, Scheduler, TieBreak};
pub use tagsched::{FinishClock, Scfq, ScfqFast, Sfq, SfqFast, StartClock, TagSched, VtRule};
// Counter-page telemetry handle the schedulers accept via
// `attach_telemetry` (see the `sfq-telemetry` crate and
// docs/telemetry.md); re-exported so scheduler users need not name the
// telemetry crate for the common attach-and-read flow.
pub use sfq_telemetry::TelemetrySink;
