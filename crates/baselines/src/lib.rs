//! # baselines — every comparator discipline the SFQ paper discusses
//!
//! - [`Wfq`]: Weighted Fair Queuing / PGPS with an exact GPS fluid
//!   simulation for `v(t)` (Eqs. 1–3),
//! - [`Fqs`]: Fair Queuing based on Start-time (GPS tags, start-tag
//!   order),
//! - [`Scfq`]: Self-Clocked Fair Queuing — the finish-clock
//!   instantiation of `sfq_core::TagSched`, re-exported here beside its
//!   fellow comparators,
//! - [`VirtualClock`]: Zhang's Virtual Clock (unfair real-time
//!   baseline; also the GSQ inside Fair Airport),
//! - [`Drr`]: Deficit Round Robin,
//! - [`DelayEdd`]: Delay Earliest-Due-Date (Eq. 66 / Theorem 7),
//! - [`Fifo`]: the null discipline.
//!
//! All implement `sfq_core::Scheduler`, so the servers, network
//! simulator, benches, and analysis treat them interchangeably with SFQ.

#![warn(missing_docs)]
// Non-test code must stay panic-free on fallible paths: route failures
// through `sfq_core::SchedError` instead (see docs/robustness.md). Unit
// tests may unwrap freely — the cfg_attr drops the lint under
// `cfg(test)`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod drr;
mod edd;
mod fifo;
mod gps;
mod vc;
mod wfq;

pub use drr::{drr_quantum, Drr};
pub use edd::DelayEdd;
pub use fifo::Fifo;
pub use gps::GpsClock;
pub use sfq_core::Scfq;
pub use vc::VirtualClock;
pub use wfq::{Fqs, Wfq};
