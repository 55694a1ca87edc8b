//! # baselines — every comparator discipline the SFQ paper discusses
//!
//! - [`Wfq`]: Weighted Fair Queuing / PGPS with an exact GPS fluid
//!   simulation for `v(t)` (Eqs. 1–3, [`GpsClock`]),
//! - [`Fqs`]: Fair Queuing based on Start-time (GPS tags, start-tag
//!   order),
//! - [`Scfq`]: Self-Clocked Fair Queuing,
//! - [`VirtualClock`]: Zhang's Virtual Clock (unfair real-time
//!   baseline; also the GSQ inside Fair Airport),
//! - [`Drr`]: Deficit Round Robin,
//! - [`DelayEdd`]: Delay Earliest-Due-Date (Eq. 66 / Theorem 7),
//! - [`Fifo`]: the null discipline.
//!
//! [`Wfq`], [`Fqs`], [`Scfq`], [`VirtualClock`] and [`DelayEdd`] are
//! rules of the one tag core, `sfq_core::TagSched` — WFQ and FQS its GPS
//! rules, SCFQ its finish clock, the other two its wall-clock rules —
//! re-exported here beside their fellow comparators; this crate keeps
//! only the two disciplines that stamp no tags, [`Drr`] and [`Fifo`].
//! All implement `sfq_core::Scheduler`, so the servers, network
//! simulator, benches, and analysis treat them interchangeably with SFQ.

#![warn(missing_docs)]
// Non-test code must stay panic-free on fallible paths: route failures
// through `sfq_core::SchedError` instead (see docs/robustness.md). Unit
// tests may unwrap freely — the cfg_attr drops the lint under
// `cfg(test)`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod drr;
mod fifo;
mod wfq;

pub use drr::{drr_quantum, Drr};
pub use fifo::Fifo;
pub use sfq_core::{DelayEdd, Fqs, GpsClock, Scfq, VirtualClock, Wfq};
