//! # sfq-repro — reproduction of *Start-time Fair Queuing* (SIGCOMM '96)
//!
//! Umbrella crate re-exporting the whole workspace:
//!
//! - [`core`]: SFQ, hierarchical SFQ, Fair Airport, and the
//!   shared [`sfq_core::Scheduler`] trait,
//! - [`baselines`]: WFQ/PGPS, FQS, SCFQ, Virtual Clock, DRR, Delay EDD,
//!   FIFO,
//! - [`servers`]: constant / Fluctuation Constrained / EBF rate
//!   profiles and the exact single-server harness,
//! - [`traffic`]: CBR, Poisson, on-off, scripted, leaky-bucket, and
//!   synthetic MPEG VBR sources,
//! - [`netsim`]: the network components — the output-queued switch
//!   port and the TCP Reno endpoints,
//! - [`graph`]: the forwarding-graph executor every topology runs on —
//!   the Figure 1 TCP bottleneck, the Section 2.4 tandem, routed
//!   meshes with MTU fragmentation,
//! - [`analysis`]: fairness/delay metrics and the paper's analytic
//!   bounds,
//! - [`obs`]: scheduler observability — event tracing and per-flow
//!   metrics attachable to any scheduler,
//! - [`des`] / [`simtime`]: the deterministic event engine and exact
//!   arithmetic substrate.
//!
//! ## Quickstart
//!
//! ```
//! use sfq_repro::prelude::*;
//!
//! // Two flows, 2:1 weights, both backlogged on a 1 Mb/s link.
//! let mut sched = Sfq::new();
//! sched.add_flow(FlowId(1), Rate::kbps(200));
//! sched.add_flow(FlowId(2), Rate::kbps(100));
//! let mut pf = PacketFactory::new();
//! let mut arrivals = Vec::new();
//! for _ in 0..300 {
//!     arrivals.push(pf.make(FlowId(1), Bytes::new(500), SimTime::ZERO));
//!     arrivals.push(pf.make(FlowId(2), Bytes::new(500), SimTime::ZERO));
//! }
//! let link = RateProfile::constant(Rate::mbps(1));
//! let deps = run_server(&mut sched, &link, &arrivals, SimTime::from_secs(2));
//!
//! // Theorem 1: the normalized service gap never exceeds
//! // l1/r1 + l2/r2.
//! let gap = max_fairness_gap(
//!     &deps,
//!     FlowId(1), Rate::kbps(200),
//!     FlowId(2), Rate::kbps(100),
//!     SimTime::ZERO, SimTime::from_secs(1),
//! );
//! let bound = sfq_fairness_bound(
//!     Bytes::new(500), Rate::kbps(200),
//!     Bytes::new(500), Rate::kbps(100),
//! );
//! assert!(gap <= bound);
//! ```

#![warn(missing_docs)]

pub mod scenario;

pub use analysis;
pub use baselines;
pub use des;
pub use graph;
pub use netsim;
pub use servers;
pub use sfq_core as core;
pub use sfq_obs as obs;
pub use simtime;
pub use traffic;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use analysis::{
        max_fairness_gap, max_guarantee_violation, packet_delays, packets_by, sfq_fairness_bound,
        throughput_bps, work_in_interval, DelaySummary,
    };
    pub use baselines::{DelayEdd, Drr, Fifo, Fqs, Scfq, VirtualClock, Wfq};
    pub use des::SimRng;
    pub use graph::{Graph, GraphReport, GraphSpec, PortKind, PortSpec};
    pub use netsim::{SwitchCore, TcpConfig};
    pub use servers::{fc_on_off, run_server, Departure, FcParams, RateProfile, Segment};
    pub use sfq_core::{
        Backpressure, ClassId, FairAirport, FifoBackend, FlowId, FlowMap, HierSfq, NoopObserver,
        Packet, PacketFactory, PoolStats, ScfqFast, SchedError, SchedEvent, SchedObserver,
        Scheduler, Sfq, SfqFast, TieBreak,
    };
    pub use sfq_obs::{CountingObserver, FlowMetrics, RingTracer};
    pub use simtime::{Bytes, Rate, Ratio, SimDuration, SimTime};
    pub use traffic::{
        arrivals_until, merge, to_packets, CbrSource, LeakyBucket, OnOffSource, PoissonSource,
        ScriptSource, Source, VbrVideoSource,
    };
}
