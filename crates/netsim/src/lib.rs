//! # netsim — network components
//!
//! The building blocks of the reproduction's replacement for the REAL
//! simulator used in the paper's Figure 1 experiment. This crate holds
//! components only; the executor that wires them into topologies and
//! drives them from one event queue is `graph::Graph`.
//!
//! - [`SwitchCore`]: an output-queued switch port with a strict-
//!   priority class and a pluggable [`sfq_core::Scheduler`], buffer
//!   caps and [`DropPolicy`] overflow responses,
//! - [`TcpSender`] / [`TcpReceiver`]: a compact TCP Reno model (slow
//!   start, congestion avoidance, fast retransmit/recovery, adaptive
//!   RTO) as pure state machines — `Graph::add_tcp_source` closes the
//!   loop through a topology.

#![warn(missing_docs)]
// Panic-free outside tests, like `sfq-core` (docs/robustness.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod switch;
mod tcp;

pub use switch::{DropPolicy, SwitchCore};
pub use tcp::{TcpConfig, TcpReceiver, TcpSender};
