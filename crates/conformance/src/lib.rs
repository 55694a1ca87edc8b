//! # conformance — scenario DSL, differential oracle, fault injection
//!
//! The test harness that drives every other crate end to end:
//!
//! - [`scenario`]: a deterministic scenario DSL — flows, rates,
//!   packet-size distributions, FC/EBF server profiles, and a
//!   fault-injection schedule — generated from `(preset, seed)` and
//!   replayable from a single printed line,
//! - [`exec`]: single-server runs with timed force-remove / revive
//!   faults, on the one single-server loop
//!   (`servers::run_server_faulted`),
//! - [`faults`]: droop materialization and exact effective-δ
//!   recomputation, so analytical bounds stay theorems under faults,
//! - [`diff`]: the differential oracle — two schedulers (or a
//!   scheduler against an `analysis` bound) on identical inputs, first
//!   divergence rendered as a minimized observer-event trace,
//! - [`e2e`]: Theorem 6 / Corollary 1 conformance over tandems of FC
//!   servers (`graph::GraphSpec::chain` with hop-local cross flows)
//!   with injected capacity droop, flow churn, and buffer-cap drops —
//!   built and evaluated by the same helpers as [`graph`],
//! - [`engine`]: sharded-engine conformance — one seeded API call
//!   schedule replayed on `sfq_engine::SyncEngine` and judged by a
//!   hand-driven bare `Sfq` (one shard), plus conservation and
//!   per-flow order; also hosts
//!   the one schedule executor (`engine::replay`) that `chaos` and
//!   `telemetry` share,
//! - [`fast`]: fixed-point fast-path differential — quantization-safe
//!   workloads replayed against `SfqFast`/`ScfqFast` and their exact
//!   rational counterparts, requiring bit-identical departures,
//! - [`pool`]: pooled-backend differential — churn-heavy workloads
//!   replayed on the slab-pooled `FlowFifos` backend against the owned
//!   oracle backend, requiring bit-identical departures for all four
//!   schedulers,
//! - [`chaos`]: live-reconfiguration conformance — seeded `SetWeight`
//!   reconfigurations mid-backlog, checking no-op tag-rewrite
//!   bit-identity against the unreconfigured schedule, exact packet
//!   conservation (`offered == departed + refused`) and per-flow order
//!   under the real weight changes, and Theorem 1 reconvergence after
//!   a mid-backlog weight change,
//! - [`telemetry`]: telemetry-plane conformance — seeded operational
//!   schedules (ingest chunks, pumps, partial drains, flow churn)
//!   replayed on an engine with counter pages attached, checking
//!   snapshot-vs-ledger conservation as read purely from the pages,
//!   and the seqlock protocol under a reader thread snapshotting
//!   beside the driving thread,
//! - [`graph`]: forwarding-graph conformance — a multi-port chain with
//!   shared intermediate ports and ingress policers, checked for
//!   Theorem 6 along every path, Corollary 1 for the shaped observed
//!   flow, Theorem 1 fairness at every port, full packet accounting on
//!   engine ports, and exact packet-arena book balance.
//!
//! Every failure anywhere in the harness prints
//! `conformance replay: preset=<p> seed=<s>`; feeding that line to
//! [`Scenario::from_replay_line`] reproduces the exact run.

#![warn(missing_docs)]

pub mod chaos;
pub mod diff;
pub mod e2e;
pub mod engine;
pub mod exec;
pub mod fast;
pub mod faults;
pub mod graph;
pub mod pool;
pub mod scenario;
pub mod soak;
pub mod telemetry;

pub use chaos::{run_chaos_conformance, ChaosOutcome, CHAOS_DOMAIN};
pub use diff::{
    check_against_bound, diff_schedulers, first_divergence, BoundCheck, DiffReport, SchedKind,
};
pub use e2e::{run_tandem_conformance, E2eOutcome};
pub use engine::{run_engine_conformance, EngineOutcome};
pub use exec::{
    faults_from, materialize_packets, register_flows, run_faulted, run_faulted_checked, ExecReport,
    FaultAction, TimedFault,
};
pub use fast::{run_fast_conformance, FastOutcome};
pub use faults::{effective_delta_bits, hop_profile};
pub use graph::{embed_survivors, run_graph_conformance, run_graph_oracle, GraphOutcome};
pub use pool::{run_pool_conformance, PoolOutcome};
pub use scenario::{
    other_lmax_at, Churn, Droop, DropKind, FlowSpec, Preset, Scenario, ServerSpec, SizeDist,
    SourceKind, OBSERVED_FLOW,
};
pub use soak::{drop_policy_of, run_soak, SoakOutcome};
pub use telemetry::{run_telemetry_conformance, TelemetryOutcome, SNAP_BUDGET, TELEMETRY_DOMAIN};
