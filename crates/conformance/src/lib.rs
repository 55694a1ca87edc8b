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
//! - [`chaos`]: live-reconfiguration conformance — seeded `SetWeight`
//!   reconfigurations mid-backlog, checking no-op tag-rewrite
//!   bit-identity against the unreconfigured schedule, exact packet
//!   conservation (`offered == departed + refused`) and per-flow order
//!   under the real weight changes, and Theorem 1 reconvergence after
//!   a mid-backlog weight change,
//! - [`telemetry`]: telemetry-plane conformance — seeded operational
//!   schedules (ingest chunks, partial drains, flow churn)
//!   replayed on an engine with counter pages attached, checking
//!   snapshot-vs-ledger conservation as read purely from the pages,
//!   and the seqlock protocol under a reader thread snapshotting
//!   beside the driving thread,
//! - [`graph`]: forwarding-graph conformance — a multi-port chain with
//!   shared intermediate ports and ingress policers, checked for
//!   Theorem 6 along every path, Corollary 1 for the shaped observed
//!   flow, Theorem 1 fairness at every port, full packet accounting on
//!   engine ports, and exact packet-arena book balance,
//! - [`paper`]: the paper oracle — SFQ and SCFQ as the paper and the
//!   docs state them, over one ordered map of exact tags, sharing no
//!   code with `sfq_core`'s tag core or flow store,
//! - [`twin`]: the twin table — every "bit-identical to its twin"
//!   contract (tag schedulers ≡ the paper oracle, fixed ≡ exact, batch ≡ per packet,
//!   pages ≡ `CountingObserver`, a graph on engine ports built twice,
//!   boxed ≡ unboxed) as one row each, run by one generator, driver,
//!   recording observer and comparator.
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
pub mod faults;
pub mod graph;
pub mod paper;
pub mod scenario;
pub mod soak;
pub mod telemetry;
pub mod twin;

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
pub use faults::{effective_delta_bits, hop_profile};
pub use graph::{embed_survivors, run_graph_conformance, run_graph_oracle, GraphOutcome};
pub use scenario::{
    other_lmax_at, Churn, Droop, DropKind, FlowSpec, Preset, Scenario, ServerSpec, SizeDist,
    SourceKind, OBSERVED_FLOW,
};
pub use soak::{drop_policy_of, run_soak, SoakOutcome};
pub use telemetry::{run_telemetry_conformance, TelemetryOutcome, SNAP_BUDGET, TELEMETRY_DOMAIN};
pub use twin::{run_twin_conformance, TWIN_DOMAIN};

/// Seed walks over the twin table's fixed ≡ exact rows.
#[cfg(test)]
mod fast {
    mod tests {
        use crate::twin::{check_rows, Contract, Schedule};

        #[test]
        fn fast_matches_exact_on_seeded_scenarios() {
            for seed in [1u64, 7, 42] {
                let sc = Schedule::pinned(seed, |_| {});
                let compared = check_rows(&sc, Contract::Fixed, |_| true)
                    .unwrap_or_else(|d| panic!("seed {seed}:\n{d}"));
                assert!(compared > 0, "seed {seed} compared no call");
            }
        }
    }
}

/// Seed walks over the twin table's paper rows.
#[cfg(test)]
mod pool {
    mod tests {
        use crate::twin::{check_rows, Contract, Schedule};

        /// The name is older than the paper rows: the pooled store's
        /// reference was once its owned twin.
        #[test]
        fn pooled_matches_owned_on_seeded_scenarios() {
            for seed in [1u64, 7, 42] {
                let sc = Schedule::pinned(seed, |_| {});
                let compared = check_rows(&sc, Contract::Paper, |_| true)
                    .unwrap_or_else(|d| panic!("seed {seed}:\n{d}"));
                assert!(compared > 0, "seed {seed} compared no call");
            }
        }
    }
}
