//! # analysis — fairness/delay metrics and the paper's analytic bounds
//!
//! Four layers:
//!
//! - [`fairness`]: measure `W_f(t1,t2)`, normalized service curves, and
//!   the empirical fairness gap from exact departure schedules,
//! - [`bounds`]: exact-rational transcriptions of Theorems 1–4, Eqs.
//!   56–60, 65, 67, 73, and the Corollary 1 / A.5 end-to-end bound,
//! - [`delay`]: per-packet delay statistics and EAT-based guarantee
//!   violation checks,
//! - [`admission`]: the reservation-time check (`Σ r_n <= C`) plus the
//!   per-flow delay/throughput budgets an admitted flow holds.

#![warn(missing_docs)]

pub mod admission;
pub mod bounds;
pub mod delay;
pub mod fairness;

pub use admission::{Admission, AdmissionError, FlowSpec, Guarantee};
pub use bounds::*;
pub use delay::{max_e2e_violation, max_guarantee_violation, packet_delays, DelaySummary};
pub use fairness::{
    max_fairness_gap, normalized_service_curve, packets_by, throughput_bps, work_in_interval,
};
