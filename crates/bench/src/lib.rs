//! # bench — the experiment harness that regenerates every table and
//! figure of the SFQ paper
//!
//! Each `exp_*` module implements one experiment as a library function
//! returning its measurements, and its tests assert the *shape* the
//! paper reports (orderings, bound satisfaction, ratios).
//! [`record::rows`] runs them all once at fixed parameters and turns
//! them into the paper record — one row per reproduced quantity, with
//! the paper's value, the bound and whether the check holds. The `all`
//! binary prints it; EXPERIMENTS.md embeds it and
//! `tests/paper_record.rs` fails when the two differ.
//!
//! | Paper artifact | Module | Record key |
//! |---|---|---|
//! | Table 1, Example 2, Eq. 57 (measured) | [`exp_fairness`] | `table1`, `example2`, `eq57` |
//! | Figure 1(b) | [`exp_fig1b`] | `fig1b` |
//! | Figure 2(a)/(b), Eq. 57–58 (analytic) | [`exp_fig2`] | `fig2a`, `fig2b`, `eq57`, `eq58` |
//! | Figure 3(b) | [`exp_fig3b`] | `fig3b` |
//! | Section 3 (Example 3, delay shifting, Theorem 7) | [`exp_hier`] | `example3`, `delay_shift`, `thm7`, `thm7_nested` |
//! | Appendix B (Theorems 8–9) | [`exp_fa`] | `fair_airport` |
//! | Section 2.4 / Corollary 1 | [`exp_tandem`] | `tandem` |
//! | Theorems 3/5 (EBF servers) | [`exp_ebf`] | `ebf` |
//! | Eq. 36 variable-rate SFQ | [`exp_varrate`] | `varrate` |
//! | Section 2.3 tie-breaking ablation | [`exp_tiebreak`] | `tiebreak` |
//! | Table 1, complexity column (counted) | [`exp_cost`] | `cost` |

#![warn(missing_docs)]

pub mod exp_cost;
pub mod exp_ebf;
pub mod exp_fa;
pub mod exp_fairness;
pub mod exp_fig1b;
pub mod exp_fig2;
pub mod exp_fig3b;
pub mod exp_hier;
pub mod exp_tandem;
pub mod exp_tiebreak;
pub mod exp_varrate;
pub mod record;
pub mod report;
