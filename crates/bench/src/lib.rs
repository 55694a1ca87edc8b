//! # bench — the experiment harness that regenerates every table and
//! figure of the SFQ paper
//!
//! Each `exp_*` module implements one experiment as a library function
//! returning a serializable result; the `bin/` binaries print the
//! paper-style tables/series, and the module tests assert the *shape*
//! the paper reports (orderings, bound satisfaction, ratios).
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 1, Examples 1–2, Eq. 57 numbers | [`exp_fairness`] | `table1` |
//! | Figure 1(b) | [`exp_fig1b`] | `fig1b` |
//! | Figure 2(a)/(b) | [`exp_fig2`] | `fig2a`, `fig2b` |
//! | Figure 3(b) | [`exp_fig3b`] | `fig3b` |
//! | Section 3 (Example 3, delay shifting, Theorem 7) | [`exp_hier`] | `hier` |
//! | Appendix B (Theorems 8–9) | [`exp_fa`] | `fair_airport` |
//! | Section 2.4 / Corollary 1 | [`exp_tandem`] | `tandem` |
//! | Theorems 3/5 (EBF servers) | [`exp_ebf`] | `ebf` |
//! | Eq. 36 variable-rate SFQ | [`exp_varrate`] | `varrate` |
//! | Section 2.3 tie-breaking ablation | [`exp_tiebreak`] | `ablation` |

#![warn(missing_docs)]

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
pub mod report;
