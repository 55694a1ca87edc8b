//! The paper record: every experiment run once at fixed parameters,
//! one [`Row`] per reproduced quantity. [`render`] prints the rows as
//! the markdown table that EXPERIMENTS.md embeds between its
//! `record:begin` / `record:end` markers; `tests/paper_record.rs` fails
//! when the two differ, and the `all` binary prints it.
//!
//! A row whose check fails reads ❌ in the table, and stays there.

use crate::exp_cost::{pair_costs, FLOWS};
use crate::exp_ebf::ebf_tails;
use crate::exp_fa::fair_airport;
use crate::exp_fairness::{example2, scfq_delay_gap, table1};
use crate::exp_fig1b::{fig1b, Discipline};
use crate::exp_fig2::{eq58_mix, fig2a, fig2b, fig2b_pareto, Fig2aPoint};
use crate::exp_fig3b::fig3b;
use crate::exp_hier::{delay_shift, edd_in_hierarchy, edd_over_fc, hier_share};
use crate::exp_tandem::{tandem, tandem_mixed};
use crate::exp_tiebreak::tiebreak;
use crate::exp_varrate::var_rate;
use simtime::SimTime;

/// The unit of a row's numbers. It fixes how many decimals they print
/// with, so a last-bit difference in a float cannot move the text.
#[derive(Clone, Copy, Debug)]
pub enum Unit {
    /// Seconds, 2 decimals.
    S,
    /// Milliseconds, 2 decimals.
    Ms,
    /// Megabits per second, 2 decimals.
    Mbps,
    /// Packets, whole.
    Pkts,
    /// Bits, whole.
    Bits,
    /// A dimensionless ratio, 2 decimals.
    Ratio,
    /// A fraction of samples, 5 decimals.
    Fraction,
    /// Percent, whole.
    Pct,
    /// A verdict: nonzero prints as yes.
    Flag,
}

impl Unit {
    fn name(self) -> &'static str {
        match self {
            Unit::S => "s",
            Unit::Ms => "ms",
            Unit::Mbps => "Mb/s",
            Unit::Pkts => "pkts",
            Unit::Bits => "bits",
            Unit::Ratio => "×",
            Unit::Fraction => "fraction",
            Unit::Pct => "%",
            Unit::Flag => "",
        }
    }

    fn fmt(self, x: f64) -> String {
        match self {
            Unit::Flag => (if x != 0.0 { "yes" } else { "no" }).to_string(),
            Unit::Pkts | Unit::Bits | Unit::Pct => format!("{x:.0}"),
            Unit::Fraction => format!("{x:.5}"),
            _ => format!("{x:.2}"),
        }
    }
}

/// One reproduced quantity.
#[derive(Clone, Debug)]
pub struct Row {
    /// The experiment's record key (the crate docs map keys to modules).
    pub experiment: &'static str,
    /// What was measured, with the parameters that tell it apart.
    pub quantity: String,
    /// The paper's value, where the paper gives one.
    pub paper: Option<f64>,
    /// This reproduction's value.
    pub measured: f64,
    /// The value `rule` compares `measured` with, where it names one.
    pub bound: Option<f64>,
    /// Unit of `paper`, `measured` and `bound`.
    pub unit: Unit,
    /// The check `holds` applies; empty for a row that is only recorded.
    pub rule: String,
    /// Whether `rule` holds; `None` for a row that is only recorded.
    pub holds: Option<bool>,
}

/// How [`Row::vs`] compares `measured` with `bound`.
#[derive(Clone, Copy)]
enum Cmp {
    Below,
    AtMost,
    Exactly,
    AtLeast,
    Above,
}
use Cmp::*;

fn row(quantity: impl Into<String>, unit: Unit, measured: f64) -> Row {
    Row {
        experiment: "",
        quantity: quantity.into(),
        paper: None,
        measured,
        bound: None,
        unit,
        rule: String::new(),
        holds: None,
    }
}

/// A row of a time the experiment reports in seconds.
fn ms(quantity: impl Into<String>, seconds: f64) -> Row {
    row(quantity, Unit::Ms, seconds * 1e3)
}

/// A row of a verdict that should be yes.
fn yes(quantity: &str, verdict: bool) -> Row {
    row(quantity, Unit::Flag, verdict as u8 as f64).vs(Exactly, "yes", 1.0)
}

/// `rows`, filed under the record key `experiment`.
fn under(experiment: &'static str, rows: impl IntoIterator<Item = Row>) -> Vec<Row> {
    rows.into_iter().map(|r| Row { experiment, ..r }).collect()
}

impl Row {
    fn paper(mut self, paper: f64) -> Row {
        self.paper = Some(paper);
        self
    }

    /// Check `measured <cmp> bound`, where `what` names the bound.
    fn vs(mut self, cmp: Cmp, what: &str, bound: f64) -> Row {
        let m = self.measured;
        let (sym, holds) = match cmp {
            Below => ("<", m < bound),
            AtMost => ("≤", m <= bound),
            Exactly => ("=", m == bound),
            AtLeast => ("≥", m >= bound),
            Above => (">", m > bound),
        };
        (self.bound, self.rule, self.holds) = (Some(bound), format!("{sym} {what}"), Some(holds));
        self
    }

    /// Check that `measured` is within `pct` % of the paper's `paper`.
    fn matches(mut self, paper: f64, pct: f64) -> Row {
        self.rule = if pct == 0.0 {
            "= paper".to_string()
        } else {
            format!("within {pct} % of paper")
        };
        self.holds = Some((self.measured - paper).abs() <= pct / 100.0 * paper.abs());
        self.paper(paper)
    }
}

/// Run every experiment once and return the record, in the order
/// EXPERIMENTS.md describes the experiments.
pub fn rows() -> Vec<Row> {
    let sections: [fn() -> Vec<Row>; 6] =
        [fairness, figures, hierarchy, guarantees, extensions, cost];
    sections.iter().flat_map(|section| section()).collect()
}

/// Table 1, Example 2 and Section 2.3's numbers (Eqs. 57–58).
fn fairness() -> Vec<Row> {
    let table1 = table1().into_iter().map(|r| {
        let (gap, bound) = (r.measured_gap_s, r.sfq_bound_s);
        let gap = row(format!("{} fairness gap", r.discipline), Unit::S, gap);
        match r.discipline.as_str() {
            "SFQ" | "SCFQ" | "FQS" => gap.vs(AtMost, "bound", bound),
            // Example 1: WFQ's gap can reach twice the lower bound, i.e. the bound.
            "WFQ" => gap.paper(bound).vs(AtMost, "bound", bound),
            "FIFO" => gap.vs(Above, "10 × SFQ bound", 10.0 * bound),
            _ => gap,
        }
    });

    // C = 10: WFQ serves the early flow C − 1 or C packets and the late
    // one at most 1; SFQ serves C/2 each.
    let [wfq, sfq] = <[_; 2]>::try_from(example2(10)).expect("WFQ and SFQ");
    let pkts =
        |who: &str, n: usize| row(format!("{who} packets in [1 s, 2 s]"), Unit::Pkts, n as f64);
    let example2 = [
        pkts("WFQ early-flow", wfq.early_flow_pkts).vs(AtLeast, "C − 1", 9.0),
        pkts("WFQ late-flow", wfq.late_flow_pkts).vs(AtMost, "1", 1.0),
        pkts("SFQ early-flow", sfq.early_flow_pkts).matches(5.0, 0.0),
        pkts("SFQ late-flow", sfq.late_flow_pkts).matches(5.0, 0.0),
    ];

    // The paper rounds the l/C terms differently from the exact
    // evaluation; every value lands within 10 % of its number.
    let g = scfq_delay_gap();
    let (gap, scfq, sfq) = (g.analytic_gap_s, g.scfq_max_delay_s, g.sfq_max_delay_s);
    let eq57 = [
        ms("SCFQ − SFQ max delay, l/r − l/C", gap).matches(24.4, 10.0),
        ms("l/r − l/C over 5 hops", 5.0 * gap).matches(122.0, 10.0),
        ms("SCFQ − SFQ max delay, measured", scfq - sfq).matches(24.4, 10.0),
        ms("probe's max delay under SFQ", sfq).vs(Below, "SCFQ", scfq * 1e3),
    ];
    let (low, high) = eq58_mix();
    let gain = "64 Kb/s flow's max-delay gain, 70 × 1 Mb/s + 200 × 64 Kb/s";
    let eq58 = [
        ms(gain, low).matches(20.39, 10.0),
        ms("1 Mb/s flow's max-delay loss, same mix", -high).matches(2.48, 10.0),
    ];
    [
        under("table1", table1),
        under("example2", example2),
        under("eq57", eq57),
        under("eq58", eq58),
    ]
    .concat()
}

/// Figures 1(b), 2(a), 2(b) and 3(b).
fn figures() -> Vec<Row> {
    let [wfq, sfq] = [Discipline::Wfq, Discipline::Sfq].map(|d| {
        let r = fig1b(d, 42, SimTime::from_secs(1));
        [r.src2_after_start3, r.src3_after_start3, r.src3_first_435ms].map(|n| n as f64)
    });
    let windows = [
        "src 2 in [0.5 s, 1 s]",
        "src 3 in [0.5 s, 1 s]",
        "src 3 in its first 435 ms",
    ];
    let mut fig1b = Vec::new();
    for (name, counts, paper) in [
        ("WFQ", wfq, [341.0, 10.0, 2.0]),
        ("SFQ", sfq, [189.0, 190.0, 145.0]),
    ] {
        for (window, (n, paper)) in windows.iter().zip(counts.into_iter().zip(paper)) {
            fig1b.push(row(format!("{name} {window}"), Unit::Pkts, n).paper(paper));
        }
    }
    let ratio = |quantity: &str, a: f64, b: f64| row(quantity, Unit::Ratio, a / b.max(1.0));
    fig1b.extend([
        ratio("WFQ src 2 ÷ src 3", wfq[0], wfq[1])
            .paper(341.0 / 10.0)
            .vs(AtLeast, "3", 3.0),
        ratio("SFQ src 2 ÷ src 3", sfq[0], sfq[1]).matches(189.0 / 190.0, 10.0),
        ratio("src 3, first 435 ms, SFQ ÷ WFQ", sfq[2], wfq[2])
            .paper(145.0 / 2.0)
            .vs(Above, "3", 3.0),
    ]);

    let pts = fig2a();
    let delta = |kbps: u64, n: usize| {
        let at = |p: &&Fig2aPoint| p.rate_bps == kbps * 1_000 && p.n_flows == n;
        pts.iter().find(at).expect("a swept point").delta_s
    };
    let at = |flow: &str, kbps: u64, n: usize| {
        let quantity = format!("Δ max delay, {flow} flow among {n}");
        ms(quantity, delta(kbps, n))
    };
    // Eq. 60: Δ turns negative once r_f/C exceeds 1/(|Q| − 1).
    let fig2a = [
        at("16 Kb/s", 16, 100).vs(Above, "64 Kb/s flow's", delta(64, 100) * 1e3),
        at("64 Kb/s", 64, 100).vs(Above, "256 Kb/s flow's", delta(256, 100) * 1e3),
        at("256 Kb/s", 256, 100).vs(Above, "1 Mb/s flow's", delta(1_000, 100) * 1e3),
        at("1 Mb/s", 1_000, 100).vs(Above, "0", 0.0),
        at("1 Mb/s", 1_000, 500).vs(Below, "0", 0.0),
        at("16 Kb/s", 16, 500).vs(Above, "0", 0.0),
    ];

    // The paper simulates 1000 s; 60 s keeps the record fast.
    let horizon = SimTime::from_secs(60);
    let pts = fig2b(&(2..=10).collect::<Vec<_>>(), horizon, 7);
    let pareto = fig2b_pareto(&[3, 6, 9], horizon, 7);
    let sweeps = pts
        .iter()
        .map(|p| (p, ""))
        .chain(pareto.iter().map(|p| (p, "Pareto ")));
    let mut fig2b = Vec::new();
    for (p, flows) in sweeps {
        let load = format!("{:.1} % load", p.utilization * 100.0);
        let quantity = format!("SFQ avg delay, N = {} {flows}({load})", p.n_low);
        fig2b.push(ms(quantity, p.sfq_avg_delay_s).vs(Below, "WFQ", p.wfq_avg_delay_s * 1e3));
    }
    let p = pts.iter().find(|p| p.n_low == 3).expect("N = 3 swept");
    let excess = (p.wfq_avg_delay_s / p.sfq_avg_delay_s - 1.0) * 100.0;
    let quantity = "WFQ avg delay in excess of SFQ's, N = 3 (paper: at 80.81 % load)";
    fig2b.push(row(quantity, Unit::Pct, excess).matches(53.0, 25.0));

    let r = fig3b(5_000, true);
    let ([_, all2, all3], after2) = (r.ratio_all_active, r.ratio_after_f3);
    let ratio =
        |quantity: &str, x: f64, paper: f64| row(quantity, Unit::Ratio, x).matches(paper, 5.0);
    let done = |quantity: &str, i: usize, next: &str| {
        row(quantity, Unit::S, r.completion_s[i]).vs(Below, next, r.completion_s[i - 1])
    };
    let fig3b = [
        ratio("conn 2 ÷ conn 1 throughput, all active", all2, 2.0),
        ratio("conn 3 ÷ conn 1 throughput, all active", all3, 3.0),
        ratio("conn 2 ÷ conn 1 throughput, conn 3 done", after2, 2.0),
        done("conn 3 (weight 3) completion", 2, "conn 2's"),
        done("conn 2 (weight 2) completion", 1, "conn 1's"),
    ];
    [
        under("fig1b", fig1b),
        under("fig2a", fig2a),
        under("fig2b", fig2b),
        under("fig3b", fig3b),
    ]
    .concat()
}

/// Section 3: Example 3, delay shifting and Theorem 7.
fn hierarchy() -> Vec<Row> {
    let h = hier_share();
    let share = |quantity: &str, bps: f64, paper: f64| {
        row(quantity, Unit::Mbps, bps / 1e6).matches(paper, 5.0)
    };
    let example3 = [
        share("C's throughput, B idle", h.phase1_c_bps, 5.0),
        share("D's throughput, B idle", h.phase1_d_bps, 5.0),
        share("C's throughput, B active", h.phase2_bps.0, 2.5),
        share("D's throughput, B active", h.phase2_bps.1, 2.5),
        share("B's throughput, B active", h.phase2_bps.2, 5.0),
    ];

    let d = delay_shift();
    let flat = d.flat_max_s * 1e3;
    let delay_shift = [
        yes("Eq. 73 predicts a win", d.predicted_improvement),
        ms("favored flows' max delay, hierarchical", d.hier_max_s).vs(Below, "flat SFQ", flat),
    ];

    let tight = |tight_s: f64, loose_s: f64| {
        let loose = loose_s * 1e3;
        ms("tight-deadline flow's max delay", tight_s).vs(Below, "loose-deadline flow's", loose)
    };
    let e = edd_over_fc();
    let thm7 = [
        yes("Delay EDD flow set schedulable (Eq. 67)", e.schedulable),
        ms("violation of D + l_max/C + δ/C", e.worst_violation_s).vs(Exactly, "0", 0.0),
        tight(e.tight_flow_max_s, e.loose_flow_max_s),
    ];
    let n = edd_in_hierarchy();
    let delta = n.virtual_delta_bits as f64;
    let nested = [
        yes("class schedulable at its rate (Eq. 67)", n.schedulable),
        row("virtual server's δ (Eq. 65)", Unit::Bits, delta),
        ms("violation of the nested bound", n.worst_violation_s).vs(Exactly, "0", 0.0),
        tight(n.tight_flow_max_s, n.loose_flow_max_s),
    ];
    [
        under("example3", example3),
        under("delay_shift", delay_shift),
        under("thm7", thm7),
        under("thm7_nested", nested),
    ]
    .concat()
}

/// Appendix B, Corollary 1 and Theorems 3/5.
fn guarantees() -> Vec<Row> {
    let mut fa = Vec::new();
    for (server, fluctuating) in [("constant", false), ("FC", true)] {
        let r = fair_airport(fluctuating);
        let s = |what: &str, x: f64| row(format!("{what}, {server} server"), Unit::S, x);
        fa.extend([
            s("FA fairness gap", r.fa_gap_s).vs(AtMost, "Thm 8 bound", r.fa_bound_s),
            s("VC fairness gap", r.vc_gap_s).vs(Above, "2 × FA gap", 2.0 * r.fa_gap_s),
            s("Thm 9 delay-bound violation", r.delay_violation_s).vs(Exactly, "0", 0.0),
        ]);
    }

    // The run `tests/executor_goldens.rs` pins bit for bit.
    let horizon = SimTime::from_secs(60);
    let mut e2e = Vec::new();
    for r in tandem(&[1, 2, 3, 4, 5], horizon, 11) {
        let quantity = format!("max end-to-end delay, K = {}", r.k);
        e2e.push(ms(quantity, r.measured_max_s).vs(AtMost, "Cor. 1 bound", r.bound_s * 1e3));
    }
    let m = tandem_mixed(horizon, 11);
    let quantity = format!("max end-to-end delay, {}", m.disciplines.join(" → "));
    e2e.push(ms(quantity, m.measured_max_s).vs(AtMost, "composed bound", m.bound_s * 1e3));

    // Each tail decays in γ, and is zero past the construction's hard
    // deficit ceiling (about two slots of work).
    let r = ebf_tails(21, 120);
    let delay: Vec<f64> = r.points.iter().map(|p| p.delay_tail).collect();
    let deficit = r.points.iter().map(|p| p.throughput_tail).collect();
    let mut ebf = Vec::new();
    for (name, tail) in [
        ("P(late > β + γ/C)", delay),
        ("P(deficit > r·γ/C)", deficit),
    ] {
        for (i, (p, &x)) in r.points.iter().zip(&tail).enumerate() {
            let x = row(
                format!("{name}, γ = {} bits", p.gamma_bits),
                Unit::Fraction,
                x,
            );
            ebf.push(match i.checked_sub(1) {
                _ if i + 1 == tail.len() => x.vs(Exactly, "0", 0.0),
                Some(prev) => x.vs(AtMost, "previous γ's", tail[prev]),
                None => x,
            });
        }
    }
    [
        under("fair_airport", fa),
        under("tandem", e2e),
        under("ebf", ebf),
    ]
    .concat()
}

/// Eq. 36 variable rates and the Section 2.3 tie-break ablation.
fn extensions() -> Vec<Row> {
    let v = var_rate();
    let (var, fixed) = (v.var_max_delay_s, v.fixed_max_delay_s * 1e3);
    let varrate = [
        ms("video max delay, per-scene rates", var).vs(Below, "fixed mean rate", fixed),
        ms("generalized Thm 4 violation", v.bound_violation_s).vs(Exactly, "0", 0.0),
    ];
    let t = tiebreak();
    let (low_first, fifo) = (t.low_first_avg_s, t.fifo_avg_s * 1e3);
    let tiebreak = [
        ms("interactive avg delay, low-weight-first", low_first).vs(Below, "FIFO tie-break", fifo),
        ms("bulk avg delay, low-weight-first", t.bulk_low_first_avg_s),
    ];
    [under("varrate", varrate), under("tiebreak", tiebreak)].concat()
}

/// Table 1's complexity column on the tag core, counted: comparisons
/// per enqueue + dequeue pair grow with `log Q`, not `Q`. From 512 to
/// 8 192 flows, `log2 Q` goes from 9 to 13; twice that ratio leaves
/// room for the sift-up's constant, while a scan would grow 16-fold.
fn cost() -> Vec<Row> {
    let [small, large] = FLOWS;
    let rows = pair_costs().map(|(discipline, [at_small, at_large])| {
        let quantity = format!(
            "{discipline} tag comparisons per pair, {small} → {large} flows: {at_small:.2} → {at_large:.2}"
        );
        let bound = 2.0 * 13.0 / 9.0;
        row(quantity, Unit::Ratio, at_large / at_small).vs(AtMost, "2 × 13/9, O(log Q)", bound)
    });
    under("cost", rows)
}

/// The record as one markdown table, a line per row.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "| experiment | quantity | paper | measured | bound | unit | rule | holds |\n",
    );
    out += "|---|---|---|---|---|---|---|---|\n";
    for r in rows {
        let cell = |v: Option<f64>| v.map(|v| r.unit.fmt(v)).unwrap_or_default();
        let holds = r.holds.map_or("", |h| if h { "✅" } else { "❌" });
        let (experiment, quantity, rule) = (r.experiment, &r.quantity, &r.rule);
        let (paper, measured, bound) = (cell(r.paper), r.unit.fmt(r.measured), cell(r.bound));
        let unit = r.unit.name();
        out += &format!(
            "| {experiment} | {quantity} | {paper} | {measured} | {bound} | {unit} | {rule} | {holds} |\n"
        );
    }
    out
}
