//! `sfqbench compare [--aa] [--spec BENCHMARK.json] <a.jsonl> <b.jsonl>`
//!
//! Judges recorded runs of side `b` (the change) against side `a` (the
//! parent) by the rule of the choosing-metrics guide, section 8. Both
//! files hold the tagged lines `--append` writes, in the order the runs
//! were made; the i-th run of a workload on one side pairs with the
//! i-th on the other. Whoever makes the runs alternates which side goes
//! first.
//!
//! * **gain** — `b` wins at least nine tenths of all pairs (ties count
//!   for neither side), its median is better by more than the distance
//!   between `a`'s quartiles, and no more operations failed than on `a`.
//! * **REGRESSION** — `b`'s median is worse than `a`'s by more than the
//!   metric's bound in `BENCHMARK.json`.
//! * **unresolved** — `a`'s own runs spread wider than the bound, and
//!   not every run of `b` reads better than every run of `a`.
//! * **within bound** — none of the above.
//!
//! With `--aa` both sides are the same code: the table shows each
//! side's spread and the shift of the median, and the verdict is the
//! acceptance test of the benchmark itself (every spread, `setup_s`
//! excepted, and every shift within the bound). This is how the bounds
//! in `BENCHMARK.json` were filled.
//!
//! Per-layer lines (`--trace 1`) are listed with medians only: they say
//! where a saving sits, a claim rests on the end-to-end rows.

use crate::json::Json;
use crate::stats::{median, quartiles_exclusive};
use std::collections::BTreeMap;

/// One recorded run.
struct Run {
    workload: String,
    trace: bool,
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn read_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let v = Json::parse(line).map_err(|e| bad(&e))?;
        let result = v.get("result").ok_or_else(|| bad("no \"result\""))?;
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("no \"metrics\""))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.push(Run {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("no \"workload\""))?
                .to_string(),
            trace: v.get("trace").and_then(Json::as_f64) == Some(1.0),
            correct: result.get("correct") == Some(&Json::Bool(true)),
            failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            metrics,
        });
    }
    Ok(runs)
}

/// What `BENCHMARK.json` says about one end-to-end metric.
#[derive(Clone, Copy)]
struct Gate {
    bound: f64,
    lower_is_better: bool,
}

fn read_gates(path: &str) -> Result<BTreeMap<String, Gate>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"end_to_end\" list"))?;
    let mut gates = BTreeMap::new();
    for m in list {
        let name = m.get("name").and_then(Json::as_str);
        let bound = m.get("bound").and_then(Json::as_f64);
        let better = m.get("better").and_then(Json::as_str);
        let (Some(name), Some(bound), Some(better)) = (name, bound, better) else {
            return Err(format!(
                "{path}: an end_to_end entry lacks name, bound or better"
            ));
        };
        gates.insert(
            name.to_string(),
            Gate {
                bound,
                lower_is_better: better == "lower",
            },
        );
    }
    Ok(gates)
}

/// Values of one (workload, metric) on one side, in run order.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn series(runs: &[Run], trace: bool) -> Series {
    let mut s = Series::new();
    for r in runs.iter().filter(|r| r.trace == trace) {
        for (name, value) in &r.metrics {
            s.entry((r.workload.clone(), name.clone()))
                .or_default()
                .push(*value);
        }
    }
    s
}

/// Median and distance between the quartiles (0 for a single run).
fn centre(xs: &[f64]) -> (f64, f64) {
    let iqr = if xs.len() >= 2 {
        let (q1, q3) = quartiles_exclusive(xs);
        q3 - q1
    } else {
        0.0
    };
    (median(xs), iqr)
}

/// One judged row.
struct Row {
    pairs: usize,
    med_a: f64,
    med_b: f64,
    /// Distance between the quartiles over the median, per side.
    spread_a: f64,
    spread_b: f64,
    /// How much worse `b`'s median is than `a`'s, as a share of `a`'s
    /// (negative: better).
    shift: f64,
    wins: usize,
    ties: usize,
    /// `b`'s median is better by more than `a`'s quartile distance.
    clear: bool,
    /// Every run of `b` reads better than every run of `a`.
    dominates: bool,
}

fn judge(a: &[f64], b: &[f64], lower_is_better: bool) -> Row {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let (med_a, iqr_a) = centre(a);
    let (med_b, iqr_b) = centre(b);
    let pairs = a.len().min(b.len());
    let (mut wins, mut ties) = (0, 0);
    for (x, y) in a.iter().zip(b) {
        if x == y {
            ties += 1;
        } else if (y - x) * sign < 0.0 {
            wins += 1;
        }
    }
    let worst_b = b.iter().map(|y| y * sign).fold(f64::NEG_INFINITY, f64::max);
    let best_a = a.iter().map(|x| x * sign).fold(f64::INFINITY, f64::min);
    Row {
        pairs,
        med_a,
        med_b,
        spread_a: iqr_a / med_a.abs(),
        spread_b: iqr_b / med_b.abs(),
        shift: (med_b - med_a) * sign / med_a.abs(),
        wins,
        ties,
        clear: (med_a - med_b) * sign > iqr_a,
        dominates: worst_b < best_a,
    }
}

/// Fewest pairs the rule accepts.
const MIN_PAIRS: usize = 10;

fn verdict(row: &Row, gate: Gate, b_failed_more: bool) -> &'static str {
    if row.shift > gate.bound {
        "REGRESSION"
    } else if row.wins * 10 >= row.pairs * 9 && row.clear {
        if row.pairs < MIN_PAIRS {
            "better, too few pairs to claim"
        } else if b_failed_more {
            "better, but more operations failed"
        } else {
            "gain"
        }
    } else if row.spread_a > gate.bound && !row.dominates {
        "unresolved"
    } else {
        "within bound"
    }
}

fn verdict_aa(row: &Row, gate: Gate, metric: &str) -> &'static str {
    let spread = row.spread_a.max(row.spread_b);
    if row.shift > gate.bound {
        "FAIL: median shifted past the bound"
    } else if metric != "setup_s" && spread > gate.bound {
        "FAIL: spread wider than the bound"
    } else if metric != "setup_s" && spread > gate.bound / 3.0 {
        "ok (spread above a third of the bound)"
    } else {
        "ok"
    }
}

fn pct(x: f64) -> String {
    format!("{:+.2}%", x * 100.0)
}

/// Five significant digits, whatever the magnitude.
fn sig5(x: f64) -> String {
    let digits = 4 - x.abs().log10().floor().clamp(-9.0, 4.0) as i32;
    format!("{x:.*}", digits.max(0) as usize)
}

/// Entry point of the `compare` subcommand; returns the exit code: 0,
/// 1 when a row regressed (or the A/A acceptance failed), 2 on misuse.
pub fn main(argv: &[String]) -> i32 {
    let mut aa = false;
    let mut spec = "BENCHMARK.json".to_string();
    let mut files = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--aa" => aa = true,
            "--spec" => match it.next() {
                Some(p) => spec = p.clone(),
                None => {
                    eprintln!("compare: --spec needs a path");
                    return 2;
                }
            },
            _ => files.push(arg.clone()),
        }
    }
    let [file_a, file_b] = files.as_slice() else {
        eprintln!("usage: sfqbench compare [--aa] [--spec BENCHMARK.json] <a.jsonl> <b.jsonl>");
        return 2;
    };
    let loaded = read_gates(&spec).and_then(|g| Ok((g, read_runs(file_a)?, read_runs(file_b)?)));
    let (gates, runs_a, runs_b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };

    let mut failed = false;
    let failures = |runs: &[Run], workload: &str| -> (u64, usize) {
        let of = runs.iter().filter(|r| r.workload == workload);
        (
            of.clone().map(|r| r.failed).sum(),
            of.filter(|r| !r.correct).count(),
        )
    };

    let (sa, sb) = (series(&runs_a, false), series(&runs_b, false));
    println!(
        "{:<12} {:<12} {:>11} {:>11} {:>8} {:>8} {:>8} {:>6} {:>4} {:>5}  verdict",
        "workload",
        "metric",
        "a median",
        "b median",
        "shift",
        "a spread",
        "b spread",
        "b wins",
        "ties",
        "bound"
    );
    for ((workload, metric), a) in &sa {
        let (Some(b), Some(&gate)) = (
            sb.get(&(workload.clone(), metric.clone())),
            gates.get(metric),
        ) else {
            continue;
        };
        let row = judge(a, b, gate.lower_is_better);
        let (fail_a, wrong_a) = failures(&runs_a, workload);
        let (fail_b, wrong_b) = failures(&runs_b, workload);
        let v = if wrong_a + wrong_b > 0 {
            "INCORRECT RUNS"
        } else if aa {
            verdict_aa(&row, gate, metric)
        } else {
            verdict(&row, gate, fail_b > fail_a)
        };
        failed |= v.starts_with("FAIL") || v == "REGRESSION" || v == "INCORRECT RUNS";
        println!(
            "{:<12} {:<12} {:>11} {:>11} {:>8} {:>7.2}% {:>7.2}% {:>3}/{:<2} {:>4} {:>4.0}%  {v}",
            workload,
            metric,
            sig5(row.med_a),
            sig5(row.med_b),
            pct(row.shift),
            row.spread_a * 100.0,
            row.spread_b * 100.0,
            row.wins,
            row.pairs,
            row.ties,
            gate.bound * 100.0,
        );
    }
    if !aa && sa.values().any(|v| v.len() < MIN_PAIRS) {
        println!("note: fewer than {MIN_PAIRS} pairs on some rows; the rule needs {MIN_PAIRS}");
    }

    let (la, lb) = (series(&runs_a, true), series(&runs_b, true));
    if !la.is_empty() {
        println!("\nper-layer medians (traced runs; no verdict):");
        for ((workload, metric), a) in &la {
            let Some(b) = lb.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            let (ma, mb) = (median(a), median(b));
            if ma == 0.0 && mb == 0.0 {
                continue;
            }
            println!(
                "{workload:<12} {metric:<32} {:>11} {:>11} {:>9}",
                sig5(ma),
                sig5(mb),
                if ma == 0.0 {
                    "-".into()
                } else {
                    pct((mb - ma) / ma.abs())
                }
            );
        }
    }
    failed as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATE: Gate = Gate {
        bound: 0.10,
        lower_is_better: true,
    };

    fn ramp(base: f64) -> Vec<f64> {
        (0..10).map(|i| base + i as f64 * 0.1).collect()
    }

    #[test]
    fn clear_win_on_every_pair_is_a_gain() {
        let row = judge(&ramp(100.0), &ramp(90.0), true);
        assert_eq!((row.wins, row.ties, row.pairs), (10, 0, 10));
        assert!(row.dominates && row.clear);
        assert_eq!(verdict(&row, GATE, false), "gain");
        assert_eq!(
            verdict(&row, GATE, true),
            "better, but more operations failed"
        );
    }

    #[test]
    fn small_gap_inside_the_parents_spread_is_no_gain() {
        // Quartile distance of `a` is 0.55; `b` is better by 0.3 only.
        let row = judge(&ramp(100.0), &ramp(99.7), true);
        assert_eq!(row.wins, 10);
        assert!(!row.clear);
        assert_eq!(verdict(&row, GATE, false), "within bound");
    }

    #[test]
    fn worse_median_past_the_bound_regresses_and_noise_is_unresolved() {
        let row = judge(&ramp(100.0), &ramp(112.0), true);
        assert_eq!(verdict(&row, GATE, false), "REGRESSION");
        // `a` spreads by far more than the bound; `b` sits inside it.
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 5.0 * i as f64).collect();
        let row = judge(&noisy, &ramp(120.0), true);
        assert!(row.spread_a > GATE.bound);
        assert_eq!(verdict(&row, GATE, false), "unresolved");
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        let row = judge(&ramp(100.0), &ramp(90.0), false);
        assert_eq!(row.wins, 0);
        assert!(row.shift > 0.09);
    }

    #[test]
    fn aa_acceptance_exempts_setup_spread_only() {
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 5.0 * i as f64).collect();
        let row = judge(&noisy, &noisy, true);
        assert!(verdict_aa(&row, GATE, "ns_per_pkt").starts_with("FAIL"));
        assert_eq!(verdict_aa(&row, GATE, "setup_s"), "ok");
    }
}
