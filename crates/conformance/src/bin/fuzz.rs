//! Time-budgeted conformance fuzzer.
//!
//! Walks seeds from a starting point, running each preset's strongest
//! check, until the budget expires or a failure is found. Every failing
//! scenario's replay line is printed and appended to the output file —
//! the artifact CI's nightly job uploads. `single-ebf` has no check and
//! is refused with a non-zero exit.
//!
//! ```text
//! conformance-fuzz [--budget-secs N] [--preset NAME] [--start-seed S] [--out PATH]
//! ```

use conformance::{
    check_against_bound, diff_schedulers, run_chaos_conformance, run_engine_conformance,
    run_graph_conformance, run_soak, run_tandem_conformance, run_telemetry_conformance,
    run_twin_conformance, Preset, Scenario, SchedKind,
};
use simtime::SimDuration;
use std::io::Write;
use std::time::{Duration, Instant};

struct Opts {
    budget: Duration,
    preset: Option<Preset>,
    start_seed: u64,
    out: String,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        budget: Duration::from_secs(10),
        preset: None,
        start_seed: 1,
        out: "target/conformance-failures.txt".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--budget-secs" => {
                opts.budget = Duration::from_secs(val("--budget-secs").parse().expect("budget"))
            }
            "--preset" => {
                let name = val("--preset");
                opts.preset = Some(
                    Preset::from_name(&name).unwrap_or_else(|| panic!("unknown preset {name}")),
                )
            }
            "--start-seed" => opts.start_seed = val("--start-seed").parse().expect("seed"),
            "--out" => opts.out = val("--out"),
            other => panic!("unknown argument {other}"),
        }
    }
    opts
}

/// Run the strongest check for one scenario; `Some(reason)` = failed.
fn check(sc: &Scenario) -> Option<String> {
    match sc.preset {
        Preset::Tandem => {
            let out = run_tandem_conformance(sc, false);
            if out.theorem6_violation > SimDuration::ZERO {
                return Some(format!(
                    "Theorem 6 violated by {:?} over {} hops",
                    out.theorem6_violation, out.hops
                ));
            }
            if out.corollary1_violation > SimDuration::ZERO {
                return Some(format!(
                    "Corollary 1 violated by {:?} (bound {:?})",
                    out.corollary1_violation, out.corollary1_bound
                ));
            }
            if out.completed == 0 {
                return Some("no observed packets completed".to_string());
            }
            None
        }
        Preset::SingleFc => {
            if let Some(b) = check_against_bound(sc, SchedKind::Sfq) {
                if b.violation > SimDuration::ZERO {
                    return Some(format!("Theorem 4 violated by {:?}", b.violation));
                }
            }
            // Observer neutrality via self-diff: SFQ against itself
            // must be bit-identical under the same fault schedule.
            let rep = diff_schedulers(sc, SchedKind::Sfq, SchedKind::Sfq);
            rep.divergence
                .map(|d| format!("self-diff diverged:\n{}", d.detail))
        }
        Preset::Soak => {
            let out = run_soak(sc);
            if out.recovery_spread > out.fairness_bound {
                return Some(format!(
                    "fairness did not recover after overload: spread {:?} > bound {:?}",
                    out.recovery_spread, out.fairness_bound
                ));
            }
            if sc.drop_policy == conformance::DropKind::Tail
                && out.overload_spread > out.fairness_bound
            {
                return Some(format!(
                    "Theorem 1 fairness violated under tail-drop overload: spread {:?} > bound {:?}",
                    out.overload_spread, out.fairness_bound
                ));
            }
            if out.shed == 0 || out.engages == 0 {
                return Some(format!(
                    "overload never engaged the buffer caps (shed={}, engages={})",
                    out.shed, out.engages
                ));
            }
            if out.releases != out.engages {
                return Some(format!(
                    "backpressure engage/release mismatch after drain: {} engages, {} releases",
                    out.engages, out.releases
                ));
            }
            if out.post_revive_completions == 0 {
                return Some("churned flow never completed a packet after revive".to_string());
            }
            None
        }
        Preset::Engine => {
            // The sharded engine against a hand-driven bare Sfq (one
            // shard), conservation and per-flow order.
            run_engine_conformance(sc).err()
        }
        Preset::Twin => {
            // Every row of the twin table: each product bit-identical
            // to its twin on the seed's op schedule.
            run_twin_conformance(sc).err().map(|e| {
                // The runner embeds the replay line; strip it so the
                // fuzzer's own suffix doesn't duplicate it.
                e.rsplit_once('\n')
                    .map_or(e.clone(), |(head, _)| head.to_string())
            })
        }
        Preset::Graph => {
            // Multi-port forwarding graph: Theorem 6 on every path,
            // Corollary 1, per-port Theorem 1, engine-port packet
            // accounting, and arena book balance — all in one runner.
            run_graph_conformance(sc).err().map(|e| {
                // The runner embeds the replay line; strip it so the
                // fuzzer's own suffix doesn't duplicate it.
                e.lines().next().unwrap_or(&e).to_string()
            })
        }
        Preset::Chaos => {
            // Live reconfiguration: no-op bit-identity, conservation
            // and per-flow order under real weight changes, and
            // fairness reconvergence — all in one runner.
            run_chaos_conformance(sc).err().map(|e| {
                // The runner embeds the replay line; strip it so the
                // fuzzer's own suffix doesn't duplicate it.
                e.lines().next().unwrap_or(&e).to_string()
            })
        }
        Preset::Telemetry => {
            // Counter pages vs the driver-side ledger: conservation as
            // read purely from the pages, from the driving thread and
            // from a reader thread beside it — all in one runner.
            run_telemetry_conformance(sc).err().map(|e| {
                // The runner embeds the replay line; strip it so the
                // fuzzer's own suffix doesn't duplicate it.
                e.lines().next().unwrap_or(&e).to_string()
            })
        }
        Preset::FairAirport => {
            if let Some(b) = check_against_bound(sc, SchedKind::FairAirport) {
                if b.violation > SimDuration::ZERO {
                    return Some(format!("Theorem 9 violated by {:?}", b.violation));
                }
            }
            let rep = diff_schedulers(sc, SchedKind::FairAirport, SchedKind::FairAirport);
            rep.divergence
                .map(|d| format!("self-diff diverged:\n{}", d.detail))
        }
        Preset::SingleEbf => unreachable!("refused in main"),
    }
}

fn main() {
    let opts = parse_args();
    if opts.preset == Some(Preset::SingleEbf) {
        eprintln!("conformance-fuzz: no fuzz check for this preset (single-ebf)");
        std::process::exit(2);
    }
    let presets: Vec<Preset> = match opts.preset {
        Some(p) => vec![p],
        None => vec![
            Preset::Tandem,
            Preset::SingleFc,
            Preset::FairAirport,
            Preset::Soak,
            Preset::Engine,
            Preset::Chaos,
            Preset::Telemetry,
            Preset::Graph,
            Preset::Twin,
        ],
    };
    let started = Instant::now();
    let mut seed = opts.start_seed;
    let mut ran = 0u64;
    let mut failures: Vec<String> = Vec::new();

    while started.elapsed() < opts.budget {
        for &preset in &presets {
            let sc = Scenario::from_seed(preset, seed);
            if let Some(reason) = check(&sc) {
                let line = sc.replay_line();
                eprintln!("FAIL: {reason}\n  {line}");
                failures.push(line);
            }
            ran += 1;
        }
        seed += 1;
    }

    if !failures.is_empty() {
        if let Some(dir) = std::path::Path::new(&opts.out).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut f = std::fs::File::create(&opts.out).expect("open failure file");
        for line in &failures {
            writeln!(f, "{line}").expect("write failure file");
        }
        eprintln!(
            "{} failing scenario(s) after {} runs; replay lines in {}",
            failures.len(),
            ran,
            opts.out
        );
        std::process::exit(1);
    }
    println!(
        "conformance-fuzz: {ran} scenario checks clean in {:.1}s (seeds {}..{})",
        started.elapsed().as_secs_f64(),
        opts.start_seed,
        seed
    );
}
