//! Smoke run: every workload for a second in both modes, checked
//! against `BENCHMARK.json`. One test function, because the counting
//! allocator is process-wide and parallel tests would count each
//! other's allocations.

use sfqbench::alloc::Counts;
use sfqbench::closed::build_sched;
use sfqbench::inputs::ClosedInputs;
use sfqbench::json::Json;
use sfqbench::run::{self, Args, Outcome};
use std::path::PathBuf;

fn spec() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of `spec[list]`.
fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric() {
    // The allocator counts nothing for a loop that allocates nothing,
    // and counts what does allocate.
    let before = Counts::now();
    let mut acc = 0u64;
    for i in 0..100_000u64 {
        acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
    }
    let quiet = Counts::now().since(before);
    assert_eq!(quiet.calls as f64 * 1000.0 / 100_000.0, 0.0, "acc {acc}");
    let before = Counts::now();
    let v = std::hint::black_box(vec![0u8; 4096]);
    let loud = Counts::now().since(before);
    assert!(loud.calls >= 1 && loud.bytes >= 4096, "{loud:?}");
    drop(v);

    let spec = spec();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    for (name, _) in end_to_end.iter().chain(&per_layer) {
        assert!(
            !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
            "metric name {name:?}"
        );
    }
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, run::WORKLOADS);

    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for workload in &workloads {
        for trace in [false, true] {
            let args = Args {
                workload: workload.clone(),
                seed: 3,
                seconds: 1.0,
                trace,
                out: out.clone(),
                append: None,
            };
            let (outcome, want) = if trace {
                (sfqbench::traced::trace(&args), &per_layer)
            } else {
                (run::bench(&args), &end_to_end)
            };
            assert!(outcome.correct, "{workload} trace={trace}: a check failed");
            assert_eq!(outcome.failed, 0, "{workload} trace={trace}");
            assert!(outcome.attempted >= 1);
            assert_eq!(&printed(&outcome), want, "{workload} trace={trace}");
            if !trace {
                for m in &outcome.metrics {
                    assert!(m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
                }
            }
        }
        assert!(out.join(format!("trace-{workload}-3.jsonl")).is_file());
    }

    // Another seed departs in another order; the same seed in the same.
    let digest = |seed| {
        let inputs = ClosedInputs::generate(512, 64, seed);
        run::order_digest(&mut build_sched(&inputs), &inputs)
    };
    assert_eq!(digest(1), digest(1));
    assert_ne!(digest(1), digest(2));
}
