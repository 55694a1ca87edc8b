//! Traced run of one workload: per-layer metrics and a span file.
//!
//! Same arguments as `sfqbench`; `benchmark/run.sh` picks this binary
//! when `--trace 1` is given.

use sfqbench::run::{self, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sfqtrace: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "sfqtrace: {} seed {}: {} s warm-up, {} s interleaved lanes, then probes",
        args.workload,
        args.seed,
        args.warmup(),
        args.seconds
    );
    run::emit(&args, &sfqbench::traced::trace(&args));
}
