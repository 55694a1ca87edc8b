//! End-to-end run of one workload, or `sfqbench compare <a> <b>`.
//!
//! Progress and the ungated statistics go to stderr; the contract's
//! result line is the last line of stdout.

use sfqbench::run::{self, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(sfqbench::compare::main(&argv[1..]));
    }
    let args = match Args::parse(&argv) {
        Ok(a) if !a.trace => a,
        Ok(_) => {
            eprintln!(
                "sfqbench: --trace 1 is the sfqtrace binary's run (benchmark/run.sh picks it)"
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("sfqbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "sfqbench: {} seed {}: {} s warm-up, {} s timed",
        args.workload,
        args.seed,
        args.warmup(),
        args.seconds
    );
    run::emit(&args, &run::bench(&args));
}
