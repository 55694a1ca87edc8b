//! Prints the paper record — every reproduced quantity of the paper,
//! paper vs measured — as the markdown table EXPERIMENTS.md embeds.
//!
//! Usage: `cargo run --release -p bench --bin all`

use std::io::{self, ErrorKind, Write};

fn main() -> io::Result<()> {
    let table = bench::record::render(&bench::record::rows());
    let mut out = io::stdout().lock();
    match out.write_all(table.as_bytes()).and_then(|()| out.flush()) {
        // A reader that stopped early (`| head`) is not an error.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        r => r,
    }
}
