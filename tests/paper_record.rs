//! EXPERIMENTS.md's record block — the lines between its
//! `<!-- record:begin -->` and `<!-- record:end -->` markers — is
//! `bench::record::rows()` rendered, byte for byte. A moved number, a
//! flipped check or a row added or dropped fails here, naming the row;
//! `cargo run --release -p bench --bin all` prints the block afresh.

use std::collections::{BTreeMap, BTreeSet};

const BEGIN: &str = "<!-- record:begin -->\n";
const END: &str = "<!-- record:end -->";

/// The table's lines keyed by their `experiment | quantity` cells.
fn by_row(table: &str) -> BTreeMap<String, &str> {
    let key = |line: &str| line.split(" | ").take(2).collect::<Vec<_>>().join(" | ");
    let lines: Vec<_> = table.lines().map(|line| (key(line), line)).collect();
    let keys: BTreeSet<_> = lines.iter().map(|(key, _)| key).collect();
    assert_eq!(keys.len(), lines.len(), "two rows share a key:\n{table}");
    lines.into_iter().collect()
}

#[test]
fn experiments_md_holds_the_record() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md");
    let start = doc.find(BEGIN).expect("a record:begin marker") + BEGIN.len();
    let committed = &doc[start..start + doc[start..].find(END).expect("a record:end marker")];
    let fresh = bench::record::render(&bench::record::rows());
    if committed == fresh {
        return;
    }
    let (old, new) = (by_row(committed), by_row(&fresh));
    let mut diffs = Vec::new();
    for (key, line) in &new {
        match old.get(key) {
            Some(was) if was == line => {}
            Some(was) => diffs.push(format!(
                "row {key} |\n  EXPERIMENTS.md: {was}\n  rows():         {line}"
            )),
            None => diffs.push(format!("row {key} | is not in EXPERIMENTS.md:\n  {line}")),
        }
    }
    let dropped = old.keys().filter(|key| !new.contains_key(*key));
    diffs.extend(dropped.map(|key| format!("row {key} | is in EXPERIMENTS.md, not in rows()")));
    if diffs.is_empty() {
        diffs.push("the rows are the same but their order or spacing differs".into());
    }
    panic!(
        "EXPERIMENTS.md's record block is stale; paste the output of \
         `cargo run --release -p bench --bin all` between its markers.\n{}",
        diffs.join("\n")
    );
}
