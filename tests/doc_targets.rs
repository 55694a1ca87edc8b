//! Documentation, CI, the verify skill and Rust comments may only name
//! cargo targets that exist: every `--bin|--example|--test|--bench
//! <name>` they cite must be a target file of the workspace (or of
//! `benchmark/`), or a `[[bin]]`/`[[bench]]` name in a crate manifest.
//! `CHANGES.md` and `ROADMAP.md` are history and are not scanned.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The entries of `dir` (relative to the repository root) whose
/// extension is `ext` (`""`: those with none, i.e. the directories);
/// none when there is no such directory.
fn ls(dir: impl AsRef<Path>, ext: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let entries = fs::read_dir(dir).into_iter().flatten().flatten();
    let paths = entries.map(|e| e.path());
    paths
        .filter(|p| p.extension().map_or(ext.is_empty(), |x| x == ext))
        .collect()
}

/// Every `.rs` file under `dir` (relative to the repository root), at
/// any depth.
fn rs_files(dir: impl AsRef<Path>) -> Vec<PathBuf> {
    let mut files = ls(&dir, "rs");
    files.extend(ls(&dir, "").into_iter().flat_map(rs_files));
    files
}

#[test]
fn cited_cargo_targets_exist() {
    let crates = ls("crates", "");
    let mut target_dirs: Vec<PathBuf> = ["src/bin", "examples", "tests", "benchmark/src/bin"]
        .map(PathBuf::from)
        .into();
    for sub in ["src/bin", "tests", "benches"] {
        target_dirs.extend(crates.iter().map(|c| c.join(sub)));
    }
    let mut known: BTreeSet<String> = target_dirs
        .iter()
        .flat_map(|d| ls(d, "rs"))
        .filter_map(|p| Some(p.file_stem()?.to_str()?.to_string()))
        .collect();
    // Explicitly named targets: the `name` line under `[[bin]]` / `[[bench]]`.
    for manifest in crates.iter().flat_map(|c| ls(c, "toml")) {
        let text = fs::read_to_string(&manifest).expect("manifest");
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            if line == "[[bin]]" || line == "[[bench]]" {
                let name = lines.next().and_then(|l| l.strip_prefix("name = "));
                known.extend(name.map(|n| n.trim_matches('"').to_string()));
            }
        }
    }

    let mut docs: Vec<PathBuf> = [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        "CONTRIBUTING.md",
    ]
    .map(|f| Path::new(env!("CARGO_MANIFEST_DIR")).join(f))
    .into();
    for (dir, ext) in [
        ("docs", "md"),
        (".github/workflows", "yml"),
        (".github/scripts", "sh"),
        (".claude/skills/verify", "md"),
    ] {
        docs.extend(ls(dir, ext));
    }
    let mut texts: Vec<(PathBuf, String)> = docs
        .into_iter()
        .map(|doc| (doc.clone(), fs::read_to_string(doc).expect("readable")))
        .collect();
    // Rust sources count by their `//`, `///` and `//!` lines only.
    let mut sources: Vec<PathBuf> = ["src", "tests", "examples"].map(PathBuf::from).into();
    for sub in ["src", "tests", "benches"] {
        sources.extend(crates.iter().map(|c| c.join(sub)));
    }
    for file in sources.into_iter().flat_map(rs_files) {
        let text = fs::read_to_string(&file).expect("readable");
        let comments = text
            .lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("//"));
        texts.push((file, comments.collect::<Vec<_>>().join("\n")));
    }
    let mut missing = Vec::new();
    for (doc, text) in &texts {
        let mut words = text.split_whitespace();
        while let Some(flag) = words.next() {
            if !["--bin", "--example", "--test", "--bench"].contains(&flag) {
                continue;
            }
            // A word with no leading name characters is a placeholder
            // (`--bin <name>`), not a citation.
            let name: String = (words.next().unwrap_or("").chars())
                .take_while(|c| c.is_ascii_alphanumeric() || "_-".contains(*c))
                .collect();
            if !name.is_empty() && !known.contains(&name) {
                missing.push(format!("{}: {flag} {name}", doc.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "cargo targets cited that are not in the tree:\n{}",
        missing.join("\n")
    );
}
