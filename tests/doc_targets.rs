//! Documentation, CI, the verify skill and Rust comments may only name
//! cargo targets that exist: every `--bin|--example|--test|--bench
//! <name>` they cite must be a target file of the workspace (or of
//! `benchmark/`), or a `[[bin]]`/`[[bench]]` name in a crate manifest.
//! The documents may only cite items that exist: every `<file>.rs::<name>`
//! must name a Rust file of the workspace and an item in it.
//! `CHANGES.md` and `ROADMAP.md` are history and are not scanned.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The documents at the repository root that both checks scan.
const TOP_LEVEL_DOCS: [&str; 4] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "CONTRIBUTING.md",
];

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

/// Every file with extension `ext` under `dir` (relative to the
/// repository root), at any depth.
fn files_under(dir: impl AsRef<Path>, ext: &str) -> Vec<PathBuf> {
    let mut files = ls(&dir, ext);
    files.extend(ls(&dir, "").into_iter().flat_map(|d| files_under(d, ext)));
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

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs: Vec<PathBuf> = TOP_LEVEL_DOCS.map(|f| root.join(f)).into();
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
    for file in sources.into_iter().flat_map(|d| files_under(d, "rs")) {
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

/// The Markdown documents whose `<file>.rs::<name>` citations are
/// checked: the top-level ones, `docs/` and every crate's.
fn cited_docs() -> Vec<PathBuf> {
    let mut docs: Vec<PathBuf> = TOP_LEVEL_DOCS.map(PathBuf::from).into();
    docs.extend(ls("docs", "md"));
    docs.extend(files_under("crates", "md"));
    docs
}

/// Every `<path>.rs::<name>` in `text`: the path as written (any prefix
/// of a workspace path ending in `.rs`) and the name, which may end in
/// `*` to mean a prefix.
fn item_citations(text: &str) -> Vec<(&str, &str)> {
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_/.-".contains(c);
    let name_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '*';
    let mut found = Vec::new();
    for (at, _) in text.match_indices(".rs::") {
        let start = text[..at].rfind(|c| !path_char(c)).map_or(0, |i| i + 1);
        let rest = &text[at + ".rs::".len()..];
        let name = &rest[..rest.find(|c| !name_char(c)).unwrap_or(rest.len())];
        if start < at && !name.is_empty() {
            found.push((&text[start..at + ".rs".len()], name));
        }
    }
    found
}

/// The names Rust source `text` declares: every identifier after `fn`,
/// `struct`, `enum`, `mod`, `trait`, `type`, `const`, `static` or
/// `macro_rules!`.
fn items(text: &str) -> BTreeSet<&str> {
    const KEYWORDS: [&str; 9] = [
        "fn",
        "struct",
        "enum",
        "mod",
        "trait",
        "type",
        "const",
        "static",
        "macro_rules",
    ];
    let mut words = text
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty());
    let mut names = BTreeSet::new();
    while let Some(word) = words.next() {
        if KEYWORDS.contains(&word) {
            names.extend(words.next());
        }
    }
    names
}

#[test]
fn cited_items_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources: Vec<(String, String)> = ["src", "tests", "examples", "crates", "benchmark/src"]
        .into_iter()
        .flat_map(|d| files_under(d, "rs"))
        .map(|file| {
            let rel = file.strip_prefix(root).expect("under the root");
            let text = fs::read_to_string(&file).expect("readable");
            (rel.to_string_lossy().into_owned(), text)
        })
        .collect();
    let (mut stale, mut checked) = (Vec::new(), 0);
    for doc in cited_docs() {
        let text = fs::read_to_string(root.join(&doc)).expect("readable");
        let doc = doc.strip_prefix(root).unwrap_or(&doc);
        for (path, name) in item_citations(&text) {
            checked += 1;
            // A bare file name may match several files; any will do.
            let files: Vec<&str> = (sources.iter())
                .filter(|(rel, _)| rel == path || rel.ends_with(&format!("/{path}")))
                .map(|(_, text)| text.as_str())
                .collect();
            let declares = |source| {
                let declared = items(source);
                match name.strip_suffix('*') {
                    Some(prefix) => declared.iter().any(|item| item.starts_with(prefix)),
                    None => declared.contains(name),
                }
            };
            if files.is_empty() {
                stale.push(format!("{}: {path}::{name}: no such file", doc.display()));
            } else if !files.into_iter().any(declares) {
                stale.push(format!("{}: {path}::{name}: no such item", doc.display()));
            }
        }
    }
    assert!(checked > 0, "no `<file>.rs::<name>` citation found");
    assert!(
        stale.is_empty(),
        "items cited that are not in the tree:\n{}",
        stale.join("\n")
    );
}
