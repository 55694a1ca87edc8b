//! Every crate a workspace manifest lists under `[dependencies]` or
//! `[dev-dependencies]` is named — as an identifier, in code or in a
//! comment — by some `.rs` file of that package. A dead edge costs
//! build time and misleads a reader about what a crate uses. And plain
//! `cargo test` at the root tests every workspace member.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Dead edges that stay until the next change under `benchmark/`:
/// dropping them rewrites `benchmark/Cargo.lock`, which a change to the
/// program may not touch (ROADMAP item 4, the `[benchmark]` PR).
const KEPT_FOR_BENCHMARK_LOCK: [(&str, &str); 6] = [
    ("netsim", "baselines"),
    ("netsim", "des"),
    ("netsim", "rand"),
    ("netsim", "sfq-engine"),
    ("servers", "rand"),
    ("traffic", "rand"),
];

/// Every identifier in the `.rs` files under `dir`, at any depth.
fn identifiers(dir: &Path, out: &mut BTreeSet<String>) {
    for path in fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
    {
        if path.is_dir() {
            identifiers(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") && !path.ends_with(file!()) {
            // (This file is skipped: it names crates only as data.)
            let text = fs::read_to_string(&path).expect("readable");
            out.extend(
                text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .map(String::from),
            );
        }
    }
}

#[test]
fn listed_dependencies_are_named_by_the_package() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // (package directory, where its sources live)
    let mut packages = vec![(root.to_path_buf(), vec!["src", "tests", "examples"])];
    for members in ["crates", "shims"] {
        let dirs = fs::read_dir(root.join(members)).expect("a member directory");
        packages.extend(dirs.flatten().map(|entry| (entry.path(), vec![""])));
    }
    let mut dead = BTreeSet::new();
    for (dir, sources) in &packages {
        let mut named = BTreeSet::new();
        for source in sources {
            identifiers(&dir.join(source), &mut named);
        }
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("a manifest");
        let lines = manifest.lines().map(str::trim);
        let package = lines
            .clone()
            .find_map(|l| l.strip_prefix("name = "))
            .expect("a name");
        let mut table = "";
        for line in lines {
            if line.starts_with('[') {
                table = line;
            } else if ["[dependencies]", "[dev-dependencies]"].contains(&table) {
                let dep = line.split(['.', '=', ' ', '#']).next().unwrap_or("");
                if !dep.is_empty() && !named.contains(&dep.replace('-', "_")) {
                    dead.insert((package.trim_matches('"').to_string(), dep.to_string()));
                }
            }
        }
    }
    let kept: BTreeSet<_> = KEPT_FOR_BENCHMARK_LOCK
        .iter()
        .map(|&(p, d)| (p.to_string(), d.to_string()))
        .collect();
    let unexpected: Vec<_> = dead.difference(&kept).collect();
    let stale: Vec<_> = kept.difference(&dead).collect();
    assert!(
        unexpected.is_empty() && stale.is_empty(),
        "(package, dependency) edges no source of the package names: {unexpected:?}\n\
         listed in KEPT_FOR_BENCHMARK_LOCK but no longer dead: {stale:?}"
    );
}

/// The entries of the root manifest's one-line `key = [..]` array.
fn array(manifest: &str, key: &str) -> Vec<String> {
    let list = manifest
        .lines()
        .find_map(|l| l.strip_prefix(key)?.trim_start().strip_prefix('='))
        .unwrap_or_else(|| panic!("no `{key}` in the root manifest"));
    list.trim()
        .trim_start_matches('[')
        .trim_end_matches(']')
        .split(',')
        .map(|e| e.trim().trim_matches('"').to_string())
        .filter(|e| !e.is_empty())
        .collect()
}

/// The package directories a `members` entry names: the entry itself, or
/// for `dir/*` every directory under `dir` that holds a manifest.
fn packages(root: &Path, entry: &str) -> Vec<PathBuf> {
    match entry.strip_suffix("/*") {
        Some(dir) => fs::read_dir(root.join(dir))
            .expect("a member directory")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect(),
        None => vec![root.join(entry)],
    }
}

#[test]
fn plain_cargo_test_covers_every_member() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("a manifest");
    let expand = |key| -> BTreeSet<PathBuf> {
        array(&manifest, key)
            .iter()
            .flat_map(|e| packages(root, e))
            .collect()
    };
    // The root manifest is a package too, and a member whatever `members` says.
    let mut members = expand("members");
    members.insert(root.to_path_buf());
    let defaults = expand("default-members");
    let skipped: Vec<_> = members.difference(&defaults).collect();
    assert!(
        members.len() > 1 && skipped.is_empty(),
        "workspace members that `cargo test` at the root skips \
         (add them to `default-members`): {skipped:?}"
    );
}
