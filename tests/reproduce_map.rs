//! `REPRODUCE.md` is the map from every paper table / figure and every
//! repo claim to the one command that reproduces it. This suite keeps
//! the map and the tree in step, in both directions: a bench bin or a
//! committed `BENCH_*.json` that the map does not name fails, and so
//! does a `--bin` or a `BENCH_*.json` that `REPRODUCE.md` or `README.md`
//! names and the tree does not have.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(name: &str) -> String {
    fs::read_to_string(root().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// File names in `dir` (relative to the root) accepted by `keep`.
fn names_in(dir: &str, keep: impl Fn(&str) -> bool) -> BTreeSet<String> {
    fs::read_dir(root().join(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|n| keep(n))
        .collect()
}

/// Whether some crate has a `src/bin/<name>.rs`.
fn bin_exists(name: &str) -> bool {
    names_in("crates", |_| true).iter().any(|c| {
        root()
            .join(format!("crates/{c}/src/bin/{name}.rs"))
            .is_file()
    })
}

fn is_result_file(name: &str) -> bool {
    name.starts_with("BENCH_") && name.ends_with(".json")
}

/// Every `<name>` of a `--bin <name>` in `text` (a placeholder such as
/// `--bin …` names nothing).
fn named_bins(text: &str) -> impl Iterator<Item = &str> {
    text.match_indices("--bin ")
        .map(move |(i, marker)| {
            let rest = &text[i + marker.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|name| !name.is_empty())
}

/// Every `BENCH_<x>.json` that `text` spells out (`BENCH_*.json` does not).
fn named_results(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| is_result_file(token))
}

#[test]
fn every_bench_bin_and_result_file_is_in_the_map() {
    let map = read("REPRODUCE.md");
    for bin in names_in("crates/bench/src/bin", |n| n.ends_with(".rs")) {
        let stem = bin.trim_end_matches(".rs");
        assert!(
            named_bins(&map).any(|b| b == stem),
            "crates/bench/src/bin/{bin} has no `--bin {stem}` row in REPRODUCE.md"
        );
    }
    for file in names_in(".", is_result_file) {
        assert!(
            named_results(&map).any(|r| r == file),
            "{file} is committed but REPRODUCE.md does not name it"
        );
    }
}

#[test]
fn every_bin_and_result_file_the_docs_name_exists() {
    let results = names_in(".", is_result_file);
    for doc in ["REPRODUCE.md", "README.md"] {
        let text = read(doc);
        for bin in named_bins(&text) {
            assert!(
                bin_exists(bin),
                "{doc} names `--bin {bin}`: no such bin under crates/"
            );
        }
        for file in named_results(&text) {
            assert!(
                results.contains(file),
                "{doc} names {file}, which is not in the repository root"
            );
        }
    }
}
