//! The public surface is what something calls. This scan lists every `pub`
//! `fn`, `struct`, `enum`, `const`, `trait`, `type` and `static` of the
//! library crates (`crates/*/src`) whose name appears nowhere else in
//! non-test code: `crates/*/src`, the facade (`src/`), `examples/` and
//! `benchmark/src`, with comments, literals and `#[cfg(test)]` items left
//! out. The scan goes by name, so an item that shares its name with another
//! identifier counts as called.
//!
//! The list must equal [`UNCALLED`]. A new item on it is either narrowed
//! (`pub(crate)`, or deleted if nothing then calls it) or added to the pin
//! with the reason it stays public.

use std::fs;
use std::path::{Path, PathBuf};

/// The uncalled public items, as `path::name`, sorted. Each stays public
/// because an integration test (`tests/`, `crates/*/tests`), which the scan
/// does not read, calls it.
const UNCALLED: &[&str] = &[
    // tests/property_based.rs
    "crates/combinatorics/src/binomial.rs::lemma_a1_holds",
    "crates/combinatorics/src/binomial.rs::lemma_a2_bound",
    // tests/construction_invariants.rs, crates/constructions/tests/mpath_decision.rs
    "crates/constructions/src/mpath.rs::contains_quorum",
    // tests/property_based.rs
    "crates/core/src/bitset.rs::complement",
    "crates/core/src/bitset.rs::difference",
    "crates/core/src/bitset.rs::intersection",
    // tests/masking_and_measures.rs
    "crates/core/src/bounds.rs::crash_probability_lower_bound_masking",
    "crates/core/src/bounds.rs::crash_probability_lower_bound_tight",
    "crates/core/src/bounds.rs::proposition_4_5_applies",
    // tests/empirical_load_regression.rs
    "crates/core/src/strategic.rs::strategy_load",
    // tests/property_based.rs
    "crates/graph/src/crossing_dp.rs::DEFAULT_PRUNE_EPSILON",
    // crates/graph/tests/capped_crossing.rs
    "crates/graph/src/disjoint_paths.rs::are_disjoint_crossings",
    // crates/net/tests/codec_props.rs, crates/net/tests/corruption_reconnect.rs
    "crates/net/src/codec.rs::buffered",
    // tests/register_lifecycle.rs, crates/epoch/tests/epoch_e2e.rs
    "crates/service/src/client.rs::with_epoch",
];

/// The item kinds the scan looks at.
const KINDS: &[&str] = &["fn", "struct", "enum", "const", "trait", "type", "static"];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("a readable directory") {
        let path = entry.expect("a readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
}

/// The identifiers and punctuation of a Rust source, one token each, with
/// comments, string and character literals, lifetimes and numbers left out.
fn tokens(source: &str) -> Vec<String> {
    let s: Vec<char> = source.chars().collect();
    let at = |i: usize| s.get(i).copied().unwrap_or('\0');
    let ident = |c: char| c == '_' || c.is_alphanumeric();
    let mut out = Vec::new();
    let mut i = 0;
    while i < s.len() {
        let c = s[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '/' && at(i + 1) == '/' {
            while i < s.len() && s[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < s.len() {
                if s[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if s[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            i += 1;
            while i < s.len() && s[i] != '"' {
                i += if s[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
        } else if c == '\'' {
            if at(i + 1) == '\\' {
                // An escaped character: skip the escape, then find the quote.
                i += 3;
                while i < s.len() && s[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if at(i + 2) == '\'' {
                i += 3;
            } else {
                // A lifetime or a label.
                i += 1;
                while ident(at(i)) {
                    i += 1;
                }
            }
        } else if c.is_ascii_digit() {
            while ident(at(i)) {
                i += 1;
            }
        } else if ident(c) {
            let start = i;
            while ident(at(i)) {
                i += 1;
            }
            let word: String = s[start..i].iter().collect();
            if matches!(word.as_str(), "r" | "br") && matches!(at(i), '"' | '#') {
                // A raw string: r#"..."# with as many hashes on each side.
                let hashes = s[i..].iter().take_while(|&&c| c == '#').count();
                i += hashes + 1;
                while i < s.len()
                    && !(s[i] == '"' && s[i + 1..].iter().take(hashes).all(|&c| c == '#'))
                {
                    i += 1;
                }
                i += hashes + 1;
            } else if !(word == "b" && matches!(at(i), '"' | '\'')) {
                out.push(word);
            }
        } else {
            out.push(c.to_string());
            i += 1;
        }
    }
    out
}

/// `tokens` without the items marked `#[cfg(test)]`: each ends at its first
/// `;` or at the brace that closes its first block.
fn without_test_items(tokens: Vec<String>) -> Vec<String> {
    const MARK: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        let marked = tokens
            .get(i..i + MARK.len())
            .is_some_and(|window| window.iter().zip(MARK).all(|(t, m)| t == m));
        if !marked {
            out.push(tokens[i].clone());
            i += 1;
            continue;
        }
        i += MARK.len();
        let (mut nesting, mut braces) = (0i32, 0i32);
        while i < tokens.len() {
            let token = tokens[i].as_str();
            i += 1;
            match token {
                "(" | "[" => nesting += 1,
                ")" | "]" => nesting -= 1,
                "{" => braces += 1,
                "}" => {
                    braces -= 1;
                    if braces == 0 {
                        break;
                    }
                }
                ";" if nesting == 0 && braces == 0 => break,
                _ => {}
            }
        }
    }
    out
}

/// The names of the `pub` items among `tokens` (`pub(crate)` and the like
/// are not `pub`).
fn public_items(tokens: &[String]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if token != "pub" {
            continue;
        }
        // Qualifiers before `fn`: `pub const fn`, `pub unsafe fn`, ...
        let mut k = i + 1;
        while matches!(tokens[k].as_str(), "const" | "unsafe" | "async" | "extern")
            && matches!(tokens[k + 1].as_str(), "fn" | "unsafe" | "async" | "extern")
        {
            k += 1;
        }
        if KINDS.contains(&tokens[k].as_str()) {
            let name = if tokens[k + 1] == "mut" { k + 2 } else { k + 1 };
            names.push(tokens[name].clone());
        }
    }
    names
}

#[test]
fn every_public_item_is_called_or_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut library = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        rust_files(
            &krate.expect("a crate directory").path().join("src"),
            &mut library,
        );
    }
    let mut callers = Vec::new();
    for dir in ["src", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut callers);
    }

    let read = |path: &PathBuf| {
        without_test_items(tokens(
            &fs::read_to_string(path).expect("a readable source"),
        ))
    };
    let library: Vec<(&PathBuf, Vec<String>)> = library.iter().map(|p| (p, read(p))).collect();
    let callers: Vec<Vec<String>> = callers.iter().map(read).collect();
    let mut uses = std::collections::HashMap::<&str, usize>::new();
    for token in library
        .iter()
        .flat_map(|(_, t)| t)
        .chain(callers.iter().flatten())
    {
        *uses.entry(token).or_default() += 1;
    }

    let mut uncalled: Vec<String> = library
        .iter()
        .flat_map(|(path, tokens)| {
            let relative = path
                .strip_prefix(root)
                .expect("under the root")
                .display()
                .to_string();
            public_items(tokens)
                .into_iter()
                .filter(|name| uses[name.as_str()] == 1)
                .map(move |name| format!("{relative}::{name}"))
        })
        .collect();
    uncalled.sort();

    let pinned: Vec<String> = UNCALLED.iter().map(|s| s.to_string()).collect();
    let new: Vec<&String> = uncalled
        .iter()
        .filter(|item| !pinned.contains(item))
        .collect();
    let gone: Vec<&String> = pinned
        .iter()
        .filter(|item| !uncalled.contains(item))
        .collect();
    assert!(
        new.is_empty() && gone.is_empty(),
        "uncalled public items changed\n  newly uncalled: {new:#?}\n  no longer uncalled: {gone:#?}"
    );
}
