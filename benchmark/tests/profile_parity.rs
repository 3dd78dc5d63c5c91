//! A standalone package does not inherit the root `[profile.release]`.
//! If the two tables differ, the benchmark measures a simulator built
//! differently from the one `cargo build --release` at the root makes.

use std::path::Path;

/// The `key = value` lines of a manifest's `[profile.release]` table,
/// whitespace-normalised and sorted.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text =
        std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
    let mut lines: Vec<String> = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_matches_the_root_workspace() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = release_profile(&here.join("../Cargo.toml"));
    let mine = release_profile(&here.join("Cargo.toml"));
    assert!(
        !root.is_empty(),
        "the root manifest has no [profile.release] table to mirror"
    );
    assert_eq!(
        mine, root,
        "benchmark/Cargo.toml [profile.release] must equal the root's"
    );
}
