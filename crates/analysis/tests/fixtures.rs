//! One positive (finding-producing) and one negative (clean) fixture per
//! rule, driven through the real rule entry points. The fixtures live
//! under `tests/fixtures/` and are parsed with whatever workspace-
//! relative path the rule under test keys on, so path-scoped rules
//! (panic-free crates, the proto/shard file tables) see them exactly as
//! they would see real sources.

use dblsh_analyze::findings::Finding;
use dblsh_analyze::rules::{lock_order, simple, wire};
use dblsh_analyze::source::SourceFile;
use dblsh_analyze::workspace::Workspace;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn file_as(rel_path: &str, name: &str) -> SourceFile {
    SourceFile::parse(rel_path.to_string(), &fixture(name), false)
}

fn ws_of(file: SourceFile) -> Workspace {
    Workspace {
        root: std::path::PathBuf::new(),
        files: vec![file],
    }
}

fn messages(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|f| format!("{}:{} [{}] {}\n", f.path, f.line, f.rule, f.message))
        .collect()
}

#[test]
fn unsafe_safety_fixtures() {
    let bad = simple::check_single(
        simple::UNSAFE_SAFETY,
        file_as("crates/data/src/fixture.rs", "unsafe_safety_bad.rs"),
    );
    assert_eq!(bad.len(), 1, "bad fixture: {}", messages(&bad));
    assert_eq!(bad[0].rule, simple::UNSAFE_SAFETY);

    let ok = simple::check_single(
        simple::UNSAFE_SAFETY,
        file_as("crates/data/src/fixture.rs", "unsafe_safety_ok.rs"),
    );
    assert!(ok.is_empty(), "ok fixture: {}", messages(&ok));
}

#[test]
fn panic_free_fixtures() {
    let bad = simple::check_single(
        simple::PANIC_FREE,
        file_as("crates/serve/src/fixture.rs", "panic_free_bad.rs"),
    );
    assert_eq!(
        bad.len(),
        2,
        "bad fixture has a panic! and an unwrap: {}",
        messages(&bad)
    );

    let ok = simple::check_single(
        simple::PANIC_FREE,
        file_as("crates/serve/src/fixture.rs", "panic_free_ok.rs"),
    );
    assert!(ok.is_empty(), "ok fixture: {}", messages(&ok));

    // The same panicking source outside the serving surface is not a
    // finding — the rule is path-scoped.
    let elsewhere = simple::check_single(
        simple::PANIC_FREE,
        file_as("crates/bench/src/fixture.rs", "panic_free_bad.rs"),
    );
    assert!(elsewhere.is_empty(), "path scope: {}", messages(&elsewhere));
}

#[test]
fn inline_suppression_silences_and_counts() {
    let ws = ws_of(file_as(
        "crates/serve/src/fixture.rs",
        "panic_free_suppressed.rs",
    ));
    let analysis = dblsh_analyze::analyze(&ws, &[], &[]);
    assert!(
        analysis.findings.is_empty(),
        "suppressed fixture: {}",
        messages(&analysis.findings)
    );
    assert_eq!(analysis.suppressed, 1);
}

#[test]
fn atomic_ordering_fixtures() {
    let bad = simple::check_single(
        simple::ATOMIC_ORDERING,
        file_as("crates/telemetry/src/fixture.rs", "atomic_ordering_bad.rs"),
    );
    assert_eq!(bad.len(), 1, "bad fixture: {}", messages(&bad));
    assert!(bad[0].message.contains("Relaxed"));

    let ok = simple::check_single(
        simple::ATOMIC_ORDERING,
        file_as("crates/telemetry/src/fixture.rs", "atomic_ordering_ok.rs"),
    );
    assert!(ok.is_empty(), "ok fixture: {}", messages(&ok));
}

#[test]
fn lock_order_fixtures() {
    let mut bad = Vec::new();
    lock_order::check(
        &ws_of(file_as("crates/serve/src/shard.rs", "lock_order_bad.rs")),
        &mut bad,
    );
    assert_eq!(bad.len(), 1, "bad fixture: {}", messages(&bad));
    assert!(bad[0].message.contains("inversion"), "{}", bad[0].message);

    let mut ok = Vec::new();
    lock_order::check(
        &ws_of(file_as("crates/serve/src/shard.rs", "lock_order_ok.rs")),
        &mut ok,
    );
    assert!(ok.is_empty(), "ok fixture: {}", messages(&ok));
}

#[test]
fn wire_fixtures() {
    let mut bad = Vec::new();
    wire::check(
        &ws_of(file_as("crates/net/src/proto.rs", "wire_bad.rs")),
        &mut bad,
    );
    assert_eq!(bad.len(), 1, "bad fixture: {}", messages(&bad));
    assert!(bad[0].message.contains("OP_GHOST"), "{}", bad[0].message);

    let mut ok = Vec::new();
    wire::check(
        &ws_of(file_as("crates/net/src/proto.rs", "wire_ok.rs")),
        &mut ok,
    );
    assert!(ok.is_empty(), "ok fixture: {}", messages(&ok));
}
