//! Fixture tests: one passing and one failing source per rule family,
//! checked against the exact rules each is built to exercise.

use dimmer_lint::drift::lint_drift;
use dimmer_lint::{lint_source, Finding, ScopeFlags};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rules_in(name: &str) -> Vec<&'static str> {
    lint_source(name, &fixture(name), ScopeFlags::all())
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

#[test]
fn d_pass_is_clean() {
    assert_eq!(rules_in("d_pass.rs"), Vec::<&str>::new());
}

#[test]
fn d_fail_flags_every_entropy_source() {
    let rules = rules_in("d_fail.rs");
    for expected in ["D001", "D002", "D003", "D004"] {
        assert!(rules.contains(&expected), "missing {expected} in {rules:?}");
    }
    assert!(
        rules.iter().all(|r| r.starts_with('D')),
        "only D-rules expected, got {rules:?}"
    );
    assert_eq!(
        rules.iter().filter(|&&r| r == "D001").count(),
        2,
        "import and construction site both flagged"
    );
}

#[test]
fn h_pass_is_clean() {
    assert_eq!(rules_in("h_pass.rs"), Vec::<&str>::new());
}

#[test]
fn h_fail_flags_allocations_inside_the_region() {
    assert_eq!(rules_in("h_fail.rs"), vec!["H001", "H001"]);
}

#[test]
fn p_pass_is_clean() {
    assert_eq!(rules_in("p_pass.rs"), Vec::<&str>::new());
}

#[test]
fn p_fail_flags_unwrap_expect_and_panic() {
    assert_eq!(rules_in("p_fail.rs"), vec!["P001", "P001", "P002"]);
}

#[test]
fn scope_flags_gate_the_d_and_p_families() {
    // With both families off, even the fail fixtures are quiet (no hot
    // regions or directives are involved in d_fail/p_fail).
    let off = ScopeFlags::default();
    assert!(lint_source("d_fail.rs", &fixture("d_fail.rs"), off).is_empty());
    assert!(lint_source("p_fail.rs", &fixture("p_fail.rs"), off).is_empty());
}

fn fixture_tree(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

#[test]
fn s_pass_tree_has_no_drift() {
    let findings = lint_drift(&fixture_tree("s_pass"));
    assert!(findings.is_empty(), "unexpected drift: {findings:?}");
}

#[test]
fn s_fail_tree_drifts_in_every_family() {
    let findings = lint_drift(&fixture_tree("s_fail"));
    let rules_for =
        |rule: &str| -> Vec<&Finding> { findings.iter().filter(|f| f.rule == rule).collect() };

    // S001: the catalogue's `ghost` grid is never named in README.md;
    // `demo` is fine, and the test-only `scratch` entry needs no docs.
    let s001 = rules_for("S001");
    assert_eq!(s001.len(), 1, "{findings:?}");
    assert!(s001[0].path.ends_with("catalogue.rs"));
    assert!(s001[0].message.contains("`ghost`"));
    assert_eq!(s001[0].line, 3);

    // S002: `beta` is registered but absent from both documents.
    let s002 = rules_for("S002");
    assert_eq!(s002.len(), 2, "{findings:?}");
    assert!(s002.iter().all(|f| f.message.contains("`beta`")));

    // S003: BENCH_flood.json declares the wrong suite, has an empty
    // benchmark list, and lacks a positive headline; BENCH_mystery.json
    // has no schema at all.
    let s003 = rules_for("S003");
    assert!(s003.iter().any(|f| f.message.contains("filename declares")));
    assert!(s003.iter().any(|f| f.message.contains("empty")));
    assert!(s003
        .iter()
        .any(|f| f.message.contains("flood_kernel_speedup")));
    assert!(s003
        .iter()
        .any(|f| f.path == "BENCH_mystery.json" && f.message.contains("no declared schema")));

    // S004: `drain` is in the COMMANDS list but absent from both
    // documents; `submit` is fine.
    let s004 = rules_for("S004");
    assert_eq!(s004.len(), 2, "{findings:?}");
    assert!(s004.iter().all(|f| f.message.contains("`drain`")));
    assert!(s004.iter().all(|f| f.path.ends_with("proto.rs")));

    // S005: ARCHITECTURE.md claims `patch_speedup: 3.1` while
    // BENCH_world.json records 2.6. (BENCH_flood.json has no usable
    // headline — that is S003's finding, not a second S005.)
    let s005 = rules_for("S005");
    assert_eq!(s005.len(), 1, "{findings:?}");
    assert_eq!(s005[0].path, "ARCHITECTURE.md");
    assert!(s005[0].message.contains("patch_speedup"));
    assert!(s005[0].message.contains("3.1"));
}
