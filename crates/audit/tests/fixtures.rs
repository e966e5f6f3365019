//! Fixture tests: each seeded-violation file under `tests/fixtures/`
//! must produce exactly the expected `file:line rule` findings when
//! analyzed under a virtual repo-relative path, the waived fixture must
//! come back clean, and the real tree must audit clean end to end.

use pacga_audit::{analyze_source, audit_tree, AuditConfig, Rule};

/// Runs a fixture under a virtual path and returns `(line, rule)` pairs.
fn findings(virtual_path: &str, source: &str) -> Vec<(usize, Rule)> {
    analyze_source(virtual_path, source, &AuditConfig::default())
        .into_iter()
        .inspect(|v| assert_eq!(v.file, virtual_path))
        .map(|v| (v.line, v.rule))
        .collect()
}

#[test]
fn a1_fixture_flags_unjustified_and_seqcst_orderings() {
    let got = findings("crates/core/src/fixture_a1.rs", include_str!("fixtures/a1_violation.rs"));
    assert_eq!(got, vec![(6, Rule::A1), (10, Rule::A1)]);
}

#[test]
fn a2_fixture_flags_unwrap_expect_panic_and_indexing() {
    let got =
        findings("crates/service/src/fixture_a2.rs", include_str!("fixtures/a2_violation.rs"));
    assert_eq!(got, vec![(4, Rule::A2), (5, Rule::A2), (7, Rule::A2), (9, Rule::A2)]);
}

#[test]
fn a2_fixture_is_clean_outside_service() {
    // The same source under a non-service path is out of A2's scope.
    let got = findings("crates/core/src/fixture_a2.rs", include_str!("fixtures/a2_violation.rs"));
    assert!(got.is_empty(), "A2 leaked outside crates/service/src: {got:?}");
}

#[test]
fn a3_fixture_flags_all_three_schedule_internals() {
    let got = findings("crates/core/src/fixture_a3.rs", include_str!("fixtures/a3_violation.rs"));
    assert_eq!(got, vec![(6, Rule::A3), (6, Rule::A3), (6, Rule::A3)]);
}

#[test]
fn a3_fixture_is_exempt_inside_scheduling() {
    let got =
        findings("crates/scheduling/src/fixture_a3.rs", include_str!("fixtures/a3_violation.rs"));
    assert!(got.is_empty(), "unexpected findings: {got:?}");
}

#[test]
fn a4_fixture_flags_raw_write_and_create() {
    let got =
        findings("crates/service/src/fixture_a4.rs", include_str!("fixtures/a4_violation.rs"));
    assert_eq!(got, vec![(6, Rule::A4), (7, Rule::A4)]);
}

#[test]
fn a4_fixture_is_clean_outside_its_scope() {
    // A4 only guards crates/service/** and crates/core/src/checkpoint.rs.
    let got = findings("crates/stats/src/fixture_a4.rs", include_str!("fixtures/a4_violation.rs"));
    assert!(got.is_empty(), "unexpected findings: {got:?}");
}

#[test]
fn a5_fixture_flags_brace_and_qualified_mutex() {
    let got = findings("crates/core/src/fixture_a5.rs", include_str!("fixtures/a5_violation.rs"));
    assert_eq!(got, vec![(3, Rule::A5), (6, Rule::A5)]);
}

#[test]
fn a6_fixture_flags_env_mutation_but_not_child_env() {
    let got = findings("crates/core/src/fixture_a6.rs", include_str!("fixtures/a6_violation.rs"));
    assert_eq!(got, vec![(4, Rule::A6), (7, Rule::A6), (8, Rule::A6), (9, Rule::A6)]);
}

#[test]
fn a6_fixture_covers_test_files_in_crates() {
    // Tests are where env races live, so A6 has no test exemption: it
    // covers crates/*/tests and the root tests/ alike.
    let fixture = include_str!("fixtures/a6_violation.rs");
    let got = findings("crates/bench/tests/fixture_a6.rs", fixture);
    assert_eq!(got.len(), 4, "A6 must cover crates/*/tests: {got:?}");
    let root = findings("tests/fixture_a6.rs", fixture);
    assert_eq!(root.len(), 4, "A6 must cover the root tests/: {root:?}");
    let outside = findings("vendor/rand/src/fixture_a6.rs", fixture);
    assert!(outside.is_empty(), "A6 leaked into vendor/: {outside:?}");
}

#[test]
fn waived_fixture_is_clean_under_the_strictest_scope() {
    let got = findings("crates/service/src/fixture_waived.rs", include_str!("fixtures/waived.rs"));
    assert!(got.is_empty(), "waivers did not suppress: {got:?}");
}

#[test]
fn exact_report_lines_match_the_contract() {
    // The `file:line rule message` shape is load-bearing: ci.sh greps it
    // and humans click it. Pin one rendered line per seeded fixture.
    let render = |path: &str, src: &str| {
        analyze_source(path, src, &AuditConfig::default())
            .into_iter()
            .map(|v| {
                let s = v.to_string();
                s.split_whitespace().take(2).collect::<Vec<_>>().join(" ")
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        render("crates/core/src/fixture_a1.rs", include_str!("fixtures/a1_violation.rs")),
        vec!["crates/core/src/fixture_a1.rs:6 A1", "crates/core/src/fixture_a1.rs:10 A1"]
    );
    assert_eq!(
        render("crates/service/src/fixture_a4.rs", include_str!("fixtures/a4_violation.rs")),
        vec!["crates/service/src/fixture_a4.rs:6 A4", "crates/service/src/fixture_a4.rs:7 A4"]
    );
    assert_eq!(
        render("crates/core/src/fixture_a6.rs", include_str!("fixtures/a6_violation.rs")),
        vec![
            "crates/core/src/fixture_a6.rs:4 A6",
            "crates/core/src/fixture_a6.rs:7 A6",
            "crates/core/src/fixture_a6.rs:8 A6",
            "crates/core/src/fixture_a6.rs:9 A6",
        ]
    );
}

#[test]
fn real_tree_audits_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (n_files, violations) = audit_tree(&root, &AuditConfig::default()).expect("walk repo tree");
    assert!(n_files > 50, "walker found implausibly few files: {n_files}");
    assert!(
        violations.is_empty(),
        "tree is not audit-clean:\n{}",
        violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}
