//! Fixture tests: every rule fires on a known-bad snippet at the expected
//! line, a clean file under the strictest scope yields no findings, and a
//! justified annotation suppresses exactly the finding it covers.
//!
//! The fixtures live under `tests/fixtures/` which the workspace walk
//! excludes (`WALK_EXCLUDES`), so the rule violations they contain on
//! purpose never show up in a `--workspace` run; the tests feed them to
//! `lint_file` directly with a fake repo-relative path that puts them in
//! the scope under test.

use imdpp_lint::rules::{lint_file, FileLint};

fn fixture(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    std::fs::read_to_string(format!("{path}/{name}"))
        .unwrap_or_else(|e| panic!("reading fixture {name}: {e}"))
}

fn lint_fixture(name: &str, fake_rel_path: &str) -> FileLint {
    lint_file(fake_rel_path, &fixture(name))
}

/// (rule, line) pairs of a lint result, in report order.
fn fired(result: &FileLint) -> Vec<(&str, usize)> {
    result.findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn hash_order_fires_on_for_loop_and_method_iteration() {
    let result = lint_fixture("hash_order_bad.rs", "crates/graph/src/fixture.rs");
    assert_eq!(
        fired(&result),
        vec![("hash-order", 7), ("hash-order", 14)],
        "expected the `for t in picked` loop and the `adjacency.values()` \
         call to be flagged: {:#?}",
        result.findings
    );
}

#[test]
fn hash_order_is_scoped_to_determinism_critical_crates() {
    // The same source linted as if it lived in the obs crate (out of
    // scope) produces no hash-order findings.
    let result = lint_fixture("hash_order_bad.rs", "crates/obs/src/fixture.rs");
    assert!(
        result.findings.is_empty(),
        "hash-order must not fire outside its scoped crates: {:#?}",
        result.findings
    );
}

#[test]
fn float_accum_fires_on_compound_assignment_over_oracle_values() {
    let result = lint_fixture("float_accum_bad.rs", "crates/core/src/nominees.rs");
    assert_eq!(
        fired(&result),
        vec![("float-accum", 8)],
        "expected `current_value += gain` to be flagged: {:#?}",
        result.findings
    );
}

#[test]
fn float_accum_is_scoped_to_selection_and_repair_files() {
    let result = lint_fixture("float_accum_bad.rs", "crates/graph/src/fixture.rs");
    assert!(
        result.findings.is_empty(),
        "float-accum must not fire outside its scoped files: {:#?}",
        result.findings
    );
}

#[test]
fn atomics_fire_everywhere_and_seqcst_is_unsuppressible() {
    let result = lint_fixture("atomic_bad.rs", "crates/obs/src/fixture.rs");
    let rules_and_lines = fired(&result);
    // The unannotated Relaxed site needs a justification.
    assert!(
        rules_and_lines.contains(&("atomic-ordering", 6)),
        "expected the Relaxed fetch_add to be flagged: {:#?}",
        result.findings
    );
    // SeqCst is denied outright even though the site carries a justified
    // allow(atomic-seqcst) — and that allow, having suppressed nothing,
    // is itself reported as stale.
    assert!(
        rules_and_lines.contains(&("atomic-seqcst", 11)),
        "expected the SeqCst load to be flagged despite its annotation: {:#?}",
        result.findings
    );
    assert!(
        rules_and_lines.contains(&("unused-allow", 10)),
        "expected the ineffective allow(atomic-seqcst) to be reported stale: {:#?}",
        result.findings
    );
}

#[test]
fn clock_and_spawn_fire_outside_their_allowed_homes() {
    let result = lint_fixture("clock_spawn_bad.rs", "crates/engine/src/fixture.rs");
    assert_eq!(
        fired(&result),
        vec![("clock", 6), ("spawn", 7)],
        "expected Instant::now and thread::spawn to be flagged: {:#?}",
        result.findings
    );
    // The `.unwrap()` on line 8 is a panic site (budgeted per crate), not
    // a per-site finding.
    assert_eq!(result.panic_sites, vec![8]);
}

#[test]
fn clock_is_allowed_in_obs_and_spawn_only_in_the_work_queue() {
    let in_obs = lint_fixture("clock_spawn_bad.rs", "crates/obs/src/fixture.rs");
    assert!(
        !fired(&in_obs).contains(&("clock", 6)),
        "clock reads are free inside crates/obs: {:#?}",
        in_obs.findings
    );
    let in_queue = lint_fixture("clock_spawn_bad.rs", "crates/diffusion/src/par.rs");
    assert!(
        !fired(&in_queue).contains(&("spawn", 7)),
        "thread creation is free inside the work-queue module: {:#?}",
        in_queue.findings
    );
    // The parallel callers of the queue get no exemption of their own.
    for path in [
        "crates/sketch/src/sampler.rs",
        "crates/sketch/src/sharded.rs",
        "crates/diffusion/src/montecarlo.rs",
    ] {
        let result = lint_fixture("clock_spawn_bad.rs", path);
        assert!(
            fired(&result).contains(&("spawn", 7)),
            "thread creation must be flagged in {path}: {:#?}",
            result.findings
        );
    }
}

#[test]
fn clean_fixture_produces_no_findings_under_the_strictest_scope() {
    // nominees.rs is in both the hash-order crate scope and the
    // float-accum file scope; the clean fixture survives both.
    let result = lint_fixture("clean.rs", "crates/core/src/nominees.rs");
    assert!(
        result.findings.is_empty(),
        "clean fixture must lint clean: {:#?}",
        result.findings
    );
    assert!(result.panic_sites.is_empty());
}

#[test]
fn justified_annotations_suppress_and_are_consumed() {
    let result = lint_fixture("suppressed.rs", "crates/graph/src/fixture.rs");
    assert!(
        result.findings.is_empty(),
        "justified allows must suppress their findings without tripping \
         unused-allow: {:#?}",
        result.findings
    );
}

#[test]
fn unjustified_annotation_does_not_suppress() {
    // Strip the justification off the suppressed fixture's first allow:
    // the finding comes back AND the annotation itself is reported.
    let source = fixture("suppressed.rs").replace(
        "// lint: allow(hash-order) — collected and sorted right below.",
        "// lint: allow(hash-order)",
    );
    let result = lint_file("crates/graph/src/fixture.rs", &source);
    let rules_and_lines = fired(&result);
    assert!(
        rules_and_lines.contains(&("hash-order", 8)),
        "an unjustified allow must not suppress: {:#?}",
        result.findings
    );
    assert!(
        rules_and_lines.contains(&("bad-annotation", 7)),
        "the unjustified allow itself must be reported: {:#?}",
        result.findings
    );
}
