//! Fixture-based conformance suite: every rule D1–D5 and F1–F3 (plus
//! R1 and the annotation rules A1/A2) has a violating fixture that must
//! be flagged, a clean fixture that must pass untouched, and — where an
//! allow is meaningful — an allowed fixture that must be suppressed
//! without tripping A2.

use parfait_lint::rules::RuleSet;
use parfait_lint::{lint_file, parse_registry, FileCtx, FileFindings, Manifest, Registry};

fn registry() -> Registry {
    let (reg, diags) = parse_registry(
        "fixtures/registry_ok.rs",
        include_str!("../fixtures/registry_ok.rs"),
    );
    assert!(diags.is_empty(), "ok registry must parse clean: {diags:?}");
    assert_eq!(reg.entries.len(), 3);
    reg
}

fn ctx(rules: RuleSet) -> FileCtx {
    FileCtx {
        crate_name: "parfait-fixture".into(),
        path: "fixture.rs".into(),
        rules,
        is_registry: false,
    }
}

fn only(rule: &str) -> RuleSet {
    RuleSet {
        d1: rule == "d1",
        d2: rule == "d2",
        d3: rule == "d3",
        d4: rule == "d4",
        d5: rule == "d5",
        f1: rule == "f1",
        f2: rule == "f2",
        f3: rule == "f3",
    }
}

/// Lint `src` with a single rule enabled and an empty manifest.
fn lint(rule: &str, src: &str) -> FileFindings {
    lint_file(&ctx(only(rule)), src, &registry(), &Manifest::default())
}

/// Lint `src` with a single rule enabled and the given manifest text.
fn lint_with_manifest(rule: &str, src: &str, manifest: &str) -> FileFindings {
    let man = Manifest::parse(manifest).expect("test manifest parses");
    lint_file(&ctx(only(rule)), src, &registry(), &man)
}

#[test]
fn d1_violating_fixture_is_flagged() {
    let f = lint("d1", include_str!("../fixtures/d1_violate.rs"));
    assert_eq!(f.diagnostics.len(), 2, "{:?}", f.diagnostics); // use + field
    assert!(f
        .diagnostics
        .iter()
        .all(|d| d.code == "D1" && d.id == "hash-order"));
}

#[test]
fn d1_clean_fixture_passes() {
    let f = lint("d1", include_str!("../fixtures/d1_clean.rs"));
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn d1_allow_annotation_suppresses_without_a2() {
    let f = lint("d1", include_str!("../fixtures/d1_allowed.rs"));
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn d2_violating_fixture_is_flagged() {
    let f = lint("d2", include_str!("../fixtures/d2_violate.rs"));
    // `use Instant`, `Instant::now`, `SystemTime::now`.
    assert_eq!(f.diagnostics.len(), 3, "{:?}", f.diagnostics);
    assert!(f
        .diagnostics
        .iter()
        .all(|d| d.code == "D2" && d.id == "wall-clock"));
}

#[test]
fn d2_clean_fixture_passes_despite_comments_and_strings() {
    let f = lint("d2", include_str!("../fixtures/d2_clean.rs"));
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn d3_violating_fixture_is_flagged() {
    let f = lint("d3", include_str!("../fixtures/d3_violate.rs"));
    // Bare `split(617)` plus `split(RECOVERY_STREAM)` (unregistered name).
    assert_eq!(f.diagnostics.len(), 2, "{:?}", f.diagnostics);
    assert!(f
        .diagnostics
        .iter()
        .all(|d| d.code == "D3" && d.id == "rng-stream"));
}

#[test]
fn d3_clean_fixture_passes_and_str_split_is_ignored() {
    let f = lint("d3", include_str!("../fixtures/d3_clean.rs"));
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn d3_allow_annotation_suppresses() {
    let f = lint("d3", include_str!("../fixtures/d3_allowed.rs"));
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn d3_registry_name_shadowing_is_flagged() {
    let f = lint("d3", include_str!("../fixtures/d3_shadow.rs"));
    assert_eq!(f.diagnostics.len(), 1, "{:?}", f.diagnostics);
    assert!(f.diagnostics[0].msg.contains("shadows"));
}

#[test]
fn d4_violating_fixture_is_flagged() {
    let f = lint("d4", include_str!("../fixtures/d4_violate.rs"));
    // `use Mutex`, the `Mutex<...>` field, and `thread::spawn`.
    assert_eq!(f.diagnostics.len(), 3, "{:?}", f.diagnostics);
    assert!(f
        .diagnostics
        .iter()
        .all(|d| d.code == "D4" && d.id == "sync-primitive"));
}

#[test]
fn d4_clean_fixture_passes_with_non_thread_spawn() {
    let f = lint("d4", include_str!("../fixtures/d4_clean.rs"));
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn d5_violating_fixture_counts_panics_and_unwraps() {
    let f = lint("d5", include_str!("../fixtures/d5_violate.rs"));
    assert_eq!((f.panics, f.unwraps), (2, 3));
}

#[test]
fn d5_clean_fixture_counts_zero_outside_tests() {
    let f = lint("d5", include_str!("../fixtures/d5_clean.rs"));
    assert_eq!((f.panics, f.unwraps), (0, 0));
}

#[test]
fn f1_violating_fixture_flags_every_mutation_shape() {
    let f = lint("f1", include_str!("../fixtures/f1_violate.rs"));
    // Field write, compound assign through an index, mutator call,
    // container mutation — reads stay clean.
    assert_eq!(f.diagnostics.len(), 4, "{:?}", f.diagnostics);
    assert!(f
        .diagnostics
        .iter()
        .all(|d| d.code == "F1" && d.id == "index-funnel"));
    // Findings name the offending fn.
    assert!(f.diagnostics[0].msg.contains("sneak_write"));
}

#[test]
fn f1_clean_fixture_passes_under_its_manifest() {
    let src = include_str!("../fixtures/f1_clean.rs");
    let man = "[index-funnel]\nfunnel_write\nWorld::transition\n";
    let f = lint_with_manifest("f1", src, man);
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn f1_funnel_bypass_is_flagged_when_manifest_entry_is_deleted() {
    // Same fixture, but the manifest lost `World::transition` — the
    // mutation inside it is now a funnel bypass.
    let src = include_str!("../fixtures/f1_clean.rs");
    let f = lint_with_manifest("f1", src, "[index-funnel]\nfunnel_write\n");
    assert_eq!(f.diagnostics.len(), 1, "{:?}", f.diagnostics);
    assert!(f.diagnostics[0].msg.contains("World::transition"));
    assert!(f.diagnostics[0].msg.contains("lint-manifest.txt"));
}

#[test]
fn f1_allow_annotation_scopes_to_the_whole_fn() {
    let f = lint("f1", include_str!("../fixtures/f1_allowed.rs"));
    // One scoped allow covers both mutations; it is used, so no A2.
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn f2_violating_fixture_is_flagged_with_fn_span() {
    let f = lint("f2", include_str!("../fixtures/f2_violate.rs"));
    assert_eq!(f.diagnostics.len(), 1, "{:?}", f.diagnostics);
    let d = &f.diagnostics[0];
    assert_eq!((d.code, d.id), ("F2", "dirty-domain"));
    assert!(d.msg.contains("sneak_launch"));
    // Structural finding: the span covers the whole fn.
    assert!(d.end_line > d.line, "span {}..{}", d.line, d.end_line);
}

#[test]
fn f2_clean_fixture_marks_every_mutation() {
    let f = lint("f2", include_str!("../fixtures/f2_clean.rs"));
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn f2_manifest_exemption_suppresses() {
    let src = include_str!("../fixtures/f2_violate.rs");
    let f = lint_with_manifest("f2", src, "[dirty-exempt]\nGpuDevice::sneak_launch\n");
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn f2_allow_annotation_suppresses() {
    let f = lint("f2", include_str!("../fixtures/f2_allowed.rs"));
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn f2_raw_slot_write_is_flagged() {
    let f = lint("f2", include_str!("../fixtures/f2_slots_violate.rs"));
    assert_eq!(f.diagnostics.len(), 1, "{:?}", f.diagnostics);
    let d = &f.diagnostics[0];
    assert_eq!((d.code, d.id), ("F2", "dirty-domain"));
    assert!(d.msg.contains("write_back"));
    assert!(d.msg.contains("`.kernels.list`"), "{}", d.msg);
}

#[test]
fn f2_raw_slot_write_that_marks_passes() {
    let f = lint("f2", include_str!("../fixtures/f2_slots_clean.rs"));
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn f2_raw_slot_write_allow_suppresses() {
    let f = lint("f2", include_str!("../fixtures/f2_slots_allowed.rs"));
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn f3_violating_fixture_flags_loop_field_and_boundary() {
    let f = lint("f3", include_str!("../fixtures/f3_violate.rs"));
    assert_eq!(f.diagnostics.len(), 3, "{:?}", f.diagnostics);
    assert!(f
        .diagnostics
        .iter()
        .all(|d| d.code == "F3" && d.id == "stream-hygiene"));
    assert!(f.diagnostics[0].msg.contains("loop"));
    assert!(f.diagnostics[1].msg.contains("struct field"));
    assert!(f.diagnostics[2].msg.contains("fn boundary"));
}

#[test]
fn f3_clean_fixture_passes_with_hoisted_locals() {
    let f = lint("f3", include_str!("../fixtures/f3_clean.rs"));
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn f3_allow_annotation_scopes_over_the_loop() {
    let f = lint("f3", include_str!("../fixtures/f3_allowed.rs"));
    assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
}

#[test]
fn f4_scoped_allow_does_not_leak_to_sibling_fns() {
    let src = "\
// lint:allow(index-funnel, covered fn only)
pub fn covered(world: &mut World) {
    world.index.enabled = true;
}

pub fn sibling(world: &mut World) {
    world.index.enabled = false;
}
";
    let f = lint("f1", src);
    assert_eq!(f.diagnostics.len(), 1, "{:?}", f.diagnostics);
    assert!(f.diagnostics[0].msg.contains("sibling"));
}

#[test]
fn f4_unused_scoped_allow_is_flagged_a2() {
    let src = "\
// lint:allow(index-funnel, nothing in here mutates any more)
pub fn quiet(world: &World) -> bool {
    world.index.enabled
}
";
    let f = lint("f1", src);
    assert_eq!(f.diagnostics.len(), 1, "{:?}", f.diagnostics);
    assert_eq!(f.diagnostics[0].code, "A2");
}

#[test]
fn unused_and_malformed_annotations_are_flagged() {
    let f = lint_file(
        &ctx(RuleSet::sim_visible_full()),
        include_str!("../fixtures/allow_unused.rs"),
        &registry(),
        &Manifest::default(),
    );
    let a1 = f.diagnostics.iter().filter(|d| d.code == "A1").count();
    let a2 = f.diagnostics.iter().filter(|d| d.code == "A2").count();
    assert_eq!((a1, a2), (1, 1), "{:?}", f.diagnostics);
}

#[test]
fn registry_duplicates_and_computed_ids_are_flagged() {
    let (reg, diags) = parse_registry(
        "fixtures/registry_dup.rs",
        include_str!("../fixtures/registry_dup.rs"),
    );
    assert_eq!(diags.len(), 2, "{diags:?}"); // duplicate 617 + computed DERIVED
    assert!(diags
        .iter()
        .all(|d| d.code == "R1" && d.id == "stream-registry"));
    assert!(diags
        .iter()
        .any(|d| d.msg.contains("duplicate stream id 617")));
    assert_eq!(reg.entries.len(), 2);
}
