//! Body fingerprints under edits. A body's fingerprint is what decides
//! whether its `typeck_body` memo survives an edit, so each edit below is
//! judged by how many bodies the rebuild re-checks: an edit to one body
//! re-checks that body alone, and an edit that changes no body re-checks
//! none.

use querydb::{Database, QueryStats};

/// One file, many bodies. `first` comes first so that names it adds are
/// the file's first uses: were names numbered per file, every later body
/// would see its names renumbered.
const SRC: &str = "
    @WootinJ final class A {
      int first(int x) { int y = x + 1; return y; }
      int k = 3;
      float w = 2.0f;
      A() { k = k + 1; }
      int second(int x) { int acc = x; acc += k; return acc; }
      float third(float x) { return x * w + 2.0f; }
    }
    @WootinJ final class B {
      int m(int x) { return x - 1; }
    }";

/// What rebuilding after `edit` of [`SRC`] re-ran.
fn rebuild(edit: impl Fn(&str) -> String) -> (QueryStats, u64, u64) {
    rebuild_from(SRC, edit)
}

/// What rebuilding after `edit` of `src` re-ran.
fn rebuild_from(src: &str, edit: impl Fn(&str) -> String) -> (QueryStats, u64, u64) {
    let mut db = Database::new();
    db.set_source("a.jl", src).unwrap();
    let fp = db.source_fingerprint();
    let before = db.stats();
    let edited = edit(src);
    assert_ne!(edited, src, "the edit must change the text");
    db.edit("a.jl", &edited).unwrap();
    (db.stats().since(&before), fp, db.source_fingerprint())
}

#[test]
fn new_names_in_one_body_leave_every_other_body_alone() {
    let (d, ..) = rebuild(|s| {
        s.replace(
            "int y = x + 1; return y;",
            "int fresh = 7; int other = fresh * 2; int y = x + other; return y;",
        )
    });
    assert_eq!(d.parse_executed, 1);
    assert_eq!(d.typeck_executed, 1, "{d:?}");
}

#[test]
fn a_whitespace_edit_changes_no_fingerprint() {
    let (d, fp0, fp1) = rebuild(|s| {
        s.replace("int acc = x;", "int   acc\n        =  x ;")
            .replace(" + 2.0f", "\n\t+ 2.0f")
    });
    assert_eq!(d.parse_executed, 1);
    assert_eq!(d.typeck_executed, 0, "{d:?}");
    assert_eq!(fp0, fp1);
}

#[test]
fn a_renamed_local_changes_its_body_alone() {
    let (d, fp0, fp1) = rebuild(|s| s.replace("acc", "total"));
    assert_eq!(d.typeck_executed, 1, "{d:?}");
    // Slots, not names, reach the typed body: the check cuts off there.
    assert_eq!(d.early_cutoffs, 1, "{d:?}");
    assert_ne!(fp0, fp1);
}

#[test]
fn a_literal_changes_its_body_only_when_its_bits_do() {
    // The next float above 2.0: one body re-checks.
    let (d, ..) = rebuild(|s| s.replace("x * w + 2.0f", "x * w + 2.0000002f"));
    assert_eq!(d.typeck_executed, 1, "{d:?}");
    // The same bits, spelled differently: nothing re-checks.
    let (d, fp0, fp1) = rebuild(|s| s.replace("x * w + 2.0f", "x * w + 2.00f"));
    assert_eq!(d.typeck_executed, 0, "{d:?}");
    assert_eq!(fp0, fp1);
    // A field initializer is a body of its own.
    let (d, ..) = rebuild(|s| s.replace("int k = 3;", "int k = 4;"));
    assert_eq!(d.typeck_executed, 1, "{d:?}");
}

/// Bodies whose edits re-check them, each judged by whether the typed body
/// the check produces is the one before (an early cutoff) or not (so every
/// lowering that read it re-runs).
const TYPED: &str = "
    @WootinJ final class T {
      @Native(\"wj.note\") static void note(String s);
      int k;
      T() { k = 2; }
      int sum(int x) { int acc = x; acc += k; return acc; }
      long widen(int x) { long z = x; return z; }
      void tell() { note(\"one\"); }
      int cells(int n) { float[] a = new float[n]; return a.length; }
    }";

/// Compound assignment is desugared by the checker: both spellings check
/// to the same typed body. Caught mutant: a typed hash that covers spans.
#[test]
fn a_compound_assignment_and_its_expansion_check_to_one_body() {
    let (d, ..) = rebuild_from(TYPED, |s| s.replace("acc += k;", "acc = acc + k;"));
    assert_eq!(d.typeck_executed, 1, "{d:?}");
    assert_eq!(d.early_cutoffs, 1, "{d:?}");
}

/// An implicit widening is a `Convert`, a written cast a `NumCast`.
/// Caught mutant: a typed hash that gives both nodes one tag.
#[test]
fn an_implicit_widening_and_a_cast_check_to_two_bodies() {
    let (d, ..) = rebuild_from(TYPED, |s| s.replace("long z = x;", "long z = (long) x;"));
    assert_eq!(d.typeck_executed, 1, "{d:?}");
    assert_eq!(d.early_cutoffs, 0, "{d:?}");
}

/// A `@Native` call's string argument is part of its typed body. Caught
/// mutant: a typed hash that skips the strings.
#[test]
fn a_native_string_argument_changes_its_typed_body() {
    let (d, ..) = rebuild_from(TYPED, |s| s.replace("note(\"one\")", "note(\"two\")"));
    assert_eq!(d.typeck_executed, 1, "{d:?}");
    assert_eq!(d.early_cutoffs, 0, "{d:?}");
}

/// An array's element type lives in the type table alone: its nodes and
/// their type ids are the same for `float[]` and `double[]`. Caught
/// mutant: a typed hash that skips the type table.
#[test]
fn an_element_type_changes_its_typed_body() {
    let (d, ..) = rebuild_from(TYPED, |s| {
        s.replace("float[] a = new float[n];", "double[] a = new double[n];")
    });
    assert_eq!(d.typeck_executed, 1, "{d:?}");
    assert_eq!(d.early_cutoffs, 0, "{d:?}");
}

/// A parameter the body never reads shows in its frame size alone; the
/// constructor beside it re-checks (its class's signature changed) to the
/// same typed body. Caught mutant: a typed hash that skips the frame size.
#[test]
fn an_unread_parameter_changes_its_typed_body_by_the_frame() {
    let src = "@WootinJ final class F { F() { } int one(int x) { return 1; } }";
    let (d, ..) = rebuild_from(src, |s| s.replace("int x)", "int x, int y)"));
    assert_eq!(d.typeck_executed, 2, "{d:?}");
    assert_eq!(d.early_cutoffs, 1, "{d:?}");
}
