//! The machine-readable output forms of the `esp-lint` binary.
//!
//! `--format json` and `--format sarif` are read by CI scripts and
//! code-scanning uploads, so these tests parse both documents and pin the
//! fields those consumers read: suggestion applicability, SARIF fixes,
//! and the order of each finding's keys.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

const FIXTURE: &str = "e0202_window_not_multiple.cql";

fn fail_fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/fail")
        .join(name)
}

/// Run `esp-lint --format <format> <path>` and parse its stdout.
fn lint_doc(format: &str, path: &Path) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_esp-lint"))
        .args(["--format", format])
        .arg(path)
        .output()
        .expect("esp-lint runs");
    assert_eq!(out.status.code(), Some(1), "a fail fixture has findings");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    serde_json::from_str(&stdout).unwrap_or_else(|e| panic!("{format} output parses: {e}"))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn json_and_sarif_carry_the_machine_applicable_fix() {
    let path = fail_fixture(FIXTURE);

    let json = lint_doc("json", &path);
    assert_eq!(keys(&json), ["inputs", "findings", "witnesses"]);
    assert_eq!(json["inputs"], 1i64);
    let finding = &json["findings"][0];
    assert_eq!(
        keys(finding),
        [
            "origin",
            "code",
            "severity",
            "message",
            "span",
            "notes",
            "suggestions"
        ]
    );
    assert_eq!(finding["code"], "E0202");
    let suggestion = &finding["suggestions"][0];
    assert_eq!(
        keys(suggestion),
        ["message", "span", "replacement", "applicability"]
    );
    assert_eq!(suggestion["applicability"], "machine-applicable");
    assert_eq!(suggestion["replacement"], "[Range By '15 sec']");

    let sarif = lint_doc("sarif", &path);
    assert_eq!(keys(&sarif), ["version", "$schema", "runs"]);
    let result = &sarif["runs"][0]["results"][0];
    assert_eq!(
        keys(result),
        [
            "ruleId",
            "level",
            "message",
            "locations",
            "relatedLocations",
            "fixes"
        ]
    );
    assert_eq!(result["ruleId"], "E0202");
    let replacement = &result["fixes"][0]["artifactChanges"][0]["replacements"][0];
    assert_eq!(
        replacement["insertedContent"]["text"],
        suggestion["replacement"]
    );
    // ASCII-only source: character and byte offsets coincide.
    assert_eq!(
        replacement["deletedRegion"]["charOffset"],
        suggestion["span"]["start"]
    );
}

/// SARIF `deletedRegion` offsets count characters, like the `region`
/// columns of the same result; esp-lint spans count bytes. A multi-byte
/// line ahead of the fix separates the two.
#[test]
fn sarif_fix_offsets_count_characters() {
    let fixture = std::fs::read_to_string(fail_fixture(FIXTURE)).unwrap();
    let source = format!("-- café: the window must be ≥ the epoch (°C)\n{fixture}");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("multibyte_e0202.cql");
    std::fs::write(&path, &source).unwrap();

    let replaced = "[Range By '12 sec']";
    let byte_start = source.rfind(replaced).unwrap();
    let char_start = source[..byte_start].chars().count();
    assert_ne!(byte_start, char_start, "the prefix line is multi-byte");

    let sarif = lint_doc("sarif", &path);
    let region = &sarif["runs"][0]["results"][0]["fixes"][0]["artifactChanges"][0]["replacements"]
        [0]["deletedRegion"];
    assert_eq!(region["charOffset"], char_start as i64);
    assert_eq!(region["charLength"], replaced.chars().count() as i64);
}
