//! `esp-lint` — lint CQL queries and JSON deployment or durability
//! documents from the command line, before anything runs.
//!
//! ```text
//! esp-lint <file.cql|file.json>...   lint files (kind chosen by extension)
//! esp-lint --example <name>          lint one embedded example pipeline
//! esp-lint --all-examples            lint every embedded example
//! esp-lint --list-examples           print the embedded example names
//! esp-lint --explain E0602           print the catalog entry for a code
//! esp-lint --fix <file>...           apply machine-applicable fixes in place
//! esp-lint --fix-dry-run <file>...   print the patched document, write nothing
//! esp-lint --witness ...             synthesize + engine-validate counterexamples
//! esp-lint --format json ...         machine-readable findings on stdout
//! ```
//!
//! Exit status is 0 when every input linted clean, 1 when any diagnostic
//! (error *or* warning) was produced, 2 on usage or I/O errors — so CI
//! can gate on "no findings at all" while scripts can still distinguish
//! "dirty pipeline" from "couldn't read the file". With `--fix`, the
//! status reflects the findings that *remain after* patching.
//!
//! With `--format json`, stdout carries a single JSON document
//! (`{"inputs": N, "findings": [...]}`, one object per finding with
//! `origin`/`code`/`severity`/`message`/`span`/`notes`/`suggestions`,
//! plus a top-level `witnesses` array under `--witness`) and the
//! rendered human diagnostics are suppressed; exit codes are unchanged,
//! so CI can both gate on the status and archive the document as an
//! artifact.
//!
//! With `--format sarif`, stdout carries a minimal SARIF 2.1.0 log
//! (one run, one result per finding, byte spans converted to 1-based
//! line/column regions, machine-applicable suggestions as `fixes`,
//! every suggestion span as a `relatedLocation`) so code-scanning UIs
//! can ingest the findings — and surface the repairs — directly.
//! Both documents are built as `serde_json` values and pretty-printed.

use std::process::ExitCode;

use esp_lint::{
    apply_fixes, explain, lint_cql, lint_deployment, lint_json, synthesize_witnesses, ExampleKind,
    Witness, WitnessOutcome, EXAMPLES,
};
use esp_types::diag::floor_char_boundary;
use esp_types::Diagnostic;
use serde_json::{json, Value};

const USAGE: &str = "\
usage: esp-lint [options] <file.cql|file.json>...
       esp-lint [options] --example <name>
       esp-lint [options] --all-examples
       esp-lint --list-examples
       esp-lint --explain <code>

options:
  --format text|json|sarif  output form (default text)
  --fix                     apply machine-applicable fixes to files in place,
                            then report what remains
  --fix-dry-run             compute fixes and print the patched document to
                            stdout without writing anything
  --witness                 synthesize counterexample inputs for value-domain
                            findings and validate them through the engine;
                            refuted findings are downgraded to warnings

Lints CQL query text (.cql) and JSON deployment, durability, or
pipeline documents (.json; a top-level \"durability\" key selects the
durability linter, a top-level \"gateway\" key the whole-pipeline
dataflow linter) statically.
Exit 0: clean; 1: findings; 2: usage/I-O error.
--format json prints one machine-readable document on stdout;
--format sarif prints a SARIF 2.1.0 log (with fixes) for code-scanning.";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FixMode {
    Off,
    Apply,
    DryRun,
}

/// What one fix pass did to an input.
struct FixSummary {
    applied: usize,
    skipped_overlapping: usize,
    wrote: bool,
}

/// Findings for one linted input, with the source kept for rendering.
struct InputReport {
    origin: String,
    source: String,
    diags: Vec<Diagnostic>,
    witnesses: Vec<Witness>,
    fix: Option<FixSummary>,
}

enum Input {
    Path(String),
    Example(&'static esp_lint::Example),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut format = Format::Text;
    let mut fix_mode = FixMode::Off;
    let mut witness = false;
    let mut inputs: Vec<Input> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--explain" => {
                let Some(code) = iter.next() else {
                    eprintln!("error: --explain needs a diagnostic code (e.g. E0602)");
                    return ExitCode::from(2);
                };
                let normalized = code.to_ascii_uppercase();
                let Some(info) = explain(&normalized) else {
                    eprintln!("error: unknown diagnostic code '{code}'");
                    return ExitCode::from(2);
                };
                println!("{}: {}", info.code, info.title);
                println!();
                println!("{}", info.explanation);
                return ExitCode::SUCCESS;
            }
            "--format" => {
                match iter.next().map(String::as_str) {
                    Some("text") => format = Format::Text,
                    Some("json") => format = Format::Json,
                    Some("sarif") => format = Format::Sarif,
                    Some(other) => {
                        eprintln!(
                            "error: unknown format '{other}' (expected text, json, or sarif)"
                        );
                        return ExitCode::from(2);
                    }
                    None => {
                        eprintln!("error: --format needs a value (text, json, or sarif)");
                        return ExitCode::from(2);
                    }
                };
            }
            "--fix" => fix_mode = FixMode::Apply,
            "--fix-dry-run" => fix_mode = FixMode::DryRun,
            "--witness" => witness = true,
            "--list-examples" => {
                for ex in EXAMPLES {
                    println!("{}", ex.name);
                }
            }
            "--all-examples" => inputs.extend(EXAMPLES.iter().map(Input::Example)),
            "--example" => {
                let Some(name) = iter.next() else {
                    eprintln!("error: --example needs a name (try --list-examples)");
                    return ExitCode::from(2);
                };
                let Some(ex) = EXAMPLES.iter().find(|e| e.name == name.as_str()) else {
                    eprintln!("error: unknown example '{name}' (try --list-examples)");
                    return ExitCode::from(2);
                };
                inputs.push(Input::Example(ex));
            }
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag '{flag}'\n{USAGE}");
                return ExitCode::from(2);
            }
            path => inputs.push(Input::Path(path.to_string())),
        }
    }

    if fix_mode == FixMode::Apply && inputs.iter().any(|i| matches!(i, Input::Example(_))) {
        eprintln!("error: --fix cannot write back to embedded examples (use --fix-dry-run)");
        return ExitCode::from(2);
    }

    let mut reports: Vec<InputReport> = Vec::new();
    for input in inputs {
        let (origin, source, kind) = match &input {
            Input::Example(ex) => (format!("example:{}", ex.name), ex.source.to_string(), {
                match ex.kind {
                    ExampleKind::Cql => Kind::Cql,
                    ExampleKind::Deployment => Kind::Deployment,
                    ExampleKind::Pipeline => Kind::Pipeline,
                }
            }),
            Input::Path(path) => {
                let source = match std::fs::read_to_string(path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: cannot read {path}: {e}");
                        return ExitCode::from(2);
                    }
                };
                let kind = if path.ends_with(".json") {
                    Kind::Json
                } else if path.ends_with(".cql") || path.ends_with(".sql") {
                    Kind::Cql
                } else {
                    eprintln!("error: {path}: expected a .cql or .json file");
                    return ExitCode::from(2);
                };
                (path.to_string(), source, kind)
            }
        };

        let mut source = source;
        let mut diags = lint_kind(kind, &source);
        let mut fix = None;
        if fix_mode != FixMode::Off {
            if let Some(out) = apply_fixes(&source, &diags) {
                let wrote = match (&input, fix_mode) {
                    (Input::Path(path), FixMode::Apply) => {
                        if let Err(e) = std::fs::write(path, &out.fixed) {
                            eprintln!("error: cannot write {path}: {e}");
                            return ExitCode::from(2);
                        }
                        true
                    }
                    _ => {
                        if format == Format::Text {
                            print!("{}", out.fixed);
                            if !out.fixed.ends_with('\n') {
                                println!();
                            }
                        }
                        false
                    }
                };
                fix = Some(FixSummary {
                    applied: out.applied,
                    skipped_overlapping: out.skipped_overlapping,
                    wrote,
                });
                // Report against the patched document: what remains is
                // what the user still has to look at.
                source = out.fixed;
                diags = lint_kind(kind, &source);
            }
        }
        let witnesses = if witness {
            synthesize_witnesses(&source, &mut diags)
        } else {
            Vec::new()
        };
        reports.push(InputReport {
            origin,
            source,
            diags,
            witnesses,
            fix,
        });
    }

    let inputs = reports.len();
    let findings: usize = reports.iter().map(|r| r.diags.len()).sum();
    match format {
        Format::Text => {
            for r in &reports {
                for d in &r.diags {
                    eprintln!("{}", d.render(&r.origin, Some(&r.source)));
                }
                for w in &r.witnesses {
                    print!("{}", w.render());
                }
                if let Some(f) = &r.fix {
                    let verb = if f.wrote { "applied" } else { "would apply" };
                    let mut line =
                        format!("esp-lint: {verb} {} fix(es) to {}", f.applied, r.origin);
                    if f.skipped_overlapping > 0 {
                        line.push_str(&format!(
                            " ({} overlapping fix(es) skipped)",
                            f.skipped_overlapping
                        ));
                    }
                    eprintln!("{line}");
                }
            }
            if findings == 0 {
                println!("esp-lint: {inputs} input(s), no findings");
            } else {
                eprintln!("esp-lint: {findings} finding(s) across {inputs} input(s)");
            }
        }
        Format::Json => println!("{}", render_json(&reports)),
        Format::Sarif => println!("{}", render_sarif(&reports)),
    }
    if findings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Cql,
    Json,
    Deployment,
    Pipeline,
}

fn lint_kind(kind: Kind, source: &str) -> Vec<Diagnostic> {
    match kind {
        Kind::Cql => lint_cql(source),
        Kind::Json => lint_json(source),
        Kind::Deployment => lint_deployment(source),
        Kind::Pipeline => esp_lint::lint_pipeline(source),
    }
}

fn span_json(span: esp_types::Span) -> Value {
    json!({"start": span.start, "end": span.end})
}

fn to_pretty(doc: &Value) -> String {
    serde_json::to_string_pretty(doc).expect("a JSON value always serializes")
}

/// Render every finding as one JSON document.
fn render_json(reports: &[InputReport]) -> String {
    let mut findings = Vec::new();
    let mut witnesses = Vec::new();
    for r in reports {
        for d in &r.diags {
            let suggestions: Vec<Value> = d
                .suggestions
                .iter()
                .map(|s| {
                    json!({
                        "message": s.message,
                        "span": span_json(s.span),
                        "replacement": s.replacement,
                        "applicability": s.applicability.to_string(),
                    })
                })
                .collect();
            findings.push(json!({
                "origin": r.origin,
                "code": d.code,
                "severity": d.severity.to_string(),
                "message": d.message,
                "span": d.span.map(span_json),
                "notes": d.notes,
                "suggestions": suggestions,
            }));
        }
        for w in &r.witnesses {
            let (verdict, detail) = match &w.outcome {
                WitnessOutcome::Confirmed { evidence } => ("confirmed", evidence),
                WitnessOutcome::Refuted { observed } => ("refuted", observed),
                WitnessOutcome::NotAttempted { reason } => ("not_attempted", reason),
            };
            witnesses.push(json!({
                "origin": r.origin,
                "code": w.code,
                "span": w.span.map(span_json),
                "claim": w.claim,
                "inputs": w.inputs,
                "verdict": verdict,
                "detail": detail,
            }));
        }
    }
    to_pretty(&json!({
        "inputs": reports.len(),
        "findings": findings,
        "witnesses": witnesses,
    }))
}

/// The text of `source` before byte `offset`, clamped to the nearest
/// character boundary at or below it.
fn prefix(source: &str, offset: usize) -> &str {
    &source[..floor_char_boundary(source, offset.min(source.len()))]
}

/// 1-based line and **character** column of a byte offset in `source`
/// (SARIF regions are line/column-oriented; our spans are byte offsets
/// into the original text, which disagree on multi-byte lines).
fn line_col(source: &str, offset: usize) -> (usize, usize) {
    let before = prefix(source, offset);
    let line = before.matches('\n').count() + 1;
    let line_start = before.rfind('\n').map(|p| p + 1).unwrap_or(0);
    let col = before[line_start..].chars().count() + 1;
    (line, col)
}

fn physical_location(r: &InputReport, span: Option<esp_types::Span>) -> Value {
    let artifact = json!({"uri": r.origin});
    match span {
        Some(s) => {
            let (sl, sc) = line_col(&r.source, s.start);
            let (el, ec) = line_col(&r.source, s.end);
            json!({
                "artifactLocation": artifact,
                "region": json!({
                    "startLine": sl,
                    "startColumn": sc,
                    "endLine": el,
                    "endColumn": ec,
                }),
            })
        }
        None => json!({"artifactLocation": artifact}),
    }
}

/// A machine-applicable suggestion as a SARIF `fix`. SARIF counts
/// `charOffset`/`charLength` in characters, like the region columns.
fn sarif_fix(r: &InputReport, s: &esp_types::Suggestion) -> Value {
    let start = prefix(&r.source, s.span.start).chars().count();
    let end = prefix(&r.source, s.span.end).chars().count();
    let replacement = json!({
        "deletedRegion": json!({"charOffset": start, "charLength": end.saturating_sub(start)}),
        "insertedContent": json!({"text": s.replacement}),
    });
    json!({
        "description": json!({"text": s.message}),
        "artifactChanges": vec![json!({
            "artifactLocation": json!({"uri": r.origin}),
            "replacements": vec![replacement],
        })],
    })
}

/// Render every finding as a minimal SARIF 2.1.0 log: one tool run,
/// one `result` per diagnostic, spans mapped to 1-based single-file
/// regions, machine-applicable suggestions as `fixes`, and every
/// suggestion span as a `relatedLocation`. Only the subset
/// code-scanning ingestion requires.
fn render_sarif(reports: &[InputReport]) -> String {
    let mut results = Vec::new();
    for r in reports {
        for d in &r.diags {
            let mut result = vec![
                ("ruleId".to_string(), json!(d.code)),
                (
                    "level".to_string(),
                    json!(if d.is_error() { "error" } else { "warning" }),
                ),
                ("message".to_string(), json!({"text": d.message})),
                (
                    "locations".to_string(),
                    json!(vec![
                        json!({"physicalLocation": physical_location(r, d.span)})
                    ]),
                ),
            ];
            if !d.suggestions.is_empty() {
                let related: Vec<Value> = d
                    .suggestions
                    .iter()
                    .map(|s| {
                        json!({
                            "physicalLocation": physical_location(r, Some(s.span)),
                            "message": json!({"text": s.message}),
                        })
                    })
                    .collect();
                result.push(("relatedLocations".to_string(), json!(related)));
            }
            let fixes: Vec<Value> = d
                .suggestions
                .iter()
                .filter(|s| s.is_machine_applicable())
                .map(|s| sarif_fix(r, s))
                .collect();
            if !fixes.is_empty() {
                result.push(("fixes".to_string(), json!(fixes)));
            }
            results.push(Value::Object(result));
        }
    }
    to_pretty(&json!({
        "version": "2.1.0",
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "runs": vec![json!({
            "tool": json!({"driver": json!({"name": "esp-lint"})}),
            "results": results,
        })],
    }))
}
