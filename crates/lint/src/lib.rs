//! `prc-lint`: a dependency-free static invariant checker for the prc
//! workspace.
//!
//! The workspace carries invariant families that the type system cannot
//! express and that `cargo test` only catches by accident:
//!
//! - **Budget hygiene (B)** — every bit of privacy noise is drawn inside
//!   `prc-dp`, where the budget accountant can see it. Sampling call
//!   sites, raw distribution construction, and `rand` dependencies
//!   outside the substrate are findings.
//! - **Determinism hygiene (D)** — the broker, estimators, optimizer,
//!   and base station release answers that must be bit-reproducible from
//!   (inputs, seed). Unordered-map iteration, wall-clock reads, and
//!   unseeded RNGs in those paths are findings.
//! - **Panic hygiene (P)** — library crates return typed errors;
//!   `.unwrap()`, `.expect(`, panicking macros, and indexing by integer
//!   literal are findings.
//! - **Flow invariants (F)** — the interprocedural half: budget flow
//!   must pass through a reservation holder before any sampling
//!   primitive (F001), the deterministic scope propagates through calls
//!   (F002), and public API that can reach a sanctioned panic documents
//!   the contract (F003). These run on a workspace call graph built by
//!   [`lexer`] → [`items`] → [`graph`] and checked in [`flow`].
//!
//! The checker is textual — a comment/string-aware scanner plus
//! path-scoped token rules and a heuristic call graph — because the
//! vendor tree is offline and a full parser dependency (`syn`) is
//! unavailable. The trade-offs are documented per rule in [`rules`] and
//! per pass in DESIGN.md §13; escape hatches are spelled
//! `// prc-lint: allow(RULE, reason = "…")` and are themselves linted
//! (missing reason → L001, suppressing nothing → L002/L003).

pub mod baseline;
pub mod flow;
pub mod graph;
pub mod items;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod scanner;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{lint_source, Finding, FIXTURE_PATH_HEADER, RULE_IDS};
pub use sarif::render_sarif;

/// Directory names never descended into when walking a tree.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "node_modules"];

/// Lints a set of files as one workspace: the per-file pass over each,
/// then the interprocedural passes over the whole set, then the allow
/// audit. `files` holds `(workspace-relative path, source)` pairs; a
/// [`FIXTURE_PATH_HEADER`] on a source's first line overrides its path.
///
/// Findings come back sorted by (path, line, rule).
pub fn lint_workspace(files: &[(String, String)]) -> Vec<Finding> {
    let mut analyses: Vec<rules::FileAnalysis> = files
        .iter()
        .map(|(path, source)| rules::analyze_file(path, source))
        .collect();
    let mut findings: Vec<Finding> = analyses.iter().flat_map(|a| a.findings.clone()).collect();
    findings.extend(flow::interprocedural(&mut analyses));
    for analysis in &analyses {
        findings.extend(rules::allow_findings(analysis));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}

/// Lints every `.rs` file under `root` as one workspace, returning
/// findings sorted by (path, line, rule).
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let source = fs::read_to_string(&file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, source));
    }
    Ok(lint_workspace(&sources))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders findings as human-readable text, one per line.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}: {}:{}: {}\n    {}\n",
            f.rule, f.path, f.line, f.message, f.snippet
        ));
    }
    out.push_str(&format!(
        "{} finding{}\n",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    ));
    out
}

/// Renders findings as a machine-readable JSON document.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            json_escape(&f.message),
            json_escape(&f.snippet)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}\n", findings.len()));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One fixture's outcome in a self-test run.
#[derive(Debug)]
pub struct FixtureResult {
    /// Fixture file name.
    pub name: String,
    /// What went wrong; `None` when the fixture behaved as expected.
    pub problem: Option<String>,
}

/// Splits a fixture source into its virtual files: each
/// [`FIXTURE_PATH_HEADER`] line starts a new unit claiming the declared
/// path (the header stays as the unit's first line). A fixture without
/// headers is one unit under its own file name.
fn fixture_units(name: &str, source: &str) -> Vec<(String, String)> {
    let mut units: Vec<(String, String)> = Vec::new();
    for line in source.lines() {
        let is_header = line.trim().starts_with(FIXTURE_PATH_HEADER);
        if is_header || units.is_empty() {
            let path = rules::virtual_path(&format!("{line}\n")).unwrap_or_else(|| name.to_owned());
            units.push((path, String::new()));
        }
        if let Some((_, body)) = units.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    if units.is_empty() {
        units.push((name.to_owned(), source.to_owned()));
    }
    units
}

/// Runs the linter over its fixture corpus:
///
/// - every file under `fixtures/pass/` must produce **zero** findings;
/// - every file under `fixtures/fail/` must produce **at least one**
///   finding, and every finding's rule must match the rule id encoded
///   in the file-name prefix (`b001_…` → `B001`).
///
/// A fixture may declare several virtual files (one
/// [`FIXTURE_PATH_HEADER`] each); they are linted together as one
/// mini-workspace, so the interprocedural rules see real call graphs.
///
/// # Errors
///
/// Returns `Err` on I/O failures or a malformed corpus layout.
pub fn self_test(fixtures: &Path) -> io::Result<Vec<FixtureResult>> {
    let mut results = Vec::new();
    for (sub, expect_clean) in [("pass", true), ("fail", false)] {
        let dir = fixtures.join(sub);
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        entries.sort();
        if entries.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no fixtures under {}", dir.display()),
            ));
        }
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let source = fs::read_to_string(&path)?;
            let findings = lint_workspace(&fixture_units(&name, &source));
            let problem = if expect_clean {
                if findings.is_empty() {
                    None
                } else {
                    Some(format!(
                        "expected a clean pass but got {:?}",
                        findings.iter().map(|f| f.rule).collect::<Vec<_>>()
                    ))
                }
            } else {
                check_fail_fixture(&name, &findings)
            };
            results.push(FixtureResult { name, problem });
        }
    }
    Ok(results)
}

fn check_fail_fixture(name: &str, findings: &[Finding]) -> Option<String> {
    let expected = name
        .split('_')
        .next()
        .map(str::to_uppercase)
        .unwrap_or_default();
    if !RULE_IDS.contains(&expected.as_str()) {
        return Some(format!(
            "fail fixture name `{name}` does not start with a rule id prefix"
        ));
    }
    if findings.is_empty() {
        return Some(format!(
            "expected at least one {expected} finding, got none"
        ));
    }
    let stray: Vec<&str> = findings
        .iter()
        .map(|f| f.rule)
        .filter(|r| *r != expected)
        .collect();
    if stray.is_empty() {
        None
    } else {
        Some(format!(
            "expected only {expected} findings, also got {stray:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let f = vec![Finding {
            rule: "P001",
            path: "crates/x/src/y.rs".to_owned(),
            line: 3,
            snippet: "x.unwrap()".to_owned(),
            message: "no \"unwrap\"".to_owned(),
        }];
        let json = render_json(&f);
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\\\"unwrap\\\""));
    }

    #[test]
    fn empty_report_renders() {
        assert!(render_json(&[]).contains("\"count\": 0"));
        assert!(render_text(&[]).contains("0 findings"));
    }

    #[test]
    fn fixture_units_split_on_headers() {
        let src = "// prc-lint-fixture: path = crates/a/src/x.rs\nfn a() {}\n// prc-lint-fixture: path = crates/b/src/y.rs\nfn b() {}\n";
        let units = fixture_units("multi.rs", src);
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].0, "crates/a/src/x.rs");
        assert!(units[0].1.contains("fn a"));
        assert_eq!(units[1].0, "crates/b/src/y.rs");
        assert!(units[1].1.contains("fn b"));
        // No headers: one unit under the fixture's own name.
        let units = fixture_units("plain.rs", "fn c() {}\n");
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].0, "plain.rs");
    }

    #[test]
    fn workspace_pass_spans_files() {
        // A deterministic root in one file calling a wall-clock helper
        // in another: only the interprocedural pass can see it.
        let files = vec![
            (
                "crates/core/src/broker.rs".to_owned(),
                "pub fn answer() -> u64 { crate::util::stamp() }\n".to_owned(),
            ),
            (
                "crates/core/src/util.rs".to_owned(),
                "pub fn stamp() -> u64 { secs(SystemTime::now()) }\n".to_owned(),
            ),
        ];
        let findings = lint_workspace(&files);
        assert_eq!(
            findings.iter().map(|f| f.rule).collect::<Vec<_>>(),
            vec!["F002"]
        );
        assert_eq!(findings[0].path, "crates/core/src/util.rs");
    }
}
