//! The invariant catalog: rule definitions, path scoping, allow
//! directives, and the per-file checking pass.
//!
//! # Rule catalog
//!
//! | id | invariant |
//! |---|---|
//! | B001 | `.sample(` call sites only inside `prc-dp` or test code |
//! | B002 | raw `Laplace::` / `Geometric::` distribution construction only inside `prc-dp` or test code |
//! | B003 | `rand::` dependency outside `prc-dp` needs a reasoned allow |
//! | D001 | no `HashMap` / `HashSet` in deterministic answer paths |
//! | D002 | no `Instant::now` / `SystemTime` in deterministic answer paths |
//! | D003 | no `thread_rng` / `from_entropy` / `rand::random` in production code |
//! | P001 | no `.unwrap()` in library code |
//! | P002 | no `.expect(` in library code |
//! | P003 | no `panic!` / `unreachable!` / `todo!` / `unimplemented!` in library code |
//! | P004 | no indexing by integer literal (`xs[0]`) in library code |
//! | R001 | no thread creation (`thread::spawn` / scoped threads) in library code |
//! | F001 | budget-flow: sampling reachable only under a reservation holder |
//! | F002 | determinism scope propagates through calls from pipeline roots |
//! | F003 | public API reaching a sanctioned panic documents `# Panics` |
//! | L001 | every allow directive needs a non-empty `reason` |
//! | L002 | per-file allow directives must suppress something |
//! | L003 | flow-rule allows (F001–F003) must suppress something |
//!
//! B/D/P rules are per-file and live here; F rules are interprocedural
//! and live in [`crate::flow`] (semantics in DESIGN.md §13). L002 covers
//! per-file rules only — whether an F-rule allow earned its keep is only
//! decidable after the workspace passes, which is L003's job.
//!
//! # Allow directives
//!
//! `// prc-lint: allow(RULE, reason = "…")` suppresses matching findings
//! on its own line and the line immediately below; for F001/F003 it is
//! attached to the function whose header block it sits in. The reason is
//! mandatory (L001) and the directive must actually suppress a finding
//! (L002/L003), so stale escapes can't accumulate.

use crate::scanner::{scan, ScannedFile};

/// One diagnostic emitted by the linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier, e.g. `P001`.
    pub rule: &'static str,
    /// Workspace-relative path (or the fixture's declared virtual path).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

/// Every rule identifier the checker can emit, in catalog order.
pub const RULE_IDS: [&str; 17] = [
    "B001", "B002", "B003", "D001", "D002", "D003", "P001", "P002", "P003", "P004", "R001", "F001",
    "F002", "F003", "L001", "L002", "L003",
];

/// One-line summaries per rule, for SARIF `rules` metadata.
pub const RULE_SUMMARIES: [(&str, &str); 17] = [
    ("B001", "noise sampling only inside prc-dp"),
    ("B002", "raw distribution construction only inside prc-dp"),
    (
        "B003",
        "rand dependency outside prc-dp needs a reasoned allow",
    ),
    ("D001", "no unordered maps in deterministic answer paths"),
    ("D002", "no wall-clock reads in deterministic answer paths"),
    ("D003", "no unseeded RNGs in production code"),
    ("P001", "no .unwrap() in library code"),
    ("P002", "no .expect( in library code"),
    ("P003", "no panicking macros in library code"),
    ("P004", "no indexing by integer literal in library code"),
    ("R001", "no thread creation in library code"),
    (
        "F001",
        "sampling reachable only under a budget reservation holder",
    ),
    (
        "F002",
        "determinism scope propagates through the call graph",
    ),
    (
        "F003",
        "public API reaching a sanctioned panic documents # Panics",
    ),
    ("L001", "allow directives carry a non-empty reason"),
    ("L002", "per-file allow directives suppress something"),
    ("L003", "flow-rule allow directives suppress something"),
];

/// The header a fixture uses to claim a virtual workspace path.
pub const FIXTURE_PATH_HEADER: &str = "// prc-lint-fixture: path =";

/// One parsed `prc-lint: allow(...)` directive.
#[derive(Debug)]
pub(crate) struct Allow {
    /// 1-based line the directive sits on.
    pub line: usize,
    /// The rule it names.
    pub rule: String,
    /// Whether a non-empty `reason = "…"` was given.
    pub has_reason: bool,
    /// Whether the directive suppressed any finding.
    pub used: bool,
    /// Whether the directive sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// One file's analysis state: the substrate the per-file pass produces
/// and the interprocedural passes in [`crate::flow`] extend.
pub struct FileAnalysis {
    /// `/`-normalized workspace-relative (or fixture-declared) path.
    pub path: String,
    /// The scanned source.
    pub scanned: ScannedFile,
    /// Parsed allow directives with usage state.
    pub(crate) allows: Vec<Allow>,
    /// Per-line B/D/P findings, already filtered through the allows.
    pub findings: Vec<Finding>,
    /// 1-based lines where a P-rule finding was suppressed by a
    /// *reasoned* allow — the sanctioned panic sites F003 tracks.
    pub sanctioned: Vec<usize>,
}

/// Path classification, all over `/`-normalized workspace-relative
/// paths, compared component-wise so sibling directories can't spoof a
/// scope (`crates/core2/…` is not `crates/core/…`).
pub(crate) mod scope {
    /// Whether `path`'s leading components are exactly `prefix`.
    fn starts_with_components(path: &str, prefix: &[&str]) -> bool {
        let mut components = path.split('/');
        prefix
            .iter()
            .all(|want| components.next().is_some_and(|got| got == *want))
    }

    /// Test scope: fixtures, integration tests, benches, examples, and
    /// the whole benchmark crate are exempt from every production rule.
    pub fn is_test_path(path: &str) -> bool {
        starts_with_components(path, &["crates", "bench"])
            || path
                .split('/')
                .any(|c| c == "tests" || c == "benches" || c == "examples" || c == "fixtures")
    }

    /// The privacy substrate, where sampling primitives are sanctioned.
    pub fn is_dp_crate(path: &str) -> bool {
        starts_with_components(path, &["crates", "dp"])
    }

    /// The staged pipeline, where budget reservations are held.
    pub fn is_pipeline_path(path: &str) -> bool {
        starts_with_components(path, &["crates", "core", "src", "pipeline"])
    }

    /// Deterministic answer paths: code whose emitted bytes must be a
    /// pure function of (inputs, seed). See DESIGN.md §10.
    pub fn is_deterministic_path(path: &str) -> bool {
        path == "crates/core/src/broker.rs"
            || path == "crates/core/src/optimizer.rs"
            || starts_with_components(path, &["crates", "core", "src", "estimator"])
            || is_pipeline_path(path)
            || path == "crates/net/src/base_station.rs"
            || path == "crates/net/src/network.rs"
            || path == "crates/net/src/tree.rs"
    }

    /// Library code subject to panic-hygiene rules: crate `src/` trees,
    /// excluding binary targets (a CLI may die loudly).
    pub fn is_library_path(path: &str) -> bool {
        if is_test_path(path) {
            return false;
        }
        let components: Vec<&str> = path.split('/').collect();
        let in_src = components.contains(&"src");
        in_src && !components.contains(&"bin") && components.last().is_none_or(|f| *f != "main.rs")
    }
}

/// Runs the per-file pass over one file, leaving allow bookkeeping open
/// for the interprocedural passes.
pub fn analyze_file(path: &str, source: &str) -> FileAnalysis {
    let path = virtual_path(source).unwrap_or_else(|| path.replace('\\', "/"));
    let scanned = scan(source);
    let mut allows = collect_allows(&scanned);
    let mut findings = Vec::new();
    let mut sanctioned = Vec::new();

    for (idx, code) in scanned.code.iter().enumerate() {
        if scanned.in_test[idx] {
            continue;
        }
        for (rule, message) in line_violations(&path, code) {
            let line = idx + 1;
            if suppress_line(&mut allows, line, rule) {
                if rule.starts_with('P') && reasoned_allow_covers(&allows, line, rule) {
                    sanctioned.push(line);
                }
                continue;
            }
            findings.push(Finding {
                rule,
                path: path.clone(),
                line,
                snippet: snippet_at(&scanned, idx),
                message,
            });
        }
    }

    FileAnalysis {
        path,
        scanned,
        allows,
        findings,
        sanctioned,
    }
}

/// Emits the allow-hygiene findings (L001 always; L002 for per-file
/// rules; L003 is [`crate::flow`]'s job and needs the flow passes to
/// have run first).
pub fn allow_findings(analysis: &FileAnalysis) -> Vec<Finding> {
    let mut findings = Vec::new();
    for allow in &analysis.allows {
        if allow.in_test {
            continue;
        }
        if !allow.has_reason {
            findings.push(Finding {
                rule: "L001",
                path: analysis.path.clone(),
                line: allow.line,
                snippet: snippet_at(&analysis.scanned, allow.line - 1),
                message: format!(
                    "allow({}) must carry a non-empty reason: \
                     `prc-lint: allow({}, reason = \"…\")`",
                    allow.rule, allow.rule
                ),
            });
        }
        let flow_rule = matches!(allow.rule.as_str(), "F001" | "F002" | "F003");
        if !allow.used && !flow_rule {
            findings.push(Finding {
                rule: "L002",
                path: analysis.path.clone(),
                line: allow.line,
                snippet: snippet_at(&analysis.scanned, allow.line - 1),
                message: format!(
                    "allow({}) suppresses nothing on this line or the next — remove it",
                    allow.rule
                ),
            });
        }
    }
    findings
}

/// Lints one file's source under its workspace-relative `path`,
/// per-file rules only (no call-graph passes; F-rule allows are left to
/// the workspace pass and not audited here).
///
/// When the first line carries a [`FIXTURE_PATH_HEADER`], the declared
/// virtual path replaces `path` for scoping decisions, so the fixture
/// corpus can exercise path-dependent rules from anywhere on disk.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let analysis = analyze_file(path, source);
    let mut findings = analysis.findings.clone();
    findings.extend(allow_findings(&analysis));
    findings.sort_by(|a, b| (a.line, a.rule, &a.path).cmp(&(b.line, b.rule, &b.path)));
    findings
}

/// Reads a fixture's declared virtual path, if any.
pub fn virtual_path(source: &str) -> Option<String> {
    let first = source.lines().next()?;
    let rest = first.trim().strip_prefix(FIXTURE_PATH_HEADER)?;
    let p = rest.trim();
    if p.is_empty() {
        None
    } else {
        Some(p.replace('\\', "/"))
    }
}

/// All (rule, message) violations present on one blanked code line.
fn line_violations(path: &str, code: &str) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    if scope::is_test_path(path) {
        return out;
    }
    let dp = scope::is_dp_crate(path);
    let det = scope::is_deterministic_path(path);
    let lib = scope::is_library_path(path);

    if !dp {
        if code.contains(".sample(") {
            out.push((
                "B001",
                "noise may only be sampled inside prc-dp; route draws through \
                 prc_dp::laplace::draw_centered or prc_dp::ExponentialMechanism"
                    .to_owned(),
            ));
        }
        for ctor in ["Laplace::", "Geometric::"] {
            if contains_token(code, ctor) {
                out.push((
                    "B002",
                    format!(
                        "raw `{ctor}` distribution construction belongs inside prc-dp; \
                         use prc_dp::laplace::draw_centered/central_probability or \
                         prc_dp::ExponentialMechanism"
                    ),
                ));
            }
        }
        if contains_token(code, "rand::") || code.trim_start().starts_with("use rand;") {
            out.push((
                "B003",
                "a `rand` dependency outside prc-dp needs a reasoned allow \
                 documenting that it is simulation randomness, not privacy noise"
                    .to_owned(),
            ));
        }
    }
    if det {
        for token in ["HashMap", "HashSet"] {
            if contains_token(code, token) {
                out.push((
                    "D001",
                    format!(
                        "`{token}` iteration order is nondeterministic; deterministic \
                         answer paths must use BTreeMap/BTreeSet or sort before iterating"
                    ),
                ));
            }
        }
        for token in ["Instant::now", "SystemTime"] {
            if contains_token(code, token) {
                out.push((
                    "D002",
                    format!(
                        "`{token}` makes answers depend on wall-clock time; deterministic \
                         answer paths must be pure functions of (inputs, seed)"
                    ),
                ));
            }
        }
    }
    for token in ["thread_rng", "from_entropy", "rand::random"] {
        if contains_token(code, token) {
            out.push((
                "D003",
                format!("`{token}` is unseeded; production code must thread a seeded RNG"),
            ));
        }
    }
    if lib {
        if code.contains(".unwrap()") {
            out.push((
                "P001",
                "library code must not `.unwrap()`; return the error or restructure \
                 so the failure case is unrepresentable"
                    .to_owned(),
            ));
        }
        if code.contains(".expect(") {
            out.push((
                "P002",
                "library code must not `.expect(`; return a typed error (or carry a \
                 reasoned allow for a checked invariant)"
                    .to_owned(),
            ));
        }
        for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
            if contains_token(code, mac) {
                out.push((
                    "P003",
                    format!("library code must not `{mac}`; return a typed error instead"),
                ));
            }
        }
        if has_literal_index(code) {
            out.push((
                "P004",
                "indexing by integer literal panics on short input; use `.first()`, \
                 `.get(n)`, destructuring, or iterators"
                    .to_owned(),
            ));
        }
        for token in [
            "thread::spawn",
            "thread::scope",
            "thread::Builder",
            "crossbeam::thread",
        ] {
            if contains_token(code, token) {
                out.push((
                    "R001",
                    format!("`{token}` creates a thread; library code runs on the caller's thread"),
                ));
            }
        }
    }
    out
}

/// Substring match with an identifier boundary on the left.
pub(crate) fn contains_token(code: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let abs = start + pos;
        let boundary = abs == 0
            || code[..abs]
                .chars()
                .next_back()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary {
            return true;
        }
        start = abs + token.len();
    }
    false
}

/// Detects `ident[123]` — indexing an identifier by an integer literal.
fn has_literal_index(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'[' && i > 0 {
            let prev = bytes[i - 1] as char;
            if prev.is_alphanumeric() || prev == '_' {
                let mut j = i + 1;
                let mut digits = 0;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    digits += 1;
                    j += 1;
                }
                if digits > 0 && j < bytes.len() && bytes[j] == b']' {
                    return true;
                }
            }
        }
        i += 1;
    }
    false
}

fn collect_allows(scanned: &ScannedFile) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (idx, comment) in scanned.comments.iter().enumerate() {
        // Only a comment that IS the directive counts; prose that merely
        // mentions the syntax (docs, this file) is not an allow.
        let Some(body) = comment.trim().strip_prefix("prc-lint: allow(") else {
            continue;
        };
        let Some(close) = body.find(')') else {
            continue;
        };
        let inner = &body[..close];
        let (rule, rest) = match inner.split_once(',') {
            Some((r, rest)) => (r.trim(), rest.trim()),
            None => (inner.trim(), ""),
        };
        let has_reason = rest
            .strip_prefix("reason")
            .map(|r| r.trim_start())
            .and_then(|r| r.strip_prefix('='))
            .map(|r| r.trim().trim_matches('"').trim())
            .is_some_and(|r| !r.is_empty());
        allows.push(Allow {
            line: idx + 1,
            rule: rule.to_owned(),
            has_reason,
            used: false,
            in_test: scanned.in_test[idx],
        });
    }
    allows
}

/// Marks and reports whether an allow covers (`line`, `rule`).
pub(crate) fn suppress_line(allows: &mut [Allow], line: usize, rule: &str) -> bool {
    let mut hit = false;
    for allow in allows.iter_mut() {
        if allow.rule == rule && (allow.line == line || allow.line + 1 == line) {
            allow.used = true;
            hit = true;
        }
    }
    hit
}

/// Whether a *reasoned* allow covers (`line`, `rule`) — read-only twin
/// of [`suppress_line`] for sanctioned-panic bookkeeping.
fn reasoned_allow_covers(allows: &[Allow], line: usize, rule: &str) -> bool {
    allows.iter().any(|allow| {
        allow.rule == rule && allow.has_reason && (allow.line == line || allow.line + 1 == line)
    })
}

pub(crate) fn snippet_at(scanned: &ScannedFile, idx: usize) -> String {
    let raw = scanned.raw.get(idx).map(String::as_str).unwrap_or("");
    let trimmed = raw.trim();
    if trimmed.chars().count() > 120 {
        let cut: String = trimmed.chars().take(117).collect();
        format!("{cut}...")
    } else {
        trimmed.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn sample_outside_dp_is_b001() {
        let f = lint_source(
            "crates/core/src/x.rs",
            "fn f() { let v = d.sample(rng); }\n",
        );
        assert_eq!(rules_of(&f), vec!["B001"]);
        let f = lint_source("crates/dp/src/x.rs", "fn f() { let v = d.sample(rng); }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn mechanism_types_do_not_trip_b002() {
        let src = "fn f() { let m = ExponentialMechanism::new(eps, sens); }\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
        let src = "fn f() { let x = prc_dp::laplace::draw_centered(s, rng); }\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
        let src = "fn f() { let d = Laplace::centered(s); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", src)),
            vec!["B002"]
        );
    }

    #[test]
    fn hashmap_only_flagged_on_deterministic_paths() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/broker.rs", src)),
            vec!["D001"]
        );
        assert!(lint_source("crates/pricing/src/x.rs", src).is_empty());
    }

    #[test]
    fn pipeline_modules_are_deterministic_paths() {
        let src = "use std::collections::HashMap;\n";
        for file in ["mod.rs", "stages.rs", "batch.rs"] {
            let path = format!("crates/core/src/pipeline/{file}");
            assert_eq!(rules_of(&lint_source(&path, src)), vec!["D001"], "{path}");
        }
        let clock = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/pipeline/stages.rs", clock)),
            vec!["D002"]
        );
    }

    #[test]
    fn tree_driver_is_a_deterministic_path() {
        // Both drivers run the one collection round in network.rs, and
        // the tree builds the routes that round walks; unordered maps or
        // wall-clock reads in either would break the conformance kit's
        // cross-driver guarantee.
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_of(&lint_source("crates/net/src/tree.rs", src)),
            vec!["D001"]
        );
        let clock = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/net/src/tree.rs", clock)),
            vec!["D002"]
        );
        assert_eq!(
            rules_of(&lint_source("crates/net/src/network.rs", src)),
            vec!["D001"]
        );
    }

    #[test]
    fn query_engine_is_a_deterministic_path() {
        // The engine owns boundary resolution for every estimator path;
        // a clock read or unordered map there would let resolved
        // positions drift between runs and break the bit-identity
        // contract between the scan and the index.
        for file in ["mod.rs", "boundary.rs", "plan_cache.rs"] {
            let path = format!("crates/core/src/estimator/engine/{file}");
            assert!(scope::is_deterministic_path(&path), "{path}");
        }
        let clock = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules_of(&lint_source(
                "crates/core/src/estimator/engine/boundary.rs",
                clock
            )),
            vec!["D002"]
        );
        let hash = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_of(&lint_source(
                "crates/core/src/estimator/engine/plan_cache.rs",
                hash
            )),
            vec!["D001"]
        );
    }

    #[test]
    fn sibling_directories_cannot_spoof_scopes() {
        // Component-wise comparison: `crates/core2` / `crates/dp2` /
        // `crates/bench2` are ordinary paths, not scope members.
        let sample = "fn f() { let v = d.sample(rng); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/dp2/src/x.rs", sample)),
            vec!["B001"]
        );
        let hash = "use std::collections::HashMap;\n";
        assert!(lint_source("crates/core2/src/pipeline/stages.rs", hash).is_empty());
        let unwrap = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/bench2/src/x.rs", unwrap)),
            vec!["P001"]
        );
        assert!(scope::is_test_path("crates/bench/src/x.rs"));
        assert!(!scope::is_test_path("crates/bench2/src/x.rs"));
        assert!(scope::is_pipeline_path("crates/core/src/pipeline/mod.rs"));
        assert!(!scope::is_pipeline_path("crates/core/src/pipeline2/mod.rs"));
        assert!(!scope::is_deterministic_path(
            "crates/core/src/estimator2/x.rs"
        ));
    }

    #[test]
    fn panic_rules_skip_bins_and_tests() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/net/src/x.rs", src)),
            vec!["P001"]
        );
        assert!(lint_source("crates/net/src/bin/tool.rs", src).is_empty());
        assert!(lint_source("crates/net/tests/x.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n}\n";
        assert!(lint_source("crates/net/src/x.rs", in_test).is_empty());
    }

    #[test]
    fn thread_creation_is_r001_in_every_library_crate() {
        for src in [
            "fn f() { std::thread::spawn(|| {}); }\n",
            "fn f() { thread::scope(|s| {}); }\n",
            "fn f() { thread::Builder::new(); }\n",
            "fn f() { crossbeam::thread::scope(|s| {}).unwrap(); }\n",
        ] {
            let f = lint_source("crates/core/src/x.rs", src);
            assert!(rules_of(&f).contains(&"R001"), "{src}");
        }
        // The runtime crate gets no exemption.
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/runtime/src/lib.rs", spawn)),
            vec!["R001"]
        );
        // Test code stays exempt, like every per-file production rule.
        assert!(lint_source("crates/core/tests/x.rs", spawn).is_empty());
        assert!(lint_source("tests/cost_meter_stress.rs", spawn).is_empty());
        assert!(lint_source("crates/bench/src/x.rs", spawn).is_empty());
    }

    #[test]
    fn literal_index_detection() {
        assert!(has_literal_index("let a = xs[0];"));
        assert!(has_literal_index("pair[17] + 1"));
        assert!(!has_literal_index("let a = xs[i];"));
        assert!(!has_literal_index("let a = [0u8; 4];"));
        assert!(!has_literal_index("xs[i + 1]"));
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_used() {
        let src = "// prc-lint: allow(P001, reason = \"checked above\")\nfn f() { x.unwrap(); }\n";
        assert!(lint_source("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_l001() {
        let src = "// prc-lint: allow(P001)\nfn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/net/src/x.rs", src)),
            vec!["L001"]
        );
    }

    #[test]
    fn unused_allow_is_l002() {
        let src = "// prc-lint: allow(P001, reason = \"stale\")\nfn f() {}\n";
        assert_eq!(
            rules_of(&lint_source("crates/net/src/x.rs", src)),
            vec!["L002"]
        );
    }

    #[test]
    fn flow_rule_allows_are_not_audited_per_file() {
        // Whether an F-rule allow is stale is only decidable after the
        // interprocedural passes; lint_source leaves them alone (L003
        // covers them in the workspace pass).
        let src = "// prc-lint: allow(F002, reason = \"pure helper\")\nfn f() {}\n";
        assert!(lint_source("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn sanctioned_panic_lines_are_recorded() {
        let src = "pub fn f() {\n    // prc-lint: allow(P001, reason = \"caller checked\")\n    x.unwrap();\n}\n";
        let analysis = analyze_file("crates/net/src/x.rs", src);
        assert_eq!(analysis.sanctioned, vec![3]);
        // A reasonless allow suppresses nothing sanctioned.
        let src = "pub fn f() {\n    // prc-lint: allow(P001)\n    x.unwrap();\n}\n";
        let analysis = analyze_file("crates/net/src/x.rs", src);
        assert!(analysis.sanctioned.is_empty());
    }

    #[test]
    fn virtual_path_header_rescopes_the_file() {
        let src = "// prc-lint-fixture: path = crates/core/src/broker.rs\nuse std::collections::HashMap;\n";
        let f = lint_source("crates/lint/fixtures/fail/d001.rs", src);
        assert_eq!(rules_of(&f), vec!["D001"]);
        assert_eq!(f[0].path, "crates/core/src/broker.rs");
    }

    #[test]
    fn string_contents_never_trip_rules() {
        let src = "fn f() { let m = \"please .unwrap() and panic! now\"; }\n";
        assert!(lint_source("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn unseeded_rng_is_d003_even_inside_dp() {
        let src = "fn f() { let mut rng = thread_rng(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/dp/src/x.rs", src)),
            vec!["D003"]
        );
    }

    #[test]
    fn findings_are_sorted_by_line() {
        let src = "fn g() { y.expect(\"m\"); }\nfn f() { x.unwrap(); }\n";
        let f = lint_source("crates/net/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["P002", "P001"]);
        assert!(f[0].line < f[1].line);
    }
}
