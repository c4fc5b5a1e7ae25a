//! The fixture corpus must behave exactly as labelled: pass fixtures
//! lint clean, fail fixtures trip precisely their named rule.

use std::path::PathBuf;

use prc_lint::{self_test, RULE_IDS};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

#[test]
fn every_fixture_behaves_as_labelled() {
    let results = self_test(&fixtures_dir()).expect("fixture corpus must be readable");
    let failures: Vec<String> = results
        .iter()
        .filter_map(|r| r.problem.as_ref().map(|p| format!("{}: {p}", r.name)))
        .collect();
    assert!(
        failures.is_empty(),
        "fixture failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn corpus_covers_every_rule() {
    let results = self_test(&fixtures_dir()).expect("fixture corpus must be readable");
    // Every `.rs` file under `pass/` and `fail/` is one fixture: the
    // self-test must run all of them, and the corpus holds at least one
    // pass/fail pair per rule.
    let on_disk: usize = ["pass", "fail"]
        .iter()
        .map(|sub| {
            std::fs::read_dir(fixtures_dir().join(sub))
                .expect("fixture directory must be readable")
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|ext| ext == "rs"))
                .count()
        })
        .sum();
    assert_eq!(results.len(), on_disk);
    assert!(results.len() >= 2 * RULE_IDS.len());
    for rule in RULE_IDS {
        let prefix = rule.to_lowercase();
        assert!(
            results.iter().any(|r| r.name.starts_with(&prefix)),
            "no fail fixture for rule {rule}"
        );
    }
}

#[test]
fn self_test_errors_on_missing_corpus() {
    let missing = fixtures_dir().join("no-such-dir");
    assert!(self_test(&missing).is_err());
}
