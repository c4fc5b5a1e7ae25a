//! `bench_e2e compare A.json B.json`: the small-sandbox comparison rule.
//!
//! Each file is one result file or `{"runs": [result, ...]}`. A side's
//! samples for a workload × metric are its runs' reported values (the
//! best or median rep of each run), so compare at least ten runs a side,
//! taken alternately. For each pair the command prints both sides'
//! median and quartiles, the share of run pairs B wins (ties count for
//! neither) and a verdict:
//!
//! * `regression` — B's median is worse than A's by more than the bound;
//! * `unresolved` — either side's spread (IQR over median) is wider than
//!   the bound, unless every B run beats (`better`) or loses to
//!   (`worse`) every A run;
//! * `better` — B wins at least nine tenths of the pairs and the medians
//!   differ by more than A's own IQR (or every B rep beats every A rep);
//! * `worse` — the mirror of `better`: B loses nine tenths of the pairs
//!   by more than A's own IQR, but stays within the bound. The bounds
//!   are wide enough to absorb the drift of a shared host (see the
//!   README); this verdict shows a consistent slowdown too small to
//!   cross one;
//! * `no change` otherwise. Deterministic metrics (messages per answer,
//!   failed ratio) compare results at one seed, so they read `no change`
//!   only when both sides agree exactly.
//!
//! Results taken on different hosts, builds or settings are refused: the
//! host facts (`nproc`, pool lanes, `PRC_THREADS`, rustc, seed, smoke,
//! rep count) must match. Exits 1 when any pair regressed, 2 on refusal
//! or bad input.

use prc_bench::print_table;

use crate::json::Json;
use crate::metrics::{EndToEnd, Summary, END_TO_END};
use crate::stats::quartiles;

/// Host facts that must agree; the commit is expected to differ. A
/// timing value is a best or median over the reps, so the rep count is
/// one of them.
const FACTS: [&str; 7] = [
    "nproc",
    "lanes",
    "prc_threads",
    "rustc",
    "seed",
    "smoke",
    "reps",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    Unresolved,
    Better,
    Worse,
    NoChange,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::NoChange => "no change",
        }
    }
}

pub fn run(args: &[String]) -> u8 {
    let [a, b] = args else {
        eprintln!("usage: bench_e2e compare A.json B.json");
        return 2;
    };
    let (runs_a, runs_b) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_e2e compare: {e}");
            return 2;
        }
    };
    let (facts_a, facts_b) = match (facts(&runs_a), facts(&runs_b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_e2e compare: {e}");
            return 2;
        }
    };
    if facts_a != facts_b {
        eprintln!("bench_e2e compare: refusing to compare results from different hosts or builds");
        for (key, (x, y)) in FACTS.iter().zip(facts_a.iter().zip(&facts_b)) {
            if x != y {
                eprintln!("  {key}: {x} vs {y}");
            }
        }
        return 2;
    }

    let mut rows = Vec::new();
    let mut regressions = 0;
    let workloads = runs_a[0].get("workloads").map(Json::fields).unwrap_or(&[]);
    for (workload, _) in workloads {
        for metric in &END_TO_END {
            let a = samples(&runs_a, workload, metric.name);
            let b = samples(&runs_b, workload, metric.name);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let verdict = judge(metric, &a, &b);
            regressions += usize::from(verdict == Verdict::Regression);
            let (a1, am, a3) = quartiles(&a);
            let (b1, bm, b3) = quartiles(&b);
            let pairs = a.len().min(b.len());
            let wins = (0..pairs)
                .filter(|&i| metric.better.beats(b[i], a[i]))
                .count();
            rows.push(vec![
                workload.clone(),
                metric.name.to_owned(),
                format!("{am:.4} [{a1:.4}, {a3:.4}]"),
                format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
                format!(
                    "{:+.1}%",
                    100.0 * (bm - am) / am.abs().max(f64::MIN_POSITIVE)
                ),
                format!("{wins}/{pairs}"),
                format!("{:.0}%", 100.0 * metric.bound),
                verdict.as_str().to_owned(),
            ]);
        }
    }
    print_table(
        &format!("compare {a} (A) vs {b} (B)"),
        &[
            "workload",
            "metric",
            "A median [q1, q3]",
            "B median [q1, q3]",
            "change",
            "B wins",
            "bound",
            "verdict",
        ],
        &rows,
    );
    println!("regressions: {regressions}");
    u8::from(regressions > 0)
}

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = match json.get("runs") {
        Some(runs) => runs.as_array().to_vec(),
        None => vec![json],
    };
    if runs.iter().any(|r| r.get("workloads").is_none()) || runs.is_empty() {
        return Err(format!("{path}: not a bench_e2e result file"));
    }
    Ok(runs)
}

/// The host facts of a set of runs, which must agree among themselves.
fn facts(runs: &[Json]) -> Result<Vec<String>, String> {
    let of = |run: &Json| -> Vec<String> {
        FACTS
            .iter()
            .map(|key| {
                run.get("host")
                    .and_then(|h| h.get(key))
                    .map_or("missing".to_owned(), Json::render)
            })
            .collect()
    };
    let first = of(&runs[0]);
    if runs.iter().any(|r| of(r) != first) {
        return Err("the runs of one file come from different hosts or builds".to_owned());
    }
    Ok(first)
}

fn samples(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .num("value")
        })
        .collect()
}

pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let worse = metric.better.worsening(bm, am);
    if metric.summary == Summary::Exact {
        return if a.iter().chain(b).all(|&v| v == a[0]) {
            Verdict::NoChange
        } else if worse > 0.0 {
            Verdict::Regression
        } else {
            Verdict::Better
        };
    }
    let beats_all = |x: &[f64], y: &[f64]| {
        x.iter()
            .all(|&p| y.iter().all(|&q| metric.better.beats(p, q)))
    };
    let (always_better, always_worse) = (beats_all(b, a), beats_all(a, b));
    let spread = |q1: f64, med: f64, q3: f64| (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
    if spread(a1, am, a3).max(spread(b1, bm, b3)) > metric.bound {
        return if always_better {
            Verdict::Better
        } else if always_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse > metric.bound {
        return Verdict::Regression;
    }
    let pairs = a.len().min(b.len());
    let won = |x: &[f64], y: &[f64]| {
        (0..pairs)
            .filter(|&i| metric.better.beats(x[i], y[i]))
            .count()
    };
    let clear = (bm - am).abs() > a3 - a1;
    if always_better || (worse < 0.0 && 10 * won(b, a) >= 9 * pairs && clear) {
        Verdict::Better
    } else if always_worse || (worse > 0.0 && 10 * won(a, b) >= 9 * pairs && clear) {
        Verdict::Worse
    } else {
        Verdict::NoChange
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let throughput = end_to_end("throughput_rps").unwrap();
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound, no consistent win: no change.
        assert_eq!(
            judge(throughput, &base, &[99.0, 100.0, 101.0, 99.5, 100.5]),
            Verdict::NoChange
        );
        // 30% slower, past the 25% bound: a regression.
        assert_eq!(
            judge(throughput, &base, &[70.0, 71.0, 69.0, 70.5, 69.5]),
            Verdict::Regression
        );
        // Every run faster: better.
        assert_eq!(
            judge(throughput, &base, &[110.0, 111.0, 109.0, 110.5, 109.5]),
            Verdict::Better
        );
        // Every run 8% slower: within the bound, yet consistently worse.
        assert_eq!(
            judge(throughput, &base, &[92.0, 93.0, 91.0, 92.5, 91.5]),
            Verdict::Worse
        );
        // Slower in nine pairs of ten, by more than A's spread: worse.
        let a10 = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5,
        ];
        let mut b10 = a10.map(|v| v - 5.0);
        b10[0] = 102.0;
        assert_eq!(judge(throughput, &a10, &b10), Verdict::Worse);
        // A noisy side cannot be called either way.
        let noisy = [60.0, 140.0, 80.0, 120.0, 100.0];
        assert_eq!(judge(throughput, &base, &noisy), Verdict::Unresolved);
        // Deterministic metrics must match exactly.
        let msgs = end_to_end("msgs_per_answer").unwrap();
        assert_eq!(judge(msgs, &[2.5, 2.5], &[2.5, 2.5]), Verdict::NoChange);
        assert_eq!(judge(msgs, &[2.5, 2.5], &[2.6, 2.6]), Verdict::Regression);
        assert_eq!(judge(msgs, &[2.5, 2.5], &[2.4, 2.4]), Verdict::Better);
    }

    #[test]
    fn runs_with_other_rep_counts_are_refused() {
        let run = |reps: u64| {
            Json::obj()
                .with("host", Json::obj().with("nproc", 2u64).with("reps", reps))
                .with("workloads", Json::obj())
        };
        assert_eq!(facts(&[run(5), run(5)]), facts(&[run(5)]));
        assert_ne!(facts(&[run(5)]), facts(&[run(15)]));
        assert!(facts(&[run(5), run(15)]).is_err());
    }
}
