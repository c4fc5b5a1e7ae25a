//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, direction and (end-to-end only) the
//! regression bound. This is the one source: a unit test checks that
//! `BENCHMARK.json` at the repository root lists exactly these entries.

use crate::stats::Better;

/// How a run's reps reduce to the one reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    /// The best rep: host noise only ever slows a rep down, so the best
    /// of several fresh processes is the steadiest estimate of the code's
    /// own speed. Set-up time too: one set-up lasts 15–200 ms, inside a
    /// single fast or slow stretch of the host, so a median of set-ups
    /// flips between the two speeds from run to run.
    Best,
    /// The median rep (memory).
    Median,
    /// Deterministic at a fixed seed: every rep agrees exactly, so at one
    /// seed any change is real (`bound` covers the variation across
    /// seeds).
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub summary: Summary,
    /// Listed in `BENCHMARK.json`. `failed_ratio` is not: it reads 0 on
    /// every workload, and that file takes only metrics that never do.
    pub listed: bool,
}

/// The timing bounds (throughput, latency, set-up) are 25%, the widest a
/// bound may be: on the shared 2-vCPU host this benchmark was built on,
/// the spread over ten seeds reached 7% for throughput and 13% for p99
/// while the host held one speed, and 15–25% when it changed speed
/// mid-session, as it does every few minutes. A bound should be at least
/// three such spreads. `msgs_per_answer` is exact at one seed but varies
/// by up to 2% across seeds. See the README.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "throughput_rps",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.25,
        summary: Summary::Best,
        listed: true,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        summary: Summary::Best,
        listed: true,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        summary: Summary::Best,
        listed: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        summary: Summary::Best,
        listed: true,
    },
    EndToEnd {
        name: "msgs_per_answer",
        unit: "msgs",
        better: Better::Lower,
        bound: 0.10,
        summary: Summary::Exact,
        listed: true,
    },
    EndToEnd {
        name: "failed_ratio",
        unit: "fraction",
        better: Better::Lower,
        bound: 0.0,
        summary: Summary::Exact,
        listed: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        summary: Summary::Median,
        listed: true,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Per-layer metrics of the traced rep: `(name, unit, better)`. A
/// workload reports `0` for a layer it never reaches.
pub const PER_LAYER: [(&str, &str, Better); 35] = [
    ("pipeline.self_us_per_req", "us", Better::Lower),
    ("pipeline.self_share", "fraction", Better::Lower),
    ("pipeline.plan_cache_hit_ratio", "ratio", Better::Higher),
    ("pipeline.answer_cache_hit_ratio", "ratio", Better::Higher),
    ("pipeline.budget_rollbacks", "count", Better::Lower),
    ("estimator.estimate_us_per_req", "us", Better::Lower),
    ("estimator.estimate_share", "fraction", Better::Lower),
    ("estimator.indexed_ratio", "ratio", Better::Higher),
    ("estimator.gallop_steps_per_query", "steps", Better::Lower),
    ("index.builds", "count", Better::Lower),
    ("index.build_ms", "ms", Better::Lower),
    ("index.absorbs", "count", Better::Lower),
    ("index.absorb_ms", "ms", Better::Lower),
    ("index.compactions", "count", Better::Lower),
    ("index.max_segments", "count", Better::Lower),
    ("net.rounds", "count", Better::Lower),
    ("net.round_ms", "ms", Better::Lower),
    ("net.share", "fraction", Better::Lower),
    ("net.samples_per_round", "samples", Better::Lower),
    ("net.bytes_per_answer", "bytes", Better::Lower),
    ("pricing.quote_us_per_req", "us", Better::Lower),
    ("pricing.settle_us_per_req", "us", Better::Lower),
    ("pricing.reuse_checks_per_req", "count", Better::Lower),
    ("pricing.reuse_us_per_req", "us", Better::Lower),
    ("pricing.share", "fraction", Better::Lower),
    ("pricing.ledger_entries", "count", Better::Lower),
    ("runtime.tasks", "count", Better::Lower),
    ("runtime.chunks", "count", Better::Lower),
    ("runtime.sequential_fallbacks", "count", Better::Lower),
    ("runtime.lanes", "count", Better::Higher),
    ("dp.budget_ops", "count", Better::Lower),
    ("monitor.ingest_us_per_epoch", "us", Better::Lower),
    ("monitor.answer_us_per_epoch", "us", Better::Lower),
    ("monitor.rounds_per_epoch", "count", Better::Lower),
    ("trace.overhead", "ratio", Better::Higher),
];

/// Layers whose share of client-call time the traced rep reports, in
/// table order. `pipeline` is call time no wrapped layer covers.
pub const LAYER_SHARES: [&str; 6] = [
    "pipeline",
    "estimator",
    "index",
    "net",
    "pricing",
    "monitor",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    #[test]
    fn benchmark_json_lists_this_catalogue() {
        let file = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let entry = |name: &str, unit: &str, better: Better| {
            let better = match better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            Json::obj()
                .with("name", name)
                .with("unit", unit)
                .with("better", better)
        };
        let end_to_end: Vec<Json> = END_TO_END
            .iter()
            .filter(|m| m.listed)
            .map(|m| entry(m.name, m.unit, m.better).with("bound", m.bound))
            .collect();
        let per_layer: Vec<Json> = PER_LAYER
            .iter()
            .map(|&(name, unit, better)| entry(name, unit, better))
            .collect();
        assert_eq!(file.get("end_to_end").unwrap().as_array(), end_to_end);
        assert_eq!(file.get("per_layer").unwrap().as_array(), per_layer);
        let workloads: Vec<&str> = file
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .filter_map(|w| w.str("name"))
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }
}
