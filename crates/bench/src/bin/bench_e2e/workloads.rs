//! The four workloads, each written once over [`Layers`] so the timed
//! reps and the traced rep run the same code.
//!
//! Every workload has the same shape: generate its inputs from the seed
//! (untimed), build the system under test and run warm-up calls (the
//! timed `setup_s`), then run the timed phase as a single closed-loop
//! client that sends its next call only after the previous one returned.
//! Output checks that need ground truth run after the timed phase.

use std::time::Instant;

use prc_core::broker::{DataBroker, PrivateAnswer, StageCounters};
use prc_core::estimator::RangeCountEstimator;
use prc_core::monitor::{ContinuousMonitor, MonitorConfig};
use prc_core::query::{Accuracy, QueryRequest, RangeQuery};
use prc_core::RankCounting;
use prc_data::generator::CityPulseGenerator;
use prc_data::partition::{partition_values, PartitionStrategy};
use prc_data::record::{AirQualityIndex, PollutionRecord};
use prc_data::stream::StreamReplayer;
use prc_dp::budget::Epsilon;
use prc_net::base_station::BaseStation;
use prc_net::failure::FailurePlan;
use prc_net::message::NodeId;
use prc_net::network::{FlatNetwork, Network};
use prc_net::tree::TreeNetwork;
use prc_pricing::engine::PostedPriceEngine;
use prc_pricing::functions::InverseVariancePricing;
use prc_pricing::reuse::PostedPriceReuse;
use prc_pricing::variance::ChebyshevVariance;
use prc_runtime::{Runtime, RuntimeCounters};

use crate::json::Json;
use crate::metrics::LAYER_SHARES;
use crate::stats::rep_timing;
use crate::trace::{self, Layers, Totals};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Market,
    Batch,
    Churn,
    Monitor,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Market,
        Workload::Batch,
        Workload::Churn,
        Workload::Monitor,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Market => "market",
            Workload::Batch => "batch",
            Workload::Churn => "churn",
            Workload::Monitor => "monitor",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Wall time of one rep (child process included) on a 2-vCPU host;
    /// a timed run of `S` seconds makes about `S` divided by this many
    /// reps.
    pub fn rep_seconds(self) -> f64 {
        match self {
            Workload::Market => 1.0,
            Workload::Batch => 2.0,
            Workload::Churn => 1.0,
            Workload::Monitor => 1.0,
        }
    }

    /// Runs one rep in this process.
    pub fn run<L: Layers>(self, seed: u64, smoke: bool) -> Outcome {
        match self {
            Workload::Market => market::<L>(seed, smoke),
            Workload::Batch => batch::<L>(seed, smoke),
            Workload::Churn => churn::<L>(seed, smoke),
            Workload::Monitor => monitor::<L>(seed, smoke),
        }
    }
}

/// What one rep measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub timed_s: f64,
    /// Start offset (from the start of the timed phase) and duration of
    /// each timed client call, in nanoseconds.
    pub starts: Vec<u64>,
    pub latencies: Vec<u64>,
    /// Requests completed in the timed phase (a batch counts its
    /// requests, a monitor epoch counts one).
    pub requests: u64,
    /// Timed requests that returned `Err`.
    pub failed: u64,
    /// Chargeable messages and released answers over the whole rep.
    pub messages: u64,
    pub answers: u64,
    /// Running hash of every released value and price bit pattern plus
    /// the deterministic counters at the end.
    pub digest: u64,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Per-layer metrics and layer shares (traced rep only).
    pub layers: Vec<(&'static str, f64)>,
    pub shares: Vec<(&'static str, f64)>,
    pub trace_jsonl: String,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        let timing = rep_timing(
            &self.starts,
            &self.latencies,
            self.requests as f64 / self.latencies.len() as f64,
        );
        let pairs = |list: &[(&'static str, f64)]| {
            Json::Obj(
                list.iter()
                    .map(|&(k, v)| (k.to_owned(), Json::Num(v)))
                    .collect(),
            )
        };
        Json::obj()
            .with("setup_s", self.setup_s)
            .with("timed_s", self.timed_s)
            .with("requests", self.requests)
            .with("calls", self.latencies.len())
            .with("failed", self.failed)
            .with("throughput_rps", timing.throughput)
            .with("latency_p50_us", timing.p50_ns as f64 / 1e3)
            .with("latency_p99_us", timing.p99_ns as f64 / 1e3)
            .with(
                "msgs_per_answer",
                self.messages as f64 / self.answers.max(1) as f64,
            )
            .with(
                "failed_ratio",
                self.failed as f64 / self.requests.max(1) as f64,
            )
            .with("peak_rss_mb", peak_rss_mb())
            .with("digest", format!("{:016x}", self.digest))
            .with("lanes", Runtime::global().worker_count())
            .with(
                "failures",
                self.failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect::<Vec<_>>(),
            )
            .with("layers", pairs(&self.layers))
            .with("shares", pairs(&self.shares))
    }
}

/// `VmHWM` (peak resident set) of this process, in MB; `0` where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Shared machinery
// ---------------------------------------------------------------------

/// Seeded SplitMix64: every input the workloads generate comes from it
/// (or from the data generator's own seed).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Salts separating the seeded streams of one workload.
const NET_SALT: u64 = 0x6e65_745f_7365_6564;
const BROKER_SALT: u64 = 0x6272_6f6b_6572_5f73;
const QUERY_SALT: u64 = 0x7175_6572_795f_7364;

/// A privacy budget no workload can exhaust: every rep installs one so
/// the accountant's spend can be checked against the released answers.
const BUDGET: f64 = 1e9;

/// Posted-price coefficient of the inverse-variance curve.
const PRICE_SCALE: f64 = 1e6;

fn ozone(seed: u64, records: usize) -> Vec<f64> {
    CityPulseGenerator::new(seed)
        .record_count(records)
        .generate()
        .values(AirQualityIndex::Ozone)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Ranges between two random quantiles of the data, 2–52% wide.
fn quantile_ranges(sorted: &[f64], count: usize, rng: &mut SplitMix) -> Vec<RangeQuery> {
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    (0..count)
        .map(|_| {
            let lo = rng.unit() * 0.9;
            let hi = (lo + 0.02 + rng.unit() * 0.5).min(1.0);
            RangeQuery::new(at(lo), at(hi)).expect("quantiles are ordered")
        })
        .collect()
}

/// Exact count of `sorted` inside the closed range.
fn count_in(sorted: &[f64], query: RangeQuery) -> usize {
    sorted.partition_point(|&v| v <= query.upper()) - sorted.partition_point(|&v| v < query.lower())
}

fn accuracy(alpha: f64, delta: f64) -> Accuracy {
    Accuracy::new(alpha, delta).expect("workload accuracies are valid")
}

fn model_guard(
    n: usize,
) -> PostedPriceReuse<InverseVariancePricing<ChebyshevVariance>, ChebyshevVariance> {
    let model = ChebyshevVariance::new(n);
    PostedPriceReuse::new(InverseVariancePricing::new(PRICE_SCALE, model), model)
}

/// Word-at-a-time running hash (multiply–rotate).
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }

    fn text(&mut self, text: &str) {
        for chunk in text.as_bytes().chunks(8) {
            let mut bytes = [0u8; 8];
            bytes[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(bytes));
        }
    }
}

/// Broker-side counts the per-layer metrics read: cumulative when taken
/// from a broker, then differenced around the timed phase and summed over
/// brokers.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    answers_released: u64,
    cache_hits: u64,
    cache_misses: u64,
    plan_cache_hits: u64,
    budget_rollbacks: u64,
    indexed_estimates: u64,
    gallop_steps: u64,
    collection_rounds: u64,
    meter_bytes: u64,
    ledger_entries: u64,
    budget_ops: u64,
}

impl Counts {
    fn of_stages(c: &StageCounters) -> Counts {
        Counts {
            answers_released: c.answers_released,
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            plan_cache_hits: c.plan_cache_hits,
            budget_rollbacks: c.budget_rollbacks,
            indexed_estimates: c.indexed_estimates,
            gallop_steps: c.gallop_steps,
            collection_rounds: c.collection_rounds,
            ..Counts::default()
        }
    }

    fn of<E: RangeCountEstimator, N: Network>(broker: &DataBroker<E, N>) -> Counts {
        Counts {
            meter_bytes: broker.network().meter().snapshot().bytes,
            ledger_entries: broker.pricing().map_or(0, |p| p.ledger().len() as u64),
            budget_ops: broker.accountant().map_or(0, |a| a.operations()),
            ..Counts::of_stages(&broker.counters())
        }
    }

    fn zip(self, other: Counts, f: impl Fn(u64, u64) -> u64) -> Counts {
        Counts {
            answers_released: f(self.answers_released, other.answers_released),
            cache_hits: f(self.cache_hits, other.cache_hits),
            cache_misses: f(self.cache_misses, other.cache_misses),
            plan_cache_hits: f(self.plan_cache_hits, other.plan_cache_hits),
            budget_rollbacks: f(self.budget_rollbacks, other.budget_rollbacks),
            indexed_estimates: f(self.indexed_estimates, other.indexed_estimates),
            gallop_steps: f(self.gallop_steps, other.gallop_steps),
            collection_rounds: f(self.collection_rounds, other.collection_rounds),
            meter_bytes: f(self.meter_bytes, other.meter_bytes),
            ledger_entries: f(self.ledger_entries, other.ledger_entries),
            budget_ops: f(self.budget_ops, other.budget_ops),
        }
    }

    fn plus(self, other: Counts) -> Counts {
        self.zip(other, |a, b| a + b)
    }

    fn minus(self, other: Counts) -> Counts {
        self.zip(other, |a, b| a - b)
    }
}

/// A fresh (not cache-served) answer awaiting its accuracy check: the
/// accuracy tier, a workload-defined key naming its ground truth, and
/// the released value.
struct Fresh {
    tier: usize,
    key: usize,
    value: f64,
}

/// The closed-loop client plus every check's running state.
struct Books {
    /// Set while the timed phase runs.
    timed_start: Option<Instant>,
    starts: Vec<u64>,
    latencies: Vec<u64>,
    requests: u64,
    failed: u64,
    digest: Digest,
    fresh: Vec<Fresh>,
    fresh_epsilon: f64,
    fresh_seen: u64,
    failures: Vec<String>,
    runtime_before: RuntimeCounters,
    setup_s: f64,
    timed_s: f64,
}

impl Books {
    fn new() -> Books {
        Books {
            timed_start: None,
            starts: Vec::new(),
            latencies: Vec::new(),
            requests: 0,
            failed: 0,
            digest: Digest::new(),
            fresh: Vec::new(),
            fresh_epsilon: 0.0,
            fresh_seen: 0,
            failures: Vec::new(),
            runtime_before: RuntimeCounters::default(),
            setup_s: 0.0,
            timed_s: 0.0,
        }
    }

    /// Ends set-up (started at `setup_start`) and starts the timed phase.
    fn start_timing(&mut self, setup_start: Instant, expected_calls: usize) {
        self.setup_s = setup_start.elapsed().as_secs_f64();
        self.starts.reserve(expected_calls);
        self.latencies.reserve(expected_calls);
        self.runtime_before = Runtime::global().counters();
        trace::set_recording(true);
        self.timed_start = Some(Instant::now());
    }

    fn stop_timing(&mut self) {
        self.timed_s = self
            .timed_start
            .take()
            .map_or(0.0, |t| t.elapsed().as_secs_f64());
        trace::set_recording(false);
    }

    /// One client call into a public entry point, covering `requests`
    /// requests.
    fn call<L: Layers, R>(
        &mut self,
        name: &'static str,
        requests: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = L::call(name, f);
        if let Some(timed_start) = self.timed_start {
            self.starts
                .push(start.duration_since(timed_start).as_nanos() as u64);
            self.latencies.push(start.elapsed().as_nanos() as u64);
            self.requests += requests;
        }
        result
    }

    fn error(&mut self, what: &str, error: impl std::fmt::Display) {
        if self.timed_start.is_some() {
            self.failed += 1;
        } else {
            self.failures
                .push(format!("{what} failed outside the timed phase: {error}"));
        }
    }

    /// Books a freshly computed answer: its budget, its pending accuracy
    /// check, and (traced rep) the sampled bit-identity check against the
    /// plain estimator on the station it was answered from.
    fn fresh<L: Layers>(
        &mut self,
        answer: &PrivateAnswer,
        tier: usize,
        key: usize,
        station: &BaseStation,
    ) {
        self.fresh_epsilon += answer.plan.effective_epsilon.value();
        self.fresh.push(Fresh {
            tier,
            key,
            value: answer.value,
        });
        self.fresh_seen += 1;
        if L::TRACED && self.fresh_seen.is_multiple_of(97) {
            let expected = RankCounting.estimate(station, answer.query);
            if expected.to_bits() != answer.sample_estimate.to_bits() {
                self.failures.push(format!(
                    "fresh answer {} over {}: sample estimate {} != RankCounting {}",
                    self.fresh_seen, answer.query, answer.sample_estimate, expected
                ));
            }
        }
    }

    /// The accountant must have spent exactly what the fresh answers
    /// claimed (cache hits are free).
    fn check_epsilon(&mut self, spent: f64) {
        let claimed = self.fresh_epsilon;
        if (spent - claimed).abs() > 1e-9 * claimed.abs().max(f64::MIN_POSITIVE) {
            self.failures.push(format!(
                "accountant spent ε={spent} but fresh answers claim ε={claimed}"
            ));
        }
    }

    /// Definition 2.2 per accuracy tier: the share of fresh answers within
    /// `α·n` of the truth must reach `δ`, less a 3σ binomial slack.
    /// `truth(key)` gives the exact count and the population `n`.
    fn check_accuracy(&mut self, tiers: &[Accuracy], truth: impl Fn(usize) -> (f64, f64)) {
        let mut tally = vec![(0u64, 0u64); tiers.len()];
        for fresh in &self.fresh {
            let (exact, n) = truth(fresh.key);
            let entry = &mut tally[fresh.tier];
            entry.1 += 1;
            if (fresh.value - exact).abs() <= tiers[fresh.tier].alpha() * n {
                entry.0 += 1;
            }
        }
        for (tier, &(within, total)) in tiers.iter().zip(&tally) {
            if total == 0 {
                continue;
            }
            let delta = tier.delta();
            let share = within as f64 / total as f64;
            let slack = 3.0 * (delta * (1.0 - delta) / total as f64).sqrt();
            if share < delta - slack {
                self.failures.push(format!(
                    "tier {tier}: {within}/{total} fresh answers within αn, below δ − 3σ"
                ));
            }
        }
    }

    fn finish<L: Layers>(
        mut self,
        messages: u64,
        answers: u64,
        counters: &[String],
        timed_counts: Counts,
    ) -> Outcome {
        for text in counters {
            self.digest.text(text);
        }
        let mut outcome = Outcome {
            setup_s: self.setup_s,
            timed_s: self.timed_s,
            starts: self.starts,
            latencies: self.latencies,
            requests: self.requests,
            failed: self.failed,
            messages,
            answers,
            digest: self.digest.0,
            failures: self.failures,
            ..Outcome::default()
        };
        if L::TRACED {
            let (totals, jsonl) = trace::take();
            let runtime = Runtime::global().counters();
            let before = self.runtime_before;
            let runtime = RuntimeCounters {
                tasks_run: runtime.tasks_run - before.tasks_run,
                chunks: runtime.chunks - before.chunks,
                sequential_fallbacks: runtime.sequential_fallbacks - before.sequential_fallbacks,
                worker_panics: runtime.worker_panics - before.worker_panics,
            };
            outcome.layers = layer_metrics(&totals, outcome.requests, &timed_counts, &runtime);
            outcome.shares = layer_shares(&totals);
            outcome.trace_jsonl = jsonl;
        }
        outcome
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Every per-layer metric but `trace.overhead`, which needs the untraced
/// reps and is added by the parent.
fn layer_metrics(
    totals: &Totals,
    requests: u64,
    counts: &Counts,
    runtime: &RuntimeCounters,
) -> Vec<(&'static str, f64)> {
    let us_per_req = |ns: u64| ratio(ns, requests) / 1e3;
    let share = |ns: u64| ratio(ns, totals.call_ns);
    let fresh = counts.answers_released - counts.cache_hits;
    let rounds = totals.count("net.rounds");
    let quote = totals.name("pricing.quote");
    let settle = totals.name("pricing.settle");
    let reuse = totals.name("pricing.reuse");
    let build = totals.name("index.build");
    let absorb = totals.name("index.absorb");
    let estimator = totals.layer_ns("estimator");
    vec![
        ("pipeline.self_us_per_req", us_per_req(totals.self_ns)),
        ("pipeline.self_share", share(totals.self_ns)),
        (
            "pipeline.plan_cache_hit_ratio",
            ratio(counts.plan_cache_hits, fresh),
        ),
        (
            "pipeline.answer_cache_hit_ratio",
            ratio(counts.cache_hits, counts.cache_hits + counts.cache_misses),
        ),
        ("pipeline.budget_rollbacks", counts.budget_rollbacks as f64),
        ("estimator.estimate_us_per_req", us_per_req(estimator)),
        ("estimator.estimate_share", share(estimator)),
        (
            "estimator.indexed_ratio",
            ratio(counts.indexed_estimates, fresh),
        ),
        (
            "estimator.gallop_steps_per_query",
            ratio(counts.gallop_steps, counts.indexed_estimates),
        ),
        ("index.builds", totals.count("index.builds") as f64),
        ("index.build_ms", build.ns as f64 / 1e6),
        ("index.absorbs", absorb.count as f64),
        ("index.absorb_ms", absorb.ns as f64 / 1e6),
        (
            "index.compactions",
            totals.count("index.compactions") as f64,
        ),
        ("index.max_segments", totals.gauge("index.segments") as f64),
        ("net.rounds", rounds as f64),
        (
            "net.round_ms",
            ratio(totals.name("net.round").ns, rounds) / 1e6,
        ),
        ("net.share", share(totals.layer_ns("net"))),
        (
            "net.samples_per_round",
            ratio(totals.count("net.delivered"), rounds),
        ),
        (
            "net.bytes_per_answer",
            ratio(counts.meter_bytes, counts.answers_released),
        ),
        ("pricing.quote_us_per_req", us_per_req(quote.ns)),
        ("pricing.settle_us_per_req", us_per_req(settle.ns)),
        ("pricing.reuse_checks_per_req", ratio(reuse.count, requests)),
        ("pricing.reuse_us_per_req", us_per_req(reuse.ns)),
        ("pricing.share", share(totals.layer_ns("pricing"))),
        ("pricing.ledger_entries", counts.ledger_entries as f64),
        ("runtime.tasks", runtime.tasks_run as f64),
        ("runtime.chunks", runtime.chunks as f64),
        (
            "runtime.sequential_fallbacks",
            runtime.sequential_fallbacks as f64,
        ),
        ("runtime.lanes", Runtime::global().worker_count() as f64),
        ("dp.budget_ops", counts.budget_ops as f64),
        (
            "monitor.ingest_us_per_epoch",
            ratio(totals.name("monitor.ingest").ns, requests) / 1e3,
        ),
        (
            "monitor.answer_us_per_epoch",
            ratio(totals.name("monitor.answer_epoch").ns, requests) / 1e3,
        ),
        (
            "monitor.rounds_per_epoch",
            ratio(counts.collection_rounds, requests),
        ),
    ]
}

/// Share of client-call time per layer; `pipeline` is the calls' self
/// time.
fn layer_shares(totals: &Totals) -> Vec<(&'static str, f64)> {
    LAYER_SHARES
        .iter()
        .map(|&layer| {
            let ns = if layer == "pipeline" {
                totals.self_ns
            } else {
                totals.layer_ns(layer)
            };
            (layer, ratio(ns, totals.call_ns))
        })
        .collect()
}

/// The deterministic counters of a broker, rendered for the digest.
fn broker_counters<E: RangeCountEstimator, N: Network>(broker: &DataBroker<E, N>) -> Vec<String> {
    vec![
        format!("{:?}", broker.counters()),
        format!("{:?}", broker.network().meter().snapshot()),
        format!(
            "ledger={:?} accountant_ops={:?}",
            broker.pricing().map(|p| p.ledger().len()),
            broker.accountant().map(|a| a.operations())
        ),
    ]
}

fn spent<E: RangeCountEstimator, N: Network>(broker: &DataBroker<E, N>) -> f64 {
    broker.accountant().map_or(0.0, |a| a.spent().value())
}

// ---------------------------------------------------------------------
// market: priced answer_as with an answer cache
// ---------------------------------------------------------------------

/// The paper's deployment: a CityPulse-like ozone series on 50 flat
/// nodes, sold to 32 buyers. Ranges are Zipf(0.9)-popular over 16,384
/// quantile ranges and each request picks one of 6 accuracy tiers, so
/// about 86% of timed requests are answer-cache hits: admission,
/// quoting, the cache, settlement and the ledger do the work.
fn market<L: Layers>(seed: u64, smoke: bool) -> Outcome {
    let (records, range_count, warmup, timed) = if smoke {
        (4_000, 1_024, 2_000, 20_000)
    } else {
        (17_568, 16_384, 40_000, 400_000)
    };
    const NODES: usize = 50;
    const BUYERS: usize = 32;
    let tiers = [
        accuracy(0.05, 0.9),
        accuracy(0.08, 0.85),
        accuracy(0.1, 0.8),
        accuracy(0.15, 0.7),
        accuracy(0.2, 0.6),
        accuracy(0.25, 0.5),
    ];

    // Inputs.
    let values = ozone(seed, records);
    let sorted = sorted(&values);
    let mut rng = SplitMix(seed ^ QUERY_SALT);
    let ranges = quantile_ranges(&sorted, range_count, &mut rng);
    let mut cdf: Vec<f64> = (1..=range_count).map(|r| (r as f64).powf(-0.9)).collect();
    let mut total = 0.0;
    for w in &mut cdf {
        total += *w;
        *w = total;
    }
    // The warm-up opens with one request per tier, loosest first, so
    // every seed pays the same six collection rounds; after that the
    // station already meets every tier and no timed request collects.
    let preamble = (0..tiers.len()).rev().map(|tier| (0, tier, 0));
    let requests: Vec<(usize, usize, usize)> = preamble
        .chain((tiers.len()..warmup + timed).map(|_| {
            let u = rng.unit() * total;
            let range = cdf.partition_point(|&c| c < u).min(range_count - 1);
            (range, rng.below(tiers.len()), rng.below(BUYERS))
        }))
        .collect();
    let buyers: Vec<String> = (0..BUYERS).map(|b| format!("buyer-{b:02}")).collect();
    let partitions = partition_values(&values, NODES, PartitionStrategy::RoundRobin);

    // Set-up: network, broker configuration, warm-up requests.
    let mut books = Books::new();
    let setup_start = Instant::now();
    let network = L::network(FlatNetwork::from_partitions(partitions, seed ^ NET_SALT));
    let mut broker = DataBroker::with_estimator(network, L::estimator(), seed ^ BROKER_SALT);
    let model = ChebyshevVariance::new(values.len());
    broker.enable_pricing(L::pricing(Box::new(PostedPriceEngine::new(
        InverseVariancePricing::new(PRICE_SCALE, model),
        model,
    ))));
    broker.enable_answer_cache(L::guard(Box::new(model_guard(values.len()))));
    broker.set_privacy_budget(Epsilon::new(BUDGET).expect("positive budget"));

    let mut before = Counts::default();
    for (i, &(range, tier, buyer)) in requests.iter().enumerate() {
        if i == warmup {
            books.start_timing(setup_start, timed);
            before = Counts::of(&broker);
        }
        let request = QueryRequest::new(ranges[range], tiers[tier]);
        let hits = broker.counters().cache_hits;
        match books.call::<L, _>("call.answer_as", 1, || {
            broker.answer_as(&buyers[buyer], &request)
        }) {
            Ok(priced) => {
                books.digest.word(priced.answer.value.to_bits());
                books.digest.word(priced.price.map_or(0, f64::to_bits));
                if broker.counters().cache_hits == hits {
                    books.fresh::<L>(&priced.answer, tier, range, broker.network().station());
                }
            }
            Err(e) => books.error("answer_as", e),
        }
    }
    books.stop_timing();

    books.check_epsilon(spent(&broker));
    let n = values.len() as f64;
    books.check_accuracy(&tiers, |range| (count_in(&sorted, ranges[range]) as f64, n));
    books.finish::<L>(
        broker.network().meter().snapshot().chargeable_messages(),
        broker.counters().answers_released,
        &broker_counters(&broker),
        Counts::of(&broker).minus(before),
    )
}

// ---------------------------------------------------------------------
// batch: unpriced answer_batch over a large flat network
// ---------------------------------------------------------------------

/// Bulk analytics: 1,048,576 records on 4,096 flat nodes, answered in
/// `answer_batch` calls of 16 requests over cycled quantile ranges at
/// two accuracy tiers, with no cache and no pricing. The estimate engine
/// and the runtime fan-out do all index work; per-request broker work
/// grows with the node count. Calls of 16 requests (not 128) keep a
/// 1,000-call timing window short; see the README.
fn batch<L: Layers>(seed: u64, smoke: bool) -> Outcome {
    let (records, nodes, warmup_calls, timed_calls) = if smoke {
        (65_536, 256, 16, 400)
    } else {
        (1_048_576, 4_096, 64, 4_000)
    };
    const BATCH: usize = 16;
    const RANGES: usize = 1_024;
    let tiers = [accuracy(0.1, 0.8), accuracy(0.05, 0.9)];

    let values = ozone(seed, records);
    let sorted = sorted(&values);
    let mut rng = SplitMix(seed ^ QUERY_SALT);
    let ranges = quantile_ranges(&sorted, RANGES, &mut rng);
    // Tiers alternate within every call, so the warm-up already reaches
    // both sampling rates and no timed call collects.
    let slot = |i: usize| ((i / tiers.len()) % RANGES, i % tiers.len());
    let requests: Vec<QueryRequest> = (0..(warmup_calls + timed_calls) * BATCH)
        .map(|i| {
            let (range, tier) = slot(i);
            QueryRequest::new(ranges[range], tiers[tier])
        })
        .collect();
    let partitions = partition_values(&values, nodes, PartitionStrategy::RoundRobin);

    let mut books = Books::new();
    let setup_start = Instant::now();
    let network = L::network(FlatNetwork::from_partitions(partitions, seed ^ NET_SALT));
    let mut broker = DataBroker::with_estimator(network, L::estimator(), seed ^ BROKER_SALT);
    broker.set_privacy_budget(Epsilon::new(BUDGET).expect("positive budget"));

    let mut before = Counts::default();
    for (call, chunk) in requests.chunks(BATCH).enumerate() {
        if call == warmup_calls {
            books.start_timing(setup_start, timed_calls);
            before = Counts::of(&broker);
        }
        let report = books.call::<L, _>("call.answer_batch", chunk.len() as u64, || {
            broker.answer_batch(chunk)
        });
        for (j, result) in report.answers.iter().enumerate() {
            let i = call * BATCH + j;
            match result {
                Ok(answer) => {
                    books.digest.word(answer.value.to_bits());
                    let (range, tier) = slot(i);
                    books.fresh::<L>(answer, tier, range, broker.network().station());
                }
                Err(e) => books.error("answer_batch request", e),
            }
        }
    }
    books.stop_timing();

    books.check_epsilon(spent(&broker));
    let n = values.len() as f64;
    books.check_accuracy(&tiers, |range| (count_in(&sorted, ranges[range]) as f64, n));
    books.finish::<L>(
        broker.network().meter().snapshot().chargeable_messages(),
        broker.counters().answers_released,
        &broker_counters(&broker),
        Counts::of(&broker).minus(before),
    )
}

// ---------------------------------------------------------------------
// churn: a tree network whose dead leaves revive under a tightening
// accuracy ladder
// ---------------------------------------------------------------------

/// Writes beside reads: a 1,024-node 4-ary `TreeNetwork` with the answer
/// cache on. Half the leaves start dead and an eighth of them revive at
/// each rung of an 8-rung tightening accuracy ladder, 64 `answer` calls
/// per rung over 48 ranges (a quarter are cache hits, so the median call
/// is a fresh answer). Each rung's first call runs a collection
/// round, the index absorbs its delta and the cache evicts what it
/// touched, all on the request path. Each session runs on a freshly
/// built network.
fn churn<L: Layers>(seed: u64, smoke: bool) -> Outcome {
    let (nodes, per_node, sessions) = if smoke {
        (128, 100, 3)
    } else {
        (1_024, 200, 24)
    };
    const BRANCHING: usize = 4;
    const RUNGS: usize = 8;
    const CALLS_PER_RUNG: usize = 64;
    const RANGES: usize = 48;
    let ladder: Vec<Accuracy> = (0..RUNGS)
        .map(|r| {
            let t = r as f64 / (RUNGS - 1) as f64;
            accuracy(0.2 * 0.25f64.powf(t), 0.6 + 0.3 * t)
        })
        .collect();

    let values = ozone(seed, nodes * per_node);
    let mut rng = SplitMix(seed ^ QUERY_SALT);
    let ranges = quantile_ranges(&sorted(&values), RANGES, &mut rng);
    let partitions = partition_values(&values, nodes, PartitionStrategy::RoundRobin);
    // Ground truth per range and node, so any set of live nodes can be
    // totalled cheaply afterwards.
    let sorted_partitions: Vec<Vec<f64>> = partitions.iter().map(|p| sorted(p)).collect();
    let node_counts: Vec<Vec<usize>> = ranges
        .iter()
        .map(|&q| sorted_partitions.iter().map(|p| count_in(p, q)).collect())
        .collect();
    let leaves: Vec<usize> = (0..nodes).filter(|&i| BRANCHING * i + 1 >= nodes).collect();
    let half = leaves.len() / 2;
    let per_rung = half.div_ceil(RUNGS);
    // Session 0 is the warm-up. Each session's leaves die in a seeded
    // order; dead[r] is the set still dead at rung r.
    let schedules: Vec<Vec<Vec<usize>>> = (0..=sessions)
        .map(|_| {
            let mut order = leaves.clone();
            rng.shuffle(&mut order);
            let initial = &order[..half];
            (0..=RUNGS)
                .map(|r| {
                    let revived = if r == 0 { 0 } else { (r * per_rung).min(half) };
                    initial[revived..].to_vec()
                })
                .collect()
        })
        .collect();
    let plan = |dead: &[usize]| {
        let mut plan = FailurePlan::none();
        for &node in dead {
            plan.kill_node(NodeId(node as u32));
        }
        plan
    };
    let plans: Vec<Vec<FailurePlan>> = schedules
        .iter()
        .map(|dead| dead.iter().map(|d| plan(d)).collect())
        .collect();
    let session_partitions: Vec<Vec<Vec<f64>>> =
        (0..=sessions).map(|_| partitions.clone()).collect();

    let mut books = Books::new();
    let setup_start = Instant::now();
    let mut brokers: Vec<_> = session_partitions
        .into_iter()
        .zip(&plans)
        .enumerate()
        .map(|(s, (parts, plans))| {
            let salt = s as u64;
            let mut tree = TreeNetwork::from_partitions(parts, BRANCHING, seed ^ NET_SALT ^ salt);
            tree.set_failure_plan(plans[0].clone());
            let mut broker = DataBroker::with_estimator(
                L::network(tree),
                L::estimator(),
                seed ^ BROKER_SALT ^ salt,
            );
            broker.enable_answer_cache(L::guard(Box::new(model_guard(values.len()))));
            broker.set_privacy_budget(Epsilon::new(BUDGET).expect("positive budget"));
            broker
        })
        .collect();

    let mut timed_counts = Counts::default();
    let (mut messages, mut answers, mut spent_total) = (0, 0, 0.0);
    let mut counters = Vec::new();
    for (s, broker) in brokers.iter_mut().enumerate() {
        if s == 1 {
            books.start_timing(setup_start, sessions * RUNGS * CALLS_PER_RUNG);
        }
        for (r, &demand) in ladder.iter().enumerate() {
            broker
                .network_mut()
                .set_failure_plan(plans[s][r + 1].clone());
            for j in 0..CALLS_PER_RUNG {
                let range = j % RANGES;
                let request = QueryRequest::new(ranges[range], demand);
                let hits = broker.counters().cache_hits;
                match books.call::<L, _>("call.answer", 1, || broker.answer(&request)) {
                    Ok(answer) => {
                        books.digest.word(answer.value.to_bits());
                        if broker.counters().cache_hits == hits {
                            let key = (s * RUNGS + r) * RANGES + range;
                            books.fresh::<L>(&answer, r, key, broker.network().station());
                        }
                    }
                    Err(e) => books.error("answer", e),
                }
            }
        }
        messages += broker.network().meter().snapshot().chargeable_messages();
        answers += broker.counters().answers_released;
        spent_total += spent(broker);
        if s > 0 {
            timed_counts = timed_counts.plus(Counts::of(broker));
        }
        counters.extend(broker_counters(broker));
    }
    books.stop_timing();

    books.check_epsilon(spent_total);
    let n = values.len() as f64;
    let totals: Vec<usize> = node_counts.iter().map(|c| c.iter().sum()).collect();
    books.check_accuracy(&ladder, |key| {
        let (session_rung, range) = (key / RANGES, key % RANGES);
        let (s, r) = (session_rung / RUNGS, session_rung % RUNGS);
        let dead: usize = schedules[s][r + 1]
            .iter()
            .map(|&node| node_counts[range][node])
            .sum();
        ((totals[range] - dead) as f64, n)
    });
    books.finish::<L>(messages, answers, &counters, timed_counts)
}

// ---------------------------------------------------------------------
// monitor: continuous monitoring over a replayed stream
// ---------------------------------------------------------------------

/// `ContinuousMonitor` on 50 nodes with a one-week window over an
/// 87,840-record replayed stream (five times the paper's length), one
/// hour (12 records) per epoch. Every epoch builds a fresh network,
/// collects from it and answers one standing query, so network
/// construction and collection dominate.
fn monitor<L: Layers>(seed: u64, smoke: bool) -> Outcome {
    const PER_EPOCH: usize = 12;
    let (records, window_days) = if smoke { (8_784, 1) } else { (87_840, 7) };
    let window_seconds = window_days * 86_400;
    // The first window's worth of epochs fills the window (warm-up).
    let warmup = window_days as usize * 288 / PER_EPOCH;
    let demand = accuracy(0.2, 0.6);

    let dataset = CityPulseGenerator::new(seed)
        .record_count(records)
        .generate();
    let mut replay = StreamReplayer::new(&dataset);
    let mut epochs: Vec<Vec<PollutionRecord>> = Vec::new();
    while !replay.is_exhausted() {
        epochs.push(replay.advance_by(PER_EPOCH));
    }
    let stream: Vec<f64> = epochs
        .iter()
        .flatten()
        .map(|r| r.value(AirQualityIndex::Ozone))
        .collect();
    let mut quantiles = SplitMix(seed ^ QUERY_SALT);
    let query = quantile_ranges(&sorted(&stream), 1, &mut quantiles)[0];
    // prefix[i] = records among the first i of the stream inside the
    // standing query, so any window's truth is one subtraction.
    let mut prefix = vec![0usize];
    for &v in &stream {
        prefix.push(prefix[prefix.len() - 1] + usize::from(query.contains(v)));
    }
    // Spend is read back as budget minus remaining, so the budget is
    // kept small enough for that difference to stay exact to 1e-9.
    let session_budget = Epsilon::new(1e6).expect("positive budget");

    let mut books = Books::new();
    let setup_start = Instant::now();
    let mut monitor = ContinuousMonitor::new(MonitorConfig {
        query,
        accuracy: demand,
        index: AirQualityIndex::Ozone,
        window_seconds,
        nodes: 50,
        session_budget,
        seed: seed ^ NET_SALT,
    });
    let (mut timed_counts, mut messages, mut answers, mut ingested) = (Counts::default(), 0, 0, 0);
    let mut windows = Vec::with_capacity(epochs.len());
    let total_epochs = epochs.len();
    for (e, records) in epochs.into_iter().enumerate() {
        if e == warmup {
            books.start_timing(setup_start, total_epochs - warmup);
        }
        ingested += records.len();
        let result = books.call::<L, _>("call.epoch", 1, || {
            L::span("monitor.ingest", || monitor.ingest(records));
            L::span("monitor.answer_epoch", || monitor.answer_epoch())
        });
        match result {
            Ok(epoch) => {
                books.digest.word(epoch.answer.value.to_bits());
                books.digest.word(epoch.budget_remaining.to_bits());
                books.digest.word(epoch.chargeable_messages);
                books.digest.text(&format!("{:?}", epoch.stages));
                messages += epoch.chargeable_messages;
                answers += 1;
                if e >= warmup {
                    timed_counts = timed_counts.plus(Counts::of_stages(&epoch.stages));
                }
                // The monitor's epoch network is internal, so the
                // sampled estimate check has no station to run on.
                books.fresh_epsilon += epoch.answer.plan.effective_epsilon.value();
                books.fresh.push(Fresh {
                    tier: 0,
                    key: windows.len(),
                    value: epoch.answer.value,
                });
                windows.push((ingested, epoch.window_size));
            }
            Err(e) => books.error("answer_epoch", e),
        }
    }
    books.stop_timing();

    books.check_epsilon(session_budget.value() - monitor.budget_remaining().value());
    books.check_accuracy(&[demand], |key| {
        let (end, size) = windows[key];
        ((prefix[end] - prefix[end - size]) as f64, size as f64)
    });
    let counters = vec![format!("epochs={}", monitor.epochs())];
    books.finish::<L>(messages, answers, &counters, timed_counts)
}
