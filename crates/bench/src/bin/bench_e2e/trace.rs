//! Outside-in tracing: wrapper types that implement the library's public
//! layer traits, time each call into the wrapped layer, and record it as
//! a span. No library code is instrumented; the broker simply runs over
//! the wrappers.
//!
//! A workload is written once, generic over [`Layers`]: [`Plain`] plugs
//! in the library types unchanged (the timed reps), [`Traced`] plugs in
//! the wrappers (the one traced rep). Both must release identical bits,
//! which the rep digests check.
//!
//! Spans of one client call share a request id. A span's parent is the
//! innermost open span on its thread, or the client call for spans
//! opened on pool threads (batch estimates). At the end of each call
//! the spans are folded into running totals, so memory stays bounded;
//! the first [`JSONL_CALLS`] calls are also kept as JSONL.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use prc_core::estimator::{BatchEstimate, DeltaOutcome, QueryIndex, RangeCountEstimator};
use prc_core::query::RangeQuery;
use prc_core::RankCounting;
use prc_net::base_station::{BaseStation, NodeSample};
use prc_net::failure::FailurePlan;
use prc_net::message::NodeId;
use prc_net::network::{CostMeter, Network, RoundDelta};
use prc_net::trace::Tracer;
use prc_pricing::engine::{PricingEngine, Quote, Settlement};
use prc_pricing::error::PricingError;
use prc_pricing::ledger::TradeLedger;
use prc_pricing::reuse::{Demand, ReuseGuard};

use crate::stats::{self_time, union_len};

/// Calls whose spans are written to the JSONL trace file.
pub const JSONL_CALLS: u64 = 2_000;

/// The layer implementations a workload runs over.
pub trait Layers {
    /// True for the wrappers: enables the checks that need them.
    const TRACED: bool;
    type Net<N: Network>: Network;
    type Est: RangeCountEstimator + Sync;
    fn network<N: Network>(net: N) -> Self::Net<N>;
    fn estimator() -> Self::Est;
    fn pricing(engine: Box<dyn PricingEngine>) -> Box<dyn PricingEngine>;
    fn guard(guard: Box<dyn ReuseGuard>) -> Box<dyn ReuseGuard>;
    /// One client call into a public entry point (the root span).
    fn call<R>(name: &'static str, f: impl FnOnce() -> R) -> R;
    /// A span around a call the workload makes itself (the monitor's
    /// `ingest` and `answer_epoch`, which no wrapper can reach).
    fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// The library's own types, untimed.
pub struct Plain;

impl Layers for Plain {
    const TRACED: bool = false;
    type Net<N: Network> = N;
    type Est = RankCounting;
    fn network<N: Network>(net: N) -> N {
        net
    }
    fn estimator() -> RankCounting {
        RankCounting
    }
    fn pricing(engine: Box<dyn PricingEngine>) -> Box<dyn PricingEngine> {
        engine
    }
    fn guard(guard: Box<dyn ReuseGuard>) -> Box<dyn ReuseGuard> {
        guard
    }
    fn call<R>(_: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
    fn span<R>(_: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Every layer wrapped and timed.
pub struct Traced;

impl Layers for Traced {
    const TRACED: bool = true;
    type Net<N: Network> = TracedNetwork<N>;
    type Est = TracedEstimator<RankCounting>;
    fn network<N: Network>(net: N) -> TracedNetwork<N> {
        TracedNetwork(net)
    }
    fn estimator() -> TracedEstimator<RankCounting> {
        TracedEstimator(RankCounting)
    }
    fn pricing(engine: Box<dyn PricingEngine>) -> Box<dyn PricingEngine> {
        Box::new(TracedPricing(engine))
    }
    fn guard(guard: Box<dyn ReuseGuard>) -> Box<dyn ReuseGuard> {
        Box::new(TracedGuard(guard))
    }
    fn call<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = open_span();
        CALL.store(open.id, Ordering::SeqCst);
        let result = f();
        let end = now_ns();
        pop_span();
        CALL.store(0, Ordering::SeqCst);
        recorder().finish_call(name, open, end);
        result
    }
    fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
        span(name, f)
    }
}

// ---------------------------------------------------------------------
// Span recording
// ---------------------------------------------------------------------

/// One closed span; times are nanoseconds since the first clock read.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start: u64,
    end: u64,
}

/// A span that has started: its id, its parent, and its start time.
struct Open {
    id: u64,
    parent: u64,
    start: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// The open client call, the parent of spans opened on other threads.
static CALL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn open_span() -> Open {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack
            .last()
            .copied()
            .unwrap_or_else(|| CALL.load(Ordering::SeqCst));
        stack.push(id);
        parent
    });
    Open {
        id,
        parent,
        start: now_ns(),
    }
}

fn pop_span() {
    STACK.with(|stack| stack.borrow_mut().pop());
}

fn close_span(open: Open, name: &'static str) {
    let end = now_ns();
    pop_span();
    recorder().push(Span {
        id: open.id,
        parent: open.parent,
        name,
        start: open.start,
        end,
    });
}

fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = open_span();
    let result = f();
    close_span(open, name);
    result
}

/// Totals of one span name over the recorded calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotal {
    pub count: u64,
    pub ns: u64,
}

/// Everything the traced rep accumulated over its recorded calls.
#[derive(Debug, Default)]
pub struct Totals {
    pub calls: u64,
    pub call_ns: u64,
    /// Call time not covered by any child span: the pipeline's own work.
    pub self_ns: u64,
    pub by_name: BTreeMap<&'static str, NameTotal>,
    /// Per layer (the span-name prefix), the union of its spans within
    /// each call, summed over calls.
    pub by_layer: BTreeMap<&'static str, u64>,
    /// Counts reported at layer boundaries (rounds, delivered samples,
    /// index builds, compactions).
    pub counts: BTreeMap<&'static str, u64>,
    /// Largest value seen of each gauge (live index segments).
    pub gauges: BTreeMap<&'static str, u64>,
}

impl Totals {
    pub fn name(&self, name: &str) -> NameTotal {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.by_layer.get(layer).copied().unwrap_or(0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }
}

#[derive(Default)]
struct Recorder {
    recording: bool,
    /// Closed spans of the call in flight.
    pending: Vec<Span>,
    totals: Totals,
    jsonl: String,
}

fn recorder() -> MutexGuard<'static, Recorder> {
    static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
    RECORDER
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Recorder {
    fn push(&mut self, span: Span) {
        if self.recording {
            self.pending.push(span);
        }
    }

    fn finish_call(&mut self, name: &'static str, call: Open, end: u64) {
        let spans = std::mem::take(&mut self.pending);
        if !self.recording {
            return;
        }
        let totals = &mut self.totals;
        totals.calls += 1;
        totals.call_ns += end - call.start;
        let children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == call.id)
            .map(|s| (s.start, s.end))
            .collect();
        totals.self_ns += self_time(call.start, end, &children);
        let mut layers: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            let entry = totals.by_name.entry(s.name).or_default();
            entry.count += 1;
            entry.ns += s.end - s.start;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            layers.entry(layer).or_default().push((s.start, s.end));
        }
        for (layer, mut intervals) in layers {
            *totals.by_layer.entry(layer).or_default() += union_len(&mut intervals);
        }
        if totals.calls <= JSONL_CALLS {
            let request = totals.calls;
            let root = Span {
                id: call.id,
                parent: 0,
                name,
                start: call.start,
                end,
            };
            for s in std::iter::once(&root).chain(&spans) {
                let _ = writeln!(
                    self.jsonl,
                    "{{\"req\": {request}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id, s.parent, s.name, s.start, s.end
                );
            }
        }
    }
}

/// Starts or stops recording; spans outside recording (set-up and
/// warm-up) are timed but dropped.
pub fn set_recording(on: bool) {
    let mut recorder = recorder();
    recorder.recording = on;
    recorder.pending.clear();
}

/// Takes the accumulated totals and JSONL lines, resetting both.
pub fn take() -> (Totals, String) {
    let mut recorder = recorder();
    (
        std::mem::take(&mut recorder.totals),
        std::mem::take(&mut recorder.jsonl),
    )
}

fn count(name: &'static str, n: u64) {
    let mut recorder = recorder();
    if recorder.recording {
        *recorder.totals.counts.entry(name).or_default() += n;
    }
}

fn gauge(name: &'static str, value: u64) {
    let mut recorder = recorder();
    if recorder.recording {
        let slot = recorder.totals.gauges.entry(name).or_default();
        *slot = (*slot).max(value);
    }
}

// ---------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------

/// A network whose collection rounds are timed. Every method forwards,
/// the provided ones included, so the wrapped driver's own overrides
/// still run.
#[derive(Debug)]
pub struct TracedNetwork<N>(pub N);

impl<N: Network> TracedNetwork<N> {
    fn round<R>(
        &mut self,
        f: impl FnOnce(&mut N) -> R,
        delivered: impl Fn(&R) -> Option<usize>,
    ) -> R {
        let open = open_span();
        let result = f(&mut self.0);
        match delivered(&result) {
            Some(entries) => {
                close_span(open, "net.round");
                count("net.rounds", 1);
                count("net.delivered", entries as u64);
            }
            None => close_span(open, "net.check"),
        }
        result
    }
}

impl<N: Network> Network for TracedNetwork<N> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn total_data_size(&self) -> usize {
        self.0.total_data_size()
    }

    fn station(&self) -> &BaseStation {
        self.0.station()
    }

    fn meter(&self) -> &CostMeter {
        self.0.meter()
    }

    fn set_failure_plan(&mut self, plan: FailurePlan) {
        self.0.set_failure_plan(plan);
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.0.set_tracer(tracer);
    }

    fn exact_range_count(&self, l: f64, u: f64) -> usize {
        self.0.exact_range_count(l, u)
    }

    fn collect_samples(&mut self, target: f64) -> usize {
        self.round(|net| net.collect_samples(target), |&d| Some(d))
    }

    fn top_up(&mut self, target: f64) -> Option<usize> {
        self.round(|net| net.top_up(target), |d| *d)
    }

    fn collect_delta(&mut self, target: f64) -> RoundDelta {
        self.round(|net| net.collect_delta(target), |d| Some(d.delivered))
    }

    fn top_up_delta(&mut self, target: f64) -> Option<RoundDelta> {
        self.round(
            |net| net.top_up_delta(target),
            |d| d.as_ref().map(|d| d.delivered),
        )
    }
}

/// An estimator whose scans and index builds are timed, and whose index
/// is wrapped in a [`TracedIndex`].
#[derive(Debug)]
pub struct TracedEstimator<E>(pub E);

impl<E: RangeCountEstimator> RangeCountEstimator for TracedEstimator<E> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn estimate_node(&self, sample: &NodeSample, query: RangeQuery) -> f64 {
        self.0.estimate_node(sample, query)
    }

    fn estimate(&self, station: &BaseStation, query: RangeQuery) -> f64 {
        span("estimator.scan", || self.0.estimate(station, query))
    }

    fn variance_bound(&self, k: usize, n: usize, p: f64) -> f64 {
        self.0.variance_bound(k, n, p)
    }

    fn build_index(&self, station: &BaseStation) -> Option<Box<dyn QueryIndex>> {
        let built = span("index.build", || self.0.build_index(station))?;
        count("index.builds", 1);
        gauge("index.segments", built.segments() as u64);
        Some(Box::new(TracedIndex(built)))
    }
}

/// A query index whose estimates and delta absorptions are timed.
#[derive(Debug)]
pub struct TracedIndex(Box<dyn QueryIndex>);

impl QueryIndex for TracedIndex {
    fn estimate(&self, query: RangeQuery) -> f64 {
        span("estimator.estimate", || self.0.estimate(query))
    }

    fn estimate_batch(&self, queries: &[RangeQuery]) -> BatchEstimate {
        span("estimator.estimate_batch", || {
            self.0.estimate_batch(queries)
        })
    }

    fn merged_entries(&self) -> usize {
        self.0.merged_entries()
    }

    fn probability(&self) -> f64 {
        self.0.probability()
    }

    fn segments(&self) -> usize {
        self.0.segments()
    }

    fn absorb_delta(&mut self, station: &BaseStation, changed: &[NodeId]) -> Option<DeltaOutcome> {
        let outcome = span("index.absorb", || self.0.absorb_delta(station, changed))?;
        count("index.compactions", outcome.compactions);
        gauge("index.segments", self.0.segments() as u64);
        Some(outcome)
    }
}

/// A pricing engine whose quotes and settlements are timed.
#[derive(Debug)]
pub struct TracedPricing(Box<dyn PricingEngine>);

impl PricingEngine for TracedPricing {
    fn quote(&mut self, demand: Demand) -> Result<Quote, PricingError> {
        span("pricing.quote", || self.0.quote(demand))
    }

    fn settle(&mut self, settlement: Settlement) -> u64 {
        span("pricing.settle", || self.0.settle(settlement))
    }

    fn ledger(&self) -> &TradeLedger {
        self.0.ledger()
    }
}

/// A reuse guard whose checks are timed.
#[derive(Debug)]
pub struct TracedGuard(Box<dyn ReuseGuard>);

impl ReuseGuard for TracedGuard {
    fn allows_reuse(&self, requested: Demand, cached: Demand) -> bool {
        span("pricing.reuse", || self.0.allows_reuse(requested, cached))
    }

    fn posted_price(&self, requested: Demand) -> f64 {
        span("pricing.posted_price", || self.0.posted_price(requested))
    }
}
