//! Concurrency stress test for [`CostMeter`].
//!
//! Cloning a meter hands out another handle to the same counters, and
//! handles may live on any thread, so its counters must hold up under
//! concurrent `record` / `record_lost` traffic: after N threads
//! hammer a shared meter, the snapshot totals must equal the sum of
//! every thread's independently tracked contribution — nothing lost,
//! nothing double-counted.

use std::thread;

use prc::net::message::{Message, NodeId, SampleEntry, SampleMessage};
use prc::net::network::CostSnapshot;
use prc::prelude::*;

const THREADS: usize = 8;
const MESSAGES_PER_THREAD: usize = 500;

/// What one thread expects to have contributed.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
struct Contribution {
    messages: u64,
    free_messages: u64,
    samples: u64,
    bytes: u64,
    lost_messages: u64,
    node_bytes: u64,
}

fn sample_message(node: u32, entries: usize) -> Message {
    Message::Sample(SampleMessage {
        node_id: NodeId(node),
        population_size: 1_000,
        probability: 0.5,
        entries: (0..entries)
            .map(|r| SampleEntry {
                value: r as f64,
                rank: r as u32 + 1,
            })
            .collect(),
    })
}

/// Replays one thread's deterministic message schedule, either against
/// the real meter or purely arithmetically to predict its contribution.
fn run_schedule(thread_id: usize, meter: Option<&CostMeter>) -> Contribution {
    let node = thread_id as u32;
    let mut expect = Contribution::default();
    for i in 0..MESSAGES_PER_THREAD {
        // Mix free heartbeats, piggybacked and chargeable sample batches,
        // top-ups, multi-hop retransmissions, and outright losses.
        let (message, hops, attempts, lost) = match i % 5 {
            0 => (
                Message::Heartbeat {
                    node_id: NodeId(node),
                },
                1,
                1,
                false,
            ),
            1 => (sample_message(node, 4), 1, 1, false), // rides a heartbeat
            2 => (sample_message(node, 40), 2, 1 + (i % 3) as u32, false),
            3 => (
                Message::TopUpRequest {
                    node_id: NodeId(node),
                    target_probability: 0.75,
                },
                1,
                2,
                false,
            ),
            _ => (sample_message(node, 20), 1, 1, true),
        };
        if lost {
            if let Some(meter) = meter {
                meter.record_lost(&message);
            }
            expect.messages += 1;
            expect.lost_messages += 1;
            expect.bytes += message.wire_size() as u64;
            expect.node_bytes += message.wire_size() as u64;
        } else {
            if let Some(meter) = meter {
                meter.record(&message, hops, attempts);
            }
            let transmissions = u64::from(hops) * u64::from(attempts);
            expect.messages += transmissions;
            if message.is_free() {
                expect.free_messages += transmissions;
            }
            let bytes = message.wire_size() as u64 * transmissions;
            expect.bytes += bytes;
            expect.node_bytes += bytes;
            if let Message::Sample(m) = &message {
                expect.samples += m.entries.len() as u64;
            }
        }
    }
    expect
}

#[test]
fn concurrent_recording_loses_nothing() {
    let meter = CostMeter::new();

    let contributions: Vec<Contribution> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let meter = meter.clone();
                scope.spawn(move || run_schedule(t, Some(&meter)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let snapshot = meter.snapshot();
    let sum = |f: fn(&Contribution) -> u64| contributions.iter().map(f).sum::<u64>();
    assert_eq!(snapshot.messages, sum(|c| c.messages));
    assert_eq!(snapshot.free_messages, sum(|c| c.free_messages));
    assert_eq!(snapshot.samples, sum(|c| c.samples));
    assert_eq!(snapshot.bytes, sum(|c| c.bytes));
    assert_eq!(snapshot.lost_messages, sum(|c| c.lost_messages));
    assert_eq!(
        snapshot.chargeable_messages(),
        sum(|c| c.messages) - sum(|c| c.free_messages)
    );

    // Per-node attribution: each thread wrote under its own node id.
    let per_node = meter.per_node_bytes();
    for (t, c) in contributions.iter().enumerate() {
        assert_eq!(per_node[&NodeId(t as u32)], c.node_bytes);
    }
}

#[test]
fn concurrent_totals_match_a_sequential_replay() {
    // The same schedule run sequentially on a fresh meter produces the
    // same snapshot — the meter is order-independent.
    let concurrent = CostMeter::new();
    thread::scope(|scope| {
        for t in 0..THREADS {
            let meter = concurrent.clone();
            scope.spawn(move || run_schedule(t, Some(&meter)));
        }
    });

    let sequential = CostMeter::new();
    for t in 0..THREADS {
        run_schedule(t, Some(&sequential));
    }

    assert_eq!(concurrent.snapshot(), sequential.snapshot());
    assert_eq!(concurrent.per_node_bytes(), sequential.per_node_bytes());
}

#[test]
fn reset_clears_everything_under_contention() {
    let meter = CostMeter::new();
    thread::scope(|scope| {
        for t in 0..THREADS {
            let meter = meter.clone();
            scope.spawn(move || run_schedule(t, Some(&meter)));
        }
    });
    meter.reset();
    assert_eq!(meter.snapshot(), CostSnapshot::default());
    assert!(meter.per_node_bytes().is_empty());
}
