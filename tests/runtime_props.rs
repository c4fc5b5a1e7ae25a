//! Property-based tests for the `prc-runtime` executor contract.
//!
//! The pool's promise is *scheduling-independence*: for any worker count
//! (including 1) and any input size, `map_chunked` and
//! `reduce_ordered` return results in submission order that are
//! bit-identical to a plain sequential evaluation — chunking may group
//! per-item work differently, but it must never change what any item
//! sees or where its result lands. A second, non-negotiable clause is
//! the single panic path: the first worker panic is captured with its
//! payload intact and re-raised on the caller after every sibling task
//! has finished, leaving the pool reusable.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use prc_runtime::{CutoffPolicy, Runtime};

/// Builds pools across the contract's whole worker-count range; the
/// 1-worker pool is the sequential reference every other count must
/// match bit-for-bit.
fn pools() -> Vec<Runtime> {
    (1..=8)
        .map(|n| Runtime::builder().workers(n).build())
        .collect()
}

/// Adversarial cutoffs: always-parallel, knife-edge around the input
/// size, and far beyond it (forcing the sequential fallback).
fn cutoffs(len: usize) -> Vec<CutoffPolicy> {
    vec![
        CutoffPolicy::always_parallel(),
        CutoffPolicy::min_work(1),
        CutoffPolicy::min_work(len / 2 + 1),
        CutoffPolicy::min_work(len),
        CutoffPolicy::min_work(len + 1),
        CutoffPolicy::min_work(1 << 15),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flattened per-item results from `map_chunked` are bit-identical
    /// to the sequential map for every worker count and cutoff, and each
    /// chunk sees exactly the slice its offset claims.
    #[test]
    fn map_chunked_is_bit_identical_to_sequential(
        data in proptest::collection::vec(-1.0e6f64..1.0e6, 0..150),
    ) {
        let expected: Vec<u64> =
            data.iter().map(|v| (v * 1.5 + 0.25).to_bits()).collect();
        for pool in pools() {
            for cutoff in cutoffs(data.len()) {
                let got: Vec<u64> = pool
                    .map_chunked(&data, data.len(), cutoff, |chunk| {
                        for (j, item) in chunk.items.iter().enumerate() {
                            // The chunk's offset names its global window.
                            prop_assert!(
                                item.to_bits() == data[chunk.offset + j].to_bits(),
                                "chunk {} misaligned at offset {}",
                                chunk.index,
                                chunk.offset
                            );
                        }
                        Ok(chunk
                            .items
                            .iter()
                            .map(|v| (v * 1.5 + 0.25).to_bits())
                            .collect::<Vec<u64>>())
                    })
                    .into_iter()
                    .collect::<Result<Vec<_>, TestCaseError>>()?
                    .into_iter()
                    .flatten()
                    .collect();
                prop_assert_eq!(&got, &expected, "workers {}", pool.worker_count());
            }
        }
    }

    /// `reduce_ordered` folds partials in submission order: an exact
    /// integer sum matches the sequential total for every worker count,
    /// and an order-sensitive fold (concatenation) proves the partials
    /// arrive exactly in chunk order.
    #[test]
    fn reduce_ordered_folds_in_submission_order(
        data in proptest::collection::vec(-1_000i64..1_000, 0..150),
        min_work in 0usize..200,
    ) {
        let cutoff = CutoffPolicy::min_work(min_work);
        let expected_sum: i64 = data.iter().sum();
        let expected_cat: Vec<i64> = data.clone();
        for pool in pools() {
            let sum = pool.reduce_ordered(
                &data,
                data.len(),
                cutoff,
                |chunk| chunk.items.iter().sum::<i64>(),
                0i64,
                |acc, part| acc + part,
            );
            prop_assert_eq!(sum, expected_sum, "workers {}", pool.worker_count());
            let cat = pool.reduce_ordered(
                &data,
                data.len(),
                cutoff,
                |chunk| chunk.items.to_vec(),
                Vec::new(),
                |mut acc: Vec<i64>, mut part| {
                    acc.append(&mut part);
                    acc
                },
            );
            prop_assert_eq!(&cat, &expected_cat, "workers {}", pool.worker_count());
        }
    }
}

/// The single panic path: the first worker panic's payload crosses the
/// pool intact, siblings all finish first, and the pool stays usable —
/// no leaked or wedged workers.
#[test]
fn worker_panic_payload_is_preserved_and_pool_survives() {
    let pool = Runtime::builder().workers(4).build();
    let data: Vec<u32> = (0..64).collect();
    let before = pool.counters().worker_panics;
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.map_chunked(
            &data,
            data.len(),
            CutoffPolicy::always_parallel(),
            |chunk| {
                if chunk.items.contains(&13) {
                    std::panic::panic_any(format!("poisoned chunk {}", chunk.index));
                }
                chunk.items.len()
            },
        )
    }))
    .expect_err("a panicking chunk must re-raise on the caller");
    let message = caught
        .downcast_ref::<String>()
        .expect("payload type must be preserved through the pool");
    assert!(
        message.starts_with("poisoned chunk "),
        "payload contents must be preserved, got {message:?}"
    );
    assert!(
        pool.counters().worker_panics > before,
        "worker panics must be counted"
    );
    // The pool is still live: the same workers answer the next batch.
    let sum: usize = pool
        .map_chunked(
            &data,
            data.len(),
            CutoffPolicy::always_parallel(),
            |chunk| chunk.items.len(),
        )
        .into_iter()
        .sum();
    assert_eq!(sum, data.len());
}

/// `PRC_THREADS` would be racy to mutate inside one test process; the
/// builder override is the same code path, so pin its clamping here.
#[test]
fn builder_override_pins_worker_count() {
    for n in [1usize, 2, 7] {
        let pool = Runtime::builder().workers(n).build();
        assert_eq!(pool.worker_count(), n);
        assert_eq!(pool.lanes_for(3), n.min(3));
    }
    assert_eq!(Runtime::builder().workers(0).build().worker_count(), 1);
    assert!(Runtime::global().worker_count() >= 1);
}
