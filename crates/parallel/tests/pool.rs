//! The executor's persistent pool: nested calls, panics in either kind of
//! bucket, and invisibility to `anubis-obs` traces now that the caller
//! runs a bucket itself.

use anubis_parallel::{map_chunks, map_indexed, map_items};
use std::panic;
use std::thread::{self, ThreadId};

/// An outer fan-out whose every task fans out again, twice.
fn nested(threads: usize) -> Vec<u64> {
    let outer: Vec<u64> = (0..24).collect();
    map_items(&outer, threads, |&x| {
        let inner: Vec<u64> = (0..50).map(|k| k * x + k).collect();
        let chunked: u64 = map_chunks(&inner, 7, threads, |_, c| c.iter().sum::<u64>())
            .into_iter()
            .sum();
        let indexed: u64 = map_indexed(5, threads, |i| i as u64 ^ x).into_iter().sum();
        chunked * 31 + indexed
    })
}

#[test]
fn nested_calls_match_the_serial_result() {
    let serial = nested(1);
    for threads in [2, 8] {
        assert_eq!(serial, nested(threads), "threads = {threads}");
    }
}

#[test]
fn nested_calls_run_inline_on_the_enclosing_thread() {
    for threads in [2, 8] {
        let outer: Vec<usize> = (0..16).collect();
        let inline = map_items(&outer, threads, |_| {
            let here: ThreadId = thread::current().id();
            map_indexed(8, threads, |_| thread::current().id())
                .into_iter()
                .all(|id| id == here)
        });
        assert!(inline.into_iter().all(|ok| ok), "threads = {threads}");
    }
}

/// Runs a call at `threads` in which task `bad` panics, and returns the
/// panic message.
fn panic_message(threads: usize, bad: usize) -> String {
    let caught = panic::catch_unwind(|| {
        map_indexed(16, threads, |i| {
            assert!(i != bad, "task {i} failed");
            i
        })
    });
    let payload = caught.expect_err("the panic must propagate");
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default()
}

#[test]
fn a_panic_in_the_callers_bucket_propagates_and_the_next_call_succeeds() {
    for threads in [2, 8] {
        // Task 0 is in bucket 0, which the calling thread runs itself.
        assert_eq!(panic_message(threads, 0), "task 0 failed");
        let doubled = map_indexed(16, threads, |i| i * 2);
        assert_eq!(doubled, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }
}

#[test]
fn a_panic_in_a_workers_bucket_propagates_and_the_next_call_succeeds() {
    for threads in [2, 8] {
        // Task 1 is in bucket 1, which a pool worker runs.
        assert_eq!(panic_message(threads, 1), "task 1 failed");
        let doubled = map_indexed(16, threads, |i| i * 2);
        assert_eq!(doubled, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }
}

/// A recorded scenario whose executor work opens spans and counts.
fn traced(threads: usize) -> String {
    anubis_obs::enable_with_capacity(1 << 10);
    let before = anubis_obs::span!("pool.before");
    drop(before);
    let sums = map_indexed(12, threads, |i| {
        let _span = anubis_obs::span!("pool.work");
        anubis_obs::counter!("pool.items", 1);
        i * i
    });
    anubis_obs::counter!("pool.total", sums.iter().sum::<usize>() as i64);
    let trace = anubis_obs::drain();
    anubis_obs::disable();
    trace.to_jsonl()
}

#[test]
fn spans_inside_executor_work_leave_the_trace_unchanged() {
    let one = traced(1);
    assert_eq!(one, traced(2));
    assert!(one.contains("pool.before"));
    assert!(!one.contains("pool.work"), "executor work must not record");
    assert!(!one.contains("pool.items"));
}
