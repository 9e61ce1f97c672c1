//! The pool spawns its helpers once per calling thread, not once per
//! call. This is the only test in its binary, so no other test's pool
//! shares the process while it counts threads.

use anubis_parallel::map_chunks_mut;

/// Threads of this process named like pool helpers, from
/// `/proc/self/task/*/comm`; `None` where procfs is unavailable.
fn pool_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("anubis-worker-"))
            .count(),
    )
}

#[test]
fn a_thousand_calls_spawn_threads_minus_one_helpers() {
    let Some(before) = pool_threads() else {
        return;
    };
    assert_eq!(before, 0);
    let threads = 4;
    let mut items = vec![0u64; 8];
    for call in 0..1_000u64 {
        map_chunks_mut(&mut items, 1, threads, |i, chunk| {
            for item in chunk {
                *item += call ^ i as u64;
            }
        });
    }
    assert_eq!(pool_threads(), Some(threads - 1));
    // A smaller call reuses the pool instead of growing it.
    map_chunks_mut(&mut items, 1, 2, |_, chunk| chunk.len());
    assert_eq!(pool_threads(), Some(threads - 1));
    let expected: u64 = (0..1_000u64).map(|call| call ^ 3).sum();
    assert_eq!(items.get(3), Some(&expected));
}
