//! Criterion kernels for the fleetd service loop, enforced by
//! `cargo xtask perfgate` (`fleetd/tick`, `fleetd/merge`,
//! `fleetd/criteria`).

use anubis_fleetd::{Coordinator, FleetdConfig};
use anubis_metrics::EcdfSketch;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

/// A warmed-up coordinator: enough ticks that incidents, jobs, repairs
/// and an established criteria threshold are all in play, so the benched
/// tick is a steady-state one rather than a cold-fleet no-op.
fn warm_fleet() -> Coordinator {
    let cfg = FleetdConfig {
        nodes: 4096,
        shards: 8,
        ticks: 0,
        threads: 1, // single-threaded: measure the loop, not the pool
        ..FleetdConfig::default()
    };
    let mut fleet = Coordinator::new(cfg);
    for _ in 0..40 {
        fleet.step();
    }
    fleet
}

fn bench_tick(c: &mut Criterion) {
    let warm = warm_fleet();
    c.bench_function("fleetd/tick/4096nodes-8shards", |bencher| {
        bencher.iter_batched(
            || warm.clone(),
            |mut fleet| black_box(fleet.step()),
            BatchSize::SmallInput,
        );
    });
}

/// 16 shard sketches of 4096 validation scores each — the shape of a
/// periodic criteria refresh on a large fleet.
fn shard_sketches() -> Vec<EcdfSketch> {
    (0..16u64)
        .map(|s| {
            let mut sketch = EcdfSketch::new();
            for i in 0..4096u64 {
                let x = (i.wrapping_mul(2654435761).wrapping_add(s * 97)) % 10_000;
                sketch.append(90.0 + x as f64 / 1000.0);
            }
            sketch
        })
        .collect()
}

fn bench_merge(c: &mut Criterion) {
    let sketches = shard_sketches();
    c.bench_function("fleetd/merge/16x4096", |bencher| {
        bencher.iter(|| black_box(EcdfSketch::merged(black_box(&sketches))));
    });
}

fn bench_criteria(c: &mut Criterion) {
    // The coordinator's refresh: rank selection over the same shard
    // sketches, no merged sketch built.
    let sketches = shard_sketches();
    c.bench_function("fleetd/criteria/16x4096", |bencher| {
        bencher.iter(|| black_box(EcdfSketch::quantile_of(black_box(&sketches), 0.05)));
    });
}

criterion_group!(benches, bench_tick, bench_merge, bench_criteria);
criterion_main!(benches);
