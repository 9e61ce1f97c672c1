//! Manual timing probe for the MLP hot paths (ignored by default; run
//! with `cargo test -p anubis-nn --release -- --ignored --nocapture`).

// A wall-clock probe by design; it never feeds a result and is ignored by default.
#![allow(clippy::disallowed_types)]

use anubis_nn::{Activation, BackwardScratch, BlockCache, Mlp};
use std::time::Instant;

/// Fastest of five timed runs of `f`, in seconds: the host is shared, so
/// the minimum is the steadiest estimate of the code's own cost.
fn best_of_five(mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "manual timing probe"]
fn time_forward_backward() {
    // The Cox-Time risk network's default shape: (t, 13 features) -> 32 -> 32 -> 1.
    let mlp = Mlp::new(&[14, 32, 32, 1], Activation::Tanh, 7);
    let rows = 32usize;
    let input: Vec<f64> = (0..14 * rows)
        .map(|i| 0.01 * (i % 97) as f64 - 0.5)
        .collect();
    let mut cache = mlp.empty_cache();

    let n = 4_000u32;
    let mut sink = 0.0f64;
    let secs = best_of_five(|| {
        for _ in 0..n {
            for row in input.chunks_exact(14) {
                sink += mlp.forward_scalar_into(row, &mut cache);
            }
        }
    });
    let per_row = secs * 1e9 / f64::from(n) / rows as f64;
    println!("forward_scalar_into: {per_row:.1} ns/row (sink {sink})");

    let mut block = BlockCache::default();
    let secs = best_of_five(|| {
        for _ in 0..n {
            mlp.forward_block(&input, &mut block);
            sink += block.output()[0];
        }
    });
    let per_row = secs * 1e9 / f64::from(n) / rows as f64;
    println!("forward_block ({rows} rows): {per_row:.1} ns/row (sink {sink})");

    // One Cox-Time event step: the event row and four controls, forward
    // and backward as one block.
    let event = &input[..14 * 5];
    let grads = [-0.5, 0.1, 0.1, 0.2, 0.1];
    let mut flat = vec![0.0f64; mlp.parameter_count()];
    let mut scratch = BackwardScratch::default();
    let secs = best_of_five(|| {
        for _ in 0..n {
            mlp.forward_block(event, &mut block);
            mlp.backward_block(&block, &grads, &mut flat, &mut scratch);
        }
    });
    println!(
        "event step (5 rows, forward_block + backward_block): {:.2} us/step (flat[0] {})",
        secs * 1e6 / f64::from(n),
        flat[0]
    );

    let start = Instant::now();
    let mut t = 0.0f64;
    for i in 0..10_000_000u32 {
        t += (f64::from(i) * 1e-6).tanh();
    }
    println!(
        "tanh:     {:.1} ns/call (sink {t})",
        start.elapsed().as_secs_f64() * 1e9 / 1e7
    );
}
