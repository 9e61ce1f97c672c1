//! Property-based tests for the neural-network substrate.

use anubis_nn::{Activation, Adam, BackwardScratch, BlockCache, Mlp, StandardScaler};
use proptest::prelude::*;

fn architecture() -> impl Strategy<Value = Vec<usize>> {
    (1usize..4, 1usize..12, 1usize..3)
        .prop_map(|(input, hidden, output)| vec![input, hidden, output])
}

/// Layer sizes for the block kernels: one to three hidden layers whose
/// widths straddle the kernels' 8-lane panels (below, at, and past
/// multiples of 8), and one to three outputs.
fn block_architecture() -> impl Strategy<Value = Vec<usize>> {
    (
        1usize..20,
        prop::collection::vec(1usize..20, 1..4),
        1usize..4,
    )
        .prop_map(|(input, hidden, output)| {
            let mut sizes = vec![input];
            sizes.extend(hidden);
            sizes.push(output);
            sizes
        })
}

fn any_activation() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::Identity),
        Just(Activation::Tanh),
        Just(Activation::Relu),
    ]
}

/// Input values, including ones that drive pre-activations outside the
/// four-lane tanh kernel's domain: zero, ±25 and subnormals.
fn input_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -3.0f64..3.0,
        -3.0f64..3.0,
        -3.0f64..3.0,
        Just(0.0),
        Just(25.0),
        Just(-25.0),
        (1u64..1 << 52).prop_map(f64::from_bits),
        (1u64..1 << 52).prop_map(|bits| -f64::from_bits(bits)),
    ]
}

/// Row counts: every short block up to 9 rows, and longer ones.
fn row_count() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=9, 10usize..40]
}

/// Most values a block case draws: 39 rows of at most 19 inputs.
const MAX_VALUES: usize = 39 * 19;

/// A network, a block of row-major inputs for it, and one row-major
/// output gradient per row.
fn block_case() -> impl Strategy<Value = (Mlp, Vec<f64>, Vec<f64>)> {
    (
        block_architecture(),
        any_activation(),
        0u64..1000,
        row_count(),
        prop::collection::vec(input_value(), MAX_VALUES),
        prop::collection::vec(-2.0f64..2.0, MAX_VALUES),
    )
        .prop_map(|(sizes, activation, seed, rows, mut input, mut grads)| {
            input.truncate(rows * sizes[0]);
            grads.truncate(rows * sizes[sizes.len() - 1]);
            (Mlp::new(&sizes, activation, seed), input, grads)
        })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Analytic gradients match finite differences on random
    /// architectures, activations, inputs and seeds.
    #[test]
    fn gradients_match_finite_differences(
        sizes in architecture(),
        tanh in any::<bool>(),
        seed in 0u64..200,
        x in prop::collection::vec(-2.0f64..2.0, 3),
    ) {
        let activation = if tanh { Activation::Tanh } else { Activation::Relu };
        let mlp = Mlp::new(&sizes, activation, seed);
        let input = &x[..sizes[0]];
        // Loss: 0.5 * Σ y².
        let loss = |net: &Mlp| -> f64 {
            net.forward(input).iter().map(|y| 0.5 * y * y).sum()
        };
        let cache = mlp.forward_cached(input);
        let output_grad: Vec<f64> = cache.output().to_vec();
        let mut grads = mlp.zero_gradients();
        mlp.backward(&cache, &output_grad, &mut grads);
        let analytic: Vec<f64> = Mlp::flattened_gradients(&grads);

        let eps = 1e-6;
        for (p, &analytic_grad) in analytic.iter().enumerate().take(mlp.parameter_count()) {
            let mut plus = mlp.clone();
            plus.perturb_parameter(p, eps);
            let mut minus = mlp.clone();
            minus.perturb_parameter(p, -eps);
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            // ReLU kinks make finite differences locally inexact; allow a
            // loose bound there and a tight one for tanh.
            let tolerance: f64 = if tanh { 1e-4 } else { 2e-3 };
            prop_assert!(
                (analytic_grad - numeric).abs() <= tolerance.max(numeric.abs() * 1e-3),
                "param {p}: analytic {analytic_grad} vs numeric {numeric}"
            );
        }
    }

    /// The row-blocked forward kernel reproduces the per-row pass bit for
    /// bit on every output of every row.
    #[test]
    fn forward_block_matches_forward_into_bitwise((mlp, input, grads) in block_case()) {
        let mut block = BlockCache::default();
        mlp.forward_block(&input, &mut block);
        prop_assert_eq!(block.output().len(), grads.len());
        let mut cache = mlp.empty_cache();
        let outputs = block.output().chunks(mlp.output_dim());
        for (row, output) in input.chunks(mlp.input_dim()).zip(outputs) {
            mlp.forward_into(row, &mut cache);
            prop_assert_eq!(bits(cache.output()), bits(output));
        }
    }

    /// The row-blocked backward kernel adds exactly what per-row
    /// `Mlp::backward` calls add, row by row: two blocks accumulated into
    /// one flat buffer equal the `Gradients` reference bit for bit.
    #[test]
    fn backward_block_matches_backward_bitwise((mlp, input, grads) in block_case()) {
        let mut block = BlockCache::default();
        let mut scratch = BackwardScratch::default();
        let mut flat = vec![0.0; mlp.parameter_count()];
        let mut reference = mlp.zero_gradients();
        for _ in 0..2 {
            mlp.forward_block(&input, &mut block);
            mlp.backward_block(&block, &grads, &mut flat, &mut scratch);
            let rows = input.chunks(mlp.input_dim());
            for (row, grad) in rows.zip(grads.chunks(mlp.output_dim())) {
                let cache = mlp.forward_cached(row);
                mlp.backward(&cache, grad, &mut reference);
            }
            prop_assert_eq!(bits(&Mlp::flattened_gradients(&reference)), bits(&flat));
        }
    }

    /// Training with Adam on a constant target always reduces the loss.
    #[test]
    fn adam_reduces_constant_target_loss(seed in 0u64..100, target in -3.0f64..3.0) {
        let mut mlp = Mlp::new(&[1, 8, 1], Activation::Tanh, seed);
        let mut adam = Adam::new(&mlp, 1e-2);
        let loss = |net: &Mlp| {
            let y = net.forward_scalar(&[0.5]);
            0.5 * (y - target) * (y - target)
        };
        let initial = loss(&mlp);
        for _ in 0..200 {
            let cache = mlp.forward_cached(&[0.5]);
            let err = cache.output()[0] - target;
            let mut grads = mlp.zero_gradients();
            mlp.backward(&cache, &[err], &mut grads);
            adam.step(&mut mlp, &grads);
        }
        prop_assert!(loss(&mlp) <= initial.max(1e-8), "{} -> {}", initial, loss(&mlp));
        prop_assert!(loss(&mlp) < 0.05, "converges near the target: {}", loss(&mlp));
    }

    /// Scaler round-trip: transformed features have near-zero mean and
    /// near-unit variance for arbitrary data.
    #[test]
    fn scaler_standardizes(rows in prop::collection::vec(
        prop::collection::vec(-1000.0f64..1000.0, 3), 4..40))
    {
        let scaler = StandardScaler::fit(&rows);
        let transformed = scaler.transform_all(&rows);
        for d in 0..3 {
            let n = transformed.len() as f64;
            let mean: f64 = transformed.iter().map(|r| r[d]).sum::<f64>() / n;
            prop_assert!(mean.abs() < 1e-6, "dim {d} mean {mean}");
            let var: f64 = transformed.iter().map(|r| r[d] * r[d]).sum::<f64>() / n;
            // Constant columns standardize to zero (variance 0), others
            // to 1.
            prop_assert!(var < 1.0 + 1e-6, "dim {d} var {var}");
        }
    }
}
