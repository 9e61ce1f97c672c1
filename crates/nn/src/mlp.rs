//! Multilayer perceptron with manual backpropagation.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Lane width of the block kernels' register tiles (see [`dot_tile`]).
const LANES: usize = 8;

/// Rows of the block kernels' register tiles: input rows per tile of
/// [`matmul_rows`], output neurons per tile of the weight gradient.
const TILE: usize = 4;

/// Activation function applied element-wise after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (used on output layers).
    Identity,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    /// `f(x)`. Named apart from the workspace's `apply` methods: the
    /// analyzer's call graph links calls by name, and a shared name would
    /// tie the allocation-free block kernels to allocating code.
    fn evaluate(self, x: f64) -> f64 {
        match self {
            Self::Identity => x,
            Self::Tanh => crate::fastmath::tanh(x),
            Self::Relu => x.max(0.0),
        }
    }

    /// Derivative expressed through the *activated* value `y = f(x)`, which
    /// is what the backward pass has cached.
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Self::Identity => 1.0,
            Self::Tanh => 1.0 - y * y,
            Self::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// One dense layer: `y = f(W x + b)` with `W` stored row-major
/// (`outputs × inputs`).
///
/// `layouts` holds the weights again in the orders the kernels read them:
/// derived state, refreshed by [`Mlp::for_each_parameter`] — the only
/// place parameters mutate.
#[derive(Debug, Clone)]
struct Layer {
    weights: Vec<f64>,
    layouts: WeightLayouts,
    biases: Vec<f64>,
    inputs: usize,
    outputs: usize,
    activation: Activation,
}

/// A layer's weights `W` in the orders its kernels read them.
#[derive(Debug, Clone, Default)]
struct WeightLayouts {
    /// `Wᵀ` row-major (`inputs × outputs`), so the per-row forward mat-vec
    /// walks output neurons contiguously.
    transposed: Vec<f64>,
    /// `Wᵀ` in the panel layout of [`to_panels`]: the block forward pass.
    panels: Vec<f64>,
    /// `W` in the panel layout of [`to_panels`]: the block backward
    /// pass's input-delta product.
    panels_t: Vec<f64>,
}

impl Layer {
    fn forward(&self, input: &[f64], output: &mut Vec<f64>) {
        let n = self.inputs;
        let m = self.outputs;
        let x = &input[..n.min(input.len())];
        output.clear();
        output.resize(m, 0.0);
        let out = &mut output[..m];
        // Column-major accumulation over the transposed weights: for each
        // input element, all output accumulators advance by one product.
        // Neuron `o` still sums `w[o][i]·x[i]` in ascending `i` order
        // starting from 0.0 — exactly the one-neuron `sum()` — so results
        // are bit-identical; the elementwise inner loop merely lets the
        // independent per-neuron chains run as SIMD lanes.
        for (i, &xi) in x.iter().enumerate() {
            let col = &self.layouts.transposed[i * m..(i + 1) * m];
            for (acc, &w) in out.iter_mut().zip(col) {
                *acc += w * xi;
            }
        }
        self.activate(out);
    }

    /// Bias + activation over one row of weighted sums, as a second pass:
    /// each neuron's value and op sequence is unchanged, but batching the
    /// (branch-heavy, division-bound) tanh calls lets them run through the
    /// four-lane kernel.
    fn activate(&self, out: &mut [f64]) {
        match self.activation {
            Activation::Tanh => {
                for (acc, &b) in out.iter_mut().zip(&self.biases) {
                    *acc += b;
                }
                crate::fastmath::tanh_slice(out);
            }
            act => {
                for (acc, &b) in out.iter_mut().zip(&self.biases) {
                    *acc = act.evaluate(*acc + b);
                }
            }
        }
    }

    /// Backpropagates the row-major `delta` (`rows × outputs`, ∂loss/∂y on
    /// entry) of the block's `input` and `output` rows through this layer,
    /// **adding** the parameter gradients into `w_grad`/`b_grad`. With
    /// `NEXT`, `delta` leaves holding ∂loss/∂input (`rows × inputs`).
    ///
    /// Every product is the one [`Mlp::backward`] forms. Each weight
    /// gradient starts from its accumulated value and adds its rows'
    /// `δ[o]·x[i]` in row order; each input delta sums `δ[o]·w[o][i]` in
    /// ascending `o` from `0.0`. Both are [`dot_tile`] reductions, so the
    /// per-row op sequence — and every bit — is unchanged.
    fn backward_rows<const NEXT: bool>(
        &self,
        rows: usize,
        input: &[f64],
        output: &[f64],
        w_grad: &mut [f64],
        b_grad: &mut [f64],
        scratch: &mut BackwardScratch,
    ) {
        let (n, m) = (self.inputs, self.outputs);
        let BackwardScratch {
            delta,
            next,
            delta_p,
            input_p,
            tile,
        } = scratch;
        // δ ← δ ⊙ f'(z), expressed through the activated outputs.
        for (d, &y) in delta.iter_mut().zip(output) {
            *d *= self.activation.derivative_from_output(y);
        }
        for row in delta.chunks_exact(m) {
            for (b, &d) in b_grad.iter_mut().zip(row) {
                *b += d;
            }
        }
        // ∂W += δᵀ·x: tiles of TILE neurons × LANES inputs, each
        // reducing over the block's rows.
        to_panels::<TILE>(delta, m, rows, delta_p);
        to_panels::<LANES>(input, n, rows, input_p);
        let full = m / TILE * TILE;
        let (d_head, d_tail) = delta_p.split_at_checked(full * rows).unwrap_or_default();
        let mut g_tiles = w_grad.chunks_exact_mut(TILE * n);
        for (g, d) in (&mut g_tiles).zip(d_head.chunks_exact(TILE * rows)) {
            grad_rows::<TILE>(g, n, rows, input_p, d);
        }
        let g_rest = g_tiles.into_remainder().chunks_exact_mut(n);
        for (g, d) in g_rest.zip(d_tail.chunks_exact(rows)) {
            grad_rows::<1>(g, n, rows, input_p, d);
        }
        if NEXT {
            // ∂x = δ·W: the forward product over `W` in place of `Wᵀ`.
            next.clear();
            next.resize(rows * n, 0.0);
            matmul_rows(&self.layouts.panels_t, m, n, delta, tile, next);
            std::mem::swap(delta, next);
        }
    }

    /// Rebuilds every derived weight layout from the row-major source.
    fn refresh_layouts(&mut self) {
        let (n, m) = (self.inputs, self.outputs);
        let layouts = &mut self.layouts;
        layouts.transposed.resize(self.weights.len(), 0.0);
        for o in 0..m {
            let row = &self.weights[o * n..(o + 1) * n];
            for (i, &w) in row.iter().enumerate() {
                layouts.transposed[i * m + o] = w;
            }
        }
        to_panels::<LANES>(&layouts.transposed, m, n, &mut layouts.panels);
        to_panels::<LANES>(&self.weights, n, m, &mut layouts.panels_t);
    }
}

/// `out = x·Vᵀ` for the row-major `rows × k` matrix `x`, where `panels`
/// is `Vᵀ` (`k × width`) in the panel layout of [`to_panels`]: every
/// output element sums its `k` products in ascending order from `0.0`.
///
/// Rows go through in tiles of [`TILE`], transposed into `tile`, so
/// each panel row is loaded once per tile instead of once per row.
fn matmul_rows(
    panels: &[f64],
    k: usize,
    width: usize,
    x: &[f64],
    tile: &mut Vec<f64>,
    out: &mut [f64],
) {
    let tiles = x.chunks(TILE * k).zip(out.chunks_mut(TILE * width));
    for (x, out) in tiles {
        // One arm per tile height up to `TILE`; only the last tile of a
        // block can be short.
        match x.chunks_exact(k).len() {
            4 => matmul_tile::<4>(panels, k, width, x, tile, out),
            3 => matmul_tile::<3>(panels, k, width, x, tile, out),
            2 => matmul_tile::<2>(panels, k, width, x, tile, out),
            _ => matmul_tile::<1>(panels, k, width, x, tile, out),
        }
    }
}

/// One `R`-row tile of [`matmul_rows`].
fn matmul_tile<const R: usize>(
    panels: &[f64],
    k: usize,
    width: usize,
    x: &[f64],
    tile: &mut Vec<f64>,
    out: &mut [f64],
) {
    tile.clear();
    tile.resize(k * R, 0.0);
    for (r, row) in x.chunks_exact(k).enumerate() {
        for (dst, &v) in tile.iter_mut().skip(r).step_by(R).zip(row) {
            *dst = v;
        }
    }
    let full = width / LANES * LANES;
    let (head, tail) = panels.split_at_checked(full * k).unwrap_or_default();
    for (j, panel) in head.chunks_exact(k * LANES).enumerate() {
        let acc = dot_tile::<R, LANES>([[0.0; LANES]; R], panel, tile);
        for (row, lanes) in out.chunks_exact_mut(width).zip(&acc) {
            if let Some(dst) = row.as_chunks_mut::<LANES>().0.get_mut(j) {
                *dst = *lanes;
            }
        }
    }
    for (c, panel) in tail.chunks_exact(k).enumerate() {
        let acc = dot_tile::<R, 1>([[0.0]; R], panel, tile);
        for (row, &[sum]) in out.chunks_exact_mut(width).zip(&acc) {
            if let Some(dst) = row.get_mut(full + c) {
                *dst = sum;
            }
        }
    }
}

/// Adds `Σ_r δ[r][q]·x[r][i]` (rows ascending) into the `Q` gradient rows
/// `g` (`Q × n`), for the block's input `x` in `LANES` panel layout and
/// the `Q` neurons' deltas `d` (`rows × Q`).
fn grad_rows<const Q: usize>(g: &mut [f64], n: usize, rows: usize, x: &[f64], d: &[f64]) {
    let full = n / LANES * LANES;
    let (head, tail) = x.split_at_checked(full * rows).unwrap_or_default();
    for (j, lanes) in head.chunks_exact(rows * LANES).enumerate() {
        grad_tile::<Q, LANES>(g, n, j * LANES, lanes, d);
    }
    for (c, column) in tail.chunks_exact(rows).enumerate() {
        grad_tile::<Q, 1>(g, n, full + c, column, d);
    }
}

/// One `Q × W` tile of [`grad_rows`] over inputs `at..at + W`: loaded from
/// `g`, reduced over the rows in registers, stored back.
#[inline(always)]
fn grad_tile<const Q: usize, const W: usize>(
    g: &mut [f64],
    n: usize,
    at: usize,
    x: &[f64],
    d: &[f64],
) {
    let mut acc = [[0.0f64; W]; Q];
    for (lanes, row) in acc.iter_mut().zip(g.chunks_exact(n)) {
        if let Some(Ok(stored)) = row.get(at..at + W).map(<[f64; W]>::try_from) {
            *lanes = stored;
        }
    }
    let acc = dot_tile::<Q, W>(acc, x, d);
    for (lanes, row) in acc.iter().zip(g.chunks_exact_mut(n)) {
        if let Some(dst) = row.get_mut(at..at + W) {
            dst.copy_from_slice(lanes);
        }
    }
}

/// The register tile every block kernel reduces through:
/// `acc[r][k] += panel[s][k]·xt[s][r]` for `s` ascending, from the given
/// `acc`, for a `steps × W` panel and `steps × R` transposed operand.
#[inline(always)]
fn dot_tile<const R: usize, const W: usize>(
    mut acc: [[f64; W]; R],
    panel: &[f64],
    xt: &[f64],
) -> [[f64; W]; R] {
    for (w, x) in panel.as_chunks::<W>().0.iter().zip(xt.as_chunks::<R>().0) {
        for (lanes, &xr) in acc.iter_mut().zip(x) {
            for (a, &wk) in lanes.iter_mut().zip(w) {
                *a += wk * xr;
            }
        }
    }
    acc
}

/// Writes the row-major `rows × width` matrix `src` into `dst` in panel
/// layout: each full group of `L` columns stores its rows' lanes
/// contiguously (`[group][row][lane]`), then each remaining column stores
/// its rows (`[column][row]`).
fn to_panels<const L: usize>(src: &[f64], width: usize, rows: usize, dst: &mut Vec<f64>) {
    dst.clear();
    dst.resize(src.len(), 0.0);
    let (head, tail) = dst
        .split_at_mut_checked(width / L * L * rows)
        .unwrap_or_default();
    let head = head.as_chunks_mut::<L>().0;
    for (r, row) in src.chunks_exact(width).enumerate() {
        let (lanes, rest) = row.as_chunks::<L>();
        for (d, s) in head.iter_mut().skip(r).step_by(rows).zip(lanes) {
            *d = *s;
        }
        for (d, &s) in tail.iter_mut().skip(r).step_by(rows).zip(rest) {
            *d = s;
        }
    }
}

/// Parameter-shaped gradient accumulator for an [`Mlp`].
///
/// Obtained from [`Mlp::zero_gradients`]; filled by [`Mlp::backward`] (which
/// *adds* into it, so several backward passes accumulate naturally) and
/// consumed by [`crate::Adam::step`].
#[derive(Debug, Clone)]
pub struct Gradients {
    pub(crate) weights: Vec<Vec<f64>>,
    pub(crate) biases: Vec<Vec<f64>>,
}

impl Gradients {
    /// Resets all accumulated gradients to zero.
    pub fn reset(&mut self) {
        for layer in &mut self.weights {
            layer.fill(0.0);
        }
        for layer in &mut self.biases {
            layer.fill(0.0);
        }
    }

    /// Scales all gradients, e.g. by `1/batch_size`.
    pub fn scale(&mut self, factor: f64) {
        for layer in &mut self.weights {
            for g in layer.iter_mut() {
                *g *= factor;
            }
        }
        for layer in &mut self.biases {
            for g in layer.iter_mut() {
                *g *= factor;
            }
        }
    }

    /// Euclidean norm of the flattened gradient vector.
    pub fn norm(&self) -> f64 {
        let mut total = 0.0;
        for layer in &self.weights {
            total += layer.iter().map(|g| g * g).sum::<f64>();
        }
        for layer in &self.biases {
            total += layer.iter().map(|g| g * g).sum::<f64>();
        }
        total.sqrt()
    }
}

/// Cached activations of one forward pass, needed by [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// `activations[0]` is the input; `activations[i+1]` the output of layer
    /// `i`.
    activations: Vec<Vec<f64>>,
}

impl ForwardCache {
    /// Network output of the cached pass.
    pub fn output(&self) -> &[f64] {
        self.activations
            .last()
            .expect("cache has at least the input layer")
    }
}

/// Row-major activations of one [`Mlp::forward_block`] pass, needed by
/// [`Mlp::backward_block`].
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    rows: usize,
    /// `activations[0]` holds the input rows; `activations[i+1]` the
    /// output rows of layer `i`.
    activations: Vec<Vec<f64>>,
    /// Transposed input rows of the forward tile in flight.
    tile: Vec<f64>,
}

impl BlockCache {
    /// Row-major network outputs of the cached pass (`rows × output_dim`).
    pub fn output(&self) -> &[f64] {
        self.activations.last().map_or(&[], Vec::as_slice)
    }
}

/// Reusable buffers for allocation-free [`Mlp::backward_block`] calls.
///
/// One scratch serves any number of calls on the same network; reuse
/// avoids the per-call `Vec` allocations of [`Mlp::backward`] on hot
/// training loops.
#[derive(Debug, Clone, Default)]
pub struct BackwardScratch {
    /// Row-major δ of the layer in flight.
    delta: Vec<f64>,
    /// Row-major δ of the layer below, being formed.
    next: Vec<f64>,
    /// δ in the panel layout of `to_panels` over `TILE` neurons.
    delta_p: Vec<f64>,
    /// The layer input in the panel layout of `to_panels`.
    input_p: Vec<f64>,
    /// Transposed rows of the product tile in flight.
    tile: Vec<f64>,
}

/// A feed-forward network with dense layers.
///
/// # Examples
///
/// ```
/// use anubis_nn::{Activation, Mlp};
///
/// // 2 inputs -> 8 tanh -> 1 linear output.
/// let mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, 42);
/// let y = mlp.forward(&[0.5, -0.5]);
/// assert_eq!(y.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    /// Builds a network with the given layer sizes (`sizes[0]` inputs,
    /// `sizes.last()` outputs), `hidden` activation on all but the last
    /// layer, identity on the output, and Xavier-uniform initialization.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero; layer
    /// shapes are a static property of the calling code, not runtime data.
    pub fn new(sizes: &[usize], hidden: Activation, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for (i, window) in sizes.windows(2).enumerate() {
            let (inputs, outputs) = (window[0], window[1]);
            let limit = (6.0 / (inputs + outputs) as f64).sqrt();
            let weights: Vec<f64> = (0..inputs * outputs)
                .map(|_| rng.random_range(-limit..limit))
                .collect();
            let activation = if i == sizes.len() - 2 {
                Activation::Identity
            } else {
                hidden
            };
            layers.push(Layer {
                weights,
                layouts: WeightLayouts::default(),
                biases: vec![0.0; outputs],
                inputs,
                outputs,
                activation,
            });
        }
        for layer in &mut layers {
            layer.refresh_layouts();
        }
        Self { layers }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].inputs
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("at least one layer").outputs
    }

    /// Runs a forward pass and returns only the output.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Mlp::input_dim`].
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.forward_cached(input)
            .activations
            .pop()
            .expect("non-empty")
    }

    /// Scalar-output convenience for risk networks.
    pub fn forward_scalar(&self, input: &[f64]) -> f64 {
        debug_assert_eq!(self.output_dim(), 1);
        self.forward(input)[0]
    }

    /// Runs a forward pass keeping all intermediate activations for a later
    /// [`Mlp::backward`] call.
    pub fn forward_cached(&self, input: &[f64]) -> ForwardCache {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(input.to_vec());
        let mut buffer = Vec::new();
        for layer in &self.layers {
            layer.forward(activations.last().expect("non-empty"), &mut buffer);
            activations.push(buffer.clone());
        }
        ForwardCache { activations }
    }

    /// Allocates a pre-sized, empty [`ForwardCache`] for [`Mlp::forward_into`].
    pub fn empty_cache(&self) -> ForwardCache {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(Vec::with_capacity(self.input_dim()));
        for layer in &self.layers {
            activations.push(Vec::with_capacity(layer.outputs));
        }
        ForwardCache { activations }
    }

    /// Runs a forward pass into a reusable cache: bit-identical activations
    /// to [`Mlp::forward_cached`] with no allocations after the first use.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Mlp::input_dim`].
    pub fn forward_into(&self, input: &[f64], cache: &mut ForwardCache) {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        cache
            .activations
            .resize_with(self.layers.len() + 1, Vec::new);
        cache.activations[0].clear();
        cache.activations[0].extend_from_slice(input);
        for (l, layer) in self.layers.iter().enumerate() {
            let (before, after) = cache.activations.split_at_mut(l + 1);
            layer.forward(&before[l], &mut after[0]);
        }
    }

    /// Scalar-output forward pass through a reusable cache.
    pub fn forward_scalar_into(&self, input: &[f64], cache: &mut ForwardCache) -> f64 {
        debug_assert_eq!(self.output_dim(), 1);
        self.forward_into(input, cache);
        cache.output()[0]
    }

    /// Allocates a zeroed gradient accumulator matching this network.
    pub fn zero_gradients(&self) -> Gradients {
        Gradients {
            weights: self
                .layers
                .iter()
                .map(|l| vec![0.0; l.weights.len()])
                .collect(),
            biases: self
                .layers
                .iter()
                .map(|l| vec![0.0; l.biases.len()])
                .collect(),
        }
    }

    /// Backpropagates `output_grad` (∂loss/∂output) through the cached pass,
    /// **adding** parameter gradients into `grads`, and returns
    /// ∂loss/∂input.
    ///
    /// # Panics
    ///
    /// Panics if `output_grad` does not match the output dimension or
    /// `grads` was built for a different architecture.
    pub fn backward(
        &self,
        cache: &ForwardCache,
        output_grad: &[f64],
        grads: &mut Gradients,
    ) -> Vec<f64> {
        assert_eq!(
            output_grad.len(),
            self.output_dim(),
            "output gradient mismatch"
        );
        let mut delta = output_grad.to_vec();
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let output = &cache.activations[l + 1];
            let input = &cache.activations[l];
            // δ ← δ ⊙ f'(z), expressed through the activated outputs.
            for (d, &y) in delta.iter_mut().zip(output) {
                *d *= layer.activation.derivative_from_output(y);
            }
            let w_grad = &mut grads.weights[l];
            let b_grad = &mut grads.biases[l];
            assert_eq!(w_grad.len(), layer.weights.len(), "gradient shape mismatch");
            let mut next_delta = vec![0.0; layer.inputs];
            for o in 0..layer.outputs {
                b_grad[o] += delta[o];
                let row = o * layer.inputs;
                for i in 0..layer.inputs {
                    w_grad[row + i] += delta[o] * input[i];
                    next_delta[i] += delta[o] * layer.weights[row + i];
                }
            }
            delta = next_delta;
        }
        delta
    }

    /// Runs a forward pass over a block of row-major input rows
    /// (`input.len()` a multiple of [`Mlp::input_dim`]) into a reusable
    /// cache, for a later [`Mlp::backward_block`] call. Each row's
    /// activations are bit-identical to a [`Mlp::forward_into`] pass over
    /// that row alone, with no allocations after the cache's first use.
    pub fn forward_block(&self, input: &[f64], cache: &mut BlockCache) {
        let n = self.input_dim();
        debug_assert_eq!(input.len() % n, 0, "input is not whole rows");
        let rows = input.chunks_exact(n).len();
        cache.rows = rows;
        let BlockCache {
            activations, tile, ..
        } = cache;
        activations.resize_with(self.layers.len() + 1, Vec::new);
        if let Some(first) = activations.first_mut() {
            first.clear();
            first.extend_from_slice(input);
        }
        for (l, layer) in self.layers.iter().enumerate() {
            let (before, after) = activations.split_at_mut_checked(l + 1).unwrap_or_default();
            let (Some(x), Some(out)) = (before.last(), after.first_mut()) else {
                return;
            };
            let (n, m) = (layer.inputs, layer.outputs);
            out.clear();
            out.resize(rows * m, 0.0);
            matmul_rows(&layer.layouts.panels, n, m, x, tile, out);
            for row in out.chunks_exact_mut(m) {
                layer.activate(row);
            }
        }
    }

    /// Backpropagates the row-major `output_grads` (∂loss/∂output, one row
    /// per row of the cached [`Mlp::forward_block`] pass) and **adds** the
    /// parameter gradients into `flat` (canonical order: layer by layer,
    /// weights then biases — the order of [`Mlp::flattened_gradients`]).
    ///
    /// Every parameter receives exactly the additions that one
    /// [`Mlp::backward`] call per row, in row order, would make, so the
    /// result is bit-identical to feeding the rows one by one; the
    /// reusable `scratch` keeps the call allocation-free after warm-up.
    pub fn backward_block(
        &self,
        cache: &BlockCache,
        output_grads: &[f64],
        flat: &mut [f64],
        scratch: &mut BackwardScratch,
    ) {
        let rows = cache.rows;
        debug_assert_eq!(output_grads.len(), rows * self.output_dim());
        debug_assert_eq!(
            flat.len(),
            self.parameter_count(),
            "gradient shape mismatch"
        );
        if rows == 0 {
            return;
        }
        scratch.delta.clear();
        scratch.delta.extend_from_slice(output_grads);
        // Flat offset of the layer *after* the current one, maintained
        // while iterating in reverse.
        let mut end = flat.len();
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let start = end.saturating_sub(layer.weights.len() + layer.biases.len());
            let (Some(params), Some(input), Some(output)) = (
                flat.get_mut(start..end),
                cache.activations.get(l),
                cache.activations.get(l + 1),
            ) else {
                return;
            };
            end = start;
            let (w_grad, b_grad) = params
                .split_at_mut_checked(layer.weights.len())
                .unwrap_or_default();
            // The first layer's input gradient is never read, so skip it.
            if l > 0 {
                layer.backward_rows::<true>(rows, input, output, w_grad, b_grad, scratch);
            } else {
                layer.backward_rows::<false>(rows, input, output, w_grad, b_grad, scratch);
            }
        }
    }

    /// Flattens a gradient accumulator into the canonical parameter
    /// order (layer by layer, weights then biases) — useful for
    /// finite-difference verification and optimizer diagnostics.
    pub fn flattened_gradients(grads: &Gradients) -> Vec<f64> {
        Self::flatten_gradients(grads).collect()
    }

    /// Adds `delta` to the parameter at flattened `index` (same order as
    /// [`Mlp::flattened_gradients`]); a no-op for out-of-range indices.
    pub fn perturb_parameter(&mut self, index: usize, delta: f64) {
        self.for_each_parameter(|i, value| {
            if i == index {
                *value += delta;
            }
        });
    }

    /// Total number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.biases.len())
            .sum()
    }

    /// Yields each layer's parameter storage in canonical flattened order
    /// (layer by layer, weights then biases) as mutable slices, so
    /// optimizers can run vectorizable elementwise updates. Callers that
    /// mutate through this **must** call [`Mlp::refresh_layouts`]
    /// afterwards.
    pub(crate) fn parameter_slices_mut(&mut self) -> impl Iterator<Item = &mut [f64]> + '_ {
        self.layers.iter_mut().flat_map(|layer| {
            let Layer {
                weights, biases, ..
            } = layer;
            [weights.as_mut_slice(), biases.as_mut_slice()]
        })
    }

    /// Rebuilds every layer's derived weight layouts; required after any
    /// parameter mutation that bypasses [`Mlp::for_each_parameter`].
    pub(crate) fn refresh_layouts(&mut self) {
        for layer in &mut self.layers {
            layer.refresh_layouts();
        }
    }

    /// Applies an in-place update `θ ← θ + update(θ_index)`, visiting
    /// parameters layer by layer (weights then biases). Used by optimizers.
    /// The derived weight layouts are refreshed afterwards,
    /// keeping this the single gateway through which parameters change.
    pub(crate) fn for_each_parameter(&mut self, mut update: impl FnMut(usize, &mut f64)) {
        let mut index = 0;
        for layer in &mut self.layers {
            for w in &mut layer.weights {
                update(index, w);
                index += 1;
            }
            for b in &mut layer.biases {
                update(index, b);
                index += 1;
            }
            layer.refresh_layouts();
        }
    }

    /// Iterates gradients in the same flattened order as
    /// [`Mlp::for_each_parameter`].
    pub(crate) fn flatten_gradients(grads: &Gradients) -> impl Iterator<Item = f64> + '_ {
        grads
            .weights
            .iter()
            .zip(&grads.biases)
            .flat_map(|(w, b)| w.iter().chain(b.iter()).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(&[3, 5, 2], Activation::Tanh, 1);
        assert_eq!(mlp.input_dim(), 3);
        assert_eq!(mlp.output_dim(), 2);
        assert_eq!(mlp.forward(&[0.1, 0.2, 0.3]).len(), 2);
        assert_eq!(mlp.parameter_count(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn deterministic_initialization() {
        let a = Mlp::new(&[2, 4, 1], Activation::Relu, 9);
        let b = Mlp::new(&[2, 4, 1], Activation::Relu, 9);
        assert_eq!(a.forward(&[0.3, -0.7]), b.forward(&[0.3, -0.7]));
        let c = Mlp::new(&[2, 4, 1], Activation::Relu, 10);
        assert_ne!(a.forward(&[0.3, -0.7]), c.forward(&[0.3, -0.7]));
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn rejects_wrong_input_dim() {
        let mlp = Mlp::new(&[3, 1], Activation::Tanh, 0);
        mlp.forward(&[1.0]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mlp = Mlp::new(&[2, 6, 1], Activation::Tanh, 3);
        let input = [0.4, -0.9];
        // Loss = 0.5 * y^2 so dLoss/dy = y.
        let cache = mlp.forward_cached(&input);
        let y = cache.output()[0];
        let mut grads = mlp.zero_gradients();
        mlp.backward(&cache, &[y], &mut grads);
        let analytic: Vec<f64> = Mlp::flatten_gradients(&grads).collect();

        let eps = 1e-6;
        let mut numeric = Vec::with_capacity(analytic.len());
        for p in 0..mlp.parameter_count() {
            let loss_at = |mlp: &Mlp| {
                let out = mlp.forward(&input)[0];
                0.5 * out * out
            };
            let mut plus = mlp.clone();
            plus.for_each_parameter(|i, v| {
                if i == p {
                    *v += eps;
                }
            });
            let mut minus = mlp.clone();
            minus.for_each_parameter(|i, v| {
                if i == p {
                    *v -= eps;
                }
            });
            numeric.push((loss_at(&plus) - loss_at(&minus)) / (2.0 * eps));
        }
        for (i, (a, n)) in analytic.iter().zip(&numeric).enumerate() {
            assert!(
                (a - n).abs() < 1e-5,
                "parameter {i}: analytic {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, 5);
        let input = [0.2, 0.7];
        let cache = mlp.forward_cached(&input);
        let y = cache.output()[0];
        let mut grads = mlp.zero_gradients();
        let input_grad = mlp.backward(&cache, &[y], &mut grads);

        let eps = 1e-6;
        for d in 0..2 {
            let mut plus = input;
            plus[d] += eps;
            let mut minus = input;
            minus[d] -= eps;
            let loss = |x: &[f64]| {
                let out = mlp.forward(x)[0];
                0.5 * out * out
            };
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (input_grad[d] - numeric).abs() < 1e-5,
                "input dim {d}: analytic {} vs numeric {numeric}",
                input_grad[d]
            );
        }
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mlp = Mlp::new(&[1, 3, 1], Activation::Relu, 2);
        let cache = mlp.forward_cached(&[0.5]);
        let mut once = mlp.zero_gradients();
        mlp.backward(&cache, &[1.0], &mut once);
        let mut twice = mlp.zero_gradients();
        mlp.backward(&cache, &[1.0], &mut twice);
        mlp.backward(&cache, &[1.0], &mut twice);
        let a: Vec<f64> = Mlp::flatten_gradients(&once).collect();
        let b: Vec<f64> = Mlp::flatten_gradients(&twice).collect();
        for (x, y) in a.iter().zip(&b) {
            assert!((2.0 * x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn gradients_reset_and_scale() {
        let mlp = Mlp::new(&[1, 2, 1], Activation::Tanh, 0);
        let cache = mlp.forward_cached(&[1.0]);
        let mut grads = mlp.zero_gradients();
        mlp.backward(&cache, &[1.0], &mut grads);
        assert!(grads.norm() > 0.0);
        grads.scale(0.0);
        assert_eq!(grads.norm(), 0.0);
        mlp.backward(&cache, &[1.0], &mut grads);
        grads.reset();
        assert_eq!(grads.norm(), 0.0);
    }

    #[test]
    fn forward_into_matches_forward_cached_bitwise() {
        let mlp = Mlp::new(&[3, 8, 5, 2], Activation::Tanh, 11);
        let mut cache = mlp.empty_cache();
        for k in 0..5 {
            let input = [0.3 * k as f64, -0.7, 1.9 - k as f64];
            let fresh = mlp.forward_cached(&input);
            mlp.forward_into(&input, &mut cache);
            assert_eq!(fresh.activations, cache.activations);
        }
        let scalar = Mlp::new(&[2, 4, 1], Activation::Tanh, 3);
        let mut cache = scalar.empty_cache();
        assert_eq!(
            scalar.forward_scalar_into(&[0.2, -0.4], &mut cache),
            scalar.forward_scalar(&[0.2, -0.4])
        );
    }

    #[test]
    fn backward_block_matches_backward_bitwise() {
        let mlp = Mlp::new(&[2, 6, 4, 1], Activation::Relu, 13);
        let mut grads = mlp.zero_gradients();
        let mut flat = vec![0.0; mlp.parameter_count()];
        let mut cache = BlockCache::default();
        let mut scratch = BackwardScratch::default();
        // Accumulate blocks of 1..=4 rows both ways; every intermediate
        // state must agree bit for bit.
        for k in 1..=4 {
            let input: Vec<f64> = (0..k).flat_map(|r| [0.4 - r as f64, 0.9]).collect();
            mlp.forward_block(&input, &mut cache);
            let g: Vec<f64> = cache.output().iter().map(|y| y - 0.5).collect();
            for (row, &gr) in input.chunks(2).zip(&g) {
                let reference = mlp.forward_cached(row);
                mlp.backward(&reference, &[gr], &mut grads);
            }
            mlp.backward_block(&cache, &g, &mut flat, &mut scratch);
            let reference: Vec<f64> = Mlp::flatten_gradients(&grads).collect();
            assert_eq!(reference, flat);
        }
    }

    #[test]
    fn relu_activation_clamps() {
        assert_eq!(Activation::Relu.evaluate(-1.0), 0.0);
        assert_eq!(Activation::Relu.evaluate(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(3.0), 1.0);
    }
}
