//! Mergeable empirical-CDF sketches.
//!
//! [`Ecdf`] is a batch structure: it sorts the whole sample up front and
//! answers queries against the sorted support. At fleet scale the Validator
//! re-derives criteria as results stream in, and per-shard distributions
//! must combine into fleet-wide criteria without re-sorting the world.
//! [`EcdfSketch`] fills that gap: an append-only ECDF accumulator with
//!
//! - amortized `O(log n)` append (a logarithmic merge structure: sorted
//!   runs whose lengths follow a binary-counter discipline, so an append
//!   cascades through at most `log n` run merges),
//! - `O(n + m)` merge of two sketches by a linear merge walk over their
//!   collapsed runs — no re-sort, and
//! - queries (`eval`, `quantile`, `min`, `max`) that are *observationally
//!   equivalent* to building [`Ecdf`] over the same multiset of values:
//!   they return bit-identical results, because every query reduces to
//!   multiset counts and order statistics, which do not depend on how the
//!   values are partitioned into runs.
//!
//! Run merges compare with [`f64::total_cmp`] — the same comparator
//! [`crate::Sample`] sorts with — so [`EcdfSketch::to_ecdf`] reproduces the
//! batch support byte-for-byte even in the presence of `-0.0`.

use crate::ecdf::Ecdf;
use crate::sample::Sample;

/// An append-only, mergeable empirical-CDF accumulator.
///
/// # Examples
///
/// ```
/// use anubis_metrics::{Ecdf, EcdfSketch, Sample};
///
/// let mut shard_a = EcdfSketch::new();
/// shard_a.append(2.0);
/// shard_a.append(1.0);
/// let mut shard_b = EcdfSketch::new();
/// shard_b.append(4.0);
/// shard_b.append(2.0);
/// shard_a.merge(&shard_b);
///
/// let batch = Ecdf::new(&Sample::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap());
/// assert_eq!(shard_a.eval(2.0), batch.eval(2.0));
/// assert_eq!(shard_a.quantile(0.5), Some(batch.quantile(0.5)));
/// assert_eq!(shard_a.to_ecdf(), batch);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EcdfSketch {
    /// Sorted runs. `runs[k]` is either empty or holds exactly `2^k`
    /// values, mirroring the bits of `len` — the classical logarithmic
    /// (binary-counter) merge structure.
    runs: Vec<Vec<f64>>,
    /// Total number of appended values.
    len: usize,
}

impl EcdfSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a sketch directly from a validated sample, reusing its
    /// already-sorted support as a single run (`O(n)`).
    pub fn from_sample(sample: &Sample) -> Self {
        Self {
            runs: vec![sample.sorted().to_vec()],
            len: sample.len(),
        }
    }

    /// Number of appended values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no value has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one measurement. Amortized `O(log n)`: the new singleton
    /// run is carried upward, merging with each occupied level, exactly
    /// like incrementing a binary counter.
    pub fn append(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "sketch values must be finite");
        self.len += 1;
        let mut carry = vec![value];
        for run in &mut self.runs {
            if run.is_empty() {
                *run = carry;
                return;
            }
            let occupant = std::mem::take(run);
            carry = merge_runs(&occupant, &carry);
        }
        self.runs.push(carry);
    }

    /// Appends every value of an iterator.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.append(v);
        }
    }

    /// Merges another sketch into this one **without re-sorting**: both
    /// sketches collapse their runs smallest-first (geometric run lengths
    /// make that `O(n)` / `O(m)` total) and a single linear merge walk
    /// combines the two collapsed runs — `O(n + m)` overall.
    pub fn merge(&mut self, other: &EcdfSketch) {
        if other.is_empty() {
            return;
        }
        let mine = self.collapsed();
        let theirs = other.collapsed();
        let merged = merge_runs(&mine, &theirs);
        self.len += other.len;
        self.runs.clear();
        self.runs.push(merged);
    }

    /// Merges any number of shard sketches into one fleet sketch, in the
    /// given order. Each part is collapsed once and the collapsed runs
    /// combine by balanced pairwise merging (`O(total · log parts)`), so
    /// merging a 64-shard fleet never re-sorts the world. The result is
    /// multiset-equal to appending every part's values into one sketch —
    /// and therefore (like [`EcdfSketch::merge`]) evaluates and
    /// quantile-queries identically regardless of how the fleet was
    /// partitioned.
    ///
    /// # Examples
    ///
    /// ```
    /// use anubis_metrics::EcdfSketch;
    ///
    /// let mut a = EcdfSketch::new();
    /// a.extend([3.0, 1.0]);
    /// let mut b = EcdfSketch::new();
    /// b.extend([2.0]);
    /// let fleet = EcdfSketch::merged([&a, &b]);
    /// assert_eq!(fleet.len(), 3);
    /// assert_eq!(fleet.quantile(0.5), Some(2.0));
    /// ```
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a EcdfSketch>) -> EcdfSketch {
        let mut runs: Vec<Vec<f64>> = parts
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(EcdfSketch::collapsed)
            .collect();
        if runs.is_empty() {
            return EcdfSketch::new();
        }
        // Balanced tournament: merge adjacent pairs until one run is left.
        while runs.len() > 1 {
            let mut next: Vec<Vec<f64>> = Vec::with_capacity(runs.len().div_ceil(2));
            let mut iter = runs.chunks_exact(2);
            for pair in iter.by_ref() {
                next.push(merge_runs(&pair[0], &pair[1]));
            }
            if let [odd] = iter.remainder() {
                next.push(odd.clone());
            }
            runs = next;
        }
        let merged = runs.swap_remove(0);
        let len = merged.len();
        EcdfSketch {
            runs: vec![merged],
            len,
        }
    }

    /// Evaluates `F(x)`, the fraction of values `<= x`. Bit-identical to
    /// [`Ecdf::eval`] on the same multiset: the count of values `<= x` is
    /// the sum of per-run counts regardless of partitioning.
    pub fn eval(&self, x: f64) -> f64 {
        let mut count = 0usize;
        for run in &self.runs {
            count += run.partition_point(|&v| v <= x);
        }
        count as f64 / self.len as f64
    }

    /// The quantile function, bit-identical to [`Ecdf::quantile`] on the
    /// same multiset: both return the `k`-th smallest value for the same
    /// `k`, and order statistics are a multiset property. `None` for an
    /// empty sketch. See [`EcdfSketch::quantile_of`].
    pub fn quantile(&self, p: f64) -> Option<f64> {
        Self::quantile_of(std::slice::from_ref(self), p)
    }

    /// The `p`-quantile of the union of `parts` (sketches, or anything
    /// holding one), read straight off their sorted runs without merging
    /// them: bit-identical to `EcdfSketch::merged(parts).quantile(p)`,
    /// with no allocation. `None` when every part is empty.
    ///
    /// The answer is the `k`-th smallest value in [`f64::total_cmp`]
    /// order, `k = ceil(p·n)` clamped to `1..=n` (the rank
    /// [`Ecdf::quantile`] uses). It is found by bisecting over the
    /// order-preserving `u64` image of the total order, counting the
    /// values at or below each probe with one `partition_point` per run:
    /// at most 64 steps of `O(runs · log run)` each, independent of how
    /// many samples the parts hold.
    ///
    /// # Examples
    ///
    /// ```
    /// use anubis_metrics::EcdfSketch;
    ///
    /// let mut a = EcdfSketch::new();
    /// a.extend([3.0, 1.0]);
    /// let mut b = EcdfSketch::new();
    /// b.extend([2.0]);
    /// assert_eq!(EcdfSketch::quantile_of(&[a, b], 0.5), Some(2.0));
    /// assert_eq!(EcdfSketch::quantile_of::<EcdfSketch>(&[], 0.5), None);
    /// ```
    pub fn quantile_of<S: AsRef<EcdfSketch>>(parts: &[S], p: f64) -> Option<f64> {
        let mut n = 0usize;
        for part in parts {
            n += part.as_ref().len;
        }
        if n == 0 {
            return None;
        }
        let k = ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        // Smallest key whose count of values at or below it reaches `k`.
        // The count only steps up at sample keys, so that key is the
        // `k`-th smallest sample's. Unsigned bounds: the midpoint of the
        // full range never overflows.
        let (mut lo, mut hi) = (0u64, u64::MAX);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let mut at_or_below = 0usize;
            for part in parts {
                for run in &part.as_ref().runs {
                    at_or_below += run.partition_point(|&v| order_key(v) <= mid);
                }
            }
            if at_or_below >= k {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(from_order_key(lo))
    }

    /// Smallest appended value.
    pub fn min(&self) -> f64 {
        let mut best = f64::INFINITY;
        for run in &self.runs {
            if let Some(&first) = run.first() {
                if first.total_cmp(&best).is_lt() {
                    best = first;
                }
            }
        }
        best
    }

    /// Largest appended value.
    pub fn max(&self) -> f64 {
        let mut best = f64::NEG_INFINITY;
        for run in &self.runs {
            if let Some(&last) = run.last() {
                if last.total_cmp(&best).is_gt() {
                    best = last;
                }
            }
        }
        best
    }

    /// Collapses all runs into one ascending vector. Run lengths are
    /// geometric, so merging smallest-first costs `O(n)` total.
    fn collapsed(&self) -> Vec<f64> {
        let mut acc: Vec<f64> = Vec::new();
        for run in self.runs.iter().filter(|r| !r.is_empty()) {
            if acc.is_empty() {
                acc.extend_from_slice(run);
            } else {
                acc = merge_runs(&acc, run);
            }
        }
        acc
    }

    /// Converts into a batch [`Ecdf`]. The collapsed runs are exactly the
    /// [`f64::total_cmp`]-sorted support [`Ecdf::new`] would build.
    pub fn to_ecdf(&self) -> Ecdf {
        Ecdf::from_sorted(self.collapsed())
    }

    /// Sorted support points with duplicates removed — the breakpoints of
    /// the step function, identical to [`Ecdf::breakpoints`].
    pub fn breakpoints(&self) -> Vec<f64> {
        let mut points = self.collapsed();
        points.dedup();
        points
    }
}

impl AsRef<EcdfSketch> for EcdfSketch {
    fn as_ref(&self) -> &EcdfSketch {
        self
    }
}

/// Maps `x` to a `u64` whose unsigned order is [`f64::total_cmp`]'s:
/// negative values have every bit flipped, the rest only the sign bit.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    f64::from_bits(bits)
}

/// Linear merge of two runs each sorted by [`f64::total_cmp`]; ties take
/// the left side first, which preserves the total order.
fn merge_runs(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a, b);
    while let (Some((&x, a_rest)), Some((&y, b_rest))) = (a.split_first(), b.split_first()) {
        if x.total_cmp(&y).is_le() {
            out.push(x);
            a = a_rest;
        } else {
            out.push(y);
            b = b_rest;
        }
    }
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: &[f64]) -> Sample {
        Sample::new(values.to_vec()).unwrap()
    }

    #[test]
    fn append_matches_batch_ecdf() {
        let values = [5.0, 1.0, 3.0, 3.0, 2.0, 8.0, 0.5];
        let mut sketch = EcdfSketch::new();
        sketch.extend(values.iter().copied());
        let batch = Ecdf::new(&sample(&values));
        assert_eq!(sketch.to_ecdf(), batch);
        for x in [0.0, 0.5, 1.5, 3.0, 8.0, 9.0] {
            assert_eq!(sketch.eval(x), batch.eval(x));
        }
        for p in [0.0, 0.1, 0.5, 0.99, 1.0] {
            assert_eq!(sketch.quantile(p), Some(batch.quantile(p)));
        }
        assert_eq!(sketch.min(), batch.min());
        assert_eq!(sketch.max(), batch.max());
        assert_eq!(sketch.breakpoints(), batch.breakpoints());
    }

    #[test]
    fn merge_matches_concatenated_batch() {
        let a = [4.0, 1.0, 7.0];
        let b = [2.0, 2.0, 9.0, 0.25];
        let mut sa = EcdfSketch::new();
        sa.extend(a.iter().copied());
        let mut sb = EcdfSketch::new();
        sb.extend(b.iter().copied());
        sa.merge(&sb);
        let mut all: Vec<f64> = a.to_vec();
        all.extend_from_slice(&b);
        let batch = Ecdf::new(&sample(&all));
        assert_eq!(sa.len(), 7);
        assert_eq!(sa.to_ecdf(), batch);
    }

    #[test]
    fn from_sample_seeds_a_single_run() {
        let s = sample(&[3.0, 1.0, 2.0]);
        let sketch = EcdfSketch::from_sample(&s);
        assert_eq!(sketch.len(), 3);
        assert_eq!(sketch.to_ecdf(), Ecdf::new(&s));
    }

    #[test]
    fn merge_into_empty_and_with_empty() {
        let mut empty = EcdfSketch::new();
        let mut other = EcdfSketch::new();
        other.append(1.0);
        empty.merge(&other);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.min(), 1.0);
        let before = empty.clone();
        empty.merge(&EcdfSketch::new());
        assert_eq!(empty, before);
    }

    #[test]
    fn merged_is_partition_invariant() {
        let values: Vec<f64> = (0..97).map(|i| ((i * 37) % 89) as f64 * 0.5).collect();
        let whole = {
            let mut s = EcdfSketch::new();
            s.extend(values.iter().copied());
            s
        };
        for parts in [1usize, 3, 8, 16] {
            let shards: Vec<EcdfSketch> = values
                .chunks(values.len().div_ceil(parts))
                .map(|chunk| {
                    let mut s = EcdfSketch::new();
                    s.extend(chunk.iter().copied());
                    s
                })
                .collect();
            let fleet = EcdfSketch::merged(shards.iter());
            assert_eq!(fleet.len(), whole.len());
            assert_eq!(fleet.to_ecdf(), whole.to_ecdf());
            for p in [0.01, 0.05, 0.5, 0.95, 1.0] {
                assert_eq!(fleet.quantile(p), whole.quantile(p), "{parts} parts, p={p}");
            }
        }
        assert!(EcdfSketch::merged([]).is_empty());
    }

    #[test]
    fn empty_sketch_has_no_quantile() {
        for p in [0.0, 0.5, 1.0] {
            assert_eq!(EcdfSketch::new().quantile(p), None);
            assert_eq!(EcdfSketch::quantile_of(&[EcdfSketch::new()], p), None);
        }
    }

    #[test]
    fn run_lengths_follow_binary_counter() {
        let mut sketch = EcdfSketch::new();
        sketch.extend((0..11).map(|i| i as f64));
        // 11 = 0b1011: runs of size 1, 2 and 8 occupied.
        let lens: Vec<usize> = sketch.runs.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![1, 2, 0, 8]);
    }
}
