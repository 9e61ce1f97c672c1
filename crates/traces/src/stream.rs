//! Streaming, shard-partitionable event sources for the fleetd service.
//!
//! The batch generators in [`crate::incident`] and [`crate::allocation`]
//! materialize a whole trace up front from one sequential RNG — fine for
//! a one-shot `repro` pass, unusable for a long-running control plane
//! over 100k+ nodes, and (worse) *partition-dependent*: splitting the
//! node range across shards would change which draws each node sees.
//!
//! This module fixes both properties:
//!
//! - [`ShardIncidentSource`] generates each node's incident process from
//!   a **per-node RNG stream** seeded by `mix(seed, node)`. A node's
//!   event sequence is therefore a pure function of `(seed, node)` —
//!   independent of how the fleet is partitioned into shards and of how
//!   the polling windows are chosen. That invariance is what lets
//!   `anubis-fleetd` promise byte-identical output across shard counts.
//! - [`AllocationStream`] is the coordinator-side job-arrival stream:
//!   one global Poisson process pulled tick by tick instead of a
//!   materialized trace.
//! - [`shard_ranges`] is the canonical contiguous partitioner: shard `s`
//!   owns a contiguous node range, ranges ascend with `s`, and sizes
//!   differ by at most one. Concatenating per-shard results in shard
//!   order therefore yields global node order.

use crate::allocation::AllocationConfig;
use crate::incident::{IncidentEvent, SourceMix, TicketDurationModel};
use anubis_hwsim::noise::{exponential, log_normal};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Splits `0..nodes` into `shards` contiguous ranges in ascending order;
/// sizes differ by at most one (the first `nodes % shards` ranges get the
/// extra node). `shards` is clamped to `1..=nodes.max(1)`.
pub fn shard_ranges(nodes: u32, shards: u32) -> Vec<Range<u32>> {
    let shards = shards.clamp(1, nodes.max(1));
    let base = nodes.checked_div(shards).unwrap_or(nodes);
    let extra = nodes.checked_rem(shards).unwrap_or(0);
    let mut ranges = Vec::with_capacity(shards as usize);
    let mut lo = 0u32;
    for s in 0..shards {
        let len = base + u32::from(s < extra);
        ranges.push(lo..lo + len);
        lo += len;
    }
    ranges
}

/// SplitMix64 finalizer: decorrelates per-node seeds derived from one
/// fleet seed so adjacent nodes get unrelated ChaCha streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seed of a node's private RNG stream. `stream` distinguishes
/// independent streams on the same node (incident process, benchmark
/// noise, …).
pub fn node_stream_seed(seed: u64, node: u32, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(u64::from(node).wrapping_add(stream << 32)))
}

/// Configuration of the streaming incident source — the statistical
/// knobs of [`crate::IncidentTraceConfig`] minus the batch-only fields,
/// plus a hazard cap so long-running services reach a bounded steady
/// state instead of a wear singularity.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentStreamConfig {
    /// Mean time to a fresh node's first incident, in hours.
    pub base_mtbi_hours: f64,
    /// Hazard growth per accumulated incident (partial repair leaves
    /// wear behind).
    pub wear_factor: f64,
    /// Accumulated-incident count beyond which the hazard stops growing.
    pub wear_cap: u32,
    /// Log-scale spread of per-node frailty (lemon nodes).
    pub frailty_sigma: f64,
    /// Fleet seed; per-node streams derive from it via
    /// [`node_stream_seed`].
    pub seed: u64,
}

impl Default for IncidentStreamConfig {
    fn default() -> Self {
        Self {
            base_mtbi_hours: 719.4,
            wear_factor: (719.4f64 / 151.7).powf(1.0 / 19.0),
            wear_cap: 12,
            frailty_sigma: 0.5,
            seed: 42,
        }
    }
}

/// One node's private incident-process state.
#[derive(Debug, Clone)]
struct NodeStream {
    /// The node's private RNG; every draw for this node comes from here.
    rng: ChaCha8Rng,
    /// Per-node frailty multiplier (lemon nodes fail more).
    frailty: f64,
    /// Absolute hour of the next incident.
    next_hour: f64,
    /// Accumulated incidents since the last full repair.
    wear: u32,
}

/// Streaming incident source for one contiguous shard of the fleet.
///
/// Each node's inter-incident gaps are exponential with hazard
/// `frailty × γ^min(k, cap) / base_mtbi` after `k` incidents, mirroring
/// the batch generator's accumulating-wear model (Section 2.2 of the
/// paper), but drawn from the node's own RNG stream so the sequence is
/// partition- and window-invariant.
#[derive(Debug, Clone)]
pub struct ShardIncidentSource {
    config: IncidentStreamConfig,
    range: Range<u32>,
    streams: Vec<NodeStream>,
    mix: SourceMix,
    tickets: TicketDurationModel,
}

impl ShardIncidentSource {
    /// Creates the source for the nodes in `range` (typically one entry
    /// of [`shard_ranges`]).
    pub fn new(config: &IncidentStreamConfig, range: Range<u32>) -> Self {
        let mut streams = Vec::with_capacity(range.len());
        for node in range.clone() {
            let mut rng = ChaCha8Rng::seed_from_u64(node_stream_seed(config.seed, node, 0));
            let frailty = log_normal(&mut rng, 0.0, config.frailty_sigma);
            let rate = frailty / config.base_mtbi_hours.max(1e-9);
            let next_hour = exponential(&mut rng, rate);
            streams.push(NodeStream {
                rng,
                frailty,
                next_hour,
                wear: 0,
            });
        }
        Self {
            config: config.clone(),
            range,
            streams,
            mix: SourceMix::azure_like(),
            tickets: TicketDurationModel::figure2(),
        }
    }

    /// The node range this source owns.
    pub fn range(&self) -> Range<u32> {
        self.range.clone()
    }

    /// Current hazard rate of a node (incidents per hour).
    fn rate(config: &IncidentStreamConfig, stream: &NodeStream) -> f64 {
        let k = stream.wear.min(config.wear_cap);
        stream.frailty * config.wear_factor.powi(k as i32) / config.base_mtbi_hours.max(1e-9)
    }

    /// Appends every incident of `node` with `start_hour < until_hour`
    /// to `out`, advancing the node's stream. Events arrive in start-hour
    /// order; repeated polling with growing windows never re-emits.
    pub fn poll_node(&mut self, node: u32, until_hour: f64, out: &mut Vec<IncidentEvent>) {
        let Some(stream) = node
            .checked_sub(self.range.start)
            .and_then(|i| self.streams.get_mut(i as usize))
        else {
            return;
        };
        while stream.next_hour < until_hour {
            let start_hour = stream.next_hour;
            // Path calls: the call graph resolves `.sample()` by name only.
            let ticket_hours = TicketDurationModel::sample(&self.tickets, &mut stream.rng);
            let category = SourceMix::sample(&self.mix, &mut stream.rng);
            out.push(IncidentEvent {
                node,
                start_hour,
                ticket_hours,
                category,
            });
            stream.wear = stream.wear.saturating_add(1);
            let rate = Self::rate(&self.config, stream);
            let gap = exponential(&mut stream.rng, rate);
            stream.next_hour = start_hour + gap;
        }
    }

    /// Resets a node's accumulated wear after a full repair: subsequent
    /// gaps are drawn at the fresh-node hazard again. The already-sampled
    /// next incident time is kept (the draw happened under the old
    /// hazard), so the reset never re-randomizes the past.
    pub fn reset_wear(&mut self, node: u32) {
        if let Some(stream) = node
            .checked_sub(self.range.start)
            .and_then(|i| self.streams.get_mut(i as usize))
        {
            stream.wear = 0;
        }
    }
}

/// Streaming Poisson job-arrival source (the coordinator-side twin of
/// [`crate::generate_allocation_trace`]): arrivals are pulled tick by
/// tick from one global RNG instead of materialized up front, and the
/// trace never ends.
#[derive(Debug, Clone)]
pub struct AllocationStream {
    config: AllocationConfig,
    rng: ChaCha8Rng,
    next_hour: f64,
}

/// One streamed job arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobArrival {
    /// Submission time in hours.
    pub submit_hour: f64,
    /// Requested node count.
    pub nodes: u32,
    /// Requested duration in hours.
    pub duration_hours: f64,
}

impl AllocationStream {
    /// Creates the stream; `config.duration_hours` is ignored (the
    /// stream is unbounded).
    pub fn new(config: &AllocationConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let rate = 1.0 / config.mean_interarrival_hours.max(1e-9);
        let next_hour = exponential(&mut rng, rate);
        Self {
            config: config.clone(),
            rng,
            next_hour,
        }
    }

    /// Appends every arrival with `submit_hour < until_hour` to `out`,
    /// advancing the stream.
    pub fn poll(&mut self, until_hour: f64, out: &mut Vec<JobArrival>) {
        let rate = 1.0 / self.config.mean_interarrival_hours.max(1e-9);
        while self.next_hour < until_hour {
            let submit_hour = self.next_hour;
            let nodes = sample_size(&self.config.size_mix, &mut self.rng);
            let duration_hours = log_normal(
                &mut self.rng,
                self.config.duration_mu,
                self.config.duration_sigma,
            )
            .clamp(0.5, 168.0);
            out.push(JobArrival {
                submit_hour,
                nodes,
                duration_hours,
            });
            self.next_hour = submit_hour + exponential(&mut self.rng, rate);
        }
    }
}

/// Samples a job size proportionally to the mix weights.
fn sample_size(mix: &[(u32, f64)], rng: &mut ChaCha8Rng) -> u32 {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let mut target = rng.random_range(0.0..total);
    for &(size, weight) in mix {
        if target < weight {
            return size;
        }
        target -= weight;
    }
    mix.last().map_or(1, |&(s, _)| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_and_ascend() {
        for (nodes, shards) in [(10u32, 3u32), (100, 16), (5, 8), (1, 1), (7, 7)] {
            let ranges = shard_ranges(nodes, shards);
            let mut expect = 0u32;
            for r in &ranges {
                assert_eq!(r.start, expect, "ranges must be contiguous and ascending");
                assert!(r.end >= r.start);
                assert!(r.len() as u32 <= nodes / shards.min(nodes.max(1)) + 1);
                expect = r.end;
            }
            assert_eq!(expect, nodes, "ranges must cover every node");
        }
    }

    fn collect_events(
        config: &IncidentStreamConfig,
        shards: u32,
        nodes: u32,
    ) -> Vec<IncidentEvent> {
        let mut all = Vec::new();
        for range in shard_ranges(nodes, shards) {
            let mut source = ShardIncidentSource::new(config, range.clone());
            for node in range {
                source.poll_node(node, 2000.0, &mut all);
            }
        }
        all
    }

    #[test]
    fn incident_stream_is_partition_invariant() {
        let config = IncidentStreamConfig {
            base_mtbi_hours: 120.0,
            ..Default::default()
        };
        let one = collect_events(&config, 1, 64);
        let four = collect_events(&config, 4, 64);
        let sixteen = collect_events(&config, 16, 64);
        assert!(!one.is_empty());
        assert_eq!(one, four, "1 vs 4 shards must generate identical events");
        assert_eq!(
            one, sixteen,
            "1 vs 16 shards must generate identical events"
        );
    }

    #[test]
    fn incident_stream_is_window_invariant() {
        let config = IncidentStreamConfig {
            base_mtbi_hours: 80.0,
            ..Default::default()
        };
        let mut whole = Vec::new();
        let mut source = ShardIncidentSource::new(&config, 0..8);
        for node in 0..8 {
            source.poll_node(node, 1000.0, &mut whole);
        }

        let mut stepped = Vec::new();
        let mut source = ShardIncidentSource::new(&config, 0..8);
        for window in 0..100 {
            let until = f64::from(window + 1) * 10.0;
            for node in 0..8 {
                source.poll_node(node, until, &mut stepped);
            }
        }
        // Same multiset, different interleaving: compare per node.
        for node in 0..8u32 {
            let a: Vec<&IncidentEvent> = whole.iter().filter(|e| e.node == node).collect();
            let b: Vec<&IncidentEvent> = stepped.iter().filter(|e| e.node == node).collect();
            assert_eq!(a, b, "windowing must not change node {node}'s events");
        }
    }

    #[test]
    fn reset_wear_lowers_the_hazard_back() {
        let config = IncidentStreamConfig {
            base_mtbi_hours: 50.0,
            wear_factor: 2.0,
            ..Default::default()
        };
        let mut source = ShardIncidentSource::new(&config, 0..1);
        let mut events = Vec::new();
        source.poll_node(0, 500.0, &mut events);
        let worn_rate = ShardIncidentSource::rate(&source.config, &source.streams[0]);
        source.reset_wear(0);
        let fresh_rate = ShardIncidentSource::rate(&source.config, &source.streams[0]);
        if !events.is_empty() {
            assert!(fresh_rate < worn_rate, "reset must drop the hazard");
        }
        assert_eq!(source.streams[0].wear, 0);
    }

    #[test]
    fn allocation_stream_is_window_invariant() {
        let config = AllocationConfig::stressed(256);
        let mut whole = Vec::new();
        AllocationStream::new(&config).poll(300.0, &mut whole);
        let mut stepped = Vec::new();
        let mut stream = AllocationStream::new(&config);
        for window in 0..300 {
            stream.poll(f64::from(window + 1), &mut stepped);
        }
        assert!(!whole.is_empty());
        assert_eq!(whole, stepped);
    }
}
