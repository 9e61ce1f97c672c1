//! The `fleetd-wide` and `fleetd-long` workloads: `Coordinator::new`,
//! then `Coordinator::step` in a closed loop, each tick issued after the
//! previous one returns.

use crate::stats::{mean, median, quantile, ratio, Digest};
use crate::trace::Clock;
use crate::{
    cpu_timed, executor_call_us, metric, proc_status_mb, repeat_episodes, time_setups, Outcome,
    Timed,
};
use anubis_fleetd::{Coordinator, FleetdConfig, ShardWorker, TickContext};
use anubis_metrics::EcdfSketch;

/// The size of one fleetd workload.
#[derive(Debug)]
pub struct Shape {
    /// Fleet size.
    pub nodes: u32,
    /// Shard workers.
    pub shards: u32,
    /// Ticks per episode.
    pub ticks: u32,
    /// In the traced run, every this many ticks the shard phase is
    /// re-run on clones to time `ShardWorker::tick`.
    pub shard_probe_every: u32,
    /// In the traced run, every this many merge ticks the sketch merge is
    /// re-run to time `EcdfSketch::merged`.
    pub merge_probe_every: u32,
}

/// Per-node work dominates: parallel shard ticks and O(fleet) serial
/// scans.
pub const WIDE: Shape = Shape {
    nodes: 100_000,
    shards: 16,
    ticks: 500,
    shard_probe_every: 25,
    merge_probe_every: 5,
};

/// Per-tick fixed cost and the cost of history dominate.
pub const LONG: Shape = Shape {
    nodes: 2_000,
    shards: 8,
    ticks: 6000,
    shard_probe_every: 100,
    merge_probe_every: 10,
};

/// Sums of the per-tick summaries, compared against the coordinator's
/// own run totals.
#[derive(Debug, Default)]
struct Sums {
    ticks: u32,
    incidents: u64,
    samples: u64,
    proposals: u64,
    validations: u64,
    defects_confirmed: u64,
    incident_quarantines: u64,
    repairs: u64,
    jobs_started: u64,
    jobs_completed: u64,
    jobs_killed: u64,
    jobs_dropped: u64,
}

/// What the traced episodes measured, by module.
#[derive(Debug, Default)]
struct LayerSamples {
    setup: Vec<f64>,
    steps: Vec<f64>,
    plain: Vec<f64>,
    merge: Vec<f64>,
    late_early: Vec<f64>,
    shard_tick: Vec<f64>,
    sketch_merge: Vec<f64>,
    rss_slope: Vec<f64>,
    sketch_samples: f64,
    episodes: f64,
}

fn context(coord: &Coordinator) -> TickContext {
    let cfg = coord.config();
    let tick = coord.tick_index();
    TickContext {
        tick,
        t0: f64::from(tick) * cfg.tick_hours,
        t1: f64::from(tick + 1) * cfg.tick_hours,
        horizon_hours: cfg.horizon_hours,
        risk_threshold: cfg.risk_threshold,
        criteria_threshold: coord.criteria_threshold(),
        cooldown_ticks: cfg.cooldown_ticks,
    }
}

/// Runs one fleetd workload for `seconds`.
pub fn run(shape: &Shape, seed: u64, seconds: f64, clock: &mut Clock) -> Outcome {
    let cfg = FleetdConfig {
        nodes: shape.nodes,
        shards: shape.shards,
        ticks: shape.ticks,
        seed,
        ..FleetdConfig::default()
    };
    let merge_every = cfg.merge_every_ticks.max(1);
    let mut out = Outcome::default();
    let setup = |clock: &mut Clock| {
        let ((coord, _), cpu) = cpu_timed(|| {
            clock.time("fleetd", "Coordinator::new", || {
                Coordinator::new(cfg.clone())
            })
        });
        (coord, cpu)
    };
    let mut layer = LayerSamples::default();
    let mut last = Sums::default();

    let episodes = repeat_episodes(clock, seconds, |clock| {
        let traced = clock.recording();
        out.setup_s.extend(time_setups(|| setup(clock).1));
        let (mut coord, setup) = setup(clock);
        out.setup_s.push(setup);
        let cpu_start = crate::cpu_seconds();
        let mut steps = Vec::with_capacity(shape.ticks as usize);
        let mut sums = Sums::default();
        let mut digest = Digest::new();
        let mut line = String::new();
        let mut rss = Vec::new();
        for t in 0..shape.ticks {
            let merge_tick = (t + 1) % merge_every == 0;
            // Probe inputs are copied before the step so the probe sees
            // the state the shards saw; the measured coordinator is never
            // touched by a probe.
            let probe = (traced && (t + 1) % shape.shard_probe_every == 0).then(|| {
                (
                    coord.shards().to_vec(),
                    coord.table().states().to_vec(),
                    context(&coord),
                )
            });
            let (tick, dt) = clock.time("fleetd", "Coordinator::step", || coord.step());
            steps.push(dt);
            out.check(tick.counts.total() == shape.nodes as usize && tick.tick == t);
            sums.ticks += 1;
            sums.incidents += tick.incidents as u64;
            sums.samples += tick.samples as u64;
            sums.proposals += tick.proposals as u64;
            sums.validations += u64::from(tick.validations_started);
            sums.defects_confirmed += tick.defects_confirmed as u64;
            sums.incident_quarantines += tick.incident_quarantines as u64;
            sums.repairs += tick.repairs_completed as u64;
            sums.jobs_started += tick.jobs_started as u64;
            sums.jobs_completed += tick.jobs_completed as u64;
            sums.jobs_killed += tick.jobs_killed as u64;
            sums.jobs_dropped += tick.jobs_dropped as u64;
            line.clear();
            tick.write_jsonl(&mut line);
            digest.update(line.as_bytes());
            if !traced {
                continue;
            }
            if merge_tick {
                layer.merge.push(dt);
            } else {
                layer.plain.push(dt);
            }
            if let Some((mut shards, states, ctx)) = probe {
                let (_, d) = clock.time("probe", "ShardWorker::tick", || {
                    for shard in &mut shards {
                        shard.tick(&ctx, &states, &[]);
                    }
                });
                layer.shard_tick.push(d);
            }
            if merge_tick && ((t + 1) / merge_every).is_multiple_of(shape.merge_probe_every) {
                let (_, d) = clock.time("probe", "EcdfSketch::merged", || {
                    let merged = EcdfSketch::merged(coord.shards().iter().map(ShardWorker::sketch));
                    std::hint::black_box(merged.quantile(cfg.defect_quantile))
                });
                layer.sketch_merge.push(d);
            }
            if (t + 1) % (shape.ticks / 4).max(1) == 0 {
                rss.push((f64::from(t + 1), proc_status_mb("VmRSS")));
            }
        }

        let totals = coord.totals();
        let agree = totals.ticks == sums.ticks
            && totals.incidents == sums.incidents
            && totals.samples == sums.samples
            && totals.validations == sums.validations
            && totals.defects_confirmed == sums.defects_confirmed
            && totals.incident_quarantines == sums.incident_quarantines
            && totals.repairs == sums.repairs
            && totals.jobs_started == sums.jobs_started
            && totals.jobs_completed == sums.jobs_completed
            && totals.jobs_killed == sums.jobs_killed
            && totals.jobs_dropped == sums.jobs_dropped;
        out.check(agree);
        digest.update(totals.render().as_bytes());
        out.digests.push(digest.value());
        out.quality = ratio(
            totals.jobs_completed as f64,
            (totals.jobs_completed + totals.jobs_killed) as f64,
        );

        let wall: f64 = steps.iter().sum();
        if traced {
            layer.setup.push(setup);
            let tenth = steps.len() / 10;
            layer.late_early.push(ratio(
                mean(&steps[steps.len() - tenth..]),
                mean(&steps[..tenth]),
            ));
            if let (Some(first), Some(end)) = (rss.first(), rss.last()) {
                layer
                    .rss_slope
                    .push(ratio(end.1 - first.1, end.0 - first.0) * 1000.0);
            }
            layer.sketch_samples = coord.shards().iter().map(|s| s.sketch().len() as f64).sum();
            layer.steps.extend(&steps);
            layer.episodes += 1.0;
        }
        last = sums;
        Some(Timed {
            wall,
            cpu: crate::cpu_seconds() - cpu_start,
            ops: steps,
            rss_mb: proc_status_mb("VmRSS"),
        })
    });
    out.episodes = episodes;
    let pooled = out.pooled_ops();

    let node_ticks = f64::from(shape.nodes) * f64::from(shape.ticks);
    out.detail = vec![
        metric(
            "node_ticks_per_s",
            ratio(node_ticks, out.episode_median(|e| e.timed.wall)),
            "1/s",
        ),
        metric("tick_p50_ms", quantile(&pooled, 0.50) * 1e3, "ms"),
        metric("tick_p99_ms", quantile(&pooled, 0.99) * 1e3, "ms"),
        metric("jobs_completed_share", out.quality, "ratio"),
        metric("validations", last.validations as f64, "count"),
        metric(
            "quarantines",
            (last.defects_confirmed + last.incident_quarantines) as f64,
            "count",
        ),
    ];
    if clock.recording() {
        let threads = anubis_parallel::auto_threads() as f64;
        let plain = median(&layer.plain) * 1e3;
        let shard_tick = median(&layer.shard_tick) * 1e3;
        let call_us = executor_call_us(shape.shards as usize, 200);
        let s = &last;
        out.layers = vec![
            metric("fleetd.step_plain_ms", plain, "ms"),
            metric("fleetd.step_merge_ms", median(&layer.merge) * 1e3, "ms"),
            metric(
                "fleetd.late_early_ratio",
                median(&layer.late_early),
                "ratio",
            ),
            metric("fleetd.shard_tick_ms", shard_tick, "ms"),
            metric("fleetd.serial_ms_est", plain - shard_tick / threads, "ms"),
            metric(
                "metrics.sketch_merge_ms",
                median(&layer.sketch_merge) * 1e3,
                "ms",
            ),
            metric("metrics.sketch_samples", layer.sketch_samples, "count"),
            metric("fleetd.rss_mb_per_1k_ticks", median(&layer.rss_slope), "MB"),
            metric("parallel.call_us", call_us, "us"),
            metric("traces.incidents", s.incidents as f64, "count"),
            metric("fleetd.samples", s.samples as f64, "count"),
            metric("lifecycle.proposals", s.proposals as f64, "count"),
            metric("fleetd.validations", s.validations as f64, "count"),
            metric("fleetd.jobs_started", s.jobs_started as f64, "count"),
            metric("fleetd.jobs_dropped", s.jobs_dropped as f64, "count"),
            metric(
                "lifecycle.quarantines",
                (s.defects_confirmed + s.incident_quarantines) as f64,
                "count",
            ),
        ];
        out.tiers = crate::Tiers {
            inputs_ms: median(&layer.setup) * 1e3,
            decision_p50_ms: median(&layer.steps) * 1e3,
            compute_p50_ms: shard_tick,
            statistics_p50_ms: median(&layer.sketch_merge) * 1e3,
            refresh_p50_ms: median(&layer.merge) * 1e3,
            executor_call_us: call_us,
            work_items: node_ticks * layer.episodes,
        };
    }
    out
}
