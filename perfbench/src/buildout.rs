//! The `buildout` workload: a fresh build-out fleet goes through the
//! Validator's quality gate (full benchmark set over the whole fleet,
//! criteria learned by Algorithm 2, data filtered), then through regular
//! checks with the learned criteria, one pod of the fat tree per
//! `validate` call — the node group a job allocation or a scheduled
//! check hands the Validator.

use crate::stats::{median, ratio, Digest};
use crate::trace::Clock;
use crate::{cpu_timed, executor_call_us, metric, repeat_episodes, time_setups, Outcome, Timed};
use anubis_benchsuite::{run_benchmark, run_benchmark_multi, BenchmarkId, Phase};
use anubis_hwsim::{NodeId, NodeSim};
use anubis_netsim::{FatTree, FatTreeConfig};
use anubis_traces::{generate_buildout_fleet, BuildoutConfig};
use anubis_validator::{calculate_criteria, Validator, ValidatorConfig};
use std::collections::BTreeMap;

/// Fleet size: a multiple of [`POD`], which `FatTreeConfig::small`
/// requires.
const NODES: u32 = 200;

/// Nodes per pod of `FatTreeConfig::small` (4 per ToR, 2 ToRs per pod):
/// the node group of one regular-check `validate` call.
const POD: usize = 8;

/// Regular-check passes over the whole fleet per episode.
const PASSES: usize = 8;

/// Detection counts against the simulator's ground truth.
#[derive(Debug, Default, Clone, Copy)]
struct Score {
    flagged: u64,
    true_positives: u64,
    false_positives: u64,
    misses: u64,
}

impl Score {
    /// Scores one verdict on `node`, judged when it is given.
    fn add(&mut self, node: &NodeSim, flagged: bool) {
        let defective = node.has_detectable_defect();
        self.flagged += u64::from(flagged);
        self.true_positives += u64::from(flagged && defective);
        self.false_positives += u64::from(flagged && !defective);
        self.misses += u64::from(!flagged && defective);
    }

    fn recall(&self) -> f64 {
        ratio(
            self.true_positives as f64,
            (self.true_positives + self.misses) as f64,
        )
    }

    fn precision(&self) -> f64 {
        ratio(self.true_positives as f64, self.flagged as f64)
    }
}

/// Folds a flagged set into the digest: node ids with the benchmarks
/// that flagged them, in ascending order.
fn digest_flagged(digest: &mut Digest, flagged: &BTreeMap<NodeId, Vec<BenchmarkId>>) {
    for (node, benches) in flagged {
        digest.update(&node.0.to_le_bytes());
        for bench in benches {
            digest.update(bench.spec().name.as_bytes());
        }
    }
    digest.update(b";");
}

/// Builds the fleet and its fabric; returns them with the CPU seconds
/// spent.
fn setup(clock: &mut Clock, seed: u64) -> (Vec<NodeSim>, Result<FatTree, String>, f64) {
    let ((fleet, fabric), cpu) = cpu_timed(|| {
        let (fleet, _) = clock.time("traces", "generate_buildout_fleet", || {
            generate_buildout_fleet(&BuildoutConfig { vms: NODES, seed })
        });
        let (fabric, _) = clock.time("netsim", "FatTree::build", || {
            FatTree::build(FatTreeConfig::small(NODES as usize)).map_err(|e| e.to_string())
        });
        (fleet, fabric)
    });
    (fleet, fabric, cpu)
}

/// What the traced episodes measured, by module.
#[derive(Debug, Default)]
struct LayerSamples {
    setup: Vec<f64>,
    validate: Vec<f64>,
    learn: Vec<f64>,
    filter: Vec<f64>,
    pod_validate: Vec<f64>,
    criteria: Vec<f64>,
    single_node: Vec<f64>,
    multi_node: Vec<f64>,
    samples: f64,
    episodes: f64,
}

/// Times the layers under one regular check on clones of the fleet:
/// per-pod single-node benchmark runs, per-pod multi-node runs, and
/// Algorithm 2 on each benchmark's bootstrap rows.
fn probe(
    clock: &mut Clock,
    fleet: &[NodeSim],
    fabric: &FatTree,
    data: &anubis_benchsuite::RunData,
    layer: &mut LayerSamples,
) -> bool {
    let mut ok = true;
    for rows in data.results.values() {
        let samples: Vec<_> = rows.iter().map(|(_, s)| s.clone()).collect();
        let (r, d) = clock.time("probe", "calculate_criteria", || {
            calculate_criteria(
                &samples,
                ValidatorConfig::default().alpha,
                ValidatorConfig::default().centroid,
            )
        });
        ok &= r.is_ok();
        layer.criteria.push(d);
    }
    let mut clone = fleet.to_vec();
    let members: Vec<usize> = (0..clone.len()).collect();
    for (pod, pod_members) in clone.chunks_mut(POD).zip(members.chunks(POD)) {
        let (r, d) = clock.time("probe", "run_benchmark", || {
            let mut ok = true;
            for bench in BenchmarkId::ALL
                .iter()
                .filter(|b| b.spec().phase == Phase::SingleNode)
            {
                for node in pod.iter_mut() {
                    ok &= run_benchmark(*bench, node).is_ok();
                }
            }
            ok
        });
        ok &= r;
        layer.single_node.push(d);
        let (r, d) = clock.time("probe", "run_benchmark_multi", || {
            let mut ok = true;
            for bench in BenchmarkId::ALL
                .iter()
                .filter(|b| b.spec().phase == Phase::MultiNode)
            {
                ok &= run_benchmark_multi(*bench, pod, pod_members, fabric).is_ok();
            }
            ok
        });
        ok &= r;
        layer.multi_node.push(d);
    }
    ok
}

/// Runs the build-out workload for `seconds`.
pub fn run(seed: u64, seconds: f64, clock: &mut Clock) -> Outcome {
    let mut out = Outcome::default();
    let mut layer = LayerSamples::default();
    let mut bootstrap = Vec::new();
    let mut recheck = Vec::new();
    let mut score = Score::default();

    let episodes = repeat_episodes(clock, seconds, |clock| {
        let traced = clock.recording();
        out.setup_s.extend(time_setups(|| setup(clock, seed).2));
        let (mut fleet, fabric, setup_s) = setup(clock, seed);
        out.setup_s.push(setup_s);
        let fabric = match fabric {
            Ok(fabric) => fabric,
            Err(e) => {
                println!("FatTree::build failed: {e}");
                out.check(false);
                return None;
            }
        };
        let members: Vec<usize> = (0..fleet.len()).collect();
        let cpu_start = crate::cpu_seconds();
        let mut validator = Validator::new(ValidatorConfig::default());
        let mut digest = Digest::new();
        let mut episode_score = Score::default();

        // Quality gate: full set, criteria learned from this run.
        clock.enter("perfbench", "bootstrap");
        let (report, t_validate) = clock.time("validator", "Validator::validate", || {
            validator.validate(&BenchmarkId::ALL, &mut fleet, &members, Some(&fabric))
        });
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                clock.exit();
                println!("bootstrap validate failed: {e}");
                out.check(false);
                return None;
            }
        };
        out.check(true);
        let (learned, t_learn) = clock.time("validator", "Validator::learn_criteria", || {
            validator.learn_criteria(&report.data)
        });
        out.check(learned.is_ok());
        let (outcome, t_filter) = clock.time("validator", "Validator::filter_data", || {
            validator.filter_data(&report.data)
        });
        clock.exit();
        for node in &fleet {
            episode_score.add(node, outcome.flagged.contains_key(&node.id()));
        }
        digest_flagged(&mut digest, &outcome.flagged);
        let mut wall = t_validate + t_learn + t_filter;
        if traced {
            layer.setup.push(setup_s);
            layer.validate.push(t_validate);
            layer.learn.push(t_learn);
            layer.filter.push(t_filter);
            layer.samples = report.data.results.values().map(|r| r.len() as f64).sum();
            let ok = probe(clock, &fleet, &fabric, &report.data, &mut layer);
            out.check(ok);
        } else {
            bootstrap.push(t_validate + t_learn + t_filter);
        }

        // Regular checks with the learned criteria, pod by pod.
        let mut ops = Vec::with_capacity(PASSES * fleet.len().div_ceil(POD));
        for _ in 0..PASSES {
            let mut pass_s = 0.0;
            for (pod, pod_members) in fleet.chunks_mut(POD).zip(members.chunks(POD)) {
                let (report, dt) = clock.time("validator", "Validator::validate", || {
                    validator.validate(&BenchmarkId::ALL, pod, pod_members, Some(&fabric))
                });
                pass_s += dt;
                out.check(report.is_ok());
                if let Ok(report) = report {
                    for node in pod.iter() {
                        episode_score.add(node, report.flagged.contains_key(&node.id()));
                    }
                    digest_flagged(&mut digest, &report.flagged);
                }
                ops.push(dt);
            }
            wall += pass_s;
            if !traced {
                recheck.push(pass_s);
            }
        }
        out.digests.push(digest.value());
        score = episode_score;
        if traced {
            layer.pod_validate.extend(&ops);
            layer.episodes += 1.0;
        }
        Some(Timed {
            wall,
            cpu: crate::cpu_seconds() - cpu_start,
            ops,
            rss_mb: crate::proc_status_mb("VmRSS"),
        })
    });
    out.episodes = episodes;

    let recall = score.recall();
    let precision = score.precision();
    out.quality = recall;
    out.detail = vec![
        metric(
            "nodes_validated_per_s",
            ratio(f64::from(NODES), median(&bootstrap)),
            "1/s",
        ),
        metric("recheck_s", median(&recheck), "s"),
        metric("defect_recall", recall, "ratio"),
        metric("defect_precision", precision, "ratio"),
        metric(
            "defect_f1",
            ratio(2.0 * recall * precision, recall + precision),
            "ratio",
        ),
    ];
    if clock.recording() {
        let call_us = executor_call_us(NODES as usize, 200);
        out.layers = vec![
            metric("validator.validate_s", median(&layer.validate), "s"),
            metric("validator.learn_criteria_s", median(&layer.learn), "s"),
            metric(
                "validator.criteria_ms_p50",
                median(&layer.criteria) * 1e3,
                "ms",
            ),
            metric(
                "validator.criteria_ms_max",
                crate::stats::quantile(&layer.criteria, 1.0) * 1e3,
                "ms",
            ),
            metric("validator.filter_ms", median(&layer.filter) * 1e3, "ms"),
            metric(
                "validator.pod_validate_ms",
                median(&layer.pod_validate) * 1e3,
                "ms",
            ),
            metric(
                "benchsuite.single_node_ms",
                median(&layer.single_node) * 1e3,
                "ms",
            ),
            metric(
                "netsim.multi_node_ms",
                median(&layer.multi_node) * 1e3,
                "ms",
            ),
            metric("parallel.call_us", call_us, "us"),
            metric("validator.samples", layer.samples, "count"),
            metric("validator.flagged", score.flagged as f64, "count"),
            metric(
                "validator.true_positives",
                score.true_positives as f64,
                "count",
            ),
            metric(
                "validator.false_positives",
                score.false_positives as f64,
                "count",
            ),
        ];
        out.tiers = crate::Tiers {
            inputs_ms: median(&layer.setup) * 1e3,
            decision_p50_ms: median(&layer.pod_validate) * 1e3,
            compute_p50_ms: median(&layer.single_node) * 1e3,
            statistics_p50_ms: median(&layer.criteria) * 1e3,
            refresh_p50_ms: median(&layer.learn) * 1e3,
            executor_call_us: call_us,
            work_items: f64::from(NODES) * (1 + PASSES) as f64 * layer.episodes,
        };
    }
    out
}
