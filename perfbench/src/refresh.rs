//! The `selector-refresh` workload: a cold Cox-Time fit on a generated
//! incident trace, then rounds of Selector decisions (`assess` +
//! `select` on groups of 1–8 nodes) each followed by a warm `refit` on
//! newly observed samples.

use crate::stats::{median, ratio, Digest, SplitMix};
use crate::trace::Clock;
use crate::{cpu_timed, executor_call_us, metric, repeat_episodes, time_setups, Outcome, Timed};
use anubis_benchsuite::BenchmarkId;
use anubis_lifecycle::LifecycleEvent;
use anubis_selector::{
    concordance_index, CoverageTable, CoxTimeConfig, CoxTimeModel, CoxTimeTrainer, NodeStatus,
    Selector, SelectorConfig, SurvivalSample,
};
use anubis_traces::{generate_incident_trace, IncidentTraceConfig};

/// Nodes in the generated incident trace.
const TRACE_NODES: u32 = 300;
/// Survival-sample snapshot grid, hours.
const GRID_HOURS: f64 = 96.0;
/// Training samples in the cold fit.
const COLD_SAMPLES: usize = 4000;
/// Epochs of the cold fit.
const EPOCHS: usize = 10;
/// Query-then-refit rounds per episode.
const ROUNDS: usize = 4;
/// Selector decisions per round.
const QUERIES: usize = 250;
/// New samples absorbed by each refit.
const DELTA: usize = 500;
/// Epochs of each warm refit.
const REFIT_EPOCHS: usize = 2;
/// Risk horizon of a decision, hours (the Selector's default).
const HORIZON_HOURS: f64 = 24.0;
/// Held-out events scored by the C-index.
const C_INDEX_EVENTS: usize = 1500;

/// The inputs built from the seed.
struct Inputs {
    train: Vec<SurvivalSample>,
    test: Vec<SurvivalSample>,
    samples: usize,
}

/// Generates the trace and its survival samples; returns the split
/// samples with the CPU seconds spent.
fn setup(clock: &mut Clock, seed: u64) -> (Inputs, f64) {
    let ((samples, _), cpu) = cpu_timed(|| {
        clock.time("traces", "generate_incident_trace+survival_samples", || {
            generate_incident_trace(&IncidentTraceConfig {
                nodes: TRACE_NODES,
                seed,
                ..IncidentTraceConfig::default()
            })
            .survival_samples(GRID_HOURS)
        })
    });
    let count = samples.len();
    let (mut train, mut test) = (Vec::new(), Vec::new());
    for (i, s) in samples.into_iter().enumerate() {
        if i % 5 == 4 {
            test.push(s);
        } else {
            train.push(s);
        }
    }
    let inputs = Inputs {
        train,
        test,
        samples: count,
    };
    (inputs, cpu)
}

/// A seeded defect history: 500 defects, each found by one benchmark
/// (skewed toward the front of the suite) and sometimes by a second.
fn coverage(seed: u64) -> CoverageTable {
    let mut rng = SplitMix::new(seed ^ 0xc0de_4a6e);
    let mut table = CoverageTable::new();
    let n = BenchmarkId::ALL.len();
    for defect in 0..500u64 {
        let first = rng.below(n).min(rng.below(n));
        table.record(BenchmarkId::ALL[first], defect);
        if rng.below(10) < 3 {
            table.record(BenchmarkId::ALL[rng.below(n)], defect);
        }
    }
    table
}

/// Query groups: 1–8 node statuses drawn from the held-out samples.
fn groups(seed: u64, test: &[SurvivalSample]) -> Vec<Vec<NodeStatus>> {
    let mut rng = SplitMix::new(seed ^ 0x9e0_0b5);
    (0..ROUNDS * QUERIES)
        .map(|_| {
            let size = 1 + rng.below(8);
            (0..size)
                .map(|_| test[rng.below(test.len())].status)
                .collect()
        })
        .collect()
}

/// What the traced episodes measured, by module.
#[derive(Debug, Default)]
struct LayerSamples {
    setup: Vec<f64>,
    ingest: Vec<f64>,
    epochs: Vec<f64>,
    finish: Vec<f64>,
    refit: Vec<f64>,
    assess: Vec<f64>,
    select: Vec<f64>,
    query: Vec<f64>,
    picks: Vec<f64>,
    samples: f64,
}

/// Runs the Selector-refresh workload for `seconds`.
pub fn run(seed: u64, seconds: f64, clock: &mut Clock) -> Outcome {
    let mut out = Outcome::default();
    let config = CoxTimeConfig {
        seed,
        ..CoxTimeConfig::default()
    };
    let history = coverage(seed);
    let mut layer = LayerSamples::default();
    let mut fits = Vec::new();
    let mut c_index = 0.0;

    let episodes = repeat_episodes(clock, seconds, |clock| {
        let traced = clock.recording();
        out.setup_s.extend(time_setups(|| setup(clock, seed).1));
        let (inputs, setup_s) = setup(clock, seed);
        out.setup_s.push(setup_s);
        let needed = COLD_SAMPLES + ROUNDS * DELTA;
        if inputs.train.len() < needed || inputs.test.is_empty() {
            println!(
                "trace too small: {} training samples, {needed} needed",
                inputs.train.len()
            );
            out.check(false);
            return None;
        }
        let queries = groups(seed, &inputs.test);
        let cpu_start = crate::cpu_seconds();
        let mut digest = Digest::new();

        // Cold fit. The traced run trains one epoch per call, which the
        // trainer documents as equal to one multi-epoch call.
        clock.enter("perfbench", "cold_fit");
        let mut trainer = CoxTimeTrainer::new(config.clone());
        let (_, t_ingest) = clock.time("selector", "CoxTimeTrainer::ingest", || {
            trainer.ingest(&inputs.train[..COLD_SAMPLES]);
        });
        let mut t_train = 0.0;
        let mut trained = true;
        if traced {
            for _ in 0..EPOCHS {
                let (r, d) = clock.time("selector", "CoxTimeTrainer::train", || trainer.train(1));
                trained &= r.is_ok();
                t_train += d;
                layer.epochs.push(d);
            }
        } else {
            let (r, d) = clock.time("selector", "CoxTimeTrainer::train", || {
                trainer.train(EPOCHS)
            });
            trained = r.is_ok();
            t_train = d;
        }
        out.check(trained);
        let (model, t_finish) =
            clock.time("selector", "CoxTimeTrainer::finish", || trainer.finish());
        clock.exit();
        let mut model: CoxTimeModel = match model {
            Ok(model) => model,
            Err(e) => {
                println!("cold fit failed: {e}");
                out.check(false);
                return None;
            }
        };
        out.check(true);
        let fit_s = t_ingest + t_train + t_finish;
        let mut wall = fit_s;

        let mut picks_total = 0usize;
        let mut ops = Vec::with_capacity(queries.len());
        for round in 0..ROUNDS {
            let selector = Selector::new(
                Box::new(model.clone()),
                history.clone(),
                SelectorConfig::default(),
            );
            for group in &queries[round * QUERIES..(round + 1) * QUERIES] {
                let ((event, picks), dt) = if traced {
                    let (event, a) = clock.time("selector", "Selector::assess", || {
                        selector.assess(group, HORIZON_HOURS)
                    });
                    let (picks, s) = clock.time("selector", "Selector::select", || {
                        selector.select(group, HORIZON_HOURS)
                    });
                    layer.assess.push(a);
                    layer.select.push(s);
                    layer.query.push(a + s);
                    ((event, picks), a + s)
                } else {
                    clock.time("selector", "Selector::assess+select", || {
                        (
                            selector.assess(group, HORIZON_HOURS),
                            selector.select(group, HORIZON_HOURS),
                        )
                    })
                };
                wall += dt;
                ops.push(dt);
                let p = selector.incident_probability(group, HORIZON_HOURS);
                let crossed = event == LifecycleEvent::RiskCrossed;
                out.check(
                    p.is_finite() && (0.0..=1.0).contains(&p) && (!crossed || !picks.is_empty()),
                );
                picks_total += picks.len();
                digest.update(&[u8::from(crossed), picks.len() as u8]);
                for bench in &picks {
                    digest.update(bench.spec().name.as_bytes());
                }
            }
            let lo = COLD_SAMPLES + round * DELTA;
            let (refit, dt) = clock.time("selector", "CoxTimeTrainer::refit", || {
                trainer.refit(&inputs.train[lo..lo + DELTA], REFIT_EPOCHS)
            });
            wall += dt;
            out.check(refit.is_ok());
            if let Ok(refit) = refit {
                model = refit;
            }
            if traced {
                layer.refit.push(dt);
                let (r, d) = clock.time("probe", "CoxTimeTrainer::finish", || trainer.finish());
                out.check(r.is_ok());
                layer.finish.push(d);
            }
        }

        let cpu = crate::cpu_seconds() - cpu_start;
        let scored: Vec<SurvivalSample> = inputs
            .test
            .iter()
            .filter(|s| s.event)
            .step_by((inputs.test.len() / C_INDEX_EVENTS).max(1))
            .cloned()
            .collect();
        c_index = concordance_index(&model, &scored);
        out.check(c_index.is_finite() && c_index > 0.0);
        digest.update(&c_index.to_bits().to_le_bytes());
        out.digests.push(digest.value());
        if traced {
            layer.setup.push(setup_s);
            layer.ingest.push(t_ingest);
            layer.finish.push(t_finish);
            layer
                .picks
                .push(ratio(picks_total as f64, queries.len() as f64));
            layer.samples = inputs.samples as f64;
        } else {
            fits.push(fit_s);
        }
        Some(Timed {
            wall,
            cpu,
            ops,
            rss_mb: crate::proc_status_mb("VmRSS"),
        })
    });
    out.episodes = episodes;
    let pooled = out.pooled_ops();

    out.quality = c_index;
    out.detail = vec![
        metric("fit_s", median(&fits), "s"),
        metric(
            "query_p50_us",
            crate::stats::quantile(&pooled, 0.50) * 1e6,
            "us",
        ),
        metric(
            "query_p99_us",
            crate::stats::quantile(&pooled, 0.99) * 1e6,
            "us",
        ),
        metric("c_index", c_index, "ratio"),
    ];
    if clock.recording() {
        let call_us = executor_call_us(config.batch_size.div_ceil(8), 200);
        out.layers = vec![
            metric("traces.survival_samples", layer.samples, "count"),
            metric("traces.generate_ms", median(&layer.setup) * 1e3, "ms"),
            metric("selector.ingest_ms", median(&layer.ingest) * 1e3, "ms"),
            metric("selector.epoch_ms_p50", median(&layer.epochs) * 1e3, "ms"),
            metric(
                "selector.epoch_ms_max",
                crate::stats::quantile(&layer.epochs, 1.0) * 1e3,
                "ms",
            ),
            metric("selector.finish_ms", median(&layer.finish) * 1e3, "ms"),
            metric("selector.refit_ms", median(&layer.refit) * 1e3, "ms"),
            metric("selector.assess_us_p50", median(&layer.assess) * 1e6, "us"),
            metric("selector.select_us_p50", median(&layer.select) * 1e6, "us"),
            metric("selector.picks_per_query", median(&layer.picks), "count"),
            metric("parallel.call_us", call_us, "us"),
        ];
        out.tiers = crate::Tiers {
            inputs_ms: median(&layer.setup) * 1e3,
            decision_p50_ms: median(&layer.query) * 1e3,
            compute_p50_ms: median(&layer.epochs) * 1e3,
            statistics_p50_ms: median(&layer.finish) * 1e3,
            refresh_p50_ms: median(&layer.refit) * 1e3,
            executor_call_us: call_us,
            work_items: layer.query.len() as f64,
        };
    }
    out
}
