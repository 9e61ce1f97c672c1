//! Gray-failure lifecycle: wear, hidden damage, and continuous validation.
//!
//! Drives six months in the life of a 24-node fleet through fleetd's
//! [`Coordinator`]: incidents wear nodes down and can leave hidden
//! degradation, the per-shard Selector flags nodes whose incident risk
//! crosses the threshold, validation benchmarks score them against the
//! learned fleet criteria, and confirmed defects go to repair. The run
//! prints, per month, what validation caught, the lifecycle census at the
//! month's end, and how much hidden damage is still in the fleet.
//!
//! ```text
//! cargo run --release --example gray_failure_lifecycle
//! ```

use anubis_fleetd::{Coordinator, FleetdConfig};

/// Virtual hours per tick.
const TICK_HOURS: f64 = 6.0;
/// Ticks per 30-day month.
const MONTH_TICKS: u32 = 120;

fn main() {
    let cfg = FleetdConfig {
        nodes: 24,
        shards: 2,
        tick_hours: TICK_HOURS,
        seed: 77,
        min_criteria_samples: 32,
        ..FleetdConfig::default()
    };
    let nodes = cfg.nodes;
    let mut fleet = Coordinator::new(cfg);

    println!(
        "month | incidents | validated | defects | incident q. | repairs | \
         healthy busy suspect validating in repair | damaged | worst"
    );
    println!(
        "------+-----------+-----------+---------+-------------+---------+-\
         -----------------------------------------+---------+------"
    );
    for month in 1..=6 {
        let (mut incidents, mut validated, mut defects, mut quarantines, mut repairs) =
            (0, 0, 0, 0, 0);
        for _ in 0..MONTH_TICKS {
            let tick = fleet.step();
            incidents += tick.incidents;
            validated += tick.validations_started;
            defects += tick.defects_confirmed;
            quarantines += tick.incident_quarantines;
            repairs += tick.repairs_completed;
        }
        let c = fleet.table().counts();
        // Hidden damage lives in the shards, invisible to the coordinator
        // until a benchmark exposes it.
        let damage: Vec<f64> = fleet
            .shards()
            .iter()
            .flat_map(|shard| shard.range().map(|node| shard.degradation_of(node)))
            .collect();
        let damaged = damage.iter().filter(|&&d| d > 0.0).count();
        let worst = damage.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0);
        println!(
            "{month:>5} | {incidents:>9} | {validated:>9} | {defects:>7} | {quarantines:>11} | {repairs:>7} | \
             {:>7} {:>4} {:>7} {:>10} {:>9} | {damaged:>7} | {:>4.0}%",
            c.healthy,
            c.busy,
            c.suspect,
            c.validating,
            c.quarantined + c.repaired,
            worst * 100.0
        );
    }

    let totals = fleet.totals();
    println!(
        "\ndefects confirmed by validation over 6 months: {} (plus {} incident quarantines)",
        totals.defects_confirmed, totals.incident_quarantines
    );
    match totals.criteria_threshold {
        Some(t) => println!("learned defect criteria: score >= {t:.2} (nominal 100)"),
        None => println!("defect criteria: still in build-out"),
    }
    println!(
        "simulated hours: {} across {nodes} nodes",
        f64::from(totals.ticks) * TICK_HOURS
    );
}
