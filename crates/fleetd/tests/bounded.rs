//! Long-run bounds of the service loop: the job slab stays as small as
//! the peak number of outstanding jobs, and extreme tick arithmetic
//! saturates instead of overflowing.

use anubis_fleetd::{Coordinator, FleetdConfig};

#[test]
fn job_slab_is_bounded_by_peak_outstanding_jobs() {
    let cfg = FleetdConfig {
        nodes: 2000,
        shards: 8,
        ticks: 6000,
        ..FleetdConfig::default()
    };
    let mut fleet = Coordinator::new(cfg);
    let mut peak = 0usize;
    for _ in 0..6000 {
        fleet.step();
        peak = peak.max(fleet.outstanding_jobs());
    }
    let totals = fleet.totals();
    let slots = fleet.job_slots();
    assert!(
        totals.jobs_killed > 0,
        "killed jobs must exercise lapsed slots"
    );
    assert!(slots <= peak, "{slots} slots for a peak of {peak} jobs");
    assert!(
        (slots as u64) < totals.jobs_started / 10,
        "{slots} slots for {} jobs placed",
        totals.jobs_started
    );
}

#[test]
fn repair_ready_tick_saturates() {
    let cfg = FleetdConfig {
        nodes: 300,
        shards: 2,
        ticks: 80,
        repair_ticks: u32::MAX,
        ..FleetdConfig::default()
    };
    let mut fleet = Coordinator::new(cfg);
    let summary = fleet.run(80, |_| {});
    assert!(
        summary.defects_confirmed + summary.incident_quarantines > 0,
        "the run must quarantine nodes to schedule repairs"
    );
    assert_eq!(summary.repairs, 0, "a saturated repair never comes due");
}

#[test]
fn fleets_smaller_than_the_largest_job_still_place_jobs() {
    // The arrival mix draws jobs of up to 16 nodes. An oversize job is
    // dropped at admission instead of blocking the FIFO head forever.
    let cfg = FleetdConfig {
        nodes: 8,
        shards: 1,
        ticks: 2000,
        ..FleetdConfig::default()
    };
    let mut fleet = Coordinator::new(cfg);
    let totals = fleet.run(2000, |_| {});
    assert!(totals.jobs_started > 0, "no job placed on 8 nodes");
    assert!(totals.jobs_dropped > 0, "16-node jobs must be dropped");
}
