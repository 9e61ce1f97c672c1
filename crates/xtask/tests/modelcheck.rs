//! The model checker over fleetd's coordinator: the default grid passes,
//! the report does not depend on the thread count, and each property is
//! reported — with a trace replayed from the initial state — when a
//! deliberately broken tick wrapper (defined only here) violates it.

use anubis_fleetd::{Coordinator, ShardReport, TickSummary};
use anubis_lifecycle::{LifecycleEvent, NodeState};
use anubis_xtask::modelcheck::{
    check, check_grid, default_grid, first_violation, render, CheckConfig, Phases, Property,
    SHIPPED,
};
use proptest::prelude::*;

/// A small fleet on which every broken wrapper below is caught quickly.
fn small() -> CheckConfig {
    CheckConfig {
        nodes: 3,
        repair_ticks: 1,
        validations_per_tick: 1,
        jobs: 1,
        risks: 2,
        incidents: 1,
        ticks: 6,
    }
}

fn nodes_where(coord: &Coordinator, pick: fn(NodeState) -> bool) -> Vec<usize> {
    (0..coord.table().len())
        .filter(|&node| coord.table().state(node).is_some_and(pick))
        .collect()
}

/// Marks the first healthy node busy with no job behind it.
fn end_then_occupy(coord: &mut Coordinator, proposals: &ShardReport) -> TickSummary {
    let summary = coord.end_tick(proposals);
    if let Some(&node) = nodes_where(coord, NodeState::is_healthy).first() {
        coord
            .table_mut()
            .apply_if_legal(node, LifecycleEvent::JobAssigned);
    }
    summary
}

/// Starts every suspect's validation, ignoring the cap.
fn end_then_validate_all(coord: &mut Coordinator, proposals: &ShardReport) -> TickSummary {
    let summary = coord.end_tick(proposals);
    for node in nodes_where(coord, NodeState::is_suspect) {
        coord
            .table_mut()
            .apply_if_legal(node, LifecycleEvent::ValidationStarted);
    }
    summary
}

/// Hides suspects from the validation pass: they are cleared before
/// `end_tick`, risk crossings are held back from it, and both are flagged
/// again afterwards.
fn end_hiding_suspects(coord: &mut Coordinator, proposals: &ShardReport) -> TickSummary {
    let mut flagged = nodes_where(coord, NodeState::is_suspect);
    for &node in &flagged {
        coord
            .table_mut()
            .apply_if_legal(node, LifecycleEvent::RiskCleared);
    }
    let mut shown = proposals.clone();
    shown.proposals.retain(|&(node, event)| {
        let crossed = event == LifecycleEvent::RiskCrossed;
        if crossed {
            flagged.push(node as usize);
        }
        !crossed
    });
    let summary = coord.end_tick(&shown);
    for node in flagged {
        coord
            .table_mut()
            .apply_if_legal(node, LifecycleEvent::RiskCrossed);
    }
    summary
}

/// Loses node 0's repair ticket: quarantines it behind the coordinator's
/// back, so it never returns and a fleet-sized job can never be placed.
fn end_stranding_node_zero(coord: &mut Coordinator, proposals: &ShardReport) -> TickSummary {
    let summary = coord.end_tick(proposals);
    if coord.table().state(0).is_some_and(NodeState::is_healthy) {
        for event in [
            LifecycleEvent::RiskCrossed,
            LifecycleEvent::ValidationStarted,
            LifecycleEvent::DefectConfirmed,
        ] {
            coord.table_mut().apply_if_legal(0, event);
        }
    }
    summary
}

/// Checks `small()` through a broken `end` and returns the rendered
/// counterexample after asserting it names `expected`.
fn caught(end: fn(&mut Coordinator, &ShardReport) -> TickSummary, expected: Property) -> String {
    let phases = Phases {
        begin: SHIPPED.begin,
        end,
    };
    let outcome = check(&small(), phases).expect("valid config");
    let violation = outcome
        .violation
        .expect("the broken wrapper must be caught");
    assert_eq!(violation.property, expected, "{violation}");
    assert!(
        violation
            .trace
            .first()
            .is_some_and(|step| step.starts_with("initial: 3 nodes healthy")),
        "{violation}"
    );
    assert!(violation.trace.len() >= 2, "{violation}");
    violation.to_string()
}

#[test]
fn the_default_grid_verifies_clean() {
    let results = check_grid(&default_grid(), SHIPPED, 2).expect("valid configs");
    assert!(first_violation(&results).is_none(), "{}", render(&results));
    for result in &results {
        assert!(
            result.outcome.states_explored > 100,
            "{:?}: {} states",
            result.config,
            result.outcome.states_explored
        );
    }
    assert!(
        default_grid().iter().any(|c| c.validations_per_tick == 1),
        "the grid must include a binding validation cap"
    );
}

#[test]
fn the_report_is_identical_at_one_and_four_threads() {
    // Four configurations: enough to spread over four workers while
    // keeping the test's peak memory (every worker holds a search
    // frontier of coordinators) modest.
    let grid = &default_grid()[..4];
    let one = check_grid(grid, SHIPPED, 1).expect("valid");
    let four = check_grid(grid, SHIPPED, 4).expect("valid");
    assert_eq!(render(&one), render(&four));
}

#[test]
fn a_busy_node_without_a_job_breaks_no_validation_while_serving() {
    let text = caught(end_then_occupy, Property::NoValidationWhileServing);
    assert!(text.contains("node 0 is busy"), "{text}");
}

#[test]
fn validations_past_the_cap_break_the_validation_budget() {
    let text = caught(end_then_validate_all, Property::ValidationBudget);
    assert!(text.contains("above the cap of 1"), "{text}");
}

#[test]
fn hidden_suspects_break_eventual_validation() {
    let text = caught(end_hiding_suspects, Property::EventualValidation);
    assert!(text.contains("is left suspect"), "{text}");
    assert!(text.contains("settled state"), "{text}");
}

#[test]
fn a_stranded_node_breaks_eventual_placement() {
    let text = caught(end_stranding_node_zero, Property::EventualPlacement);
    assert!(text.contains("pending forever"), "{text}");
    assert!(text.contains("a job of 3 node(s)"), "{text}");
}

#[test]
fn unusable_configurations_are_errors() {
    for nodes in [0, 9] {
        let cfg = CheckConfig { nodes, ..small() };
        assert!(check(&cfg, SHIPPED).is_err(), "{nodes} nodes");
    }
}

fn arb_config() -> impl Strategy<Value = CheckConfig> {
    (
        (3u32..=5, 1u32..=2, 0u32..=2),
        (0u8..=2, 0u8..=2, 0u8..=1, 2u32..=8),
    )
        .prop_map(
            |((nodes, repair_ticks, validations_per_tick), (jobs, risks, incidents, ticks))| {
                CheckConfig {
                    nodes,
                    repair_ticks,
                    validations_per_tick,
                    jobs,
                    risks,
                    incidents,
                    ticks,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// fleetd's coordinator holds every property on random small grids,
    /// not just the default one.
    #[test]
    fn shipped_coordinator_holds_on_random_grids(cfg in arb_config()) {
        let outcome = check(&cfg, SHIPPED).unwrap();
        prop_assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        prop_assert!(outcome.states_explored >= 1);
    }
}
