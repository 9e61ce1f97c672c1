//! Property-based harnesses driving the lifecycle machine through
//! randomized event streams. `cargo xtask modelcheck` checks the
//! coordinator built on this machine (`anubis-fleetd`); its own proptest
//! lives with the checker in `anubis-xtask`.

use anubis_lifecycle::{transition, LifecycleEvent, NodeLifecycle, NodeState};
use proptest::prelude::*;

const ALL_STATES: [NodeState; 6] = [
    NodeState::Healthy,
    NodeState::Busy,
    NodeState::Suspect,
    NodeState::Validating,
    NodeState::Quarantined,
    NodeState::Repaired,
];

const ALL_EVENTS: [LifecycleEvent; 10] = [
    LifecycleEvent::RiskCrossed,
    LifecycleEvent::RiskCleared,
    LifecycleEvent::JobAssigned,
    LifecycleEvent::JobCompleted,
    LifecycleEvent::ValidationStarted,
    LifecycleEvent::ValidationPassed,
    LifecycleEvent::DefectConfirmed,
    LifecycleEvent::IncidentObserved,
    LifecycleEvent::RepairCompleted,
    LifecycleEvent::ReturnedToService,
];

fn arb_event() -> impl Strategy<Value = LifecycleEvent> {
    (0usize..ALL_EVENTS.len()).prop_map(|i| ALL_EVENTS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any event stream applied through `NodeLifecycle` keeps the node in
    /// a reachable, well-defined state, and every rejected event leaves
    /// the state untouched.
    #[test]
    fn random_event_streams_never_corrupt_state(
        events in prop::collection::vec(arb_event(), 0..64)
    ) {
        let mut life = NodeLifecycle::new();
        for event in events {
            let before = life.state();
            match life.apply(event) {
                Ok(next) => {
                    prop_assert_eq!(next, life.state());
                    // The wrapper agrees with the bare transition function.
                    prop_assert_eq!(transition(before, event), Ok(next));
                }
                Err(err) => {
                    prop_assert_eq!(life.state(), before);
                    prop_assert_eq!(err.from, before);
                    prop_assert_eq!(err.event, event);
                }
            }
        }
    }

    /// Discipline property 2 at the machine level: `ValidationStarted`
    /// succeeds from `Suspect` and from nowhere else — in particular never
    /// from `Busy` (no validation on a node serving a job).
    #[test]
    fn validation_only_starts_on_suspects(state_index in 0usize..6) {
        let state = ALL_STATES[state_index];
        let outcome = transition(state, LifecycleEvent::ValidationStarted);
        prop_assert_eq!(outcome.is_ok(), state.is_suspect());
    }

    /// Jobs only land on healthy nodes: a crossed threshold (`Suspect`)
    /// can never be skipped by scheduling work onto the node.
    #[test]
    fn jobs_only_land_on_healthy_nodes(state_index in 0usize..6) {
        let state = ALL_STATES[state_index];
        let outcome = transition(state, LifecycleEvent::JobAssigned);
        prop_assert_eq!(outcome.is_ok(), state.is_healthy());
    }

    /// `in_service` is invariant under legal transitions in the sense the
    /// capacity property needs: only `ValidationStarted` and
    /// `IncidentObserved` take a node out of service, and only
    /// `ValidationPassed` and `ReturnedToService` bring one back.
    #[test]
    fn service_membership_changes_only_at_known_events(
        state_index in 0usize..6,
        event_index in 0usize..10,
    ) {
        let state = ALL_STATES[state_index];
        let event = ALL_EVENTS[event_index];
        if let Ok(next) = transition(state, event) {
            if state.in_service() && !next.in_service() {
                prop_assert!(matches!(
                    event,
                    LifecycleEvent::ValidationStarted | LifecycleEvent::IncidentObserved
                ));
            }
            if !state.in_service() && next.in_service() {
                prop_assert!(matches!(
                    event,
                    LifecycleEvent::ValidationPassed | LifecycleEvent::ReturnedToService
                ));
            }
        }
    }
}
