//! `cargo xtask modelcheck` — exhaustive verification of the coordinator
//! fleetd ships.
//!
//! The checker drives real [`Coordinator`]s over small fleets (3–5 nodes,
//! one shard). One search edge is one tick: the environment chooses the
//! arrival handed to [`Coordinator::begin_tick`] (none, or one job of
//! `1..=nodes + 1` nodes lasting 1–2 ticks), then for every node one
//! proposal [`anubis_fleetd::ShardWorker::tick`] can emit in that node's
//! state, handed to [`Coordinator::end_tick`]: nothing or `RiskCrossed`
//! when healthy, nothing or `IncidentObserved` when busy, and exactly one
//! of `ValidationPassed`, `DefectConfirmed` or `IncidentObserved` when
//! validating. Job, risk and incident budgets make the state space finite;
//! a tick budget bounds the depth. States are deduplicated on the decision
//! state (lifecycle states, live jobs and their members, due and repair
//! ticks relative to the current tick, the pending queue) plus the budgets
//! left. The search is breadth-first, so a violation comes with a shortest
//! counterexample, replayed tick by tick from the initial state.
//!
//! Properties, checked on the coordinator's own state:
//!
//! 1. `no-validation-while-serving`, after every tick: every busy node
//!    belongs to exactly one live job and `job_of` names it; no node in any
//!    other state is a job member or has a `job_of` entry.
//! 2. `validation-budget`, after every tick: at most
//!    [`FleetdConfig::validation_cap`] nodes are validating. Every node that
//!    was validating got a verdict this tick, so these are the tick's starts.
//! 3. `eventual-validation` and 4. `eventual-placement`, in every *settled*
//!    state — one where a tick with no arrival and no proposal changes
//!    nothing: no node is suspect or validating, and no job is pending.
//!
//! Configurations run concurrently on the deterministic executor
//! ([`anubis_parallel::map_items`]), so the report is independent of the
//! thread count.

use anubis_fleetd::{Coordinator, FleetdConfig, ShardReport, TickSummary};
use anubis_lifecycle::{LifecycleEvent, NodeState};
use anubis_parallel::map_items;
use anubis_traces::JobArrival;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;

/// Bounds of one checked fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Fleet size (1–8 nodes; the grid uses 3–5).
    pub nodes: u32,
    /// Ticks a quarantined node spends in repair.
    pub repair_ticks: u32,
    /// fleetd's validations-per-tick knob (`0` = its automatic cap).
    pub validations_per_tick: u32,
    /// Job arrivals the environment may make in total.
    pub jobs: u8,
    /// `RiskCrossed` proposals the environment may make in total.
    pub risks: u8,
    /// `IncidentObserved` proposals the environment may make in total.
    pub incidents: u8,
    /// Longest explored run, in ticks.
    pub ticks: u32,
}

impl CheckConfig {
    /// The fleetd configuration under check: one shard, one thread,
    /// everything else at fleetd's defaults.
    fn fleet(&self) -> FleetdConfig {
        FleetdConfig {
            nodes: self.nodes,
            shards: 1,
            threads: 1,
            repair_ticks: self.repair_ticks,
            validations_per_tick: self.validations_per_tick,
            ..FleetdConfig::default()
        }
    }
}

/// The verification grid: 3–5 nodes, each with a binding validation cap
/// of 1 and with fleetd's automatic cap, and repairs of 1–2 ticks. Sized to
/// finish in a few seconds.
pub fn default_grid() -> Vec<CheckConfig> {
    [
        (3, 1, 1, 3, 3, 2),
        (3, 2, 0, 3, 3, 2),
        (4, 2, 1, 2, 3, 1),
        (4, 1, 0, 3, 2, 2),
        (5, 1, 1, 2, 2, 1),
        (5, 2, 0, 2, 2, 2),
    ]
    .into_iter()
    .map(
        |(nodes, repair_ticks, validations_per_tick, jobs, risks, incidents)| CheckConfig {
            nodes,
            repair_ticks,
            validations_per_tick,
            jobs,
            risks,
            incidents,
            ticks: 16,
        },
    )
    .collect()
}

/// The two halves of a tick the checker drives. [`SHIPPED`] is fleetd's
/// own; tests substitute deliberately broken wrappers to show the checker
/// reports each property.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Phases 1–3: repairs, job completion, admission and placement.
    pub begin: fn(&mut Coordinator, &[JobArrival]),
    /// Phases 5–7: proposals, validation starts, criteria refresh.
    pub end: fn(&mut Coordinator, &ShardReport) -> TickSummary,
}

/// fleetd's tick, exactly as [`Coordinator::step`] runs it.
pub const SHIPPED: Phases = Phases {
    begin: Coordinator::begin_tick,
    end: Coordinator::end_tick,
};

/// The checked properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// Busy nodes and the job table agree; no validating node serves.
    NoValidationWhileServing,
    /// No tick starts more validations than the cap.
    ValidationBudget,
    /// No node is left suspect or validating in a settled state.
    EventualValidation,
    /// No job is left pending in a settled state.
    EventualPlacement,
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::NoValidationWhileServing => "no-validation-while-serving",
            Self::ValidationBudget => "validation-budget",
            Self::EventualValidation => "eventual-validation",
            Self::EventualPlacement => "eventual-placement",
        })
    }
}

/// A property violation with the run that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which property failed.
    pub property: Property,
    /// What exactly is wrong in the final state.
    pub detail: String,
    /// Human-readable replay of every tick from the initial state.
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "property violated: {}", self.property)?;
        writeln!(f, "  {}", self.detail)?;
        writeln!(f, "counterexample trace ({} steps):", self.trace.len())?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {step}", i.saturating_add(1))?;
        }
        Ok(())
    }
}

/// Result of one exhaustive run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Distinct states visited.
    pub states_explored: usize,
    /// Ticks explored (edges).
    pub transitions: usize,
    /// First violation found, if any (breadth-first, so a shortest
    /// counterexample).
    pub violation: Option<Violation>,
}

/// What the environment has left to spend: jobs, risks, incidents.
type Budgets = [u8; 3];

/// The environment's move for one tick.
#[derive(Debug, Clone)]
struct Choice {
    arrival: Option<JobArrival>,
    report: ShardReport,
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arrival {
            Some(job) => write!(
                f,
                "a job of {} node(s) for {} tick(s) arrives",
                job.nodes, job.duration_hours
            )?,
            None => f.write_str("no arrival")?,
        }
        if self.report.proposals.is_empty() {
            return f.write_str("; no proposals");
        }
        f.write_str("; proposals:")?;
        for (node, event) in &self.report.proposals {
            write!(f, " node {node} {event}")?;
        }
        Ok(())
    }
}

/// The dedup key: decision state relative to the current tick, plus the
/// budgets left.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    states: Vec<NodeState>,
    /// Live jobs as (ticks until due, members), sorted.
    jobs: Vec<(u32, Vec<u32>)>,
    /// Pending jobs as (nodes, duration bits), in FIFO order.
    pending: Vec<(u32, u64)>,
    /// Repairs as (ticks until ready, node), in queue order.
    repairs: Vec<(u32, u32)>,
    budgets: Budgets,
}

fn key(coord: &Coordinator, budgets: Budgets) -> Key {
    let tick = coord.tick_index();
    let mut jobs: Vec<(u32, Vec<u32>)> = coord
        .live_jobs()
        .map(|(due, _, members)| (due.saturating_sub(tick), members.to_vec()))
        .collect();
    jobs.sort_unstable();
    Key {
        states: coord.table().states().to_vec(),
        jobs,
        pending: coord
            .pending()
            .map(|job| (job.nodes, job.duration_hours.to_bits()))
            .collect(),
        repairs: coord
            .repairs()
            .map(|(ready, node)| (ready.saturating_sub(tick), node))
            .collect(),
        budgets,
    }
}

/// The arrivals the environment may choose, each with the budgets it
/// leaves.
fn arrivals(nodes: u32, [jobs, risks, incidents]: Budgets) -> Vec<(Option<JobArrival>, Budgets)> {
    let mut out = vec![(None, [jobs, risks, incidents])];
    if let Some(jobs) = jobs.checked_sub(1) {
        for size in 1..=nodes.saturating_add(1) {
            for hours in [1.0, 2.0] {
                let job = JobArrival {
                    submit_hour: 0.0,
                    nodes: size,
                    duration_hours: hours,
                };
                out.push((Some(job), [jobs, risks, incidents]));
            }
        }
    }
    out
}

/// The reports a shard could emit for `states`, each with the budgets it
/// leaves.
fn reports(states: &[NodeState], budgets: Budgets) -> Vec<(ShardReport, Budgets)> {
    use LifecycleEvent as E;
    let mut sets = vec![(ShardReport::default(), budgets)];
    for (node, state) in (0u32..).zip(states) {
        let options: &[Option<E>] = if state.is_validating() {
            &[
                Some(E::ValidationPassed),
                Some(E::DefectConfirmed),
                Some(E::IncidentObserved),
            ]
        } else if state.is_healthy() {
            &[None, Some(E::RiskCrossed)]
        } else if state.is_busy() {
            &[None, Some(E::IncidentObserved)]
        } else {
            &[None]
        };
        sets = sets
            .into_iter()
            .flat_map(|(report, [jobs, risks, incidents])| {
                options.iter().filter_map(move |&event| {
                    let left = match event {
                        Some(E::RiskCrossed) => [jobs, risks.checked_sub(1)?, incidents],
                        Some(E::IncidentObserved) => [jobs, risks, incidents.checked_sub(1)?],
                        _ => [jobs, risks, incidents],
                    };
                    let mut report = report.clone();
                    if let Some(event) = event {
                        report.proposals.push((node, event));
                        match event {
                            E::IncidentObserved => report.incidents += 1,
                            E::ValidationPassed | E::DefectConfirmed => report.samples += 1,
                            _ => {}
                        }
                    }
                    Some((report, left))
                })
            })
            .collect();
    }
    sets
}

/// The per-tick safety properties.
fn safety_violation(coord: &Coordinator) -> Option<(Property, String)> {
    let jobs: Vec<(u32, &[u32])> = coord.live_jobs().map(|(_, id, m)| (id, m)).collect();
    for (node, state) in (0u32..).zip(coord.table().states()) {
        let holders: Vec<u32> = jobs
            .iter()
            .filter(|(_, members)| members.contains(&node))
            .map(|(id, _)| *id)
            .collect();
        let job_of = coord.job_of(node);
        let consistent = if state.is_busy() {
            holders.len() == 1 && job_of == holders.first().copied()
        } else {
            holders.is_empty() && job_of.is_none()
        };
        if !consistent {
            let detail = format!(
                "node {node} is {state} but is a member of live job(s) {holders:?} \
                 and job_of names {job_of:?}"
            );
            return Some((Property::NoValidationWhileServing, detail));
        }
    }
    let cap = coord.config().validation_cap();
    let started = coord.table().counts().validating;
    (started > cap as usize).then(|| {
        let detail = format!("the tick started {started} validations, above the cap of {cap}");
        (Property::ValidationBudget, detail)
    })
}

/// The liveness properties, on a settled state.
fn liveness_violation(coord: &Coordinator) -> Option<(Property, String)> {
    let states = coord.table().states();
    if let Some((node, state)) = (0u32..)
        .zip(states)
        .find(|(_, s)| s.is_suspect() || s.is_validating())
    {
        let detail = format!("settled state: node {node} is left {state} and never validated");
        return Some((Property::EventualValidation, detail));
    }
    coord.pending().next().map(|head| {
        let detail = format!(
            "settled state: {} job(s) pending forever; the head wants {} of {} node(s)",
            coord.pending().count(),
            head.nodes,
            states.len()
        );
        (Property::EventualPlacement, detail)
    })
}

/// Replays the ticks leading to state `from`, then `last`, from the
/// initial state into a numbered, human-readable trace. `parents[id]` is
/// the state and move state `id` was first reached from.
fn replay(
    cfg: &CheckConfig,
    phases: Phases,
    parents: &[Option<(usize, Choice)>],
    from: usize,
    last: &Choice,
) -> Vec<String> {
    let mut choices = vec![last];
    let mut cursor = from;
    while let Some(Some((prev, choice))) = parents.get(cursor) {
        choices.push(choice);
        cursor = *prev;
    }
    let mut coord = Coordinator::new(cfg.fleet());
    let mut trace = vec![format!(
        "initial: {} nodes healthy; repair_ticks {}, validation cap {}; budgets: \
         jobs {}, risks {}, incidents {}",
        cfg.nodes,
        cfg.repair_ticks,
        coord.config().validation_cap(),
        cfg.jobs,
        cfg.risks,
        cfg.incidents
    )];
    for choice in choices.into_iter().rev() {
        let tick = coord.tick_index();
        (phases.begin)(&mut coord, choice.arrival.as_slice());
        let summary = (phases.end)(&mut coord, &choice.report);
        let states: Vec<&str> = coord.table().states().iter().map(|s| s.name()).collect();
        trace.push(format!(
            "tick {tick}: {choice} -> {} placed, {} dropped, {} validation(s) started, \
             {} pending; nodes [{}]",
            summary.jobs_started,
            summary.jobs_dropped,
            summary.validations_started,
            summary.pending_jobs,
            states.join(", ")
        ));
    }
    trace
}

/// Exhaustively checks one configuration, driving each tick through
/// `phases`.
///
/// # Errors
///
/// Returns a description when `cfg` is unusable: a fleet fleetd itself
/// rejects, or one too large for exhaustive enumeration (more than 8
/// nodes).
pub fn check(cfg: &CheckConfig, phases: Phases) -> Result<CheckOutcome, String> {
    let fleet = cfg.fleet();
    fleet
        .validate()
        .map_err(|error| format!("invalid fleet: {error}"))?;
    if cfg.nodes > 8 {
        return Err("fleet too large for exhaustive enumeration (at most 8 nodes)".to_owned());
    }
    let initial = Coordinator::new(fleet);
    let budgets = [cfg.jobs, cfg.risks, cfg.incidents];
    let mut seen = BTreeMap::from([(key(&initial, budgets), 0usize)]);
    let mut parents: Vec<Option<(usize, Choice)>> = vec![None];
    let mut queue = VecDeque::from([(initial, 0usize, budgets, 0u32)]);
    let mut transitions = 0usize;

    while let Some((coord, here, budgets, depth)) = queue.pop_front() {
        if depth >= cfg.ticks {
            continue;
        }
        for (arrival, budgets) in arrivals(cfg.nodes, budgets) {
            let mut begun = coord.clone();
            (phases.begin)(&mut begun, arrival.as_slice());
            for (report, left) in reports(begun.table().states(), budgets) {
                transitions = transitions.saturating_add(1);
                let choice = Choice { arrival, report };
                let mut next = begun.clone();
                (phases.end)(&mut next, &choice.report);
                let next_key = key(&next, left);
                let silent = choice.arrival.is_none() && choice.report.proposals.is_empty();
                let settled = silent && seen.get(&next_key) == Some(&here);
                let broken = safety_violation(&next)
                    .or_else(|| settled.then(|| liveness_violation(&next)).flatten());
                if let Some((property, detail)) = broken {
                    let trace = replay(cfg, phases, &parents, here, &choice);
                    return Ok(CheckOutcome {
                        states_explored: parents.len(),
                        transitions,
                        violation: Some(Violation {
                            property,
                            detail,
                            trace,
                        }),
                    });
                }
                if let Entry::Vacant(slot) = seen.entry(next_key) {
                    slot.insert(parents.len());
                    queue.push_back((next, parents.len(), left, depth.saturating_add(1)));
                    parents.push(Some((here, choice)));
                }
            }
        }
    }
    Ok(CheckOutcome {
        states_explored: parents.len(),
        transitions,
        violation: None,
    })
}

/// One configuration's verification result.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// The configuration checked.
    pub config: CheckConfig,
    /// What the search found.
    pub outcome: CheckOutcome,
}

/// Checks every configuration in `configs` through `phases`, in parallel.
///
/// # Errors
///
/// Returns the first configuration error verbatim; property violations
/// are *not* errors — they come back inside [`CheckOutcome::violation`].
pub fn check_grid(
    configs: &[CheckConfig],
    phases: Phases,
    threads: usize,
) -> Result<Vec<ConfigResult>, String> {
    let outcomes = map_items(configs, threads, |config| check(config, phases));
    configs
        .iter()
        .zip(outcomes)
        .map(|(config, outcome)| {
            outcome.map(|outcome| ConfigResult {
                config: *config,
                outcome,
            })
        })
        .collect()
}

/// Renders the human-readable report: one line per configuration plus the
/// first counterexample in full, if any.
pub fn render(results: &[ConfigResult]) -> String {
    let mut out = String::new();
    for ConfigResult { config: c, outcome } in results {
        let verdict = if outcome.violation.is_some() {
            "VIOLATED"
        } else {
            "ok"
        };
        let _ = writeln!(
            out,
            "modelcheck: nodes={} repair_ticks={} validations_per_tick={} jobs={} risks={} \
             incidents={} ticks={}: {} state(s), {} transition(s) — {verdict}",
            c.nodes,
            c.repair_ticks,
            c.validations_per_tick,
            c.jobs,
            c.risks,
            c.incidents,
            c.ticks,
            outcome.states_explored,
            outcome.transitions,
        );
    }
    if let Some(violation) = first_violation(results).and_then(|r| r.outcome.violation.as_ref()) {
        let _ = writeln!(out, "\n{violation}");
    }
    out
}

/// The first violation across the grid, if any.
pub fn first_violation(results: &[ConfigResult]) -> Option<&ConfigResult> {
    results.iter().find(|r| r.outcome.violation.is_some())
}
