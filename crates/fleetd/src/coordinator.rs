//! The fleetd coordinator: the decision-making primary of the service.
//!
//! The coordinator owns everything a decision depends on — the
//! [`LifecycleTable`], job placement, the validation budget, the repair
//! pipeline, and the fleet-wide defect criteria — while the
//! [`ShardWorker`]s own the data movement (incident ingestion, status
//! covariates, benchmark execution). One [`Coordinator::step`] is a
//! virtual-time tick: [`Coordinator::begin_tick`] runs phases 1–3, the
//! shards run phase 4, and [`Coordinator::end_tick`] runs phases 5–7.
//! The two halves are public so `cargo xtask modelcheck` can drive the
//! same decision code with arrivals and proposals of its own choosing.
//!
//! 1. finish repairs that came due and return those nodes to service,
//! 2. complete jobs whose duration elapsed,
//! 3. ingest job arrivals and place the pending queue FIFO onto healthy
//!    nodes (ascending node order),
//! 4. run every shard's [`ShardWorker::tick`] on the deterministic
//!    executor (this is the only parallel phase),
//! 5. apply shard proposals **in fixed shard order** — quarantines kill
//!    the victim's job and enqueue a repair,
//! 6. start validations on suspect nodes, ascending, up to the per-tick
//!    budget, and
//! 7. periodically refresh the defect criteria: the fleet-wide
//!    `defect_quantile` of every shard sketch's samples, selected by rank
//!    straight from the shards' sorted runs
//!    ([`anubis_metrics::EcdfSketch::quantile_of`]) — no merged sketch is
//!    built, so the refresh never re-reads the sample history.
//!
//! Jobs live in a slab whose slots are recycled, so the job table is
//! bounded by the peak number of outstanding jobs, not by how many jobs
//! the run has placed.
//!
//! Because shard ranges are contiguous and ascending, "shard order" in
//! step 5 equals global node order — which is why the service's output is
//! byte-identical for any shard count and any `ANUBIS_THREADS`.

use crate::config::FleetdConfig;
use crate::shard::{ShardReport, ShardWorker, TickContext};
use anubis_lifecycle::{LifecycleEvent, LifecycleTable, StateCounts};
use anubis_metrics::EcdfSketch;
use anubis_parallel::map_chunks_mut;
use anubis_traces::{shard_ranges, AllocationStream, JobArrival};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Sentinel for "node serves no job" in the node→job map.
const NO_JOB: u32 = u32::MAX;

/// One slot of the job slab: a live job, or a killed one whose due entry
/// has not come up yet. A slot is released only when its due entry is
/// consumed, so no stale due entry can ever name a reused slot.
#[derive(Debug, Clone)]
struct Job {
    /// Nodes the job occupies, ascending. Reused slots keep the capacity.
    nodes: Vec<u32>,
    /// Cleared when the job completes or is killed by a quarantine.
    alive: bool,
}

/// One tick's observable outcome, in both the live summary and the JSONL
/// trace. All fields are deterministic functions of the config.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TickSummary {
    /// Tick index.
    pub tick: u32,
    /// Virtual hour at the end of the tick window.
    pub hour: f64,
    /// Incidents ingested across all shards.
    pub incidents: usize,
    /// Validation benchmark samples appended across all shards.
    pub samples: usize,
    /// Lifecycle proposals emitted by the shards.
    pub proposals: usize,
    /// Validations started by the coordinator this tick.
    pub validations_started: u32,
    /// Nodes confirmed defective by a benchmark verdict this tick.
    pub defects_confirmed: usize,
    /// Nodes quarantined by an under-stress incident this tick.
    pub incident_quarantines: usize,
    /// Repairs completed (nodes returned to service) this tick.
    pub repairs_completed: usize,
    /// Jobs placed this tick.
    pub jobs_started: usize,
    /// Jobs that ran to completion this tick.
    pub jobs_completed: usize,
    /// Jobs killed because a member node was quarantined this tick.
    pub jobs_killed: usize,
    /// Arrivals dropped this tick: larger than the fleet, or beyond the
    /// pending-queue cap.
    pub jobs_dropped: usize,
    /// Jobs awaiting placement after this tick.
    pub pending_jobs: usize,
    /// Lifecycle census after this tick.
    pub counts: StateCounts,
    /// Defect criteria in force during this tick (`None` in build-out).
    pub criteria_threshold: Option<f64>,
}

impl TickSummary {
    /// Appends this tick as one JSONL line (including the trailing
    /// newline). Field order and float formatting are fixed, so traces
    /// byte-compare across thread and shard counts.
    pub fn write_jsonl(&self, out: &mut String) {
        let c = &self.counts;
        let _ = write!(
            out,
            "{{\"tick\":{},\"hour\":{:.3},\"incidents\":{},\"samples\":{},\"proposals\":{},\
             \"validations_started\":{},\"defects_confirmed\":{},\"incident_quarantines\":{},\
             \"repairs_completed\":{},\"jobs_started\":{},\"jobs_completed\":{},\
             \"jobs_killed\":{},\"jobs_dropped\":{},\"pending_jobs\":{},\
             \"healthy\":{},\"busy\":{},\"suspect\":{},\"validating\":{},\
             \"quarantined\":{},\"repaired\":{},\"criteria\":",
            self.tick,
            self.hour,
            self.incidents,
            self.samples,
            self.proposals,
            self.validations_started,
            self.defects_confirmed,
            self.incident_quarantines,
            self.repairs_completed,
            self.jobs_started,
            self.jobs_completed,
            self.jobs_killed,
            self.jobs_dropped,
            self.pending_jobs,
            c.healthy,
            c.busy,
            c.suspect,
            c.validating,
            c.quarantined,
            c.repaired,
        );
        match self.criteria_threshold {
            Some(t) => {
                let _ = write!(out, "{t:.6}");
            }
            None => out.push_str("null"),
        }
        out.push_str("}\n");
    }
}

/// Whole-run totals, reported once at the end.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetSummary {
    /// Ticks executed.
    pub ticks: u32,
    /// Fleet size.
    pub nodes: u32,
    /// Shard count (affects nothing but the parallel decomposition).
    pub shards: u32,
    /// Total incidents ingested.
    pub incidents: u64,
    /// Total validation benchmark samples.
    pub samples: u64,
    /// Total validations started.
    pub validations: u64,
    /// Defects confirmed by benchmark verdicts.
    pub defects_confirmed: u64,
    /// Quarantines triggered by under-stress incidents.
    pub incident_quarantines: u64,
    /// Repairs completed.
    pub repairs: u64,
    /// Jobs placed.
    pub jobs_started: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs killed by quarantines.
    pub jobs_killed: u64,
    /// Arrivals dropped: larger than the fleet, or beyond the
    /// pending-queue cap.
    pub jobs_dropped: u64,
    /// Final lifecycle census.
    pub final_counts: StateCounts,
    /// Defect criteria in force at the end (`None` if never established).
    pub criteria_threshold: Option<f64>,
}

impl FleetSummary {
    /// Renders the deterministic end-of-run summary block (stable line
    /// order). Deliberately omits everything that is *not* part of the
    /// determinism contract: the shard count, the thread count, and any
    /// wall-clock timing — those belong on stderr. The block is therefore
    /// byte-identical across `ANUBIS_THREADS` *and* shard counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let c = &self.final_counts;
        let _ = writeln!(out, "fleetd summary");
        let _ = writeln!(out, "  fleet: {} nodes, {} ticks", self.nodes, self.ticks);
        let _ = writeln!(
            out,
            "  events: {} incidents, {} benchmark samples",
            self.incidents, self.samples
        );
        let _ = writeln!(
            out,
            "  validation: {} started, {} defects, {} incident quarantines, {} repairs",
            self.validations, self.defects_confirmed, self.incident_quarantines, self.repairs
        );
        let _ = writeln!(
            out,
            "  jobs: {} started, {} completed, {} killed, {} dropped",
            self.jobs_started, self.jobs_completed, self.jobs_killed, self.jobs_dropped
        );
        let _ = writeln!(
            out,
            "  final: {} healthy, {} busy, {} suspect, {} validating, {} quarantined, {} repaired",
            c.healthy, c.busy, c.suspect, c.validating, c.quarantined, c.repaired
        );
        match self.criteria_threshold {
            Some(t) => {
                let _ = writeln!(out, "  criteria: score >= {t:.6}");
            }
            None => {
                let _ = writeln!(out, "  criteria: (build-out)");
            }
        }
        out
    }
}

/// The sharded continuous-validation service (see the module docs).
/// Cloning forks the whole service state (benchmark setups use this to
/// re-run a warmed fleet from a snapshot).
#[derive(Debug, Clone)]
pub struct Coordinator {
    cfg: FleetdConfig,
    table: LifecycleTable,
    shards: Vec<ShardWorker>,
    alloc: AllocationStream,
    pending: VecDeque<JobArrival>,
    /// The job slab, indexed by job id; `free_slots` holds released ids.
    jobs: Vec<Job>,
    free_slots: Vec<u32>,
    job_of: Vec<u32>,
    due: BTreeMap<u32, Vec<u32>>,
    repair_queue: VecDeque<(u32, u32)>,
    criteria_threshold: Option<f64>,
    tick: u32,
    totals: FleetSummary,
    // Persistent scratch (steady state allocates only for new due ticks
    // and slab growth).
    repaired_now: Vec<u32>,
    arrivals: Vec<JobArrival>,
    free: Vec<u32>,
    proposals: ShardReport,
    /// Phase 1–3 counts of the tick between `begin_tick` and `end_tick`.
    open: TickSummary,
}

impl Coordinator {
    /// Builds the service: one lifecycle table, `shards` workers over
    /// contiguous node ranges, and the arrival stream.
    ///
    /// Precondition: `cfg` passes [`FleetdConfig::validate`]. This
    /// constructor stays infallible and does not check it; callers taking
    /// configuration from users (`repro fleetd`) validate first. An invalid
    /// config never panics here, but its shard count is clamped to
    /// `1..=nodes` and its run may be empty or degenerate.
    pub fn new(cfg: FleetdConfig) -> Self {
        let ranges = shard_ranges(cfg.nodes, cfg.shards);
        let shards: Vec<ShardWorker> = ranges
            .into_iter()
            .map(|r| ShardWorker::new(&cfg, r))
            .collect();
        let alloc = AllocationStream::new(&cfg.allocation());
        Self {
            table: LifecycleTable::new(cfg.nodes as usize),
            shards,
            alloc,
            pending: VecDeque::new(),
            jobs: Vec::new(),
            free_slots: Vec::new(),
            job_of: vec![NO_JOB; cfg.nodes as usize],
            due: BTreeMap::new(),
            repair_queue: VecDeque::new(),
            criteria_threshold: None,
            tick: 0,
            totals: FleetSummary {
                nodes: cfg.nodes,
                shards: cfg.shards.clamp(1, cfg.nodes.max(1)),
                ..FleetSummary::default()
            },
            repaired_now: Vec::new(),
            arrivals: Vec::new(),
            free: Vec::new(),
            proposals: ShardReport::default(),
            open: TickSummary::default(),
            cfg,
        }
    }

    /// The run configuration.
    pub fn config(&self) -> &FleetdConfig {
        &self.cfg
    }

    /// The lifecycle table (decision state).
    pub fn table(&self) -> &LifecycleTable {
        &self.table
    }

    /// Mutable lifecycle table access, e.g. to enable the transition
    /// journal before a run.
    pub fn table_mut(&mut self) -> &mut LifecycleTable {
        &mut self.table
    }

    /// The shard workers, in shard (= node) order.
    pub fn shards(&self) -> &[ShardWorker] {
        &self.shards
    }

    /// The defect criteria currently in force.
    pub fn criteria_threshold(&self) -> Option<f64> {
        self.criteria_threshold
    }

    /// Ticks executed so far.
    pub fn tick_index(&self) -> u32 {
        self.tick
    }

    /// Slots in the job slab: the peak of [`Coordinator::outstanding_jobs`]
    /// so far, never the number of jobs ever placed.
    pub fn job_slots(&self) -> usize {
        self.jobs.len()
    }

    /// Jobs holding a slab slot: live jobs plus killed ones whose due tick
    /// has not come yet.
    pub fn outstanding_jobs(&self) -> usize {
        self.jobs.len() - self.free_slots.len()
    }

    /// Jobs awaiting placement, in FIFO order.
    pub fn pending(&self) -> impl Iterator<Item = &JobArrival> {
        self.pending.iter()
    }

    /// Live jobs as `(due tick, job id, member nodes)`, ordered by due
    /// tick. Killed jobs whose due tick has not come yet are not listed.
    pub fn live_jobs(&self) -> impl Iterator<Item = (u32, u32, &[u32])> {
        self.due.iter().flat_map(move |(&due, ids)| {
            ids.iter().filter_map(move |&id| {
                let job = self.jobs.get(id as usize)?;
                job.alive.then_some((due, id, job.nodes.as_slice()))
            })
        })
    }

    /// The id of the live job `node` serves, if any.
    pub fn job_of(&self, node: u32) -> Option<u32> {
        self.job_of
            .get(node as usize)
            .copied()
            .filter(|&id| id != NO_JOB)
    }

    /// Queued repairs as `(ready tick, node)`, in completion order.
    pub fn repairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.repair_queue.iter().copied()
    }

    /// The virtual-hour window `[t0, t1)` of the current tick.
    fn window(&self) -> (f64, f64) {
        (
            f64::from(self.tick) * self.cfg.tick_hours,
            f64::from(self.tick + 1) * self.cfg.tick_hours,
        )
    }

    /// Executes one tick and returns its summary: [`Coordinator::begin_tick`]
    /// on the allocation stream's arrivals, every shard's
    /// [`ShardWorker::tick`] in parallel, then [`Coordinator::end_tick`] on
    /// the shard reports concatenated in shard order.
    pub fn step(&mut self) -> TickSummary {
        let (t0, t1) = self.window();
        anubis_obs::set_time(t0);
        let _span = anubis_obs::span!("fleetd.tick");

        let mut arrivals = std::mem::take(&mut self.arrivals);
        arrivals.clear();
        self.alloc.poll(t1, &mut arrivals);
        self.begin_tick(&arrivals);
        self.arrivals = arrivals;

        // 4. The parallel shard phase (the only one). The snapshot the
        // shards see includes this tick's placements and repairs.
        let ctx = TickContext {
            tick: self.tick,
            t0,
            t1,
            horizon_hours: self.cfg.horizon_hours,
            risk_threshold: self.cfg.risk_threshold,
            criteria_threshold: self.criteria_threshold,
            cooldown_ticks: self.cfg.cooldown_ticks,
        };
        let states = self.table.states();
        let repaired = self.repaired_now.as_slice();
        map_chunks_mut(&mut self.shards, 1, self.cfg.threads, |_, chunk| {
            for shard in chunk {
                shard.tick(&ctx, states, repaired);
            }
        });
        let mut proposals = std::mem::take(&mut self.proposals);
        proposals.reset();
        for shard in &self.shards {
            let report = shard.report();
            proposals.proposals.extend_from_slice(&report.proposals);
            proposals.incidents += report.incidents;
            proposals.samples += report.samples;
        }
        let summary = self.end_tick(&proposals);
        self.proposals = proposals;
        summary
    }

    /// Phases 1–3 of a tick: finishes due repairs and jobs, admits
    /// `arrivals` to the pending queue, and places the queue FIFO onto
    /// healthy nodes. [`Coordinator::end_tick`] closes the tick.
    pub fn begin_tick(&mut self, arrivals: &[JobArrival]) {
        let tick = self.tick;
        let mut open = TickSummary {
            tick,
            hour: self.window().1,
            ..TickSummary::default()
        };

        // 1. Repairs that came due: Quarantined -> Repaired -> Healthy,
        // and tell the shards to rejuvenate the hardware.
        self.repaired_now.clear();
        while let Some(&(ready, node)) = self.repair_queue.front() {
            if ready > tick {
                break;
            }
            self.repair_queue.pop_front();
            if self
                .table
                .apply_if_legal(node as usize, LifecycleEvent::RepairCompleted)
                && self
                    .table
                    .apply_if_legal(node as usize, LifecycleEvent::ReturnedToService)
            {
                self.repaired_now.push(node);
                open.repairs_completed += 1;
            }
        }
        self.repaired_now.sort_unstable();

        // 2. Jobs whose duration elapsed. Consuming a due entry releases
        // its slot, whether the job completes now or was killed earlier.
        if let Some(due_jobs) = self.due.remove(&tick) {
            for job_id in due_jobs {
                self.free_slots.push(job_id);
                if self.end_job(job_id) {
                    open.jobs_completed += 1;
                }
            }
        }

        // 3. Arrivals and FIFO placement onto healthy nodes. A job larger
        // than the fleet could never be placed and would block the FIFO
        // head forever, so it is dropped at admission.
        for &arrival in arrivals {
            if arrival.nodes > self.cfg.nodes || self.pending.len() >= self.cfg.max_pending_jobs {
                open.jobs_dropped += 1;
            } else {
                self.pending.push_back(arrival);
            }
        }
        self.free.clear();
        for (node, state) in self.table.states().iter().enumerate() {
            if state.is_healthy() {
                self.free.push(node as u32);
            }
        }
        let mut next_free = 0usize;
        while let Some(front) = self.pending.front() {
            let want = front.nodes as usize;
            if want == 0 {
                self.pending.pop_front();
                continue;
            }
            let Some(members) = self.free.get(next_free..next_free + want) else {
                break; // head-of-line blocks until capacity frees up
            };
            let Some(arrival) = self.pending.pop_front() else {
                break;
            };
            let job_id = self.free_slots.pop().unwrap_or_else(|| {
                self.jobs.push(Job {
                    nodes: Vec::new(),
                    alive: false,
                });
                (self.jobs.len() - 1) as u32
            });
            for &node in members {
                self.table
                    .apply_if_legal(node as usize, LifecycleEvent::JobAssigned);
                if let Some(slot) = self.job_of.get_mut(node as usize) {
                    *slot = job_id;
                }
            }
            if let Some(job) = self.jobs.get_mut(job_id as usize) {
                job.nodes.clear();
                job.nodes.extend_from_slice(members);
                job.alive = true;
            }
            let duration_ticks =
                ((arrival.duration_hours / self.cfg.tick_hours).ceil() as u32).max(1);
            self.due
                .entry(tick.saturating_add(duration_ticks))
                .or_default()
                .push(job_id);
            next_free += want;
            open.jobs_started += 1;
        }
        self.open = open;
    }

    /// Phases 5–7 of a tick, after [`Coordinator::begin_tick`]: applies
    /// the shards' `proposals` in order, starts validations, refreshes
    /// the criteria, and returns the tick's summary.
    pub fn end_tick(&mut self, proposals: &ShardReport) -> TickSummary {
        let tick = self.tick;
        let mut summary = self.open;
        summary.incidents = proposals.incidents;
        summary.samples = proposals.samples;
        summary.proposals = proposals.proposals.len();

        // 5. Apply proposals in fixed shard order (= global node order).
        for &(node, event) in &proposals.proposals {
            if !self.table.apply_if_legal(node as usize, event) {
                continue;
            }
            match event {
                LifecycleEvent::IncidentObserved => {
                    summary.incident_quarantines += 1;
                    if self.kill_job_of(node) {
                        summary.jobs_killed += 1;
                    }
                    self.repair_queue
                        .push_back((tick.saturating_add(self.cfg.repair_ticks), node));
                }
                LifecycleEvent::DefectConfirmed => {
                    summary.defects_confirmed += 1;
                    self.repair_queue
                        .push_back((tick.saturating_add(self.cfg.repair_ticks), node));
                }
                _ => {}
            }
        }

        // 6. Start validations on suspects, ascending, up to the budget.
        // `ValidationStarted` is only legal from suspect, so attempting
        // it *is* the suspect check.
        let cap = self.cfg.validation_cap();
        for node in 0..self.cfg.nodes {
            if summary.validations_started >= cap {
                break;
            }
            if self
                .table
                .apply_if_legal(node as usize, LifecycleEvent::ValidationStarted)
            {
                summary.validations_started += 1;
            }
        }

        // 7. Periodic criteria refresh by rank selection over the shard
        // sketches (a zero period, rejected by `validate`, never refreshes).
        if (tick + 1).is_multiple_of(self.cfg.merge_every_ticks) {
            let _merge = anubis_obs::span!("fleetd.merge");
            let samples: usize = self.shards.iter().map(|s| s.sketch().len()).sum();
            if samples >= self.cfg.min_criteria_samples {
                self.criteria_threshold =
                    EcdfSketch::quantile_of(&self.shards, self.cfg.defect_quantile);
            }
        }

        summary.counts = self.table.counts();
        summary.pending_jobs = self.pending.len();
        summary.criteria_threshold = self.criteria_threshold;
        anubis_obs::set_time(summary.hour); // the open tick span covers [t0, t1]
        anubis_obs::counter!("fleetd.incidents", summary.incidents as i64);
        anubis_obs::counter!("fleetd.samples", summary.samples as i64);
        anubis_obs::counter!("fleetd.validations", i64::from(summary.validations_started));
        anubis_obs::counter!(
            "fleetd.quarantines",
            (summary.defects_confirmed + summary.incident_quarantines) as i64
        );

        self.tick += 1;
        let totals = &mut self.totals;
        totals.ticks = self.tick;
        totals.incidents += summary.incidents as u64;
        totals.samples += summary.samples as u64;
        totals.validations += u64::from(summary.validations_started);
        totals.defects_confirmed += summary.defects_confirmed as u64;
        totals.incident_quarantines += summary.incident_quarantines as u64;
        totals.repairs += summary.repairs_completed as u64;
        totals.jobs_started += summary.jobs_started as u64;
        totals.jobs_completed += summary.jobs_completed as u64;
        totals.jobs_killed += summary.jobs_killed as u64;
        totals.jobs_dropped += summary.jobs_dropped as u64;
        totals.final_counts = summary.counts;
        totals.criteria_threshold = self.criteria_threshold;
        summary
    }

    /// Ends live job `job_id`: every member still mapped to it returns to
    /// healthy. Returns whether the job was live.
    fn end_job(&mut self, job_id: u32) -> bool {
        let Some(job) = self.jobs.get_mut(job_id as usize) else {
            return false;
        };
        if !job.alive {
            return false;
        }
        job.alive = false;
        for &member in &job.nodes {
            if let Some(slot) = self.job_of.get_mut(member as usize) {
                if *slot == job_id {
                    self.table
                        .apply_if_legal(member as usize, LifecycleEvent::JobCompleted);
                    *slot = NO_JOB;
                }
            }
        }
        true
    }

    /// Kills the job occupying `node` (the node itself was just
    /// quarantined): surviving members return to healthy, the job's due
    /// entry is left to lapse and releases the slot when consumed.
    /// Returns whether a live job was killed.
    fn kill_job_of(&mut self, node: u32) -> bool {
        let Some(slot) = self.job_of.get_mut(node as usize) else {
            return false;
        };
        let job_id = std::mem::replace(slot, NO_JOB);
        self.end_job(job_id)
    }

    /// Runs `ticks` ticks, invoking `on_tick` after each, and returns the
    /// run totals.
    pub fn run(&mut self, ticks: u32, mut on_tick: impl FnMut(&TickSummary)) -> FleetSummary {
        for _ in 0..ticks {
            // A path call, so the call graph resolves it to this impl.
            let summary = Self::step(self);
            on_tick(&summary);
        }
        self.totals
    }

    /// The run totals so far.
    pub fn totals(&self) -> FleetSummary {
        self.totals
    }
}
