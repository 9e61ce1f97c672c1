//! Configuration of the fleetd control plane.

use anubis_traces::{AllocationConfig, IncidentStreamConfig};
use std::fmt;

/// All knobs of a fleetd run. Every field is deterministic input: two
/// runs with equal configs produce byte-identical summaries and tick
/// traces at any `threads` value and any shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetdConfig {
    /// Fleet size in nodes.
    pub nodes: u32,
    /// Worker shard count; shard `s` owns a contiguous node range (see
    /// `anubis_traces::shard_ranges`). Results never depend on it.
    pub shards: u32,
    /// Ticks to run.
    pub ticks: u32,
    /// Virtual hours per tick.
    pub tick_hours: f64,
    /// Fleet seed; every stream (per-node incidents, per-node benchmark
    /// noise, job arrivals) derives from it.
    pub seed: u64,
    /// Worker threads for the shard phase (`0` = `ANUBIS_THREADS` /
    /// hardware default). Results never depend on it.
    pub threads: usize,

    /// Mean time to a fresh node's first incident, in hours. The default
    /// is stress-compressed relative to the paper's 719.4 h so a
    /// 500-tick service run exercises the whole lifecycle loop.
    pub base_mtbi_hours: f64,
    /// Hazard growth per accumulated incident.
    pub wear_factor: f64,
    /// Accumulated-incident count beyond which the hazard stops growing.
    pub wear_cap: u32,
    /// Log-scale spread of per-node frailty (lemon nodes).
    pub frailty_sigma: f64,

    /// Risk horizon the per-shard Selector loop scores against, in
    /// hours.
    pub horizon_hours: f64,
    /// Incident probability over the horizon above which a healthy node
    /// is flagged suspect.
    pub risk_threshold: f64,
    /// Ticks a node is exempt from re-flagging after passing validation
    /// or returning from repair.
    pub cooldown_ticks: u32,
    /// Global cap on validations started per tick (`0` = auto:
    /// `max(8, nodes / 64)`).
    pub validations_per_tick: u32,

    /// Nominal benchmark score of an undamaged node.
    pub base_score: f64,
    /// Relative measurement noise of one benchmark run.
    pub measurement_sigma: f64,
    /// Probability an incident leaves permanent hidden degradation.
    pub damage_probability: f64,
    /// Smallest degradation fraction an incident can leave.
    pub damage_min: f64,
    /// Largest degradation fraction an incident can leave.
    pub damage_max: f64,

    /// Shard-sketch merge / criteria-refresh period, in ticks.
    pub merge_every_ticks: u32,
    /// Defect criteria quantile: a validation score below this quantile
    /// of the merged fleet distribution confirms a defect.
    pub defect_quantile: f64,
    /// Fleet samples required before criteria are applied (build-out
    /// phase passes everything).
    pub min_criteria_samples: usize,

    /// Ticks a quarantined node spends in repair.
    pub repair_ticks: u32,
    /// Target fraction of fleet capacity consumed by jobs.
    pub target_utilization: f64,
    /// Pending-job queue cap; arrivals beyond it are dropped (counted).
    pub max_pending_jobs: usize,
}

impl Default for FleetdConfig {
    fn default() -> Self {
        Self {
            nodes: 2000,
            shards: 8,
            ticks: 50,
            tick_hours: 1.0,
            seed: 42,
            threads: 0,
            base_mtbi_hours: 150.0,
            wear_factor: 1.3,
            wear_cap: 12,
            frailty_sigma: 0.8,
            horizon_hours: 24.0,
            risk_threshold: 0.25,
            cooldown_ticks: 24,
            validations_per_tick: 0,
            base_score: 100.0,
            measurement_sigma: 0.03,
            damage_probability: 0.35,
            damage_min: 0.05,
            damage_max: 0.25,
            merge_every_ticks: 10,
            defect_quantile: 0.05,
            min_criteria_samples: 64,
            repair_ticks: 12,
            target_utilization: 0.9,
            max_pending_jobs: 100_000,
        }
    }
}

/// Why a [`FleetdConfig`] was rejected by [`FleetdConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetdConfigError {
    /// `nodes` is zero.
    NoNodes,
    /// `shards` is zero.
    NoShards,
    /// More shards than nodes: some shard would own no node.
    MoreShardsThanNodes {
        /// Requested shard count.
        shards: u32,
        /// Fleet size.
        nodes: u32,
    },
    /// `ticks` is zero.
    NoTicks,
    /// `tick_hours` is not a finite positive number.
    TickHours(f64),
    /// `defect_quantile` is outside `[0, 1]`.
    DefectQuantile(f64),
}

impl fmt::Display for FleetdConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoNodes => write!(f, "nodes must be at least 1"),
            Self::NoShards => write!(f, "shards must be at least 1"),
            Self::MoreShardsThanNodes { shards, nodes } => {
                write!(f, "shards ({shards}) must not exceed nodes ({nodes})")
            }
            Self::NoTicks => write!(f, "ticks must be at least 1"),
            Self::TickHours(h) => write!(f, "tick_hours must be finite and positive, got {h}"),
            Self::DefectQuantile(q) => write!(f, "defect_quantile must be in [0, 1], got {q}"),
        }
    }
}

impl std::error::Error for FleetdConfigError {}

impl FleetdConfig {
    /// Rejects configurations that would otherwise be silently clamped
    /// (shard counts), run to an empty result (zero nodes or ticks), or
    /// break the tick arithmetic (`tick_hours`, `defect_quantile`).
    pub fn validate(&self) -> Result<(), FleetdConfigError> {
        if self.nodes == 0 {
            return Err(FleetdConfigError::NoNodes);
        }
        if self.shards == 0 {
            return Err(FleetdConfigError::NoShards);
        }
        if self.shards > self.nodes {
            return Err(FleetdConfigError::MoreShardsThanNodes {
                shards: self.shards,
                nodes: self.nodes,
            });
        }
        if self.ticks == 0 {
            return Err(FleetdConfigError::NoTicks);
        }
        if !(self.tick_hours.is_finite() && self.tick_hours > 0.0) {
            return Err(FleetdConfigError::TickHours(self.tick_hours));
        }
        if !(0.0..=1.0).contains(&self.defect_quantile) {
            return Err(FleetdConfigError::DefectQuantile(self.defect_quantile));
        }
        Ok(())
    }

    /// The resolved validations-per-tick cap.
    pub fn validation_cap(&self) -> u32 {
        if self.validations_per_tick == 0 {
            (self.nodes / 64).max(8)
        } else {
            self.validations_per_tick
        }
    }

    /// The per-node incident-stream parameters.
    pub fn incident_stream(&self) -> IncidentStreamConfig {
        IncidentStreamConfig {
            base_mtbi_hours: self.base_mtbi_hours,
            wear_factor: self.wear_factor,
            wear_cap: self.wear_cap,
            frailty_sigma: self.frailty_sigma,
            seed: self.seed,
        }
    }

    /// The coordinator-side job-arrival parameters: Poisson arrivals
    /// sized so steady-state demand is `target_utilization` of fleet
    /// capacity under the default size/duration mix.
    pub fn allocation(&self) -> AllocationConfig {
        let mut cfg = AllocationConfig::stressed(self.nodes.max(1));
        // Mean job ≈ 3.89 nodes × ~34 h under the stressed mix; retarget
        // the arrival rate at the requested utilization.
        let node_hours_per_job = 3.89 * 34.0;
        let capacity_per_hour = f64::from(self.nodes.max(1));
        cfg.mean_interarrival_hours =
            node_hours_per_job / (self.target_utilization.max(1e-3) * capacity_per_hour);
        cfg.seed = self.seed ^ 0x5eed_a110_c000_0001;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected(edit: impl FnOnce(&mut FleetdConfig)) -> FleetdConfigError {
        let mut cfg = FleetdConfig::default();
        edit(&mut cfg);
        cfg.validate().expect_err("config must be rejected")
    }

    #[test]
    fn default_config_is_valid() {
        assert_eq!(FleetdConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_nodes_rejected() {
        assert_eq!(rejected(|c| c.nodes = 0), FleetdConfigError::NoNodes);
    }

    #[test]
    fn zero_shards_rejected() {
        assert_eq!(rejected(|c| c.shards = 0), FleetdConfigError::NoShards);
    }

    #[test]
    fn more_shards_than_nodes_rejected() {
        let error = rejected(|c| {
            c.nodes = 4;
            c.shards = 16;
        });
        assert_eq!(
            error,
            FleetdConfigError::MoreShardsThanNodes {
                shards: 16,
                nodes: 4
            }
        );
        assert_eq!(error.to_string(), "shards (16) must not exceed nodes (4)");
    }

    #[test]
    fn zero_ticks_rejected() {
        assert_eq!(rejected(|c| c.ticks = 0), FleetdConfigError::NoTicks);
    }

    #[test]
    fn non_positive_or_non_finite_tick_hours_rejected() {
        for hours in [0.0, -1.0, f64::INFINITY] {
            assert_eq!(
                rejected(|c| c.tick_hours = hours),
                FleetdConfigError::TickHours(hours)
            );
        }
        assert!(matches!(
            rejected(|c| c.tick_hours = f64::NAN),
            FleetdConfigError::TickHours(h) if h.is_nan()
        ));
    }

    #[test]
    fn defect_quantile_outside_unit_interval_rejected() {
        for q in [-0.01, 1.5] {
            assert_eq!(
                rejected(|c| c.defect_quantile = q),
                FleetdConfigError::DefectQuantile(q)
            );
        }
        assert!(matches!(
            rejected(|c| c.defect_quantile = f64::NAN),
            FleetdConfigError::DefectQuantile(q) if q.is_nan()
        ));
    }
}
