//! ANUBIS: proactive validation for cloud AI infrastructure.
//!
//! This crate ties the whole system together, mirroring the paper's
//! architecture (Figure 7): the [`Anubis`] facade owns a
//! [`anubis_validator::Validator`] (criteria + defect filtering) and an
//! optional [`anubis_selector::Selector`] (incident-probability model +
//! Algorithm 1 subset selection), tracks per-node statuses, reacts to
//! orchestration [`events`], and feeds newly-found defects back into the
//! coverage history so the system "evolves in tandem with the latest node
//! statuses".
//!
//! Sub-crates are re-exported under short names so downstream users need a
//! single dependency:
//!
//! ```
//! use anubis::hwsim::{NodeId, NodeSim, NodeSpec};
//!
//! let node = NodeSim::new(NodeId(0), NodeSpec::a100_8x(), 7);
//! assert_eq!(node.spec().gpus, 8);
//! ```

pub mod events;
pub mod system;

pub use events::{EventOutcome, ValidationEvent};
pub use system::{Anubis, AnubisConfig};

pub use anubis_benchsuite as benchsuite;
pub use anubis_cluster as cluster;
pub use anubis_hwsim as hwsim;
pub use anubis_metrics as metrics;
pub use anubis_netsim as netsim;
pub use anubis_nn as nn;
pub use anubis_selector as selector;
pub use anubis_traces as traces;
pub use anubis_validator as validator;
pub use anubis_workload as workload;
