//! # codb-workload
//!
//! Workload generation for the coDB experiments: topology families
//! ([`topology::Topology`]), seeded data generators ([`data_gen`]) and
//! complete scenario builders ([`scenario::Scenario`]) that assemble a
//! validated `NetworkConfig` ready to run on the simulator — the library
//! equivalent of the demo's hand-arranged networks.
//!
//! [`faultplan`] is the one fault harness: seeded, replayable schedules
//! of crash / restart / checkpoint / host-crash / message-loss events,
//! each checked against a never-crashed control network. Its presets
//! cover the durability scenario family, from a single victim killed
//! mid-update and recovered from its `codb-store` data directory
//! ([`FaultPlan::crash_restart`]) to host power cuts under shared group
//! commit. [`parallel`] runs sustained ingest on the threaded runtime
//! against the simulator, plus the host-crash check there, with the same
//! power-cut model as the fault plans.

#![warn(missing_docs)]

pub mod data_gen;
pub mod faultplan;
pub mod parallel;
pub mod scenario;
pub mod simscale;
pub mod topology;

pub use data_gen::{generate, generate_distinct, DataDist};
pub use faultplan::{
    run_fault_plan, run_fault_plan_differential, run_fault_plan_traced, update_events,
    CodecDifferentialReport, Fault, FaultKind, FaultPlan, FaultPlanReport, Round, RoundCost,
};
pub use parallel::{
    run_parallel_host_crash, run_parallel_ingest, ParallelCrashReport, ParallelIngestPlan,
    ParallelIngestReport,
};
pub use scenario::{RuleStyle, Scenario};
pub use simscale::{run_flood, run_flood_traced, FloodMsg, FloodPeer, FloodReport};
pub use topology::Topology;
