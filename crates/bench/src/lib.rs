//! # adaptnoc-bench
//!
//! The experiment harness regenerating every evaluation figure (Figs. 7-19)
//! and overhead table (Sec. V-B) of the Adapt-NoC paper:
//!
//! * [`harness`] — one-design/one-workload runner collecting latency, hop,
//!   energy, execution-time and selection metrics.
//! * [`training`] — the offline DQN training pipeline over the paper's
//!   region-size x application training matrix.
//! * [`figs`] — one function per figure.
//! * [`faults`] — fault-sweep campaign (resilience under seeded faults).
//! * [`scenarios`] — open-system scenario campaign (latency-throughput
//!   curves from checked-in `.scn` files).
//! * [`scaling`] — large-mesh scaling campaign (16x16 through 64x64 flat
//!   meshes plus the 64x64 chiplet fabric, thread-invariant rows).
//! * [`tables`] — area / wiring / timing / reconfiguration-latency tables.
//! * [`watchdog`] — the environment-configurable harness watchdog
//!   (wall-clock + cycle-window) guarding unattended runs.
//! * [`submit`] — the farm-daemon client behind `gen-figures --submit`
//!   (see `docs/FARM.md`).
//!
//! The `gen-figures` binary runs everything and prints the rows the paper
//! reports (normalized to the baseline design).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod faults;
pub mod figs;
pub mod harness;
pub mod jsonrows;
pub mod parallel;
pub mod report;
pub mod scaling;
pub mod scenarios;
pub mod submit;
pub mod tables;
pub mod telemetry;
pub mod training;
pub mod watchdog;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::ablations::{ablation_sweep, AblationRow};
    pub use crate::faults::{fault_sweep_checkpointed, fault_sweep_par, FaultRow};
    pub use crate::figs::{
        fig08, fig09, fig14, fig15, fig16, fig17, fig18, fig19, mixed_campaign, trained_policy,
        FigScale,
    };
    pub use crate::harness::{
        fixed_policies, oracle_policies, oracle_policies_par, run_design, traffic_hint, AppMetrics,
        RunConfig, RunResult,
    };
    pub use crate::parallel::{
        configured_threads, run_checkpointed, run_checkpointed_observed, run_indexed,
        run_indexed_isolated, PartialCampaign, PointFailure,
    };
    pub use crate::report::render_report;
    pub use crate::scaling::{scaling_campaign, ScalingRow};
    pub use crate::scenarios::{
        campaign_loads, load_scenario, scenario_point, scenario_sweep_checkpointed,
        scenario_sweep_par, ScenarioError, ScenarioRow, LATENCY_THROUGHPUT_SCN,
    };
    pub use crate::tables::{
        area_table, reconfig_table, scalability_table, timing_table, wiring_table,
    };
    pub use crate::telemetry::{atomic_write, telemetry_probe, write_metrics};
    pub use crate::training::{
        default_scenarios, paper_training_rects, train_dqn, TrainConfig, TrainScenario,
    };
}
