//! # scenario — declarative adversary-vs-defense scenarios
//!
//! One checked-in JSON plan (`ddosim.scenario/1`) composes a full
//! experiment: the world (topology, churn, recruitment), an attack
//! schedule, an embedded fault plan, the defense deployments arrayed
//! against the botnet, and optional rival botnet pressure. Plans are
//! validated strictly at parse time — schema version pinned, unknown
//! fields rejected at every level — and execute deterministically: all
//! deployments are forkable scheduled calls, and any randomized choice
//! draws from the scenario's own RNG stream
//! (`world_seed ^ plan_seed ^ SCENARIO_TAG`), leaving the simulator's
//! streams untouched. An empty scenario is a strict no-op against the
//! same world built by a plain `Ddosim::new`.
//!
//! # Examples
//!
//! ```no_run
//! use scenario::ScenarioPlan;
//!
//! let text = std::fs::read_to_string("plans/rate_limit.scenario.json").unwrap();
//! let plan = ScenarioPlan::parse(&text).expect("valid plan");
//! let result = plan.build().expect("valid configuration").run_to_completion();
//! println!("{:.1} kbps at TServer", result.avg_received_data_rate_kbps);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exec;
pub mod plan;
pub mod sweep;

pub use exec::SCENARIO_TAG;
pub use plan::{DefenseSpec, RivalSpec, ScenarioPlan, SCENARIO_SCHEMA};
pub use sweep::{run_grid_streamed, CellOutcome, GridCell, SweepGridPlan, SWEEPGRID_SCHEMA};
