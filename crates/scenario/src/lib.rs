//! # adaptnoc-scenario
//!
//! Time-phased, replayable scenario scripting for the Adapt-NoC
//! reproduction: a tiny DSL ([`lexer`]/[`parser`]/[`ast`]) for `.scn`
//! files that compose open-loop traffic phases, fault strikes, and
//! subNoC reconfiguration triggers; a semantic compiler ([`rules`])
//! resolving them against the chip; and a deterministic executor
//! ([`runner`]) producing offered-vs-accepted, tail-latency, and
//! source-queue measurements per epoch.
//!
//! ```
//! use adaptnoc_scenario::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = parse(
//!     "grid 4 4; warmup 1K; duration 4K; epoch 1K;
//!      region B 2 2 2 2;
//!      t=0 uniform load 0.05;
//!      t=2K hotspot region B load 0.3;  # hotspot storm
//!      t=3K glitch link 1 -> 2 for 500;",
//! )?;
//! // Canonical formatting round-trips.
//! assert_eq!(parse(&scenario.to_string())?, scenario);
//! let plan = compile(&scenario)?;
//! let out = run(&plan, &RunOptions::default())?;
//! assert!(out.delivered > 0);
//! assert!(out.p99 >= out.p50);
//! # Ok(())
//! # }
//! ```
//!
//! The grammar and a worked walkthrough live in `docs/SCENARIOS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod runner;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::ast::{
        Action, Event, FabricAst, LoadAst, PatternAst, Scenario, Sweep, TrafficCmd,
    };
    pub use crate::parser::{parse, ParseError};
    pub use crate::rules::{compile, CompileError, ExecPlan, ReconfigEvent, TrafficEvent};
    pub use crate::runner::{
        run, CancelToken, EpochRow, FaultSummary, RunError, RunOptions, ScenarioOutcome,
    };
}
