//! # adaptnoc-workloads
//!
//! Synthetic workload models substituting for the paper's Parsec/Rodinia
//! full-system runs: 14 named closed-loop application profiles
//! ([`profiles`]), the core/MC/L2 service engine that drives the network
//! and measures execution time ([`engine`]), and the one open-loop traffic
//! generator ([`open::OpenLoopEngine`]) behind every sweep, `.scn`
//! scenario and scaling run: an arrival process, a destination pattern
//! and a rate shape ([`open::TrafficSpec`]). [`traffic`] keeps the
//! generator's former names for the benchmark package.
//!
//! ```
//! use adaptnoc_workloads::prelude::*;
//! use adaptnoc_core::prelude::*;
//! use adaptnoc_topology::prelude::*;
//! use adaptnoc_sim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let layout = ChipLayout::single(Rect::new(0, 0, 4, 4), false);
//! let spec = mesh_chip(layout.grid, &SimConfig::baseline())?;
//! let mut net = Network::new(spec, SimConfig::baseline())?;
//! let mut wl = Workload::new(&layout, &[by_name("CA").unwrap()], 42);
//! for _ in 0..1000 {
//!     wl.tick(&mut net);
//!     net.step();
//! }
//! assert!(wl.apps[0].epoch.requests > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod open;
pub mod profiles;
pub mod traffic;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::engine::{AppInstance, EpochCounters, MemoryParams, Workload};
    pub use crate::open::{
        Arrival, DestPattern, OpenLoopEngine, OpenStats, RateShape, TrafficSpec,
    };
    pub use crate::profiles::{
        by_name, parsec_suite, rodinia_suite, AppClass, AppProfile, PhaseParams,
    };
}
