//! # adaptnoc-topology
//!
//! Topology construction for the Adapt-NoC reproduction: the four subNoC
//! topologies of the paper (mesh, cmesh, torus, tree — Sec. II-B), the
//! combined torus+tree extension (Sec. II-B4), the Flattened Butterfly and
//! Shortcut baselines, dimension-ordered routing-table generation over
//! arbitrary channel graphs, and route/deadlock validation.
//!
//! Builders compile topologies into [`adaptnoc_sim::spec::NetworkSpec`]s that
//! the simulator executes; the Adapt-NoC control layer (`adaptnoc-core`)
//! switches between such specs at runtime.
//!
//! ```
//! use adaptnoc_topology::prelude::*;
//! use adaptnoc_sim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An 8x8 chip split into two subNoCs: a cmesh and a torus.
//! let grid = Grid::paper();
//! let regions = [
//!     RegionTopology::new(Rect::new(0, 0, 4, 8), TopologyKind::Cmesh),
//!     RegionTopology::new(Rect::new(4, 0, 4, 8), TopologyKind::Torus),
//! ];
//! let spec = build_chip_spec(grid, &regions, &SimConfig::adapt_noc())?;
//! let mut net = Network::new(spec, SimConfig::adapt_noc())?;
//! net.run(100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chip;
pub mod chiplet;
pub mod degraded;
pub mod dor;
pub mod ftby;
pub mod geom;
pub mod irregular;
pub mod plan;
pub mod regions;
pub mod shortcut;
pub mod sparse;
pub mod validate;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::chip::{build_chip_spec, mesh_chip};
    pub use crate::chiplet::{chiplet_chip, interchip_channels, ChipletConfig};
    pub use crate::degraded::{degrade_region, surviving_nodes, DegradedPlan};
    pub use crate::dor::{fill_dor_tables, fill_dor_tables_all_vnets, fill_dor_tables_monotone};
    pub use crate::ftby::ftby_chip;
    pub use crate::geom::{Coord, Grid, Rect};
    pub use crate::irregular::irregular_region;
    pub use crate::plan::{express_latency, BuildError, ChipPlan};
    pub use crate::regions::{RegionTopology, TopologyKind};
    pub use crate::shortcut::{choose_shortcut_links, shortcut_chip, TrafficWeight};
    pub use crate::sparse::{sparse_hamming_chip, sparse_hamming_region, SparseHammingParams};
    pub use crate::validate::{
        all_pairs, check_routes_and_deadlock, walk_route, wiring_feasible, RouteStats,
        ValidateError, WiringLimits, WiringReport,
    };
}
