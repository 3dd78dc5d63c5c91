//! # adaptnoc-sim
//!
//! A cycle-level network-on-chip simulator: the substrate on which the
//! Adapt-NoC reproduction (HPCA 2021, Zheng/Wang/Louri) is built.
//!
//! The simulator models input-buffered virtual-channel routers with a
//! four-stage (RC/VA/SA/ST) pipeline abstracted as a configurable per-hop
//! latency `T_r`, virtual-cut-through output-VC allocation, credit-based
//! flow control, two virtual networks (request/reply) for protocol-deadlock
//! freedom, dateline VC classes for torus rings, latency- and
//! length-accurate channels, and network interfaces with an optional
//! injection-VC bypass.
//!
//! Configurations are *declarative*: a [`spec::NetworkSpec`] lists routers,
//! channels, NI attachments and routing tables; [`network::Network`]
//! executes a spec and can be *reconfigured* to a new spec at runtime
//! without dropping in-flight traffic — the mechanism underlying Adapt-NoC's
//! dynamic subNoC topology switching.
//!
//! ## Quick start
//!
//! ```
//! use adaptnoc_sim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-router network with one endpoint on each router.
//! let mut spec = NetworkSpec::new(2, 2, 2);
//! let a = PortRef::new(RouterId(0), PortId(0));
//! let b = PortRef::new(RouterId(1), PortId(1));
//! spec.add_channel(mesh_channel(a, b));
//! spec.add_channel(mesh_channel(b, a));
//! spec.add_ni(NiSpec::local(NodeId(0), RouterId(0), LOCAL_PORT));
//! spec.add_ni(NiSpec::local(NodeId(1), RouterId(1), LOCAL_PORT));
//! for v in 0..2 {
//!     spec.tables.set(Vnet(v), RouterId(0), NodeId(0), LOCAL_PORT);
//!     spec.tables.set(Vnet(v), RouterId(0), NodeId(1), PortId(0));
//!     spec.tables.set(Vnet(v), RouterId(1), NodeId(1), LOCAL_PORT);
//!     spec.tables.set(Vnet(v), RouterId(1), NodeId(0), PortId(1));
//! }
//!
//! let mut net = Network::new(spec, SimConfig::baseline())?;
//! net.inject(Packet::request(1, NodeId(0), NodeId(1), 0))?;
//! net.run(32);
//! assert_eq!(net.totals().stats.packets, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arbiter;
pub(crate) mod bitset;
pub mod config;
pub mod events;
pub mod flit;
pub mod health;
pub mod ids;
pub mod json;
pub mod network;
pub(crate) mod packets;
pub mod rng;
pub mod routing;
pub(crate) mod soa;
pub mod spec;
pub(crate) mod stage;
pub mod stats;
pub mod telem;
pub mod trace;
pub(crate) mod wire;

pub use adaptnoc_telemetry as telemetry;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::config::{SimConfig, CONTROL_PACKET_FLITS, DATA_PACKET_FLITS};
    pub use crate::events::{EventCounts, StaticCycles};
    pub use crate::flit::{FlitPos, Packet, PacketKind};
    pub use crate::health::{
        FlightRecorder, GuardMode, HealthCounts, InvariantKind, InvariantViolation, StallKind,
        StallReport, Watchdog, WatchdogConfig,
    };
    pub use crate::ids::{ChannelId, Direction, NodeId, PortId, RouterId, Vnet, LOCAL_PORT};
    pub use crate::network::{Network, NetworkError};
    pub use crate::rng::Rng;
    pub use crate::routing::RoutingTables;
    pub use crate::spec::{
        mesh_channel, ChannelKey, ChannelKind, ChannelSpec, NetworkSpec, NiSpec, PortRef,
        RouterSpec, SpecError,
    };
    pub use crate::stats::{CycleHistogram, Delivered, EpochReport, NetStats};
    pub use crate::telem::SimTelemetry;
    pub use crate::trace::{TraceBuffer, TraceEvent, TraceFilter};
    pub use adaptnoc_telemetry::{Registry, TelemetryMode};
}
